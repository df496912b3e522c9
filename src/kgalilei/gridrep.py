"""Finite Galilei transformations acting on sampled momentum-space wavepackets.

The classical Galilei group element (tau, a, v, R) multiplies by

    tau'' = tau + tau'      a'' = R a' + v tau' + a
    v''   = R v' + v        R''  = R R'

and acts projectively on a momentum wavefunction (spin 0) by

    psi(p) -> exp(i(-p^2 tau / (2 m_f) + p . a)) psi(R^{-1} p - m_f v)

R is one of the 24 cube rotations (``CUBE_ROTATIONS``), which the product
and the inverse never leave, so ``act`` resamples by strided slab copies,
with numpy alone.  The composition of two such actions differs from the
action of the product by a constant phase (the 2-cocycle); ``cocycle_phase``
extracts it numerically and checks that the pointwise ratio really is
grid-constant.  The closed form exp(i m_f (v^2 tau' / 2 + v . R a')) is
validated against this extraction in the tests, never assumed.

``cocycle_phase`` computes act(g g') psi, whose amplitude picks the points
the ratio reads, only on the output box that reads psi's support: the input
box where psi reaches half the amplitude cut.  An amplitude bound certifies
that no point outside that box reaches the cut; where it cannot, the action
is rerun on the whole grid.  act(g) act(g') psi is computed only on the
bounding box of the kept points, and act(g') psi only on the input box that
box reads.  Each boxed sample goes through the same operations, in the same
order, as on the whole grid.  The actions write into a workspace of three
complex n^3 grids, kept for the last grid size, so repeated extractions on
one grid allocate no grid; calls from several threads at once are not
supported.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .report import CheckFailure

__all__ = [
    "GroupElement",
    "GridWavefunction",
    "OutOfGridError",
    "ProjectivityError",
    "galilei_multiply",
    "act",
    "cocycle_phase",
    "cocycle_angle",
    "expected_cocycle_angle",
    "angle_difference",
    "gaussian_packet",
    "CUBE_ROTATIONS",
    "random_in_grid_element",
    "random_in_grid_tuple",
]

#: Points below this fraction of the peak amplitude are left out of the
#: composition ratio in ``cocycle_phase``.
AMPLITUDE_CUT = 0.05
#: Largest deviation of that ratio from its mean that ``cocycle_phase`` accepts.
SPREAD_TOL = 1e-6


class OutOfGridError(ValueError):
    """Raised when a boost would shift the wavepacket outside the grid."""


class ProjectivityError(CheckFailure):
    """Raised when the composition ratio is not constant across the grid."""

    def __init__(self, spread: float):
        super().__init__(f"composition ratio varies across the grid (spread {spread:.3e})", spread)
        self.spread = spread


def _rotation_key(R: np.ndarray) -> tuple:
    return tuple(R.ravel().tolist())


def _cube_rotations() -> dict[tuple, tuple[np.ndarray, tuple, tuple]]:
    """The 24 cube rotations R, in a fixed order, each keyed by its entries' values.

    A key compares values, so -0.0 and 0.0 are one entry.  Each value holds
    the read-only matrix and, for each axis i of R^{-1}, the axis it reads
    and the sign it reads it with: R^{-1} p has p[cols[i]] * signs[i] at i.
    """
    table = {}
    for perm in itertools.permutations(range(3)):
        for row_signs in itertools.product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = row_signs
            if np.linalg.det(R) > 0:
                R.setflags(write=False)
                cols = tuple(perm.index(i) for i in range(3))
                signs = tuple(row_signs[row] for row in cols)
                table[_rotation_key(R)] = (R, cols, signs)
    return table


_ROTATIONS = _cube_rotations()

#: The 24 cube rotations, the only rotations a ``GroupElement`` carries.  The
#: matrices are shared and read-only; the order is fixed, so seeded draws
#: from this table are reproducible.
CUBE_ROTATIONS = tuple(R for R, _, _ in _ROTATIONS.values())


@dataclass(frozen=True)
class GroupElement:
    """One classical Galilei transformation (time shift, translation, boost, rotation).

    R must equal one of ``CUBE_ROTATIONS`` (any other matrix raises
    ValueError), and the element keeps that table's own matrix.
    """

    tau: float = 0.0
    a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    R: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        R = np.asarray(self.R, dtype=float)
        entry = _ROTATIONS.get(_rotation_key(R)) if R.shape == (3, 3) else None
        if entry is None:
            raise ValueError("a group element's rotation must be one of the 24 cube rotations")
        object.__setattr__(self, "R", entry[0])

    def inverse(self) -> "GroupElement":
        Rinv = self.R.T
        return GroupElement(
            tau=-self.tau,
            a=-Rinv @ (self.a - self.v * self.tau),
            v=-Rinv @ self.v,
            R=Rinv,
        )


def galilei_multiply(g: GroupElement, gp: GroupElement) -> GroupElement:
    """Group product g * g'."""
    return GroupElement(
        tau=g.tau + gp.tau,
        a=g.R @ gp.a + g.v * gp.tau + g.a,
        v=g.R @ gp.v + g.v,
        R=g.R @ gp.R,
    )


@dataclass
class GridWavefunction:
    """Complex samples on a regular centered 3-D momentum grid."""

    values: np.ndarray         # shape (N, N, N), complex
    p_max: float
    m_f: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 3 or len(set(self.values.shape)) != 1:
            raise ValueError("values must be a cubic 3-D array")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / self.n

    def axis(self) -> np.ndarray:
        # cell-centered grid, uniform spacing, no duplicated endpoint
        return -self.p_max + (np.arange(self.n) + 0.5) * self.spacing

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, ax, indexing="ij")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.spacing ** 3))


def gaussian_packet(n: int = 32, p_max: float = 8.0, m_f: float = 1.0,
                    center=(0.0, 0.0, 0.0), width: float = 1.0) -> GridWavefunction:
    """A unit-width Gaussian test packet, the default acceptance workload."""
    psi = GridWavefunction(np.zeros((n, n, n), dtype=complex), p_max, m_f)
    px, py, pz = psi.mesh()
    c = np.asarray(center, dtype=float)
    r2 = (px - c[0]) ** 2 + (py - c[1]) ** 2 + (pz - c[2]) ** 2
    psi.values = np.exp(-r2 / (2.0 * width ** 2)).astype(complex)
    return psi


def _boost_shift(psi: GridWavefunction, v: np.ndarray):
    """|m_f v| along the last axis: how far a boost moves the packet."""
    return psi.m_f * np.sqrt((v * v).sum(axis=-1))


def _slab_taps(c: np.ndarray, n: int, step: int,
               window: tuple[int, int]) -> list[tuple[float, slice, slice]]:
    """The linear-interpolation taps of a 1-D resample at a uniform shift.

    ``c`` holds the fractional input indices read along one output axis; they
    move by ``step`` (+1 or -1) per output point.  A point with c inside
    [0, n - 1] reads (1 - t) f[i] + t f[i + 1], with i = floor(c) and t the
    fraction; any other point (or NaN) is off the grid and reads 0.  Returns
    one (weight, output slice, input slice) per integer tap; a move by whole
    cells has one tap, and a move off the grid has none.  Only the output
    points lo <= q < hi of ``window`` = (lo, hi) get taps, with the weights of
    the whole axis, so a tap reads there what it reads without the window.
    """
    inside = np.flatnonzero((c >= 0.0) & (c <= n - 1))
    if not inside.size:
        return []
    first, last = int(inside[0]), int(inside[-1])
    lo = math.floor(c[first])
    t = float(c[first]) - lo
    taps = []
    for offset, weight in ((0, 1.0 - t), (1, t)):
        if weight == 0.0:
            continue
        # output point q reads input index start + step * (q - first); it can
        # leave [0, n - 1] only at an end, where its weight is of rounding size
        start = lo + offset
        low, high = sorted((-step * start, step * (n - 1 - start)))
        q0 = first + max(low, 0)
        taps.append((weight, slice(q0, min(first + high, last) + 1),
                     slice(start + step * (q0 - first), None, step)))
    return _window(taps, window)


def _window(taps: list, window: tuple[int, int]) -> list[tuple[float, slice, slice]]:
    """The taps of one axis, kept on the output points lo <= q < hi of ``window`` = (lo, hi).

    A tap's input slice moves with its output slice; a tap left with no
    output point is dropped.
    """
    kept = []
    for weight, dst, src in taps:
        q0, q1 = max(dst.start, window[0]), min(dst.stop, window[1])
        if q0 < q1:
            start = src.start + src.step * (q0 - dst.start)
            stop = start + src.step * (q1 - q0)
            kept.append((weight, slice(q0, q1), slice(start, stop if stop >= 0 else None, src.step)))
    return kept


@functools.lru_cache(maxsize=1)
def _scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three complex n^3 grids, kept for the last n: the phase of an action,
    and the two sides ``cocycle_phase`` compares.  None of them leaves this
    module."""
    return tuple(np.empty((n, n, n), dtype=complex) for _ in range(3))


def _check_shift(g: GroupElement, psi: GridWavefunction) -> None:
    """Reject a boost that moves the packet by more than p_max/4."""
    shift = _boost_shift(psi, g.v)
    if shift > 0.25 * psi.p_max:
        raise OutOfGridError(f"boost shift {shift:.3g} exceeds p_max/4 = {psi.p_max / 4:.3g}")


def _taps(g: GroupElement, psi: GridWavefunction, ax: np.ndarray, box) -> tuple[tuple, list]:
    """The resample of act(g, psi) on an output box: (cols, taps).

    ``ax`` is psi.axis() and ``box`` holds one (lo, hi) per output axis.
    Input axis i is read along output axis cols[i], through taps[i], the
    ``_slab_taps`` of that axis clipped to the box.
    """
    _, cols, signs = _ROTATIONS[_rotation_key(g.R)]
    # argument: R^{-1}(p - m_f v) -- the grouping that composes with the
    # group law; input axis i is sampled at signs[i] * (p - m_f v)[cols[i]],
    # along output axis cols[i], at the fractional grid indices c[i]
    s = ax - psi.m_f * g.v[list(cols)][:, None]
    c = (np.array(signs)[:, None] * s + psi.p_max) / psi.spacing - 0.5
    return cols, [_slab_taps(c[i], psi.n, int(signs[i]), box[cols[i]]) for i in range(3)]


def _reads(taps: list, n: int) -> list[tuple[int, int]]:
    """The input box ``taps`` read: one (lo, hi) per input axis, empty where none."""
    box = []
    for axis in taps:
        reads = [range(n)[src] for _, _, src in axis]
        ends = [i for r in reads for i in (r[0], r[-1])]
        box.append((min(ends), max(ends) + 1) if ends else (0, 0))
    return box


def _image(cols: tuple, taps: list, box, n: int) -> list[tuple[int, int]]:
    """The output box that reads the input box ``box`` through ``taps``, the mirror of ``_reads``.

    ``cols`` and ``taps`` are ``_taps`` on the whole grid, and ``box`` holds
    one (lo, hi) per input axis.  Returns one (lo, hi) per output axis: the
    points on output axis cols[i] whose taps read input axis i inside
    box[i], empty where none does.
    """
    image = [(0, 0)] * 3
    for i, axis in enumerate(taps):
        lo, hi = box[i]
        ends = []
        for _, dst, src in axis:
            out, read = range(n)[dst], range(n)[src]
            # the positions j along the tap whose read[j] lies in [lo, hi)
            first, last = ((lo - read.start, hi - 1 - read.start) if read.step > 0
                           else (read.start - hi + 1, read.start - lo))
            first, last = max(first, 0), min(last, len(read) - 1)
            if first <= last:
                ends += (out[first], out[last])
        if ends:
            image[cols[i]] = (min(ends), max(ends) + 1)
    return image


def _act_on(g: GroupElement, psi: GridWavefunction, ax: np.ndarray, values: np.ndarray,
            out: np.ndarray, box, cols: tuple, taps: list) -> None:
    """Write act(g) of the samples ``values`` on psi's grid into ``out``, on the output box only.

    ``cols`` and ``taps`` are ``_taps(g, psi, ax, box)``; ``values`` is read only
    on the box they read, and ``out`` is left as it was outside ``box``.  The
    box is zeroed, resampled and multiplied by the phase, each sample by the
    same operations, in the same order, as on the whole grid.
    """
    region = tuple(slice(lo, hi) for lo, hi in box)
    out[region] = 0
    view = out.transpose(cols)
    for combo in itertools.product(*taps):
        weights, dst, src = zip(*combo)
        weight = math.prod(weights)
        if weight == 1.0:  # only the first combination, onto zeros: a copy
            view[dst] = values[src]
        else:
            view[dst] += weight * values[src]
    e = np.exp(1j * (-ax ** 2 * g.tau / (2.0 * psi.m_f) + ax * g.a[:, None]))
    phase = _scratch(psi.n)[0][region]
    np.multiply(e[0, region[0], None, None] * e[1, None, region[1], None],
                e[2, None, None, region[2]], out=phase)
    out[region] *= phase


def act(g: GroupElement, psi: GridWavefunction, out: np.ndarray | None = None) -> GridWavefunction:
    """Projective action of g on psi (spin 0).

    The phase exp(i(-p^2 tau / 2m_f + p . a)) is exact pointwise and is built
    as an outer product of one 1-D factor per axis, all three from one
    ``np.exp``.  The argument R^{-1}(p - m_f v) is resampled by trilinear
    interpolation, a point off the grid reading 0.  R is a cube rotation, a
    signed permutation whose axes and signs ``CUBE_ROTATIONS``' table holds,
    so each output axis reads one input axis at a uniform index shift: the
    resample is one strided slab copy per integer tap, written straight into
    the output's axis order and scaled by the product of the axes' scalar
    weights.  A move by whole grid cells, as every ``random_in_grid_*`` draw
    makes, is a single copy.  Boost shifts larger than p_max/4 are rejected
    to keep the packet on the grid.

    The result is a new array, or ``out`` if given: a C-contiguous complex128
    (n, n, n) array that shares no memory with psi.values (anything else
    raises ValueError), which is overwritten.
    """
    n = psi.n
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.complex128
                                and out.shape == (n, n, n) and out.flags.c_contiguous
                                and not np.shares_memory(out, psi.values)):
        raise ValueError("out must be a C-contiguous complex128 (n, n, n) array apart from psi")
    _check_shift(g, psi)
    if out is None:
        out = np.empty((n, n, n), dtype=complex)
    ax, box = psi.axis(), ((0, n),) * 3
    _act_on(g, psi, ax, psi.values, out, box, *_taps(g, psi, ax, box))
    return GridWavefunction(out, psi.p_max, psi.m_f)


def cocycle_phase(g: GroupElement, gp: GroupElement, psi: GridWavefunction) -> complex:
    """Extract the projective phase of the pair (g, g').

    Computes act(g g') psi, keeps the points at or above AMPLITUDE_CUT of its
    peak amplitude, and demands that the ratio of act(g) act(g') psi to it be
    constant on them (max deviation from its mean <= SPREAD_TOL, which a NaN
    deviation fails); returns the mean phase.  A peak amplitude of 0, or one
    that is not finite, raises ValueError.

    act(g g') psi is computed only on the output box that reads the support
    box of psi, where the axis profiles of |psi| reach floor = AMPLITUDE_CUT/2
    max|psi|.  A point outside that box reads only samples below floor, with
    weights that sum to at most 1 and a phase of modulus 1, so its amplitude
    is at most floor (1 + O(eps)).  When the box's peak P has AMPLITUDE_CUT P
    above that, the peak, the kept points and their values are those of the
    whole grid; otherwise (a peak moved off the grid, noise, an all-zero or a
    non-finite packet) the action is rerun on the whole grid.
    act(g) act(g') psi is computed only on the bounding box of the kept
    points, and act(g') psi only on the input box that box reads.  All the
    actions write into the workspace of psi's grid size.
    """
    # the factors' boosts first, in the order act(g) act(g') psi applies them
    _check_shift(gp, psi)
    _check_shift(g, psi)
    product = galilei_multiply(g, gp)
    _check_shift(product, psi)
    n = psi.n
    phase, first, second = _scratch(n)
    # amplitudes go into the phase grid, read as a contiguous float grid
    floats = phase.view(float).reshape(-1)
    magnitude = np.abs(psi.values, out=floats[:n ** 3].reshape(n, n, n))
    rows = magnitude.reshape(n, n * n)
    plane = rows.max(0).reshape(n, n)
    profiles = (rows.max(1), plane.max(1), plane.max(0))
    floor = 0.5 * AMPLITUDE_CUT * profiles[0].max()
    support = []
    for profile in profiles:
        hits = np.flatnonzero(profile >= floor)  # none where floor is NaN
        support.append((int(hits[0]), int(hits[-1]) + 1) if hits.size else (0, 0))
    ax, whole = psi.axis(), ((0, n),) * 3
    cols, taps = _taps(product, psi, ax, whole)
    for box in (_image(cols, taps, support, n), whole):
        _act_on(product, psi, ax, psi.values, first, box, cols,
                [_window(axis, box[col]) for col, axis in zip(cols, taps)])
        rhs = first[tuple(slice(lo, hi) for lo, hi in box)]
        amplitude = np.abs(rhs, out=floats[:rhs.size].reshape(rhs.shape))
        peak = amplitude.max(initial=0.0)
        # every point outside the box is at most floor (1 + O(eps)), so above
        # that the box holds the whole grid's peak and kept points; NaN fails
        if AMPLITUDE_CUT * peak > floor * (1.0 + 1e-12):
            break
    if not np.isfinite(peak):
        raise ValueError("wavefunction is not finite on the reference region")
    if peak == 0:
        raise ValueError("wavefunction vanishes on the reference region")
    # box-local indices in C order, made global: the ratio reads the points
    # in the order of the whole grid
    local = np.nonzero(amplitude >= AMPLITUDE_CUT * peak)
    kept = np.ravel_multi_index(tuple(i + lo for i, (lo, _) in zip(local, box)), first.shape)
    right = first.take(kept)  # gathered before act(g') psi overwrites it
    box = [(int(i.min()) + lo, int(i.max()) + 1 + lo) for i, (lo, _) in zip(local, box)]
    cols, taps = _taps(g, psi, ax, box)
    reads = _reads(taps, n)
    _act_on(gp, psi, ax, psi.values, first, reads, *_taps(gp, psi, ax, reads))
    _act_on(g, psi, ax, first, second, box, cols, taps)
    ratio = second.take(kept) / right
    mean = ratio.mean()
    spread = float(np.abs(ratio - mean).max())
    if not spread <= SPREAD_TOL:  # a NaN spread fails too
        raise ProjectivityError(spread)
    return complex(mean / abs(mean))


def cocycle_angle(g: GroupElement, gp: GroupElement, psi: GridWavefunction) -> float:
    """The extracted 2-cocycle exponent omega(g, g') in [-pi, pi).

    Defined through act(g) act(g') = exp(-i omega) act(g g'), matching the
    e^{-i m (...)} grouplike composition factor of the central element, so the
    extracted value is directly comparable with expected_cocycle_angle.
    """
    ratio = cocycle_phase(g, gp, psi)
    return -cmath.phase(ratio)


def expected_cocycle_angle(g: GroupElement, gp: GroupElement, m_f: float) -> float:
    """The standard Galilei 2-cocycle m_f (v^2 tau' / 2 + v . R a')."""
    return m_f * (0.5 * float(g.v @ g.v) * gp.tau + float(g.v @ (g.R @ gp.a)))


def angle_difference(a: float, b: float) -> float:
    """|a - b| reduced modulo 2 pi into [0, pi]."""
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@functools.cache
def _cells(max_cells: int) -> np.ndarray:
    """The whole-cell boosts with at most ``max_cells`` cells per axis, one per row.

    Built once per size and read-only, so draws can share it.
    """
    cells = np.array(list(itertools.product(range(-max_cells, max_cells + 1), repeat=3)))
    cells.setflags(write=False)
    return cells


def _random_element(rng: np.random.Generator, psi: GridWavefunction,
                    cells: np.ndarray) -> GroupElement:
    """An element with a uniform time shift, translation and cube rotation,
    and a boost of one of ``cells`` (whole grid cells per axis, one per row)."""
    tau = float(rng.uniform(-2.0, 2.0))
    a = rng.uniform(-2.0, 2.0, size=3)
    v = cells[rng.integers(len(cells))] * psi.spacing / psi.m_f
    R = CUBE_ROTATIONS[int(rng.integers(len(CUBE_ROTATIONS)))]
    return GroupElement(tau=tau, a=a, v=v, R=R)


def random_in_grid_element(rng: np.random.Generator, psi: GridWavefunction) -> GroupElement:
    """A random element whose action on psi is interpolation-exact.

    Time shifts and translations are continuous (their action is phase-only);
    boost shifts are snapped to whole grid cells (at most 2 per axis) and
    rotations drawn from ``CUBE_ROTATIONS``, so argument moves land on sample
    points.
    """
    return _random_element(rng, psi, _cells(2))


def random_in_grid_tuple(rng: np.random.Generator, psi: GridWavefunction, count: int,
                         max_cells: int = 2) -> tuple[GroupElement, ...]:
    """``count`` random in-grid elements whose partial products also stay in grid.

    Each element is drawn as by ``random_in_grid_element``, but its boost only
    from the cells that keep every product of a contiguous subsequence ending
    at it within the p_max/4 guard, so cocycle extraction on the tuple never
    leaves the grid.  A zero boost always qualifies, so a tuple is found by
    construction.  Boosts are drawn only up to the whole cells the guard
    admits on one axis (at most ``max_cells``); asking for boosts on a grid
    that admits none raises OutOfGridError before any draw.
    """
    bound = 0.25 * psi.p_max
    admitted = math.floor(bound / psi.spacing)
    if max_cells > 0 and admitted == 0:
        raise OutOfGridError(
            f"a {psi.n}-point grid admits no whole-cell boost within p_max/4 = {bound:.3g}")
    cells = _cells(min(max_cells, admitted))
    boosts = cells * psi.spacing / psi.m_f
    # (R, v) of each product of the elements drawn so far that ends at the last one
    products: list[tuple[np.ndarray, np.ndarray]] = []
    elements = []
    for _ in range(count):
        products.append((np.eye(3), np.zeros(3)))
        fits = np.ones(len(cells), dtype=bool)
        for R, v in products:
            fits &= _boost_shift(psi, boosts @ R.T + v) <= bound
        g = _random_element(rng, psi, cells[fits])
        products = [(R @ g.R, R @ g.v + v) for R, v in products]
        elements.append(g)
    return tuple(elements)
