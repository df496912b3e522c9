"""Finite Galilei transformations acting on sampled momentum-space wavepackets.

The classical Galilei group element (tau, a, v, R) multiplies by

    tau'' = tau + tau'      a'' = R a' + v tau' + a
    v''   = R v' + v        R''  = R R'

and acts projectively on a momentum wavefunction (spin 0) by

    psi(p) -> exp(i(-p^2 tau / (2 m_f) + p . a)) psi(R^{-1} p - m_f v)

R is one of the 24 cube rotations (``CUBE_ROTATIONS``), which the product
never leaves, so ``act`` resamples by strided slab copies, with numpy alone.
The composition of two such actions differs from the action of the product
by a constant phase (the 2-cocycle); ``cocycle_phase``
extracts it numerically and checks that the pointwise ratio really is
grid-constant.  The closed form exp(i m_f (v^2 tau' / 2 + v . R a')) is
validated against this extraction in the tests, never assumed.

A packet is either dense (``GridWavefunction``) or a product of one factor
per axis (``SeparablePacket``), as the Gaussian test packet is.  The phase
is a product of one factor per axis, and a cube rotation reads each input
axis along one output axis, so the action maps a product to a product: each
factor is resampled along its own axis through the taps of the dense
action.  ``cocycle_phase`` acts on the three factors alone and forms the
composition ratio only at the points it keeps, so it builds no n^3 grid.
A pair's three actions share one tap table and one ``np.exp``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .report import CheckFailure, DomainError

__all__ = [
    "GroupElement",
    "GridWavefunction",
    "SeparablePacket",
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


class OutOfGridError(DomainError):
    """Raised when a boost would shift the wavepacket outside the grid."""


class ProjectivityError(CheckFailure):
    """Raised when the composition ratio is not a constant phase across the grid."""

    def __init__(self, spread: float, what: str = "varies across the grid"):
        super().__init__(f"composition ratio {what} (spread {spread:.3e})", spread)
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


def galilei_multiply(g: GroupElement, gp: GroupElement) -> GroupElement:
    """Group product g * g'."""
    return GroupElement(
        tau=g.tau + gp.tau,
        a=g.R @ gp.a + g.v * gp.tau + g.a,
        v=g.R @ gp.v + g.v,
        R=g.R @ gp.R,
    )


@functools.lru_cache(maxsize=64)
def _axis(n: int, p_max: float) -> np.ndarray:
    """The n cell-centered sample points of one axis: uniform spacing 2 p_max / n,
    no duplicated endpoint.  Built once per (n, p_max) and read-only."""
    ax = -p_max + (np.arange(n) + 0.5) * (2.0 * p_max / n)
    ax.setflags(write=False)
    return ax


class _CenteredGrid:
    """The regular centered 3-D momentum grid of a packet with ``n`` and ``p_max``."""

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / self.n

    def axis(self) -> np.ndarray:
        return _axis(self.n, self.p_max)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, ax, indexing="ij")


@dataclass
class GridWavefunction(_CenteredGrid):
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

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.spacing ** 3))


@dataclass
class SeparablePacket(_CenteredGrid):
    """A packet f_0(p_x) f_1(p_y) f_2(p_z) on the same grid, stored as its three factors."""

    factors: np.ndarray        # shape (3, N), complex: row i is the factor of axis i
    p_max: float
    m_f: float

    def __post_init__(self):
        self.factors = np.asarray(self.factors, dtype=complex)
        if self.factors.ndim != 2 or self.factors.shape[0] != 3:
            raise ValueError("factors must be a (3, n) array")

    @property
    def n(self) -> int:
        return self.factors.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The dense (n, n, n) outer product of the factors, built on each call and read-only."""
        f0, f1, f2 = self.factors
        values = f0[:, None, None] * f1[None, :, None] * f2[None, None, :]
        values.setflags(write=False)
        return values

    def norm(self) -> float:
        return float(np.sqrt(np.prod(np.sum(np.abs(self.factors) ** 2, axis=1))
                             * self.spacing ** 3))


#: Either packet: the functions below read only its grid (n, p_max, spacing,
#: axis) and m_f, and ``act`` its dense values.
_Packet = GridWavefunction | SeparablePacket


def gaussian_packet(n: int = 32, p_max: float = 8.0, m_f: float = 1.0,
                    center=(0.0, 0.0, 0.0), width: float = 1.0) -> SeparablePacket:
    """A Gaussian test packet, the default acceptance workload: the product
    of one 1-D Gaussian per axis."""
    c = np.asarray(center, dtype=float)
    factors = np.exp(-(_axis(n, p_max) - c[:, None]) ** 2 / (2.0 * width ** 2))
    return SeparablePacket(factors, p_max, m_f)


def _boost_shift(m_f: float, v: np.ndarray):
    """|m_f v| along the last axis: how far a boost moves a packet of mass m_f."""
    return m_f * np.sqrt((v * v).sum(axis=-1))


def _tap_table(c: np.ndarray, steps: list[int]) -> list[list[tuple[float, slice, slice]]]:
    """The linear-interpolation taps of 1-D resamples at uniform shifts, one list per row.

    Row r of the (rows, n) array ``c`` holds the fractional input indices
    read along one output axis; they move by ``steps[r]`` (+1 or -1) per
    output point.  A point with c inside [0, n - 1] reads (1 - t) f[i] +
    t f[i + 1], with i = floor(c) and t the fraction, both read at the row's
    first such point; any other point (or NaN) is off the grid and reads 0.
    A row's taps are one (weight, output slice, input slice) per integer
    tap; a move by whole cells has one tap, and a move off the grid has none.
    """
    n = c.shape[1]
    inside = (c >= 0.0) & (c <= n - 1)
    firsts = inside.argmax(axis=1)
    lasts = (n - 1 - inside[:, ::-1].argmax(axis=1)).tolist()
    rows = np.arange(len(c))
    table = []
    for on, first, last, c0, step in zip(inside[rows, firsts].tolist(), firsts.tolist(), lasts,
                                         c[rows, firsts].tolist(), steps):
        taps = []
        table.append(taps)
        if not on:  # argmax found no point on the grid
            continue
        lo = math.floor(c0)
        t = c0 - lo
        for offset, weight in ((0, 1.0 - t), (1, t)):
            if weight == 0.0:
                continue
            # output point q reads input index start + step * (q - first); it can
            # leave [0, n - 1] only at an end, where its weight is of rounding size
            start = lo + offset
            low, high = sorted((-step * start, step * (n - 1 - start)))
            q0, q1 = first + max(low, 0), min(first + high, last) + 1
            read = start + step * (q0 - first)
            stop = read + step * (q1 - q0)
            taps.append((weight, slice(q0, q1), slice(read, stop if stop >= 0 else None, step)))
    return table


def _check_shift(g: GroupElement, psi: _Packet) -> None:
    """Reject a boost that moves the packet by more than p_max/4."""
    shift = _boost_shift(psi.m_f, g.v)
    if shift > 0.25 * psi.p_max:
        raise OutOfGridError(f"boost shift {shift:.3g} exceeds p_max/4 = {psi.p_max / 4:.3g}")


def _phase(elements, psi: _Packet, ax: np.ndarray) -> np.ndarray:
    """The phase exp(i(-p^2 tau / 2m_f + p . a)) of act(g) for each g of ``elements``,
    one row per axis, all from one ``np.exp``: (len(elements), 3, n)."""
    tau = np.array([g.tau for g in elements])[:, None, None]
    a = np.array([g.a for g in elements])[:, :, None]
    return np.exp(1j * (-ax ** 2 * tau / (2.0 * psi.m_f) + ax * a))


def _actions(elements, psi: _Packet) -> list[tuple[tuple, list, np.ndarray]]:
    """(cols, taps, phase) of act(g) on psi's grid for each g of ``elements``, from
    one ``_tap_table`` and one ``_phase``: input axis i is read along output
    axis cols[i] through taps[i], and phase holds the (3, n) phase rows."""
    ax = _axis(psi.n, psi.p_max)
    _, cols, signs = zip(*(_ROTATIONS[_rotation_key(g.R)] for g in elements))
    # argument: R^{-1}(p - m_f v) -- the grouping that composes with the
    # group law; input axis i is sampled at signs[i] * (p - m_f v)[cols[i]],
    # along output axis cols[i], at the fractional grid indices c[i]
    v = np.array([g.v[list(col)] for g, col in zip(elements, cols)])
    s = ax - psi.m_f * v[:, :, None]
    c = (np.array(signs)[:, :, None] * s + psi.p_max) / psi.spacing - 0.5
    taps = _tap_table(c.reshape(-1, psi.n), [int(sign) for row in signs for sign in row])
    phase = _phase(elements, psi, ax)
    return [(col, taps[3 * k:3 * k + 3], phase[k]) for k, col in enumerate(cols)]


def _resample(out: np.ndarray, values: np.ndarray, taps: list) -> None:
    """Add the taps' weighted slabs of ``values`` into ``out``, which holds zeros:
    one slab per combination of one tap per axis of ``taps``."""
    for combo in itertools.product(*taps):
        weights, dst, src = zip(*combo)
        weight = math.prod(weights)
        if weight == 1.0:  # only the first combination, onto zeros: a copy
            out[dst] = values[src]
        else:
            out[dst] += weight * values[src]


def act(g: GroupElement, psi: _Packet) -> GridWavefunction:
    """Projective action of g on psi (spin 0), as a new dense packet.

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
    to keep the packet on the grid, and a NaN or infinite sample raises
    ValueError.
    """
    _check_shift(g, psi)
    # a separable packet's outer product may overflow, or multiply an inf by
    # a 0 into NaN: formed quietly, it is refused with any non-finite dense
    # sample before the phase multiplies one
    with np.errstate(over="ignore", invalid="ignore"):
        values = psi.values
    if not np.isfinite(values).all():
        raise ValueError("wavefunction is not finite")
    n = psi.n
    (cols, taps, e), = _actions((g,), psi)
    out = np.zeros((n, n, n), dtype=complex)
    _resample(out.transpose(cols), values, taps)
    out *= e[0, :, None, None] * e[1, None, :, None] * e[2, None, None, :]
    return GridWavefunction(out, psi.p_max, psi.m_f)


def _act_factors(action: tuple, factors: np.ndarray) -> np.ndarray:
    """act(g) on the product of the (3, n) ``factors``, as its own three factors.

    ``action`` is g's (cols, taps, phase) of ``_actions``.  The resample and
    the phase of a product are products: each input factor is resampled
    through its axis' taps into the factor of the output axis it is read
    along, then times that axis' phase row.  No boost check is made here.
    """
    cols, taps, phase = action
    out = np.zeros(factors.shape, dtype=complex)
    for i in range(3):
        _resample(out[cols[i]], factors[i], [taps[i]])
    out *= phase
    return out


def _outer_on(factors: np.ndarray, box: list[slice]) -> np.ndarray:
    """The outer product of the three ``factors`` on ``box``, formed as (f0 f1) f2."""
    f0, f1, f2 = (row[s] for row, s in zip(factors, box))
    return f0[:, None, None] * f1[None, :, None] * f2[None, None, :]


def cocycle_phase(g: GroupElement, gp: GroupElement, psi: SeparablePacket) -> complex:
    """Extract the projective phase of the pair (g, g') on a separable packet.

    Computes act(g g') psi, keeps the points at or above AMPLITUDE_CUT of its
    peak amplitude, and demands that the ratio of act(g) act(g') psi to it be
    constant on them (max deviation from its mean <= SPREAD_TOL, which a NaN
    deviation fails); returns the mean phase.  A mean within SPREAD_TOL of 0
    is no phase: act(g) act(g') psi vanishes where act(g g') psi does not,
    say where act(g') moved part of the packet off the grid, and it raises
    ProjectivityError with spread 1 - |mean|.  A NaN or infinite factor
    entry, a peak amplitude of 0, or one that is not finite, raises
    ValueError; a dense packet raises TypeError.

    Both sides are kept as three factors (``_act_factors``), and the three
    actions' taps and phases come from one ``_actions`` call.  A point's
    amplitude is the product of its factors' moduli.  A float product of
    non-negative numbers is monotone in each of them, so the peak is the
    product of the factors' maxima, and the kept points lie in the box
    where each factor, times the other two maxima, reaches the cut; the
    ratio is formed only at the kept points of that box.
    """
    if not isinstance(psi, SeparablePacket):
        raise TypeError("cocycle_phase needs a SeparablePacket")
    # the factors' boosts first, in the order act(g) act(g') psi applies them
    _check_shift(gp, psi)
    _check_shift(g, psi)
    product = galilei_multiply(g, gp)
    _check_shift(product, psi)
    factors = psi.factors
    if not np.isfinite(factors).all():  # before a phase of 0 turns an inf into NaN
        raise ValueError("wavefunction is not finite")
    on_gp, on_g, on_product = _actions((gp, g, product), psi)
    rhs = _act_factors(on_product, factors)
    amplitude = np.abs(rhs)
    top0, top1, top2 = amplitude.max(axis=1).tolist()
    # every product below is formed in the order of a point's (a0 a1) a2
    peak = top0 * top1 * top2
    if not math.isfinite(peak):
        raise ValueError("wavefunction is not finite on the reference region")
    if peak == 0:
        raise ValueError("wavefunction vanishes on the reference region")
    cut = AMPLITUDE_CUT * peak
    # each factor times the other two maxima: (a0 t1) t2, (a1 t0) t2, (a2 (t0 t1)) 1
    reach = (amplitude * np.array(((top1,), (top0,), (top0 * top1,)))
             * np.array(((top2,), (top2,), (1.0,))))
    hits = reach >= cut  # the peak's point reaches it on every row
    firsts = hits.argmax(axis=1).tolist()
    ends = (psi.n - hits[:, ::-1].argmax(axis=1)).tolist()
    box = [slice(first, end) for first, end in zip(firsts, ends)]
    kept = _outer_on(amplitude, box) >= cut
    lhs = _act_factors(on_g, _act_factors(on_gp, factors))
    ratio = _outer_on(lhs, box)[kept] / _outer_on(rhs, box)[kept]
    mean = ratio.mean()
    spread = float(np.abs(ratio - mean).max())
    if not spread <= SPREAD_TOL:  # a NaN spread fails too
        raise ProjectivityError(spread)
    if not abs(mean) > SPREAD_TOL:
        raise ProjectivityError(1.0 - abs(mean), "vanishes on the grid")
    return complex(mean / abs(mean))


def cocycle_angle(g: GroupElement, gp: GroupElement, psi: SeparablePacket) -> float:
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


def _random_element(rng: np.random.Generator, psi: _Packet,
                    cells: np.ndarray) -> GroupElement:
    """An element with a uniform time shift, translation and cube rotation,
    and a boost of one of ``cells`` (whole grid cells per axis, one per row)."""
    tau = float(rng.uniform(-2.0, 2.0))
    a = rng.uniform(-2.0, 2.0, size=3)
    v = cells[rng.integers(len(cells))] * psi.spacing / psi.m_f
    R = CUBE_ROTATIONS[int(rng.integers(len(CUBE_ROTATIONS)))]
    return GroupElement(tau=tau, a=a, v=v, R=R)


def random_in_grid_element(rng: np.random.Generator, psi: _Packet) -> GroupElement:
    """A random element whose action on psi is interpolation-exact.

    Time shifts and translations are continuous (their action is phase-only);
    boost shifts are snapped to whole grid cells (at most 2 per axis) and
    rotations drawn from ``CUBE_ROTATIONS``, so argument moves land on sample
    points.
    """
    return _random_element(rng, psi, _cells(2))


@functools.lru_cache(maxsize=64)
def _admitted_cells(max_cells: int, spacing: float, m_f: float,
                    bound: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_cells(max_cells)``, their boosts, and the mask of the cells whose boost
    alone moves a packet by at most ``bound``; built once per key and read-only."""
    cells = _cells(max_cells)
    boosts = cells * spacing / m_f
    fits = _boost_shift(m_f, boosts) <= bound
    boosts.setflags(write=False)
    fits.setflags(write=False)
    return cells, boosts, fits


def random_in_grid_tuple(rng: np.random.Generator, psi: _Packet, count: int,
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
    # the element alone is the product of length one: its cells are cached
    cells, boosts, alone = _admitted_cells(min(max_cells, admitted), psi.spacing, psi.m_f, bound)
    # (R, v) of each longer product of the elements drawn so far that ends at the last one
    products: list[tuple[np.ndarray, np.ndarray]] = []
    elements = []
    for _ in range(count):
        fits = alone
        for R, v in products:
            fits = fits & (_boost_shift(psi.m_f, boosts @ R.T + v) <= bound)
        g = _random_element(rng, psi, cells[fits])
        products = [(R @ g.R, R @ g.v + v) for R, v in products]
        products.append((g.R, g.v))
        elements.append(g)
    return tuple(elements)
