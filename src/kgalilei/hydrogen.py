"""The deformed hydrogen toy model.

In relative coordinates the two-particle Hamiltonian is standard except that
the reduced mass is the deformed v_f = m_f m'_f / M_f.  In atomic units
(Planck's constant and the Coulomb coupling e^2 both 1) the Bohr levels are

    E_n = - v_f / (2 n^2)

The module provides the closed form, an independent finite-difference radial
solver used to cross-check it (and a harmonic-oscillator control case), and
the correction-series analysis of v_f / v = 1 / (1 - 2v/k).

The radial solver works on a grid uniform in s, where r = s^2: points crowd
towards the 1/r region near the origin and thin out in the exponential tail.
Its default box is 2 n_max^2 + 20 n_max Bohr radii, the classical turning
point of the outermost requested state plus 20 of its decay lengths.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import masses
from .report import CheckFailure

__all__ = [
    "HydrogenConfig",
    "GridConvergenceError",
    "HydrogenDomainError",
    "bohr_levels",
    "radial_solve",
    "correction_series",
    "CorrectionSeries",
    "CORRECTION_ORDER",
    "RADIAL_TOL",
]

#: The highest power of 2v/k that ``correction_series`` keeps.
CORRECTION_ORDER = 3
#: Largest relative change of a level between successive Richardson
#: extrapolants that ``radial_solve`` accepts.
RADIAL_TOL = 1e-6


class GridConvergenceError(CheckFailure):
    """Raised when two grid refinements disagree beyond the requested tolerance;
    the residual counts the levels left unsolved."""

    check = "radial-grid-convergence"


class HydrogenDomainError(ValueError):
    """Raised for quantum numbers or couplings outside the model's domain."""


@dataclass(frozen=True)
class HydrogenConfig:
    """Parameters of the two-body Coulomb (or harmonic) problem, in atomic units."""

    m_f: float
    mp_f: float
    k: float
    n_max: int = 3
    l: int = 0
    r_max: float | None = None   # None: 2 n_max^2 + 20 n_max Bohr radii (see radial_solve)
    n_points: int = 1000

    def __post_init__(self):
        masses.check_physical(self.m_f, self.k)
        masses.check_physical(self.mp_f, self.k)
        if self.m_f <= 0 or self.mp_f <= 0:
            raise masses.MassDomainError("masses must be positive")
        if not 0 <= self.l < self.n_max:
            raise HydrogenDomainError(
                f"need 0 <= l < n_max (got n_max = {self.n_max}, l = {self.l})")
        # the coarsest grid has n_points - 1 interior points, one level each
        if not (self.n_points >= 3 and self.n_max - self.l <= self.n_points - 1):
            raise HydrogenDomainError(
                f"need n_points >= 3 and n_max - l <= n_points - 1 (got n_max = {self.n_max}, "
                f"l = {self.l}, n_points = {self.n_points})")

    @property
    def v_f(self) -> float:
        return masses.reduced(self.m_f, self.mp_f, self.k)

    @property
    def bohr_radius(self) -> float:
        return 1.0 / self.v_f


def bohr_levels(cfg: HydrogenConfig) -> list[float]:
    """Closed-form levels E_n = -v_f / (2 n^2) for n = 1..n_max."""
    v_f = cfg.v_f
    return [-v_f / (2.0 * n ** 2) for n in range(1, cfg.n_max + 1)]


@functools.lru_cache
def _radial_eigenvalues(potential: str, g: float, l: int, box: float, n_points: int,
                        count: int) -> tuple[tuple[float, ...], ...]:
    """Lowest ``count`` radial levels in Bohr units on n, 2n and 4n grid points.

    Lengths are in a_0 = 1 / v_f and energies in E_h = v_f,
    so the masses enter only through the harmonic coupling ``g`` and the box
    length ``box`` = r_max / a_0: a mass sweep on the default box reuses one
    solve.  Returns plain float tuples, never views of the solver's output.

    The grid is uniform in s = sqrt(r): s_i = i ds with ds = sqrt(box) / n,
    and u vanishes at s = 0 and s = sqrt(box).  Discretizing the energy
    functional with weight dr = 2 s ds gives the couplings
    c_j = 1 / (2 ds^2 (j + 1/2)) at the midpoints and the weights b_i = 2 s_i ds;
    w = sqrt(b) u makes the matrix symmetric.
    """
    levels = []
    for n in (n_points, 2 * n_points, 4 * n_points):
        ds = math.sqrt(box) / n
        c = 1.0 / (2.0 * ds ** 2 * (np.arange(n) + 0.5))
        s = np.arange(1, n) * ds
        x = s * s
        b = 2.0 * s * ds
        pot = -1.0 / x if potential == "coulomb" else 0.5 * g * x ** 2
        diag = (c[:-1] + c[1:]) / (2.0 * b) + pot + l * (l + 1) / (2.0 * x ** 2)
        off = -c[1:-1] / (2.0 * np.sqrt(b[:-1] * b[1:]))
        # the diagonal grows like 1 / ds^4 near the origin, so the default
        # absolute tolerance eps * ||T||_1 would swamp the levels
        vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                                eigvals_only=True, tol=sys.float_info.min)
        levels.append(tuple(vals.tolist()))
    return tuple(levels)


def radial_solve(cfg: HydrogenConfig, potential: str = "coulomb") -> list[float]:
    """Bound-state energies by finite differences with a grid-refinement gate.

    ``potential`` is "coulomb" (-1/r) or "harmonic" (r^2 / 2).  Solves on the
    configured grid and on grids twice and four times as fine;
    Richardson-extrapolates the second-order discretization and raises
    GridConvergenceError if successive extrapolants disagree beyond RADIAL_TOL.
    """
    if potential not in ("coulomb", "harmonic"):
        raise ValueError("potential must be 'coulomb' or 'harmonic'")
    a0 = cfg.bohr_radius
    e_h = cfg.v_f
    g = cfg.v_f * a0 ** 4 if potential == "harmonic" else 0.0
    # the default box holds the outermost requested state's turning point
    # (2 n_max^2) and 20 of its decay lengths (n_max each)
    box = cfg.r_max / a0 if cfg.r_max is not None else 2.0 * cfg.n_max ** 2 + 20.0 * cfg.n_max
    coarse, mid, fine = (e_h * np.array(levels) for levels in _radial_eigenvalues(
        potential, g, cfg.l, box, cfg.n_points, cfg.n_max - cfg.l))
    if potential == "coulomb" and np.any(fine >= 0.0):
        raise GridConvergenceError("no bound state found on the grid", len(fine))
    # second-order scheme: eliminate the ds^2 term, gate on successive extrapolants
    extrap_lo = (4.0 * mid - coarse) / 3.0
    extrap_hi = (4.0 * fine - mid) / 3.0
    gap = np.abs(extrap_hi - extrap_lo) / np.abs(extrap_hi)
    if np.any(gap > RADIAL_TOL):
        raise GridConvergenceError(
            f"grid too coarse: refinement changes eigenvalues by {gap.max():.3e} relative",
            len(gap))
    return extrap_hi.tolist()


@dataclass(frozen=True)
class CorrectionSeries:
    """Expansion of v_f / v = 1 / (1 - 2v/k) in powers of 2v/k."""

    coefficients: list[float]   # (2v/k)^j for j = 0..CORRECTION_ORDER
    exact_ratio: float
    truncation_error: float     # remainder after the last kept term


def correction_series(cfg: HydrogenConfig) -> CorrectionSeries:
    """Geometric-series coefficients of the deformed/classical reduced-mass ratio."""
    v = masses.classical_reduced(cfg.m_f, cfg.mp_f)
    if math.isinf(cfg.k):
        return CorrectionSeries([1.0] + [0.0] * CORRECTION_ORDER, 1.0, 0.0)
    x = 2.0 * v / cfg.k
    if x >= 1.0:
        raise masses.MassDomainError("series diverges: classical reduced mass >= k/2")
    coefficients = [x ** j for j in range(CORRECTION_ORDER + 1)]
    exact = 1.0 / (1.0 - x)
    truncation = x ** (CORRECTION_ORDER + 1) / (1.0 - x)
    return CorrectionSeries(coefficients, exact, truncation)
