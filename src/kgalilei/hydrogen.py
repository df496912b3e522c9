"""The deformed hydrogen toy model.

In relative coordinates the two-particle Hamiltonian is standard except that
the reduced mass is the deformed v_f = m_f m'_f / M_f, so the Bohr levels are

    E_n = - v_f e^4 / (2 hbar^2 n^2)

The module provides the closed form, an independent finite-difference radial
solver used to cross-check it (and a harmonic-oscillator control case), and
the correction-series analysis of v_f / v = 1 / (1 - 2v/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import masses

__all__ = [
    "HydrogenConfig",
    "GridConvergenceError",
    "bohr_levels",
    "radial_solve",
    "correction_series",
    "CorrectionSeries",
]


class GridConvergenceError(RuntimeError):
    """Raised when two grid refinements disagree beyond the requested tolerance."""


@dataclass(frozen=True)
class HydrogenConfig:
    """Parameters of the two-body Coulomb (or harmonic) problem."""

    m_f: float
    mp_f: float
    k: float
    e2: float = 1.0          # Coulomb coupling e^2
    hbar: float = 1.0
    n_max: int = 3
    l: int = 0
    r_max: float | None = None   # None: 20 n_max Bohr radii (see _radial_eigenvalues)
    n_points: int = 6000

    def __post_init__(self):
        masses.check_physical(self.m_f, self.k)
        masses.check_physical(self.mp_f, self.k)
        if self.m_f <= 0 or self.mp_f <= 0:
            raise masses.MassDomainError("masses must be positive")
        if self.n_max < self.l + 1:
            raise ValueError("need n_max >= l + 1")

    @property
    def v_f(self) -> float:
        return masses.reduced(self.m_f, self.mp_f, self.k)

    @property
    def bohr_radius(self) -> float:
        return self.hbar ** 2 / (self.v_f * self.e2)


def bohr_levels(cfg: HydrogenConfig) -> list[float]:
    """Closed-form levels E_n = -v_f e^4 / (2 hbar^2 n^2) for n = 1..n_max."""
    v_f = cfg.v_f
    return [-v_f * cfg.e2 ** 2 / (2.0 * cfg.hbar ** 2 * n ** 2) for n in range(1, cfg.n_max + 1)]


def _radial_eigenvalues(cfg: HydrogenConfig, potential, n_points: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the reduced radial problem on a uniform grid."""
    # the default box is meant to hold the tail of the outermost requested state
    r_max = cfg.r_max if cfg.r_max is not None else 20.0 * cfg.n_max * cfg.bohr_radius
    h = r_max / n_points
    r = np.arange(1, n_points) * h
    v_f = cfg.v_f
    kin = cfg.hbar ** 2 / (2.0 * v_f * h ** 2)
    diag = 2.0 * kin + potential(r) + cfg.hbar ** 2 * cfg.l * (cfg.l + 1) / (2.0 * v_f * r ** 2)
    off = np.full(n_points - 2, -kin)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1), eigvals_only=True)
    return vals


def radial_solve(cfg: HydrogenConfig, potential: str = "coulomb",
                 kappa: float = 1.0, rel_tol: float = 1e-6) -> list[float]:
    """Bound-state energies by finite differences with a grid-refinement gate.

    ``potential`` is "coulomb" (-e^2/r) or "harmonic" (kappa r^2 / 2).  Solves
    on the configured grid and on a doubled grid; Richardson-extrapolates the
    second-order discretization and raises GridConvergenceError if the two
    refinements disagree beyond ``rel_tol`` after extrapolation is applied.
    """
    if potential == "coulomb":
        pot = lambda r: -cfg.e2 / r
    elif potential == "harmonic":
        pot = lambda r: 0.5 * kappa * r ** 2
    else:
        raise ValueError("potential must be 'coulomb' or 'harmonic'")
    count = cfg.n_max - cfg.l
    coarse = _radial_eigenvalues(cfg, pot, cfg.n_points, count)
    mid = _radial_eigenvalues(cfg, pot, 2 * cfg.n_points, count)
    fine = _radial_eigenvalues(cfg, pot, 4 * cfg.n_points, count)
    if potential == "coulomb" and np.any(fine >= 0.0):
        raise GridConvergenceError("no bound state found on the grid")
    # second-order scheme: eliminate the h^2 term, gate on successive extrapolants
    extrap_lo = (4.0 * mid - coarse) / 3.0
    extrap_hi = (4.0 * fine - mid) / 3.0
    gap = np.abs(extrap_hi - extrap_lo) / np.abs(extrap_hi)
    if np.any(gap > rel_tol):
        raise GridConvergenceError(
            f"grid too coarse: refinement changes eigenvalues by {gap.max():.3e} relative"
        )
    return list(extrap_hi)


@dataclass(frozen=True)
class CorrectionSeries:
    """Expansion of v_f / v = 1 / (1 - 2v/k) in powers of 2v/k."""

    coefficients: list[float]   # (2v/k)^j for j = 0..order
    exact_ratio: float
    truncation_error: float     # remainder after the last kept term


def correction_series(cfg: HydrogenConfig, order: int = 3) -> CorrectionSeries:
    """Geometric-series coefficients of the deformed/classical reduced-mass ratio."""
    v = masses.classical_reduced(cfg.m_f, cfg.mp_f)
    if math.isinf(cfg.k):
        return CorrectionSeries([1.0] + [0.0] * order, 1.0, 0.0)
    x = 2.0 * v / cfg.k
    if x >= 1.0:
        raise masses.MassDomainError("series diverges: classical reduced mass >= k/2")
    coefficients = [x ** j for j in range(order + 1)]
    exact = 1.0 / (1.0 - x)
    truncation = x ** (order + 1) / (1.0 - x)
    return CorrectionSeries(coefficients, exact, truncation)
