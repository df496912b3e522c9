"""The deformed hydrogen toy model.

In relative coordinates the two-particle Hamiltonian is standard except that
the reduced mass is the deformed v_f = m_f m'_f / M_f.  In atomic units
(Planck's constant and the Coulomb coupling e^2 both 1) the Bohr levels are

    E_n = - v_f / (2 n^2)

The module provides the closed form and an independent radial solver used to
cross-check it.

The radial solver is the regularized Lagrange-Laguerre mesh (D. Baye, Phys.
Rep. 565 (2015) 1-107): mesh points r_i = h x_i at the zeros x_i of the
Laguerre polynomial L_N, a kinetic matrix in closed form and a diagonal
potential, so one dense symmetric eigensolve gives the levels, which converge
exponentially in N.  Two meshes are solved, the second finer and on a box half
again as large, so that a box too small for the states shows as a gap between
them.  The default box is half again the classical turning point of the
outermost requested state plus some of its decay lengths, 1.5 (2 n_max^2 +
20 n_max) Bohr radii.  Only numpy is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import masses
from .report import CheckFailure, DomainError

__all__ = [
    "HydrogenConfig",
    "GridConvergenceError",
    "HydrogenDomainError",
    "bohr_levels",
    "radial_solve",
    "MAX_N_MAX",
    "RADIAL_TOL",
]

#: Largest n_max a config accepts.  The finer radial mesh then has
#: 4 n_max + 50 = 2050 points at the default n_points, a 34 MB dense matrix.
MAX_N_MAX = 500
#: Largest relative change of a level between the two radial meshes that
#: ``radial_solve`` accepts.
RADIAL_TOL = 1e-6


class GridConvergenceError(CheckFailure):
    """Raised when the two radial meshes disagree beyond the requested tolerance;
    the residual counts the levels left unsolved."""

    check = "radial-grid-convergence"


class HydrogenDomainError(DomainError):
    """Raised for quantum numbers or mesh sizes outside the model's domain."""


@dataclass(frozen=True)
class HydrogenConfig:
    """Parameters of the two-body Coulomb problem, in atomic units."""

    m_f: float
    mp_f: float
    k: float
    n_max: int = 3
    l: int = 0
    r_max: float | None = None   # None: the default box (see radial_solve)
    n_points: int = 30           # the coarser radial mesh has n_points + 3 n_max points

    def __post_init__(self):
        masses.check_physical(self.m_f, self.k)
        masses.check_physical(self.mp_f, self.k)
        if self.m_f <= 0 or self.mp_f <= 0:
            raise masses.MassDomainError("masses must be positive")
        if not 0 <= self.l < self.n_max:
            raise HydrogenDomainError(
                f"need 0 <= l < n_max (got n_max = {self.n_max}, l = {self.l})")
        # the meshes are dense: their size, and so n_max, is capped
        if self.n_max > MAX_N_MAX:
            raise HydrogenDomainError(f"need n_max <= {MAX_N_MAX} (got n_max = {self.n_max})")
        if self.n_points < 1:
            raise HydrogenDomainError(f"need n_points >= 1 (got n_points = {self.n_points})")

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


def _mesh(box: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Lagrange-Laguerre mesh of scale h = box / (4n), in Bohr units.

    Returns the points r and the kinetic matrix, the matrix of -d^2/dr^2 / 2,
    to which a caller adds its potential on the diagonal.  The largest zero
    of L_n lies just below 4n, so the mesh reaches about ``box``.  The
    regularized matrix of -d^2/dx^2 is

        T_ii = (4 + (4n + 2) x_i - x_i^2) / (12 x_i^2)
        T_ij = (-1)^(i-j) (x_i + x_j) / (sqrt(x_i x_j) (x_i - x_j)^2)

    and -d^2/dr^2 / 2 is T / (2 h^2).
    """
    # Golub-Welsch: the zeros of L_n are the eigenvalues of its Jacobi
    # matrix, diagonal 2j + 1 and subdiagonal j; eigvalsh reads the lower triangle
    j = np.arange(n)
    jacobi = np.zeros((n, n))
    jacobi[j, j] = 2.0 * j + 1.0
    jacobi[j[1:], j[:-1]] = j[1:]
    x = np.linalg.eigvalsh(jacobi)
    del jacobi
    h = box / (4.0 * n)
    # u_i u_j = 1 / (2 h^2 sqrt(x_i x_j)); the sign (-1)^(i-j) = (-1)^i (-1)^j
    # is a diagonal similarity, which leaves the eigenvalues alone, so it is dropped
    u = 1.0 / (h * np.sqrt(2.0 * x))
    matrix = np.subtract.outer(x, x)
    matrix *= matrix
    np.fill_diagonal(matrix, 1.0)
    np.divide(np.add.outer(x, x), matrix, out=matrix)
    matrix *= u
    matrix *= u[:, None]
    r = h * x
    np.fill_diagonal(matrix, (4.0 + (4.0 * n + 2.0) * x - x * x) / (24.0 * r * r))
    return r, matrix


@functools.lru_cache
def _radial_eigenvalues(l: int, box: float, n_points: int,
                        count: int) -> tuple[tuple[float, ...], ...]:
    """Lowest ``count`` Coulomb levels in Bohr units on the two meshes.

    Lengths are in a_0 = 1 / v_f and energies in E_h = v_f, so the masses
    enter only through the box length ``box`` = r_max / a_0: a mass sweep on
    the default box reuses one solve.  Returns plain float tuples, never
    views of the solver's output.

    The coarser mesh has n_points + 3 n_max points on ``box``; the finer one
    has n_max + 20 points more, on a box half again as large.
    """
    n = n_points + 3 * (l + count)
    levels = []
    for b, size in ((box, n), (1.5 * box, n + l + count + 20)):
        r, matrix = _mesh(b, size)
        np.fill_diagonal(matrix, matrix.diagonal() - 1.0 / r + l * (l + 1) / (2.0 * r * r))
        levels.append(tuple(np.linalg.eigvalsh(matrix)[:count].tolist()))
        del matrix   # freed before the finer mesh is built
    return tuple(levels)


def radial_solve(cfg: HydrogenConfig) -> list[float]:
    """Coulomb bound-state energies on a Lagrange-Laguerre mesh with a convergence gate.

    Solves on two meshes in Bohr units, the second finer and on a box half
    again as large, returns the second's levels scaled by v_f, and raises
    GridConvergenceError unless every level is bound and agrees between them
    to RADIAL_TOL relative.
    """
    # the default box holds the outermost requested state's turning point
    # 2 n_max^2 and 20 of its decay lengths n_max, with half again as margin
    if cfg.r_max is not None:
        box = cfg.r_max / cfg.bohr_radius
    else:
        box = 1.5 * (2.0 * cfg.n_max ** 2 + 20.0 * cfg.n_max)
    coarse, fine = (np.array(levels) for levels in _radial_eigenvalues(
        cfg.l, box, cfg.n_points, cfg.n_max - cfg.l))
    if np.any(fine >= 0.0):
        raise GridConvergenceError("no bound state found on the mesh", len(fine))
    gap = np.abs(fine - coarse) / np.abs(fine)
    # written so that a NaN gap fails
    if not np.all(gap <= RADIAL_TOL):
        raise GridConvergenceError(
            f"grid too coarse: the finer mesh changes eigenvalues by {gap.max():.3e} relative",
            len(gap))
    return (cfg.v_f * fine).tolist()
