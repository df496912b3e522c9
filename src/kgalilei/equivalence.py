"""The two-particle linear-symplectic core and the unitary equivalence of the
two coproduct orderings.

Per axis, the total/relative variables (P, R, Pi, rho) of the direct and of
the transposed coproduct are linear in (p_1, p_2, K_1, K_2).  Their
coefficient table (``variable_table``) and the commutator form
[u, v] = i u^T Omega v (``pairing``) are written here once, for any scalar
type: ``realization`` evaluates them in exact rational functions, this
module in floats.

The two variable sets are related by conjugation with U = exp(i theta G),
where G = sum_i (K_{1,i} P_{2,i} - P_{1,i} K_{2,i}).  Conjugation by U acts
linearly on the span of (p_1, p_2, K_1, K_2) per axis, so U is represented
here purely through its 4x4 adjoint matrix; no operator exponentials on
states are ever formed.  The adjoint block of exp(theta* G) on the (p_1, p_2)
and (K_1, K_2) planes is [[c, -m'_f sigma], [m_f sigma, c]] with

    c = (lam + lam') / (1 + lam lam'),   sigma = -2 / (k (1 + lam lam')),

so theta* = atan2(omega sigma, c) / omega with omega = sqrt(m_f m'_f); the
map is validated on all four variable vectors.

The exchange operator S swaps the two particles' momenta and boosts; (U S)^2 = 1
for identical masses, and the deformed Bose/Fermi projectors (1 +/- US)/2 act
on two-particle wavefunctions by the induced linear change of momentum
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import masses

__all__ = [
    "StructuralFailureError",
    "PhaseSpaceVector",
    "LinearCanonicalMap",
    "VARIABLES",
    "variable_table",
    "pairing",
    "adjoint_generator",
    "pairing_form",
    "variable_vectors",
    "find_theta",
    "ThetaResult",
    "exchange_map",
    "check_involution",
    "symmetry_projector",
    "SymmetryProjector",
]

#: Ordered basis for coefficient vectors: (p_1, p_2, K_1, K_2) per axis.
BASIS = ("p1", "p2", "K1", "K2")
#: The canonical variables: total momentum, center of mass, relative pair.
VARIABLES = ("P", "R", "Pi", "rho")


class StructuralFailureError(RuntimeError):
    """Raised when a claimed structural property fails numerically."""


@dataclass(frozen=True)
class PhaseSpaceVector:
    """A dynamical variable linear in momenta and boosts, one axis."""

    label: str
    coeffs: tuple[float, float, float, float]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)


@dataclass(frozen=True)
class LinearCanonicalMap:
    """A 4x4 real matrix acting on PhaseSpaceVector coefficients."""

    matrix: np.ndarray

    def __call__(self, v: PhaseSpaceVector) -> PhaseSpaceVector:
        return PhaseSpaceVector(v.label, tuple(self.matrix @ v.as_array()))

    def preserves_pairing(self, m_f: float, mp_f: float, tol: float = 1e-12) -> bool:
        omega = pairing_form(m_f, mp_f)
        residual = self.matrix.T @ omega @ self.matrix - omega
        return float(np.abs(residual).max()) <= tol * max(1.0, float(np.abs(omega).max()))


def variable_table(m_f, mp_f, lam, lamp, M_f) -> tuple[dict, dict]:
    """BASIS coefficients of the direct and transposed variable sets.

    ``lam``, ``lamp`` are e^(-m/k), e^(-m'/k) and ``M_f`` the composed mass;
    the scalars may be floats or RationalFunctions (0 and 1 are plain ints).
    Returns (direct, tilde), each mapping a VARIABLES label to a 4-tuple.
    """
    direct = {
        "P": (lamp, 1, 0, 0),
        "R": (0, 0, lamp / M_f, 1 / M_f),
        "Pi": (mp_f / M_f, -m_f * lamp / M_f, 0, 0),
        "rho": (0, 0, 1 / m_f, -lamp / mp_f),
    }
    tilde = {
        "P": (1, lam, 0, 0),
        "R": (0, 0, 1 / M_f, lam / M_f),
        "Pi": (mp_f * lam / M_f, -m_f / M_f, 0, 0),
        "rho": (0, 0, lam / m_f, -1 / mp_f),
    }
    return direct, tilde


def pairing(u, v, m_f, mp_f):
    """u^T Omega v, so that [u, v] = i u^T Omega v, from [K_A, p_A] = i m_{f,A}.

    ``u`` and ``v`` are BASIS coefficient sequences of any scalar type.
    """
    return m_f * (u[2] * v[0] - u[0] * v[2]) + mp_f * (u[3] * v[1] - u[1] * v[3])


def pairing_form(m_f: float, mp_f: float) -> np.ndarray:
    """The matrix Omega of ``pairing`` on BASIS."""
    unit = np.eye(4)
    return np.array([[pairing(u, v, m_f, mp_f) for v in unit] for u in unit])


def adjoint_generator(m_f: float, mp_f: float) -> np.ndarray:
    """Adjoint matrix of G = sum_i (K_{1,i} P_{2,i} - P_{1,i} K_{2,i}).

    Computed from [K_A, p_A] = i m_{f,A}: ad_G(p_1) = m_f p_2,
    ad_G(p_2) = -m'_f p_1, ad_G(K_1) = m_f K_2, ad_G(K_2) = -m'_f K_1.
    Block-diagonal over the (p1, p2) and (K1, K2) planes.
    """
    if m_f <= 0 or mp_f <= 0:
        raise masses.MassDomainError("masses must be positive")
    block = np.array([[0.0, -mp_f], [m_f, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = block
    out[2:, 2:] = block
    return out


def _lam(m_f: float, k: float) -> float:
    if math.isinf(k):
        return 1.0
    return math.sqrt(1.0 - 2.0 * m_f / k)


def variable_vectors(m_f: float, mp_f: float, k: float) -> tuple[dict, dict]:
    """Coefficient vectors of the direct and transposed variable sets.

    Returns (direct, tilde), each mapping label -> PhaseSpaceVector over the
    (p1, p2, K1, K2) basis; identical for every spatial axis.  Both masses
    must be positive (rho divides by them).
    """
    masses.check_physical(m_f, k)
    masses.check_physical(mp_f, k)
    if not (m_f > 0 and mp_f > 0):
        raise masses.MassDomainError(f"masses must be positive, got {m_f} and {mp_f}")
    tables = variable_table(m_f, mp_f, _lam(m_f, k), _lam(mp_f, k), masses.compose(m_f, mp_f, k))
    return tuple(
        {name: PhaseSpaceVector(name, tuple(float(c) for c in coeffs))
         for name, coeffs in table.items()}
        for table in tables
    )


@dataclass(frozen=True)
class ThetaResult:
    theta: float
    residual: float
    map: LinearCanonicalMap


def find_theta(m_f: float, mp_f: float, k: float, tol: float = 1e-10) -> ThetaResult:
    """The angle theta* mapping the direct variable set onto the tilde set.

    theta* comes from the closed form of the adjoint block (module
    docstring) and is validated on all four variables under exp(theta* G_ad),
    itself built in closed form: no matrix exponential, and no scipy.
    The residual is the largest coefficient mismatch relative to
    max(1, largest |coefficient|); StructuralFailureError is raised if it
    exceeds ``tol``.
    """
    direct, tilde = variable_vectors(m_f, mp_f, k)
    lam, lamp = _lam(m_f, k), _lam(mp_f, k)
    omega = math.sqrt(m_f * mp_f)
    c = (lam + lamp) / (1.0 + lam * lamp)
    sigma = 0.0 if math.isinf(k) else -2.0 / (k * (1.0 + lam * lamp))
    theta = math.atan2(omega * sigma, c) / omega
    # each 2x2 block B of ad G has B^2 = -omega^2 I, so
    # exp(theta B) = cos(omega theta) I + (sin(omega theta) / omega) B
    mat = LinearCanonicalMap(math.cos(omega * theta) * np.eye(4)
                             + (math.sin(omega * theta) / omega) * adjoint_generator(m_f, mp_f))
    worst, scale = 0.0, 1.0
    for name in VARIABLES:
        target = tilde[name].as_array()
        scale = max(scale, float(np.abs(direct[name].as_array()).max()),
                    float(np.abs(target).max()))
        worst = max(worst, float(np.abs(mat(direct[name]).as_array() - target).max()))
    residual = worst / scale
    if not residual <= tol:
        raise StructuralFailureError(
            f"theta* = {theta} leaves a relative residual {residual:.3e} > {tol} "
            f"(m_f={m_f}, m'_f={mp_f}, k={k})"
        )
    return ThetaResult(theta, residual, mat)


def exchange_map() -> LinearCanonicalMap:
    """The particle exchange: swap (p1, p2) and (K1, K2).  S^2 = 1 exactly."""
    mat = np.zeros((4, 4))
    mat[0, 1] = mat[1, 0] = 1.0
    mat[2, 3] = mat[3, 2] = 1.0
    return LinearCanonicalMap(mat)


def check_involution(m_f: float, k: float) -> float:
    """Max-norm residual of (U S)^2 - 1 for identical masses m_f."""
    theta = find_theta(m_f, m_f, k)
    us = theta.map.matrix @ exchange_map().matrix
    return float(np.abs(us @ us - np.eye(4)).max())


class SymmetryProjector:
    """Deformed symmetrization projector (1 +/- US)/2 on wavefunctions.

    Acts on callables f(p, pp) of the two momentum arguments (one axis;
    axes factorize) through the momentum-block argument change of US.
    """

    def __init__(self, sign: int, m_f: float, k: float):
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign
        self.m_f = m_f
        self.k = k
        theta = find_theta(m_f, m_f, k)
        us = theta.map.matrix @ exchange_map().matrix
        # momentum plane decouples; (US)^2 = 1 makes the block its own inverse
        self.momentum_block = us[:2, :2]

    def exchange_arguments(self, p, pp):
        b = self.momentum_block
        return b[0, 0] * p + b[0, 1] * pp, b[1, 0] * p + b[1, 1] * pp

    def apply_us(self, f):
        """US acting on a wavefunction by linear change of arguments."""
        def g(p, pp):
            q, qq = self.exchange_arguments(p, pp)
            return f(q, qq)
        return g

    def __call__(self, f):
        usf = self.apply_us(f)
        sign = self.sign

        def projected(p, pp):
            return 0.5 * (f(p, pp) + sign * usf(p, pp))

        return projected

    def sample(self, f, grid: np.ndarray) -> np.ndarray:
        """Evaluate a projected (or plain) callable on the grid x grid mesh."""
        p, pp = np.meshgrid(grid, grid, indexing="ij")
        return f(p, pp)


def symmetry_projector(sign: int, m_f: float, k: float) -> SymmetryProjector:
    return SymmetryProjector(sign, m_f, k)
