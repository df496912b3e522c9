"""The two-particle linear-symplectic core and the unitary equivalence of the
two coproduct orderings.

Per axis, the total/relative variables (P, R, Pi, rho) of the direct and of
the transposed coproduct are linear in (p_1, p_2, K_1, K_2); this module
takes their table and commutator form from ``masses``, in floats.

The two variable sets are related by conjugation with U = exp(i theta G),
where G = sum_i (K_{1,i} P_{2,i} - P_{1,i} K_{2,i}).  Conjugation by U acts
linearly on the span of (p_1, p_2, K_1, K_2) per axis, so U is represented
here purely through its 4x4 adjoint matrix; no operator exponentials on
states are ever formed.  The adjoint block of exp(theta* G) on the (p_1, p_2)
and (K_1, K_2) planes is [[c, -m'_f sigma], [m_f sigma, c]] with

    c = (lam + lam') / (1 + lam lam'),   sigma = -2 / (k (1 + lam lam')),

so theta* = atan2(omega sigma, c) / omega with omega = sqrt(m_f m'_f); the
map is validated on all four variable vectors.

The exchange operator S (``EXCHANGE``) swaps the two particles' momenta and
boosts.  For identical masses, ``us_matrix`` forms U S; (U S)^2 = 1, and the
deformed Bose/Fermi projectors (1 +/- US)/2 act on two-particle
wavefunctions by the induced linear change of momentum arguments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import masses
from .masses import BASIS, VARIABLES, pairing, variable_table
from .report import CheckFailure

__all__ = [
    "StructuralFailureError",
    "EXCHANGE",
    "adjoint_generator",
    "pairing_residual",
    "variable_vectors",
    "find_theta",
    "ThetaResult",
    "us_matrix",
    "check_involution",
    "apply_us",
    "project",
]

#: The particle exchange S on BASIS: swaps (p1, p2) and (K1, K2); S^2 = 1.
EXCHANGE = np.array([[0.0, 1.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [0.0, 0.0, 1.0, 0.0]])
EXCHANGE.setflags(write=False)
#: Largest relative residual ``find_theta`` accepts.
THETA_TOL = 1e-10


class StructuralFailureError(CheckFailure):
    """Raised when a claimed structural property fails numerically by ``residual``."""


def pairing_residual(matrix: np.ndarray, m_f: float, mp_f: float) -> dict[tuple, float]:
    """How far the 4x4 ``matrix`` A is from keeping Omega, the matrix of ``pairing``:
    |A^T Omega A - Omega| / max(1, |Omega|) per entry, keyed by its BASIS (row, column)."""
    unit = np.eye(4)
    omega = np.array([[pairing(u, v, m_f, mp_f) for v in unit] for u in unit])
    residual = np.abs(matrix.T @ omega @ matrix - omega) / max(1.0, float(np.abs(omega).max()))
    return {(BASIS[i], BASIS[j]): float(residual[i, j]) for i in range(4) for j in range(4)}


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

    Returns (direct, tilde), each mapping a VARIABLES label to a float array
    of 4 coefficients over BASIS; identical for every spatial axis.  Both
    masses must be positive normal floats (rho divides by them).
    """
    masses.check_physical(m_f, k)
    masses.check_physical(mp_f, k)
    if not (m_f > 0 and mp_f > 0):
        raise masses.MassDomainError(f"masses must be positive, got {m_f} and {mp_f}")
    if min(m_f, mp_f) < sys.float_info.min:
        raise masses.MassDomainError(
            f"mass {min(m_f, mp_f)} lies below the smallest normal float {sys.float_info.min}")
    tables = variable_table(m_f, mp_f, _lam(m_f, k), _lam(mp_f, k), masses.compose(m_f, mp_f, k))
    return tuple(
        {name: np.array([float(c) for c in coeffs]) for name, coeffs in table.items()}
        for table in tables
    )


@dataclass(frozen=True)
class ThetaResult:
    theta: float
    residual: float
    matrix: np.ndarray   # the 4x4 adjoint matrix of exp(theta* G) on BASIS


def find_theta(m_f: float, mp_f: float, k: float) -> ThetaResult:
    """The angle theta* mapping the direct variable set onto the tilde set.

    theta* comes from the closed form of the adjoint block (module
    docstring).  It is held, relative to its own size, to the relation
    c sin(omega theta) = omega sigma cos(omega theta), and the map
    exp(theta* G_ad), itself built in closed form (no matrix exponential,
    and no scipy), is validated on all four variables.  The residual is the
    map's largest coefficient mismatch relative to max(1, largest
    |coefficient|); StructuralFailureError is raised if either exceeds
    THETA_TOL.
    """
    direct, tilde = variable_vectors(m_f, mp_f, k)
    lam, lamp = _lam(m_f, k), _lam(mp_f, k)
    product = m_f * mp_f
    # one square root per mass where their product would underflow or overflow
    omega = (math.sqrt(product) if sys.float_info.min <= product <= sys.float_info.max
             else math.sqrt(m_f) * math.sqrt(mp_f))
    c = (lam + lamp) / (1.0 + lam * lamp)
    # -2 / (k (1 + lam lam')), without the product k (1 + lam lam'), which
    # overflows for k above half the largest float
    sigma = 0.0 if math.isinf(k) else -1.0 / ((k / 2) * (1.0 + lam * lamp))
    if c > 0.0:
        # theta* = (sigma / c) atan(x) / x with x = omega sigma / c, formed
        # without the product omega sigma (subnormal for a light pair at
        # large k), and without sigma / c where that could overflow (k < 2)
        x = omega * (sigma / c) if abs(sigma) <= 1.0 else (omega / c) * sigma
        theta = sigma * (math.atan(x) / x if x else 1.0) / c
    else:
        theta = math.atan2(omega * sigma, c) / omega
    # (c, omega sigma) is the unit vector at angle omega theta*, so theta*
    # keeps c sin(omega theta) = omega sigma cos(omega theta), a relation
    # that reads no atan.  Divided by omega, with sin(omega theta) / omega
    # as theta sinc(omega theta), and relative to |sigma|, it holds theta
    # to its own size and forms no subnormal product omega sigma
    phase = omega * theta
    sinc = math.sin(phase) / phase if phase else 1.0
    gap = abs(c * theta * sinc - sigma * math.cos(phase))
    if not gap <= THETA_TOL * abs(sigma):
        relative = gap / abs(sigma) if sigma else math.inf
        raise StructuralFailureError(
            f"theta* = {theta} misses c sin(omega theta) = omega sigma cos(omega theta) "
            f"by a relative {relative:.3e} > {THETA_TOL} (m_f={m_f}, m'_f={mp_f}, k={k})",
            relative)
    # each 2x2 block B of ad G has B^2 = -omega^2 I, so
    # exp(theta B) = cos(omega theta) I + (sin(omega theta) / omega) B
    mat = (math.cos(omega * theta) * np.eye(4)
           + (math.sin(omega * theta) / omega) * adjoint_generator(m_f, mp_f))
    # one row per variable; an array's max, unlike the builtin max, keeps a
    # NaN gap, which then fails the gate
    before = np.array([direct[name] for name in VARIABLES])
    after = np.array([tilde[name] for name in VARIABLES])
    scale = max(1.0, float(np.abs(before).max()), float(np.abs(after).max()))
    residual = float(np.abs(before @ mat.T - after).max()) / scale
    if not residual <= THETA_TOL:
        raise StructuralFailureError(
            f"theta* = {theta} leaves a relative residual {residual:.3e} > {THETA_TOL} "
            f"(m_f={m_f}, m'_f={mp_f}, k={k})", residual)
    return ThetaResult(theta, residual, mat)


def us_matrix(m_f: float, k: float) -> np.ndarray:
    """The 4x4 matrix of U(theta*) S for two particles of identical mass m_f."""
    return find_theta(m_f, m_f, k).matrix @ EXCHANGE


def check_involution(us: np.ndarray) -> float:
    """Max-norm residual of (U S)^2 - 1."""
    return float(np.abs(us @ us - np.eye(4)).max())


def apply_us(us: np.ndarray, f):
    """US acting on a wavefunction f(p, pp) (one axis; axes factorize).

    The momentum plane decouples, so US changes the two momentum arguments
    linearly by its momentum block; (US)^2 = 1 makes the block its own inverse.
    """
    b = us[:2, :2]

    def g(p, pp):
        return f(b[0, 0] * p + b[0, 1] * pp, b[1, 0] * p + b[1, 1] * pp)

    return g


def project(sign: int, us: np.ndarray, f):
    """The deformed symmetrization (1 + sign US)/2 of f, with sign +1 (Bose) or -1 (Fermi)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    usf = apply_us(us, f)

    def projected(p, pp):
        return 0.5 * (f(p, pp) + sign * usf(p, pp))

    return projected

