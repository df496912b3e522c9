"""Non-additive mass arithmetic for the deformed Galilei group.

Two mass coordinates: the algebra mass m (eigenvalue of the primitive
generator M, additive) and the physical mass m_f, related by

    m_f = (k/2) (1 - e^(-2m/k))

so m_f is bounded by k/2, which plays the role of infinite mass.  Physical
masses compose by

    M_f = m_f + m'_f - 2 m_f m'_f / k

which is exactly addition transported through the parametrization above.  The
deformed reduced mass is v_f = m_f m'_f / M_f.

All composition formulas are rational, so they accept ints, floats, and
fractions.Fraction and are exact on exact inputs.  k may be ``math.inf``,
which selects the classical (undeformed) formulas.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "MassDomainError",
    "check_deformation",
    "check_physical",
    "to_physical",
    "to_algebra",
    "algebra_units",
    "compose",
    "compose_many",
    "reduced",
    "classical_reduced",
]


class MassDomainError(ValueError):
    """Raised for masses outside the accepted domain."""


def check_deformation(k) -> None:
    if not (k > 0):
        raise MassDomainError(f"deformation parameter must be positive, got {k}")
    if k < sys.float_info.min:
        raise MassDomainError(f"deformation parameter {k} lies below the smallest normal "
                              f"float {sys.float_info.min}")


def check_physical(m_f, k) -> None:
    check_deformation(k)
    if not 0 <= m_f < math.inf:   # also rejects NaN, which fails every comparison
        raise MassDomainError(f"physical mass must be a finite nonnegative number, got {m_f}")
    if math.isfinite(k) and m_f > k / 2:
        raise MassDomainError(f"physical mass {m_f} exceeds the bound k/2 = {k / 2}")


def to_physical(m, k) -> float:
    """Physical mass of algebra mass m: (k/2)(1 - e^(-2m/k)); m for k = inf.

    2m/k is formed as m / (k/2), the same float where 2m does not overflow.
    """
    check_deformation(k)
    if not m >= 0:
        raise MassDomainError(f"algebra mass must be a nonnegative number, got {m}")
    if math.isinf(k):
        return m
    return (k / 2) * -math.expm1(-m / (k / 2))


def to_algebra(m_f, k) -> float:
    """Algebra mass of physical mass m_f: -(k/2) ln(1 - 2 m_f / k).

    The boundary m_f = k/2 has no finite algebra coordinate and is rejected,
    and so is a mass whose algebra coordinate exceeds the largest float
    (m_f near k/2 at k above about 1e307).
    """
    if k == math.inf:
        check_physical(m_f, k)
        return m_f
    m = (k / 2) * algebra_units(m_f, k)
    if m == math.inf:
        raise MassDomainError(f"the algebra mass of {m_f} at k = {k} exceeds the largest "
                              f"float {sys.float_info.max}")
    return m


def algebra_units(m_f, k) -> float:
    """Algebra mass of m_f in units of k/2, at finite k: -ln(1 - 2 m_f / k).

    Below k/2 this is at most about 37 for floats, so neither it nor a sum
    of a few of them overflows, where the algebra masses themselves can (m_f
    near k/2 at k above about 1e307).  k = inf and the bound m_f = k/2 are
    rejected.
    """
    check_physical(m_f, k)
    if math.isinf(k):
        raise MassDomainError("at k = inf the unit k/2 of the algebra mass is infinite")
    if m_f >= k / 2:
        raise MassDomainError("infinite mass (m_f >= k/2) has no finite algebra coordinate")
    return -math.log1p(-2 * m_f / k)


def compose(m_f, mp_f, k):
    """Deformed total physical mass of two subsystems.

    Commutative and associative; maps [0, k/2] x [0, k/2] into [0, k/2] and
    fixes k/2 ("infinite mass").  Exact on Fraction inputs.  A float total
    that rounds above k/2 is clamped to it, so a fold stays in the domain.
    Where the float product 2 m_f m'_f overflows or underflows, the cross
    term is formed as m'_f (2 m_f / k), which m_f <= k/2 keeps comparable
    to m'_f.
    """
    check_physical(m_f, k)
    check_physical(mp_f, k)
    if math.isinf(k):
        return m_f + mp_f
    product = 2 * m_f * mp_f
    cross = (product / k if sys.float_info.min <= product < math.inf
             else mp_f * (2 * m_f / k))
    return min(m_f + mp_f - cross, k / 2)


def compose_many(masses, k):
    """Left fold of compose; associativity makes the value order-independent."""
    masses = list(masses)
    if not masses:
        raise MassDomainError("need at least one mass")
    total = masses[0]
    check_physical(total, k)
    for m in masses[1:]:
        total = compose(total, m, k)
    return total


def _product_over(m_f, mp_f, total):
    """m_f m'_f / total for total >= max(m_f, m'_f); as m_f (m'_f / total) where
    the product would underflow or overflow.  A float result of two positive
    masses below the smallest normal float has lost bits, and is rejected."""
    product = m_f * mp_f
    value = (product / total if sys.float_info.min <= product < math.inf
             else m_f * (mp_f / total))
    if isinstance(value, float) and m_f > 0 and mp_f > 0 and value < sys.float_info.min:
        raise MassDomainError(f"the reduced mass of {m_f} and {mp_f} lies below the "
                              f"smallest normal float {sys.float_info.min}")
    return value


def reduced(m_f, mp_f, k):
    """Deformed reduced mass m_f m'_f / M_f; equals v / (1 - 2v/k) with the
    classical reduced mass v."""
    total = compose(m_f, mp_f, k)
    if total == 0:
        raise MassDomainError("reduced mass undefined for two massless particles")
    return _product_over(m_f, mp_f, total)


def classical_reduced(m_f, mp_f):
    """Undeformed reduced mass m m' / (m + m')."""
    if m_f + mp_f == 0:
        raise MassDomainError("reduced mass undefined for two massless particles")
    return _product_over(m_f, mp_f, m_f + mp_f)
