"""Tests for the non-additive mass arithmetic."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from kgalilei import masses
from kgalilei.masses import (
    MassDomainError,
    classical_reduced,
    compose,
    compose_many,
    reduced,
    to_algebra,
    to_physical,
)


def test_exact_fraction_arithmetic():
    k = Fraction(1)
    a, b, c = Fraction(3, 10), Fraction(2, 5), Fraction(1, 10)
    assert compose(a, b, k) == Fraction(23, 50)
    # associativity and commutativity hold exactly
    assert compose(compose(a, b, k), c, k) == compose(a, compose(b, c, k), k)
    assert compose(a, b, k) == compose(b, a, k)
    # 0 is the identity
    assert compose(a, Fraction(0), k) == a


def test_fixed_point_k_half():
    k = Fraction(1)
    half = Fraction(1, 2)
    for m in (Fraction(0), Fraction(1, 5), Fraction(1, 2)):
        assert compose(half, m, k) == half


def test_bound_preservation_random_floats():
    rng = random.Random(0)
    for _ in range(2000):
        k = rng.uniform(0.5, 10.0)
        a = rng.uniform(0.0, k / 2)
        b = rng.uniform(0.0, k / 2)
        total = compose(a, b, k)
        assert 0.0 <= total <= k / 2 + 1e-15
        assert total >= max(a, b) - 1e-15


def test_associativity_random_floats():
    rng = random.Random(1)
    for _ in range(2000):
        k = rng.uniform(0.5, 10.0)
        a, b, c = (rng.uniform(0.0, k / 2) for _ in range(3))
        lhs = compose(compose(a, b, k), c, k)
        rhs = compose(a, compose(b, c, k), k)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_isomorphism_with_addition():
    rng = random.Random(2)
    for _ in range(2000):
        k = rng.uniform(0.5, 10.0)
        m1 = rng.uniform(0.0, 3.0)
        m2 = rng.uniform(0.0, 3.0)
        direct = to_physical(m1 + m2, k)
        composed = compose(to_physical(m1, k), to_physical(m2, k), k)
        assert abs(direct - composed) <= 1e-12 * max(1.0, abs(direct))


def test_round_trip():
    # restricted to m <= k: near the bound m_f -> k/2 the exponential
    # saturates and the inverse log is ill-conditioned by nature
    rng = random.Random(3)
    for _ in range(1000):
        k = rng.uniform(0.5, 10.0)
        m = rng.uniform(0.0, k)
        assert abs(to_algebra(to_physical(m, k), k) - m) <= 1e-12 * max(1.0, m)


def test_classical_limit_is_first_class():
    assert compose(0.3, 0.4, math.inf) == 0.7
    assert to_physical(0.3, math.inf) == 0.3
    assert to_algebra(0.3, math.inf) == 0.3
    assert reduced(0.3, 0.4, math.inf) == classical_reduced(0.3, 0.4)


def test_reduced_mass_identity():
    rng = random.Random(4)
    for _ in range(1000):
        k = rng.uniform(0.5, 10.0)
        a = rng.uniform(1e-3, k / 2 * 0.999)
        b = rng.uniform(1e-3, k / 2 * 0.999)
        v = classical_reduced(a, b)
        v_f = reduced(a, b, k)
        assert abs(v_f - v / (1.0 - 2.0 * v / k)) <= 1e-12 * max(1.0, abs(v_f))


def test_reduced_equals_partner_at_bound():
    # an infinitely heavy partner (m'_f = k/2) leaves v_f = m_f
    k = 1.0
    assert abs(reduced(0.3, 0.5, k) - 0.3) <= 1e-15


def test_compose_many_matches_fold():
    k = Fraction(2)
    values = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    left = compose_many(values, k)
    right = compose_many(list(reversed(values)), k)
    assert left == right


def test_domain_errors():
    with pytest.raises(MassDomainError):
        compose(-0.1, 0.2, 1.0)
    with pytest.raises(MassDomainError):
        compose(0.6, 0.2, 1.0)  # above k/2
    with pytest.raises(MassDomainError):
        to_physical(-1.0, 1.0)
    with pytest.raises(MassDomainError):
        to_algebra(0.5, 1.0)  # the bound has no finite coordinate
    with pytest.raises(MassDomainError):
        masses.check_deformation(0.0)
    with pytest.raises(MassDomainError, match="smallest normal float"):
        compose(1e-311, 1e-311, 1e-310)  # a subnormal k
    with pytest.raises(MassDomainError):
        reduced(0.0, 0.0, 1.0)
    with pytest.raises(MassDomainError):
        compose_many([], 1.0)
    nan = float("nan")   # fails every comparison, so each bound must reject it
    for call in (lambda: masses.check_physical(nan, 1.0), lambda: compose(nan, 0.2, 1.0),
                 lambda: to_physical(nan, 1.0), lambda: to_algebra(nan, 1.0),
                 lambda: to_algebra(nan, math.inf), lambda: masses.check_deformation(nan)):
        with pytest.raises(MassDomainError):
            call()


@given(st.floats(0.5, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_compose_commutative_hypothesis(k, fa, fb):
    a, b = fa * k / 2, fb * k / 2
    assert compose(a, b, k) == compose(b, a, k)


def test_conversions_near_the_largest_float():
    # 2m overflows at m = k = 1.7e308, but 2m/k = 2 does not
    k = 1.7e308
    assert to_physical(k, k) == (k / 2) * -math.expm1(-2.0)
    # the algebra mass of 0.99 (k/2) is about 2.3 k, above the largest float
    with pytest.raises(MassDomainError, match="largest float"):
        to_algebra(0.99 * (k / 2), k)
    # in units of k/2 it is -ln(1 - 2 m_f / k), about -ln(0.01), correctly
    # rounded; and the largest float mass below k/2 is under 37 units
    m_f = 0.99 * (k / 2)
    with mpmath.workdps(60):
        exact = -mpmath.log(1 - 2 * mpmath.mpf(m_f) / mpmath.mpf(k))
        assert masses.algebra_units(m_f, k) == float(exact)
    assert masses.algebra_units(math.nextafter(k / 2, 0.0), k) < 37.0


def test_algebra_units_scale_to_the_algebra_mass():
    # to_algebra is k/2 times the units, bit for bit; the units reject what
    # has no finite unit or coordinate
    rng = random.Random(3)
    for _ in range(200):
        k = 10.0 ** rng.uniform(-300, 300)
        m_f = rng.uniform(0.0, 0.499) * k
        assert to_algebra(m_f, k) == (k / 2) * masses.algebra_units(m_f, k)
    for m_f, k in ((0.5, 1.0), (0.3, math.inf), (0.6, 1.0), (float("nan"), 1.0)):
        with pytest.raises(MassDomainError):
            masses.algebra_units(m_f, k)


@given(st.floats(0.5, 4.0), st.floats(2e-3, 1.0), st.floats(2e-3, 1.0), st.floats(-300.0, 300.0))
@settings(max_examples=300, deadline=None)
def test_compose_scales_with_k_hypothesis(k, fa, fb, e):
    # M_f is homogeneous of degree one in (m_f, m'_f, k), also where the
    # product 2 m_f m'_f underflows or overflows: within the 4 ulps that
    # rounding the scaled inputs and the three operations allow
    s = 10.0 ** e
    m, mp = fa * k / 2, fb * k / 2
    scaled = s * compose(m, mp, k)
    assert abs(compose(s * m, s * mp, s * k) - scaled) <= 4 * math.ulp(scaled)


@pytest.mark.parametrize("m_f, mp_f", [(1e308, 1e308), (1.79e308, 1e306), (1e308, 8e307),
                                       (sys.float_info.max, sys.float_info.max), (0.3, 0.4)])
def test_classical_limit_where_the_total_overflows(m_f, mp_f):
    # at k = inf the composed mass m_f + m'_f is rejected where it exceeds
    # the largest float, while the reduced mass, which never exceeds m_f,
    # is the exact m_f m'_f / (m_f + m'_f) correctly rounded
    total = Fraction(m_f) + Fraction(mp_f)
    exact = float(Fraction(m_f) * Fraction(mp_f) / total)
    if total > sys.float_info.max:
        with pytest.raises(MassDomainError, match="composed mass .* exceeds the largest float"):
            compose(m_f, mp_f, math.inf)
    else:
        assert compose(m_f, mp_f, math.inf) == float(total)
    assert reduced(m_f, mp_f, math.inf) == classical_reduced(m_f, mp_f) == exact


# Fraction oracles across the documented domain.  k is log-uniform over
# 1e-307 - 1e308, or infinite; each mass is log-uniform below the bound k/2
# (the largest float at k = inf), from subnormal sizes up, or within a
# relative 1e-16 - 1e-1 of it.  A call returns a value within ORACLE_ULPS of
# the exact rational value, or raises MassDomainError exactly where that
# value lies outside the range the function returns: above the largest
# float for the composed masses, and below the smallest normal float for
# the reduced masses, whose subnormal values have lost bits.  Within
# ORACLE_ULPS of that edge, either outcome is accepted.

ORACLE_ULPS = 8
_MAX, _MIN = sys.float_info.max, sys.float_info.min


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(math.exp(x), hi))


@st.composite
def _deformation_and_masses(draw, count):
    k = draw(st.one_of(_log_uniform(1e-307, 1e308), st.just(math.inf)))
    bound = _MAX if math.isinf(k) else k / 2
    mass = st.one_of(_log_uniform(1e-320, bound),
                     _log_uniform(1e-16, 1e-1).map(lambda d: bound * (1 - d)))
    return k, draw(st.lists(mass, min_size=count, max_size=count))


def _exact_compose(total, m_f, k):
    total, m_f = Fraction(total), Fraction(m_f)
    return total + m_f if math.isinf(k) else total + m_f - 2 * total * m_f / Fraction(k)


def _matches_oracle(call, exact, edge):
    """call() is within ORACLE_ULPS of ``exact``, or raises MassDomainError
    exactly where ``exact`` lies past ``edge`` (_MAX above, _MIN below)."""
    outside = exact > _MAX if edge == _MAX else exact < _MIN
    near = abs(exact - Fraction(edge)) <= ORACLE_ULPS * Fraction(math.ulp(edge))
    try:
        value = call()
    except MassDomainError:
        assert outside or near, float(exact)
        return
    assert not outside or near, (value, float(exact))
    ulp = Fraction(math.ulp(float(min(exact, Fraction(_MAX)))))
    assert abs(Fraction(value) - exact) <= ORACLE_ULPS * ulp, (value, float(exact))


@given(_deformation_and_masses(2))
@settings(max_examples=500, deadline=None)
def test_compose_matches_the_fraction_oracle(drawn):
    k, (m_f, mp_f) = drawn
    _matches_oracle(lambda: compose(m_f, mp_f, k), _exact_compose(m_f, mp_f, k), _MAX)


@given(st.integers(1, 6).flatmap(_deformation_and_masses))
@settings(max_examples=300, deadline=None)
def test_compose_many_matches_the_fraction_oracle(drawn):
    k, ms = drawn
    exact = Fraction(ms[0])
    for m_f in ms[1:]:
        exact = _exact_compose(exact, m_f, k)
    _matches_oracle(lambda: compose_many(ms, k), exact, _MAX)


@given(_deformation_and_masses(2))
@settings(max_examples=500, deadline=None)
def test_reduced_matches_the_fraction_oracle(drawn):
    k, (m_f, mp_f) = drawn
    exact = Fraction(m_f) * Fraction(mp_f) / _exact_compose(m_f, mp_f, k)
    _matches_oracle(lambda: reduced(m_f, mp_f, k), exact, _MIN)


@given(_deformation_and_masses(2))
@settings(max_examples=500, deadline=None)
def test_classical_reduced_matches_the_fraction_oracle(drawn):
    _, (m_f, mp_f) = drawn
    exact = Fraction(m_f) * Fraction(mp_f) / (Fraction(m_f) + Fraction(mp_f))
    _matches_oracle(lambda: classical_reduced(m_f, mp_f), exact, _MIN)


# mpmath oracles for the changes of mass coordinate, which are
# transcendental: the same domain and contract as above, against the
# formula evaluated at 60 digits.  An algebra mass is drawn like a physical
# one, or as 1e-3 - 1e3 units of k/2, where the exponential neither
# linearizes nor saturates.

def _mp_exact(value):
    """A nonnegative mpmath value as a Fraction; an infinite one, the algebra
    coordinate of m_f = k/2, as twice the largest float, past every float."""
    if mpmath.isinf(value):
        return 2 * Fraction(_MAX)
    return Fraction(value.man) * Fraction(2) ** value.exp


@st.composite
def _deformation_and_algebra_mass(draw):
    k, (m,) = draw(_deformation_and_masses(1))
    if math.isfinite(k) and draw(st.booleans()):
        m = min(draw(_log_uniform(1e-3, 1e3)) * (k / 2), _MAX)
    return k, m


def _mp_units(m_f, k):
    """-ln(1 - 2 m_f / k) at 60 digits; infinite at m_f = k/2."""
    with mpmath.workdps(60):
        return -mpmath.log1p(-2 * mpmath.mpf(m_f) / mpmath.mpf(k))


@given(_deformation_and_algebra_mass())
@settings(max_examples=500, deadline=None)
def test_to_physical_matches_the_mpmath_oracle(drawn):
    k, m = drawn
    if math.isinf(k):
        exact = Fraction(m)
    else:
        with mpmath.workdps(60):
            half = mpmath.mpf(k) / 2
            exact = _mp_exact(-half * mpmath.expm1(-mpmath.mpf(m) / half))
    _matches_oracle(lambda: to_physical(m, k), exact, _MAX)


@given(_deformation_and_masses(1))
@settings(max_examples=500, deadline=None)
def test_to_algebra_matches_the_mpmath_oracle(drawn):
    k, (m_f,) = drawn
    if math.isinf(k):
        exact = Fraction(m_f)
    else:
        with mpmath.workdps(60):
            exact = _mp_exact(mpmath.mpf(k) / 2 * _mp_units(m_f, k))
    _matches_oracle(lambda: to_algebra(m_f, k), exact, _MAX)


@given(_deformation_and_masses(1))
@settings(max_examples=500, deadline=None)
def test_algebra_units_match_the_mpmath_oracle(drawn):
    k, (m_f,) = drawn
    assume(math.isfinite(k))
    _matches_oracle(lambda: masses.algebra_units(m_f, k), _mp_exact(_mp_units(m_f, k)), _MAX)
