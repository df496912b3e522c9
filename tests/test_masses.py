"""Tests for the non-additive mass arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    # in units of k/2 it is -ln(0.01), and the largest float mass below k/2
    # is under 37 units
    assert masses.algebra_units(0.99 * (k / 2), k) == -math.log1p(-0.99)
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
