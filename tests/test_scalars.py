"""Tests for the exact rational-function coefficient field."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from kgalilei.scalars import (
    DegenerateInputError,
    I,
    MissingSymbolError,
    PoleError,
    Rat,
    RationalFunction,
    sym,
)

k = sym("k")
lam = sym("lam")
lamp = sym("lamp")


def random_rational(rng, symbols=(k, lam)):
    """A small random rational function with integer coefficients."""
    num = Rat(rng.randint(-4, 4))
    den = Rat(1)
    for s in symbols:
        num = num + rng.randint(-3, 3) * s + rng.randint(-2, 2) * s * s
        den = den + rng.randint(0, 2) * s
    return num / den


def test_canonical_cancellation():
    f = (k * k - 1) / (k - 1)
    assert f == k + 1
    assert f.den == sp.Integer(1)


def test_canonical_denominator_normalized():
    # numerator/denominator are coprime with grlex-monic denominator
    f = (2 * lam) / (2 * k - 2)
    assert f.den == (k - 1).num
    g = lam / (k - 1)
    assert f == g


def test_congruence_classes_equal():
    a = (lam * lam - 1) / (lam + 1)
    b = lam - 1
    assert a == b
    assert hash(a) == hash(b)


def test_normalize_idempotent():
    f = (k * lam + lam) / (k + 1)
    g = f.normalize()
    assert g == g.normalize()
    assert f == g


def test_zero_and_one():
    assert (k - k).is_zero
    assert (k / k).is_one
    assert not k.is_zero


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        a = random_rational(rng)
        b = random_rational(rng)
        c = random_rational(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if not a.is_zero:
            assert (a / a).is_one
            assert a * (1 / a) == Rat(1)


def test_power():
    assert lam ** 3 == lam * lam * lam
    assert lam ** 0 == Rat(1)
    assert lam ** -2 == 1 / (lam * lam)


def test_degenerate_denominator_rejected():
    with pytest.raises(DegenerateInputError):
        _ = k / (lam - lam)


def test_evaluate_random_points():
    rng = random.Random(11)
    for _ in range(1000):
        a = rng.uniform(-3, 3)
        b = rng.uniform(0.1, 1.0)
        f = (k * k * lam - 2 * lam + 1) / (k * k + 1)
        expected = (a * a * b - 2 * b + 1) / (a * a + 1)
        got = f.evaluate({"k": a, "lam": b})
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_evaluate_pole_detected():
    f = lam / (k - 1)
    with pytest.raises(PoleError):
        f.evaluate({"k": 1.0, "lam": 0.5})


def test_evaluate_missing_symbol():
    f = lam / (k + 1)
    with pytest.raises(MissingSymbolError):
        f.evaluate({"k": 2.0})


def test_evaluate_removable_singularity_is_fine():
    # (k^2 - 1)/(k - 1) cancels to k + 1, so k = 1 is not a pole
    f = (k * k - 1) / (k - 1)
    assert abs(f.evaluate({"k": 1.0}) - 2.0) <= 1e-14


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_arithmetic_matches_rationals(a, b, c):
    # constants embed as an exact copy of Q
    lhs = (Rat(a) + Rat(b)) / Rat(c)
    rhs = Rat(a + b) / c
    assert lhs == rhs


def test_complex_coefficients():
    f = I * lam
    assert f * f == -(lam * lam)
    assert abs(f.evaluate({"lam": 2.0}) - 2j) <= 1e-14


def test_repr_is_stable():
    f = (lam + 1) / k
    assert isinstance(repr(f), str)
    assert repr(f) == repr(f.normalize())
