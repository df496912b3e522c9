"""Tests for the Weyl algebra with exact normal ordering."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kgalilei import weyl
from kgalilei.realization import default_system
from kgalilei.scalars import I, Rat, sym
from kgalilei.weyl import (
    WeylExpression,
    momentum,
    position,
    scalar,
)


def random_expression(rng, max_terms=3, max_deg=2):
    """Random Weyl expression: slots 1-2, axes 1-3, exponents <= max_deg."""
    total = WeylExpression.zero()
    for _ in range(rng.randint(1, max_terms)):
        xexp = [0] * 6
        pexp = [0] * 6
        for _ in range(rng.randint(0, max_deg)):
            xexp[rng.randrange(6)] += 1
        for _ in range(rng.randint(0, max_deg)):
            pexp[rng.randrange(6)] += 1
        re, im = rng.randint(-3, 3), rng.randint(-3, 3)
        if re == im == 0:
            re = 1
        coeff = re + im * I
        total = total + WeylExpression({(tuple(xexp), tuple(pexp)): coeff})
    return total


def test_canonical_commutators():
    for A in (1, 2):
        for i in (1, 2, 3):
            for B in (1, 2):
                for j in (1, 2, 3):
                    comm = position(A, i).commutator(momentum(B, j))
                    if (A, i) == (B, j):
                        assert comm == scalar(I)
                    else:
                        assert comm.is_zero
                    assert position(A, i).commutator(position(B, j)).is_zero
                    assert momentum(A, i).commutator(momentum(B, j)).is_zero


def test_generator_outside_the_slots_is_a_value_error():
    # two particles and three axes: anything else names no slot
    for particle, axis in ((0, 1), (3, 1), (1, 0), (2, 4), (-1, -1)):
        for make in (position, momentum):
            with pytest.raises(ValueError, match="invalid canonical symbol"):
                make(particle, axis)


def test_normal_order_ordered_word_unchanged():
    # x x p is already in normal order: one monomial, coefficient 1
    ordered = position(1, 1) * position(1, 1) * momentum(1, 1)
    assert ordered.terms == {((2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)): Rat(1)}


def test_normal_order_reorders_px():
    # p x = x p - i
    x_p = ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    zero = ((0,) * 6, (0,) * 6)
    assert (momentum(1, 1) * position(1, 1)).terms == {x_p: Rat(1), zero: -I}


def test_reorder_p_x():
    x, p = position(1, 1), momentum(1, 1)
    # p x = x p - i
    assert p * x == x * p - scalar(I)
    # p^2 x^2 = x^2 p^2 - 4 i x p - 2
    lhs = p * p * x * x
    rhs = x * x * p * p - (x * p).scale(4 * I) - scalar(Rat(2))
    assert lhs == rhs


def test_antisymmetry_random():
    rng = random.Random(3)
    for _ in range(50):
        a = random_expression(rng)
        b = random_expression(rng)
        assert (a.commutator(b) + b.commutator(a)).is_zero


def test_jacobi_random():
    rng = random.Random(5)
    for _ in range(200):
        a = random_expression(rng)
        b = random_expression(rng)
        c = random_expression(rng)
        j = (a.commutator(b.commutator(c))
             + c.commutator(a.commutator(b))
             + b.commutator(c.commutator(a)))
        assert j.is_zero


def test_associativity_random():
    rng = random.Random(9)
    for _ in range(50):
        a = random_expression(rng)
        b = random_expression(rng)
        c = random_expression(rng)
        assert (a * b) * c == a * (b * c)


def test_leibniz_rule_random():
    rng = random.Random(13)
    for _ in range(30):
        a = random_expression(rng)
        b = random_expression(rng)
        c = random_expression(rng)
        lhs = a.commutator(b * c)
        rhs = a.commutator(b) * c + b * (a.commutator(c))
        assert lhs == rhs


def test_symbolic_coefficients():
    lam = sym("lam")
    x, p = position(1, 1), momentum(1, 1)
    expr = (x * p).scale(lam)
    assert expr.commutator(scalar(lam)).is_zero
    assert expr - expr == WeylExpression.zero()


def test_canonical_cancellation_leaves_no_term():
    # (k/2)(1 - lam^2) - (k/2 - k lam^2/2) is zero, though built from nonzero
    # parts: the constructor drops the term, before any zero test
    k, lam = sym("k"), sym("lam")
    coeff = (k / 2) * (1 - lam ** 2) - (k / 2 - k * lam ** 2 / 2)
    expr = (position(1, 1) * momentum(2, 3)).scale(coeff)
    assert expr.terms == {}
    assert expr.is_zero
    assert expr == WeylExpression.zero()
    assert repr(expr) == "WeylExpression(0)"


def test_zero_test_equality_and_repr_leave_terms_alone():
    # a value is never changed after construction: reading it keeps the
    # same terms dict, zero or not
    k, lam = sym("k"), sym("lam")
    for expr in (position(1, 1) * momentum(1, 1) - momentum(1, 1) * position(1, 1),
                 (position(1, 1) * momentum(2, 3)).scale(k * (1 - lam)) - scalar(k),
                 (position(1, 1) * momentum(2, 3)).scale(k - k)):
        terms = expr.terms
        expr.is_zero
        expr == WeylExpression.zero()
        repr(expr)
        assert expr.terms is terms


_K, _LAM = sym("k"), sym("lam")
#: Coefficients with free symbols, a multi-term denominator among them.
_COEFFICIENTS = (Rat(1), -I, _K / 2, _LAM ** 2 - 1, I * _K / (1 - _LAM), 3 * sym("lamp") - _K)
#: Exponents on the six slots, of total degree at most 2.
_EXPONENTS = st.lists(st.integers(0, 5), max_size=2).map(
    lambda slots: tuple(slots.count(slot) for slot in range(6)))
_EXPRESSIONS = st.dictionaries(
    st.tuples(_EXPONENTS, _EXPONENTS),
    st.builds(lambda c, n: c * n, st.sampled_from(_COEFFICIENTS), st.integers(-2, 2)),
    max_size=4,
).map(WeylExpression)


@settings(max_examples=80, deadline=None)
@given(_EXPRESSIONS, _EXPRESSIONS)
def test_commutator_is_the_literal_difference_hypothesis(a, b):
    # the loop over pairs of terms keeps the terms of a*b - b*a, and the
    # other order gives their exact negation
    comm = a.commutator(b)
    assert comm.terms == (a * b - b * a).terms
    assert b.commutator(a).terms == (-comm).terms


#: Exponents up to 3 on x_11 and on x_22 (one slot of each particle), so that
#: a reordering reaches j = 3 and (-i)^j takes all four values.
_HIGH_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda e: (e[0], 0, 0, 0, e[1], 0))
_HIGH_EXPRESSIONS = st.dictionaries(
    st.tuples(_HIGH_EXPONENTS, _HIGH_EXPONENTS),
    st.builds(lambda c, n: c * n, st.sampled_from(_COEFFICIENTS), st.integers(-2, 2)),
    max_size=3,
).map(WeylExpression)


@settings(max_examples=80, deadline=None)
@given(_HIGH_EXPRESSIONS, _HIGH_EXPRESSIONS)
def test_closed_form_bracket_is_the_literal_difference_hypothesis(a, b):
    # the monomial brackets merged over Gaussian integers give exactly the
    # terms of a*b - b*a, and the other order their exact negation
    comm = a.commutator(b)
    assert comm.terms == (a * b - b * a).terms
    assert b.commutator(a).terms == (-comm).terms


def test_cubic_bracket_on_one_slot():
    # p^3 x^3 = x^3 p^3 - 9i x^2 p^2 - 18 x p + 6i, so [p^3, x^3] is all of it
    # but the leading term: j = 1, 2, 3 give -i, -1 and i
    x, p = position(1, 1), momentum(1, 1)
    p3, x3 = p * p * p, x * x * x
    expected = (x * x * p * p).scale(-9 * I) - (x * p).scale(18) + scalar(6 * I)
    assert p3.commutator(x3) == expected
    assert p3.commutator(x3).terms == (p3 * x3 - x3 * p3).terms
    assert x3.commutator(p3) == -expected


def test_mixed_particle_bracket():
    # [x_11 p_22, p_11 x_22] = -i x_11 p_11 + i x_22 p_22: each particle's
    # pair contributes one j = 1 term, and the j = 0 terms cancel
    a = position(1, 1) * momentum(2, 2)
    b = momentum(1, 1) * position(2, 2)
    expected = (position(2, 2) * momentum(2, 2) - position(1, 1) * momentum(1, 1)).scale(I)
    assert a.commutator(b) == expected
    assert a.commutator(b).terms == (a * b - b * a).terms
    assert b.commutator(a) == -expected


def _commute(m1, m2) -> bool:
    """No slot pairs a momentum exponent of one monomial with a position exponent of the other."""
    (x1, p1), (x2, p2) = m1, m2
    return not any(p1[s] and x2[s] or p2[s] and x1[s] for s in range(6))


def test_commuting_monomials_reorder_nothing(monkeypatch):
    # momenta of each side sit on slots where the other side has no position:
    # the bracket is zero, and no reordering is asked for
    a = WeylExpression({((7, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 7)): Rat(3)})
    b = WeylExpression({((6, 2, 0, 0, 0, 0), (0, 0, 0, 0, 5, 0)): sym("lam"),
                        ((0, 0, 5, 0, 0, 0), (0, 0, 0, 6, 0, 0)): -I})
    for m1 in a.terms:
        for m2 in b.terms:
            assert _commute(m1, m2)

    def no_reorder(pexp, xexp):
        raise AssertionError(f"reordered p^{pexp} x^{xexp}")

    monkeypatch.setattr(weyl, "_reorder", no_reorder)
    assert a.commutator(b).is_zero
    assert b.commutator(a).is_zero


def test_composed_brackets_reorder_only_noncommuting_pairs(monkeypatch):
    # work guard: in the composed verdict the commutator skips a commuting
    # pair of monomials by their slot masks, so no bracket is taken of one,
    # and each bracket it takes reorders its two orders once each; only the
    # first pair of each axis-rotation orbit takes a commutator (60 brackets
    # when every pair took one; 457, 397 of them of commuting pairs, when
    # each pair reached the bracket and the bracket tested the slots).  The
    # count is the measured one, the same under every hash seed tried
    reorders = []
    reorder = weyl._reorder

    def counting(pexp, xexp):
        reorders.append((pexp, xexp))
        return reorder(pexp, xexp)

    calls = []
    bracket = WeylExpression._bracket

    def tracking(self, m1, m2):
        before = len(reorders)
        out = bracket(self, m1, m2)
        calls.append((_commute(m1, m2), len(reorders) - before))
        return out

    monkeypatch.setattr(weyl, "_reorder", counting)
    monkeypatch.setattr(WeylExpression, "_bracket", tracking)
    residuals = default_system().verify_composed()
    assert all(value.is_zero for _, value in residuals)
    assert calls == [(False, 2)] * 20
