"""The term kernel against the list-based routes it replaced.

Every monomial product, bracket and rewriting of the exact engines is a
{monomial: coefficient} dict merged by ``scalars._accumulate``.  The routes
below keep the list-based form those engines had before: a product as
(factor, monomial) pairs, merged by hand with RationalFunction operators; a
bracket as the two products merged and built through the constructor; a
letter tuple rewritten into (coeff, letters, dm, de) terms.  On drawn Weyl,
enveloping-algebra and 2- and 3-leg tensor elements, under the letter table
and a wrong-sign one, the kernel gives exactly their terms.
"""

import types
from operator import add

from hypothesis import given, settings, strategies as st

from kgalilei import weyl
from kgalilei.hopf import GENERATOR_NAMES, GalileiHopf, TensorExpression, UEAExpression, _RANK
from kgalilei.scalars import I, LinearCombination, Rat, sym
from kgalilei.weyl import WeylExpression

# -- reference routes -----------------------------------------------------------


def _merge(out: dict, factor, mono) -> None:
    out[mono] = out[mono] + factor if mono in out else factor


def _reference_mul(a, b, product):
    """a * b by the list-based loop: each pair's (factor, monomial) pairs, merged by hand."""
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            base = c1 * c2
            for factor, mono in product(m1, m2):
                _merge(out, base * factor, mono)
    return a._like(out)


def _reference_bracket(expr, product, m1, m2) -> dict:
    """m1 m2 - m2 m1: the two products merged, built through the constructor."""
    merged: dict = {}
    for factor, mono in product(m1, m2):
        _merge(merged, factor, mono)
    for factor, mono in product(m2, m1):
        _merge(merged, -factor, mono)
    return expr._like(merged).terms


def _weyl_product(m1, m2) -> list:
    (x1, p1), (x2, p2) = m1, m2
    return [(weight, (tuple(map(add, x1, mid_x)), tuple(map(add, mid_p, p2))))
            for (mid_x, mid_p), weight, _ in weyl._reorder(p1, x2)]


def _reference_sorted_words(alg, letters: tuple, cache: dict) -> list:
    """Normal-order a letter tuple into (coeff, letters, dm, de) terms, by
    swapping the first pair out of order: a b = b a + [a, b]."""
    if letters in cache:
        return cache[letters]
    idx = next((i for i in range(len(letters) - 1)
                if _RANK[letters[i]] > _RANK[letters[i + 1]]), -1)
    if idx < 0:
        result = [(Rat(1), letters, 0, 0)]
    else:
        a, b = letters[idx], letters[idx + 1]
        prefix, suffix = letters[:idx], letters[idx + 2:]
        out: dict = {}
        for coeff, ls, dm, de in _reference_sorted_words(alg, prefix + (b, a) + suffix, cache):
            _merge(out, coeff, (ls, dm, de))
        for (bletters, bdm, bde), bc in alg._letter_bracket(a, b).items():
            inner = _reference_sorted_words(alg, prefix + bletters + suffix, cache)
            for coeff, ls, dm, de in inner:
                _merge(out, bc * coeff, (ls, dm + bdm, de + bde))
        result = [(c, ls, dm, de) for (ls, dm, de), c in out.items()]
    cache[letters] = result
    return result


def _word_product(alg, cache: dict):
    def product(w1, w2) -> list:
        (l1, m1, e1), (l2, m2, e2) = w1, w2
        return [(factor, (letters, m1 + m2 + dm, e1 + e2 + de))
                for factor, letters, dm, de in _reference_sorted_words(alg, l1 + l2, cache)]
    return product


def _tensor_product(word_product):
    def product(words1, words2) -> list:
        first, *rest = map(word_product, words1, words2)
        out = [(factor, (word,)) for factor, word in first]
        for terms in rest:
            out = [(c * factor, key + (word,)) for c, key in out for factor, word in terms]
        return out
    return product


# -- drawn elements --------------------------------------------------------------

_K, _LAM = sym("k"), sym("lam")
#: Coefficients with free symbols, a multi-term denominator among them.
_COEFFICIENTS = st.builds(lambda c, n: c * n, st.sampled_from(
    (Rat(1), -I, _K / 2, _LAM ** 2 - 1, I * _K / (1 - _LAM), 3 * sym("lamp") - _K)),
    st.integers(-2, 2))
#: Weyl exponents on the six slots, of total degree at most 2.
_EXPONENTS = st.lists(st.integers(0, 5), max_size=2).map(
    lambda slots: tuple(slots.count(slot) for slot in range(6)))
_WEYL = st.dictionaries(st.tuples(_EXPONENTS, _EXPONENTS), _COEFFICIENTS,
                        max_size=3).map(WeylExpression)
_LETTERS = list(GENERATOR_NAMES[:10])
#: A normal-ordered word: up to three sorted letters, powers of M and E.
_WORDS = st.tuples(st.lists(st.sampled_from(_LETTERS), max_size=3).map(
    lambda ls: tuple(sorted(ls, key=_LETTERS.index))), st.integers(0, 2), st.integers(-2, 2))

_letter_bracket = GalileiHopf._letter_bracket


def _wrong_sign(self, a, b):
    # [J_i, P_j] with the wrong sign, as in the Hopf negative controls
    terms = _letter_bracket(self, a, b)
    return {key: -c for key, c in terms.items()} if (a[0], b[0]) == ("J", "P") else terms


def _assert_kernel(a, b, product, closed_form=None):
    assert (a * b).terms == _reference_mul(a, b, product).terms
    for m1 in a.terms:
        for m2 in b.terms:
            reference = _reference_bracket(a, product, m1, m2)
            assert LinearCombination._bracket(a, m1, m2) == reference, (m1, m2)
            if closed_form is not None:
                assert closed_form(m1, m2) == reference, (m1, m2)


@settings(max_examples=80, deadline=None)
@given(_WEYL, _WEYL)
def test_weyl_kernel_matches_the_reference_routes_hypothesis(a, b):
    _assert_kernel(a, b, _weyl_product, a._bracket)


@settings(max_examples=60, deadline=None)
@given(wrong_sign=st.booleans(), letters=st.lists(st.sampled_from(_LETTERS), max_size=5),
       data=st.data())
def test_uea_kernel_matches_the_reference_routes_hypothesis(wrong_sign, letters, data):
    alg = GalileiHopf()
    if wrong_sign:
        alg._letter_bracket = types.MethodType(_wrong_sign, alg)
    cache: dict = {}
    reference = _reference_sorted_words(alg, tuple(letters), cache)
    assert alg._sorted_words(tuple(letters)) == {(ls, dm, de): c for c, ls, dm, de in reference}
    a, b = (UEAExpression(alg, data.draw(st.dictionaries(_WORDS, _COEFFICIENTS, max_size=3)))
            for _ in range(2))
    _assert_kernel(a, b, _word_product(alg, cache), alg._word_bracket)


@settings(max_examples=60, deadline=None)
@given(legs=st.integers(2, 3), wrong_sign=st.booleans(), data=st.data())
def test_tensor_kernel_matches_the_reference_routes_hypothesis(legs, wrong_sign, data):
    alg = GalileiHopf()
    if wrong_sign:
        alg._letter_bracket = types.MethodType(_wrong_sign, alg)
    monomials = st.tuples(*[_WORDS] * legs)
    a, b = (TensorExpression(alg, legs, data.draw(st.dictionaries(monomials, _COEFFICIENTS,
                                                                  max_size=2)))
            for _ in range(2))
    _assert_kernel(a, b, _tensor_product(_word_product(alg, {})), a._bracket)
