"""Tests for the deformed Hopf algebra structure."""

import itertools
import json
import random
import types

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from kgalilei.cli import run
from kgalilei.hopf import GENERATOR_NAMES, GalileiHopf, TensorExpression, UEAExpression, eps
from kgalilei.scalars import LinearCombination, Rat, RationalFunction, sym


@pytest.fixture(scope="module")
def alg():
    return GalileiHopf()


def test_epsilon_symbol():
    assert eps(1, 2, 3) == 1
    assert eps(2, 1, 3) == -1
    assert eps(1, 1, 2) == 0


def test_deformed_boost_momentum_bracket(alg):
    # [K_i, P_j] = i delta_ij (k/2)(1 - E^2)
    k = sym("k")
    c = k / 2
    expected = (alg.one() - alg.gen("E") * alg.gen("E")).scale(Rat(sp.I) * c)
    assert alg.bracket("K1", "P1") == expected
    assert alg.bracket("K1", "P2").is_zero
    assert alg.bracket("K2", "P1").is_zero


def test_boost_hamiltonian_bracket(alg):
    assert alg.bracket("K1", "H") == alg.gen("P1").scale(Rat(sp.I))


def test_rotation_brackets(alg):
    assert alg.bracket("J1", "J2") == alg.gen("J3").scale(Rat(sp.I))
    assert alg.bracket("J1", "P2") == alg.gen("P3").scale(Rat(sp.I))
    assert alg.bracket("J2", "K3") == alg.gen("K1").scale(Rat(sp.I))


def test_central_elements(alg):
    for central in ("M", "E", "Einv"):
        for g in GENERATOR_NAMES:
            assert alg.bracket(central, g).is_zero


def test_bracket_antisymmetry(alg):
    for g in GENERATOR_NAMES:
        for h in GENERATOR_NAMES:
            assert (alg.bracket(g, h) + alg.bracket(h, g)).is_zero


def test_jacobi_random_sample(alg):
    rng = random.Random(1)
    for _ in range(100):
        g, h, f = (rng.choice(GENERATOR_NAMES) for _ in range(3))
        assert alg.check_jacobi(g, h, f).is_zero


def test_coproduct_shapes(alg):
    # P, K twisted primitive; E grouplike; J, H, M primitive
    dP = alg.coproduct("P1")
    one = ((), 0, 0)
    P = ((("P", 1),), 0, 0)
    E = ((), 0, 1)
    assert dP.terms == {(P, E): Rat(1), (one, P): Rat(1)}
    dE = alg.coproduct("E")
    assert dE.terms == {(E, E): Rat(1)}
    dH = alg.coproduct("H")
    H = ((("H", 0),), 0, 0)
    assert dH.terms == {(H, one): Rat(1), (one, H): Rat(1)}
    M = ((), 1, 0)
    dM = alg.coproduct("M")
    assert dM.terms == {(M, one): Rat(1), (one, M): Rat(1)}


def test_coproduct_homomorphism_all_pairs(alg):
    for g in GENERATOR_NAMES:
        for h in GENERATOR_NAMES:
            assert alg.check_hom(g, h).is_zero


def test_coassociativity_all_generators(alg):
    for g in GENERATOR_NAMES:
        assert alg.check_coassoc(g).is_zero


def test_counit(alg):
    for g in GENERATOR_NAMES:
        expected = Rat(1) if g in ("E", "Einv") else Rat(0)
        assert alg.counit(g) == expected


def test_hopf_axiom_all_generators(alg):
    for g in GENERATOR_NAMES:
        assert alg.check_hopf_axiom(g).is_zero


def test_antipode_is_antihomomorphism(alg):
    rng = random.Random(2)
    for _ in range(20):
        g, h = rng.choice(GENERATOR_NAMES), rng.choice(GENERATOR_NAMES)
        lhs = alg.antipode_of(alg.gen(g) * alg.gen(h))
        rhs = alg.antipode_of(alg.gen(h)) * alg.antipode_of(alg.gen(g))
        assert (lhs - rhs).is_zero


def test_classical_limit_bracket(alg):
    # first order in M/k: [K_i, P_j] -> i delta_ij M
    limit = alg.first_order_classical(alg.bracket("K1", "P1"))
    expected = alg.first_order_classical(alg.gen("M").scale(Rat(sp.I)))
    assert (limit - expected).is_zero


def test_rewrite_terminates_on_higher_degree(alg):
    # a degree-6 word normalizes without blowing up
    word = alg.gen("P1") * alg.gen("K1") * alg.gen("H") * alg.gen("K2") * alg.gen("P2") * alg.gen("J3")
    assert max(len(letters) + m for letters, m, _ in word.terms) <= 6
    assert (word - word).is_zero


def test_unknown_generator_rejected(alg):
    with pytest.raises(KeyError):
        alg.gen("Q1")
    with pytest.raises(KeyError):
        alg.coproduct("Q1")


def test_canonical_cancellation_leaves_no_term(alg):
    # (k/2)(1 - lam^2) - (k/2 - k lam^2/2) is zero, though built from nonzero
    # parts: the constructor drops the terms, in the enveloping algebra and in
    # its tensor square alike
    k, lam = sym("k"), sym("lam")
    coeff = (k / 2) * (1 - lam ** 2) - (k / 2 - k * lam ** 2 / 2)
    for expr in ((alg.gen("K1") * alg.gen("H")).scale(coeff), alg.coproduct("P2").scale(coeff)):
        assert expr.terms == {}
        assert expr.is_zero
        assert expr == expr.scale(0)
        assert repr(expr) == f"{expr._name}(0)"


def test_residuals_hold_no_zero_coefficient():
    # read before any zero test: no Jacobi sum or homomorphism residual of a
    # fresh algebra carries a zero coefficient, and reading them changes nothing
    fresh = GalileiHopf()
    residuals = [fresh.check_jacobi(*t) for t in itertools.product(GENERATOR_NAMES, repeat=3)]
    residuals += [fresh.check_hom(*p) for p in itertools.product(GENERATOR_NAMES, repeat=2)]
    for residual in residuals:
        assert all(not c.is_zero for c in residual.terms.values())
    for residual in residuals:
        terms = residual.terms
        residual.is_zero
        residual == residual
        repr(residual)
        assert residual.terms is terms


def _primitive_coproduct(alg, letter):
    # X (x) 1 + 1 (x) X for every letter, P and K included: the untwisted coproduct
    one = ((), 0, 0)
    word = ((letter,), 0, 0)
    return TensorExpression(alg, 2, {(word, one): Rat(1), (one, word): Rat(1)})


def test_untwisted_coproduct_is_caught(alg, monkeypatch):
    # negative control: with the primitive coproduct X (x) 1 + 1 (x) X for P
    # and K, Delta is no algebra map on [K1, P1] and check_hom says so
    broken = GalileiHopf()
    monkeypatch.setattr(broken, "_letter_coproduct",
                        lambda letter: _primitive_coproduct(broken, letter))
    residual = broken.check_hom("K1", "P1")
    assert not residual.is_zero
    assert alg.check_hom("K1", "P1").is_zero


def test_verify_hopf_names_first_failing_item(monkeypatch, capsys):
    # the same negative control through the CLI: a failing check names its
    # first failing pair or generator and that item's canonical residual
    monkeypatch.setattr(GalileiHopf, "_letter_coproduct", _primitive_coproduct)
    assert run(["verify", "hopf", "--format", "json"]) == 1
    captured = capsys.readouterr()
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "jacobi": "exact-pass", "coproduct-homomorphism": "fail",
        "coassociativity": "exact-pass", "hopf-axiom": "fail"}
    broken = GalileiHopf()
    hom = f"K1, P1: {broken.check_hom('K1', 'P1')!r}"
    antipode = f"K1: {broken.check_hopf_axiom('K1')!r}"
    assert hom.startswith("K1, P1: Tensor(") and "E^2(x)E^2" in hom
    assert checks["coproduct-homomorphism"]["detail"] == hom
    assert checks["hopf-axiom"]["detail"] == antipode
    assert "detail" not in checks["jacobi"]
    assert captured.err.splitlines() == [
        f"FAIL coproduct-homomorphism: residual = 6 ({hom})",
        f"FAIL hopf-axiom: residual = 6 ({antipode})"]


def test_stored_brackets_equal_fresh_commutators():
    # every stored [g, h], [[g, h], f] and homomorphism residual equals the
    # one built afresh, mirrored and diagonal values included
    alg = GalileiHopf()
    gen = alg.gen
    fresh = GalileiHopf()
    for g, h in itertools.product(GENERATOR_NAMES, repeat=2):
        assert alg.bracket(g, h) == gen(g).commutator(gen(h))
        assert alg.bracket(g, h) is alg.bracket(g, h)
        built = (fresh.coproduct_of(fresh.gen(g).commutator(fresh.gen(h)))
                 - fresh.coproduct(g).commutator(fresh.coproduct(h)))
        assert alg.check_hom(g, h) == TensorExpression(alg, 2, built.terms)
    for g, h, f in itertools.product(GENERATOR_NAMES, repeat=3):
        assert alg.double_bracket(g, h, f) == gen(g).commutator(gen(h)).commutator(gen(f))
    expected = (alg.one() - gen("E") * gen("E")).scale(Rat(sp.I) * sym("k") / 2)
    assert alg.bracket("K1", "P1") == expected


def test_mirrored_homomorphism_residuals_equal_fresh_ones(monkeypatch):
    # with the untwisted coproduct six ordered pairs fail, (K_i, P_i) and
    # (P_i, K_i); every stored residual, the mirrors filled in at build time
    # included, equals the one built afresh for its own order, sign included
    monkeypatch.setattr(GalileiHopf, "_letter_coproduct", _primitive_coproduct)
    alg, fresh = GalileiHopf(), GalileiHopf()
    nonzero = []
    for g, h in itertools.product(GENERATOR_NAMES, repeat=2):
        built = (fresh.coproduct_of(fresh.gen(g).commutator(fresh.gen(h)))
                 - fresh.coproduct(g).commutator(fresh.coproduct(h)))
        stored = alg.check_hom(g, h)
        assert stored == TensorExpression(alg, 2, built.terms), (g, h)
        if not stored.is_zero:
            nonzero.append((g, h))
    assert sorted(nonzero) == sorted([(f"K{i}", f"P{i}") for i in "123"]
                                     + [(f"P{i}", f"K{i}") for i in "123"])


def test_repeat_scan_is_lookups(monkeypatch):
    # work guard: once a scan has filled the store, a second scan of every
    # ordered triple and pair returns the very same objects and constructs
    # no element at all: no sort, no negation, no fresh zero
    alg = GalileiHopf()
    triples = list(itertools.product(GENERATOR_NAMES, repeat=3))
    pairs = list(itertools.product(GENERATOR_NAMES, repeat=2))
    first = ([alg.check_jacobi(*t) for t in triples], [alg.check_hom(*p) for p in pairs])
    built = []
    init = LinearCombination.__init__

    def counted(self, terms=None):
        built.append(type(self))
        init(self, terms)

    monkeypatch.setattr(LinearCombination, "__init__", counted)
    second = ([alg.check_jacobi(*t) for t in triples], [alg.check_hom(*p) for p in pairs])
    assert (len(second[0]), len(second[1])) == (2197, 169)
    for old, new in zip(first[0] + first[1], second[0] + second[1]):
        assert new is old
    assert built == []


def test_generators_are_built_once(alg):
    # work guard: a generator is one immutable element per algebra
    for name in GENERATOR_NAMES:
        assert alg.gen(name) is alg.gen(name)
    assert GalileiHopf().gen("P1") is not alg.gen("P1")


def test_sum_with_an_empty_operand_is_the_other_operand(alg):
    # work guard: elements are immutable, so adding or negating a zero
    # builds nothing; an operand of another algebra is still refused
    p1, zero = alg.gen("P1"), UEAExpression(alg, {})
    assert p1 + zero is p1
    assert zero + p1 is p1
    assert -zero is zero
    assert p1 - zero is p1
    assert (zero - p1) == -p1
    for operand in (UEAExpression(GalileiHopf(), {}), TensorExpression(alg, 2, {})):
        for left, right in ((zero, operand), (operand, zero), (p1, operand), (operand, p1)):
            with pytest.raises(ValueError, match="incompatible"):
                left + right


def test_zero_jacobi_triple_builds_no_element(monkeypatch):
    # work guard: [P1, P2], [P2, M] and [M, P1] are zero, so once they are
    # stored the Jacobi sum of (P1, P2, M) takes no commutator and adds three
    # shared zeros into the same zero, constructing no element
    alg = GalileiHopf()
    for g, h in (("P1", "P2"), ("P2", "M"), ("M", "P1")):
        assert alg.bracket(g, h).is_zero
    built = []
    init = UEAExpression.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(UEAExpression, "__init__", counted)
    assert alg.check_jacobi("P1", "P2", "M") is alg.zero()
    assert alg.check_jacobi("M", "P2", "P1") is alg.zero()
    assert built == []


_letter_bracket = GalileiHopf._letter_bracket


def _wrong_sign_rotation_momentum(self, a, b):
    # [J_i, P_j] with the wrong sign; [P_j, J_i] follows by antisymmetry,
    # since the original flips (P, J) into (J, P) through this method
    terms = _letter_bracket(self, a, b)
    if (a[0], b[0]) == ("J", "P"):
        return [(-c, ls, dm, de) for c, ls, dm, de in terms]
    return terms


def test_wrong_bracket_sign_breaks_jacobi(monkeypatch, capsys):
    # negative control: with [J_i, P_j] = -i eps_ijl P_l the Jacobi identity
    # fails, and verify hopf names the first failing triple and its residual
    monkeypatch.setattr(GalileiHopf, "_letter_bracket", _wrong_sign_rotation_momentum)
    broken = GalileiHopf()
    assert broken.bracket("J1", "P2") == broken.gen("P3").scale(-Rat(sp.I))
    assert broken.check_jacobi("J1", "K2", "H") == broken.gen("P3").scale(-2)

    gen = broken.gen

    def double(g, h, f):
        return gen(g).commutator(gen(h)).commutator(gen(f))

    # the stored Jacobi sums, one per unordered triple, answer every ordered
    # triple exactly as a fresh sum does, sign included, on nonzero residuals
    failing, repeated = [], 0
    for g, h, f in itertools.product(GENERATOR_NAMES, repeat=3):
        residual = double(g, h, f) + double(h, f, g) + double(f, g, h)
        stored = broken.check_jacobi(g, h, f)
        assert stored == residual, (g, h, f)
        if len({g, h, f}) < 3:
            repeated += 1
            assert stored.is_zero and residual.is_zero
        if not residual.is_zero:
            failing.append(f"{g}, {h}, {f}: {residual!r}")
    assert repeated == 481
    assert failing

    assert run(["verify", "hopf", "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    # the other suites hold for either sign of [J_i, P_j]
    assert {name: c["status"] for name, c in checks.items()} == {
        "jacobi": "fail", "coproduct-homomorphism": "exact-pass",
        "coassociativity": "exact-pass", "hopf-axiom": "exact-pass"}
    assert checks["jacobi"]["residual"] == len(failing)
    assert checks["jacobi"]["detail"] == failing[0]


def _assert_literal_commutator(a, b):
    comm = a.commutator(b)
    assert comm.terms == (a * b - b * a).terms
    assert b.commutator(a).terms == (-comm).terms


@pytest.mark.parametrize("wrong_sign", [False, True])
def test_commutator_is_the_literal_difference(monkeypatch, wrong_sign):
    # the loop over pairs of terms keeps the terms of a*b - b*a, and the
    # other order gives their exact negation, on every pair of generators,
    # of generator coproducts and of a few sums of words; under a wrong-sign
    # rewriting rule too, since the scalars commute whatever the product does
    if wrong_sign:
        monkeypatch.setattr(GalileiHopf, "_letter_bracket", _wrong_sign_rotation_momentum)
    alg = GalileiHopf()
    gen = alg.gen
    for g, h in itertools.product(GENERATOR_NAMES, repeat=2):
        _assert_literal_commutator(gen(g), gen(h))
        _assert_literal_commutator(alg.coproduct(g), alg.coproduct(h))
    k = sym("k")
    sums = (gen("P1") * gen("P1") + gen("P2") * gen("P2") + gen("P3") * gen("P3"),
            gen("K1") * gen("P1") + gen("J3").scale(k) - gen("E"),
            gen("J1") * gen("K2") * gen("H") + gen("P3") * gen("Einv"))
    for a in sums:
        for b in sums + tuple(map(gen, GENERATOR_NAMES)):
            _assert_literal_commutator(a, b)


_letter_coproduct = GalileiHopf._letter_coproduct


def _momentum_twist_on_the_left(self, letter):
    # Delta P = P (x) 1 + E (x) P: P's twist on the wrong leg, K's as it is
    if letter[0] != "P":
        return _letter_coproduct(self, letter)
    one, word, e = ((), 0, 0), ((letter,), 0, 0), ((), 0, 1)
    return TensorExpression(self, 2, {(word, one): Rat(1), (e, word): Rat(1)})



def test_misplaced_twist_fails_only_the_homomorphism(monkeypatch, capsys):
    # negative control: Delta P = P (x) 1 + E (x) P is coassociative with a
    # valid antipode, but no algebra map on [K_i, P_i] and [K_i, H].  The
    # stored scan counts the failing pairs and names the first one exactly
    # as a scan that builds every ordered pair afresh does
    monkeypatch.setattr(GalileiHopf, "_letter_coproduct", _momentum_twist_on_the_left)
    failing = []
    for g, h in itertools.product(GENERATOR_NAMES, repeat=2):
        fresh = GalileiHopf()
        gen, delta = fresh.gen, fresh.coproduct_of
        residual = (delta(gen(g).commutator(gen(h)))
                    - delta(gen(g)).commutator(delta(gen(h))))
        if not residual.is_zero:
            failing.append(f"{g}, {h}: {residual!r}")
    assert len(failing) == 12 and failing[0].startswith("K1, P1: Tensor(")

    assert run(["verify", "hopf", "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "jacobi": "exact-pass", "coproduct-homomorphism": "fail",
        "coassociativity": "exact-pass", "hopf-axiom": "exact-pass"}
    assert checks["coproduct-homomorphism"]["residual"] == len(failing)
    assert checks["coproduct-homomorphism"]["detail"] == failing[0]


def _assert_closed_form_brackets(alg, word_pairs, tensor_pairs):
    # the closed-form word bracket and the Leibniz tensor bracket hold the
    # terms of the two monomial products merged, as the generic hook does
    # without any closed form
    for w1, w2 in word_pairs:
        literal = LinearCombination._bracket(alg.zero(), w1, w2)
        assert alg._word_bracket(w1, w2) == literal, (w1, w2)
    for m1, m2 in tensor_pairs:
        expr = TensorExpression(alg, len(m1), {})
        assert expr._bracket(m1, m2) == LinearCombination._bracket(expr, m1, m2), (m1, m2)


@pytest.mark.parametrize("fault", [None, "_letter_bracket", "_letter_coproduct"])
def test_closed_form_brackets_on_the_scanned_pairs(monkeypatch, capsys, fault):
    # every word pair and tensor pair that verify hopf and verify
    # realization bracket, with the algebra that met it; under a wrong-sign
    # letter table and a misplaced twist too, where the scan fails
    if fault:
        monkeypatch.setattr(GalileiHopf, fault, {"_letter_bracket": _wrong_sign_rotation_momentum,
                                                 "_letter_coproduct": _momentum_twist_on_the_left}[fault])
    met = {UEAExpression: set(), TensorExpression: set()}
    word_bracket, tensor_bracket = GalileiHopf._word_bracket, TensorExpression._bracket

    def record_words(alg, w1, w2):
        met[UEAExpression].add((alg, w1, w2))
        return word_bracket(alg, w1, w2)

    def record_tensors(expr, m1, m2):
        met[TensorExpression].add((expr.algebra, m1, m2))
        return tensor_bracket(expr, m1, m2)

    monkeypatch.setattr(GalileiHopf, "_word_bracket", record_words)
    monkeypatch.setattr(TensorExpression, "_bracket", record_tensors)
    for command in ("hopf", "realization"):
        assert run(["verify", command]) == (1 if fault else 0)
    capsys.readouterr()
    monkeypatch.setattr(GalileiHopf, "_word_bracket", word_bracket)
    monkeypatch.setattr(TensorExpression, "_bracket", tensor_bracket)
    assert met[UEAExpression] and met[TensorExpression]
    for alg in {alg for pairs in met.values() for alg, _, _ in pairs}:
        _assert_closed_form_brackets(
            alg, [(w1, w2) for a, w1, w2 in met[UEAExpression] if a is alg],
            [(m1, m2) for a, m1, m2 in met[TensorExpression] if a is alg])


_LETTERS = [(name[0], int(name[1]) if len(name) > 1 else 0) for name in GENERATOR_NAMES[:10]]
#: A normal-ordered word: up to three sorted letters, powers of M and E.
_WORDS = st.tuples(st.lists(st.sampled_from(_LETTERS), max_size=3).map(
    lambda ls: tuple(sorted(ls, key=_LETTERS.index))), st.integers(0, 2), st.integers(-2, 2))


@settings(max_examples=100, deadline=None)
@given(legs=st.integers(2, 3), wrong_sign=st.booleans(), data=st.data())
def test_closed_form_brackets_on_drawn_monomials_hypothesis(legs, wrong_sign, data):
    # drawn words and 2- and 3-leg tensor monomials, under the letter table
    # and under the wrong-sign one, whose a b - b a rewriting it also feeds
    alg = GalileiHopf()
    if wrong_sign:
        alg._letter_bracket = types.MethodType(_wrong_sign_rotation_momentum, alg)
    m1, m2 = (data.draw(st.tuples(*[_WORDS] * legs)) for _ in range(2))
    _assert_closed_form_brackets(alg, list(zip(m1, m2)), [(m1, m2), (m2, m1), (m1, m1)])


def test_verify_hopf_reuses_brackets(monkeypatch, capsys):
    # work guard, counts and not timings: each antisymmetric pair of
    # brackets, double brackets and homomorphism residuals is built once, no
    # commutator is taken of a zero bracket, and each Jacobi sum is added up
    # once per unordered triple (736 products and 4,806 additions when every
    # ordered triple added its own sum, 4,766 UEA and 407 tensor products
    # when both orders of each pair were built).  Word brackets are taken in
    # closed form and tensor brackets leg by leg, so no bracket merges two
    # products and no word is rewritten (415 merged brackets and 45 rewrite
    # steps when they did); a commutator multiplies the coefficients of each
    # pair of terms once, and those of a commuting pair not at all (1,951
    # scalar products with merged brackets, 4,268 when a commutator was the
    # literal a*b - b*a).  A generator is built once per algebra, and a sum
    # with an empty operand, or the negation of a zero, is that operand
    # (1,671 elements constructed when each generator use and each such sum
    # or negation built a new one).  The bounds are the measured counts: 34
    # enveloping-algebra products, 51 tensor products, 633
    # enveloping-algebra additions, 754 scalar products and 677 constructed
    # enveloping-algebra elements
    calls = {(UEAExpression, "__mul__"): 0, (TensorExpression, "__mul__"): 0,
             (UEAExpression, "__add__"): 0, (RationalFunction, "__mul__"): 0,
             (LinearCombination, "_bracket"): 0, (UEAExpression, "__init__"): 0}

    def count(cls, name):
        method = getattr(cls, name)

        def counted(self, *args):
            calls[cls, name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in calls:
        count(cls, name)
    algebras = []
    init = GalileiHopf.__init__

    def register(alg):
        init(alg)
        algebras.append(alg)

    monkeypatch.setattr(GalileiHopf, "__init__", register)
    assert run(["verify", "hopf"]) == 0
    capsys.readouterr()
    assert 0 < calls[UEAExpression, "__mul__"] <= 34
    assert 0 < calls[TensorExpression, "__mul__"] <= 51
    assert 0 < calls[UEAExpression, "__add__"] <= 633
    assert 0 < calls[RationalFunction, "__mul__"] <= 754
    assert 0 < calls[UEAExpression, "__init__"] <= 677
    assert calls[LinearCombination, "_bracket"] == 0
    assert algebras and [alg.rewrite_steps for alg in algebras] == [0] * len(algebras)
