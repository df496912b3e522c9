"""Tests for the deformed Hopf algebra structure."""

import itertools
import json
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from kgalilei import hopf
from kgalilei.cli import run
from kgalilei.hopf import GENERATOR_NAMES, GalileiHopf, TensorExpression, UEAExpression
from kgalilei.scalars import I, LinearCombination, Rat, sym
from kgalilei.weyl import WeylExpression


@pytest.fixture(scope="module")
def alg():
    return GalileiHopf()


def _levi_civita(i, j, l):
    return (i - j) * (j - l) * (l - i) // 2


def _table_bracket(alg, g, h):
    """[g, h] as the module docstring's table states it, or None for a pair
    the table lists in neither order."""
    (a, i), (b, j) = ((name[0], int(name[1:]) if name[1:].isdigit() else 0) for name in (g, h))
    if a == "J" and b in "JKP":   # [J_i, X_j] = i eps_ijl X_l
        return sum((alg.gen(f"{b}{l}").scale(I * _levi_civita(i, j, l)) for l in (1, 2, 3)),
                   alg.zero())
    if (a, b) == ("K", "H"):   # [K_i, H] = i P_i
        return alg.gen(f"P{i}").scale(I)
    if (a, b) == ("K", "P"):   # [K_i, P_j] = i delta_ij (k/2)(1 - E^2)
        return (alg.one() - alg.gen("E") * alg.gen("E")).scale(I * sym("k") / 2 * (i == j))
    return None


def test_every_bracket_is_the_table(alg):
    # all 169 ordered pairs against the table written out above, with its own
    # Levi-Civita symbol; a pair listed in the other order is its negation,
    # and every other pair, a central name among them, commutes
    nonzero = 0
    for g, h in itertools.product(GENERATOR_NAMES, repeat=2):
        expected = _table_bracket(alg, g, h)
        if expected is None:
            mirror = _table_bracket(alg, h, g)
            expected = alg.zero() if mirror is None else -mirror
        assert alg.bracket(g, h) == expected, (g, h)
        nonzero += not expected.is_zero
    assert nonzero == 2 * 21


def test_deformed_boost_momentum_bracket(alg):
    # [K_i, P_j] = i delta_ij (k/2)(1 - E^2)
    k = sym("k")
    c = k / 2
    expected = (alg.one() - alg.gen("E") * alg.gen("E")).scale(I * c)
    assert alg.bracket("K1", "P1") == expected
    assert alg.bracket("K1", "P2").is_zero
    assert alg.bracket("K2", "P1").is_zero


def test_boost_hamiltonian_bracket(alg):
    assert alg.bracket("K1", "H") == alg.gen("P1").scale(I)


def test_rotation_brackets(alg):
    assert alg.bracket("J1", "J2") == alg.gen("J3").scale(I)
    assert alg.bracket("J1", "P2") == alg.gen("P3").scale(I)
    assert alg.bracket("J2", "K3") == alg.gen("K1").scale(I)


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
    P = (("P1",), 0, 0)
    E = ((), 0, 1)
    assert dP.terms == {(P, E): Rat(1), (one, P): Rat(1)}
    dE = alg.coproduct("E")
    assert dE.terms == {(E, E): Rat(1)}
    dH = alg.coproduct("H")
    H = (("H",), 0, 0)
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
    expected = alg.first_order_classical(alg.gen("M").scale(I))
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
    # the checks read every name before they answer a zero from the names
    for call in (lambda: alg.check_hom("Q1", "Q1"), lambda: alg.bracket("Q1", "Q1"),
                 lambda: alg.bracket("Q1", "M"), lambda: alg.bracket("M", "Q1"),
                 lambda: alg.check_jacobi("Q1", "Q1", "J1")):
        with pytest.raises(KeyError):
            call()


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


def _letter_by_letter_coproduct_of(alg, expr):
    # reference route: each word's Delta rebuilt from E^e (x) E^e by one
    # tensor product per letter and per power of M, summed word by word
    one, m_word = ((), 0, 0), ((), 1, 0)
    delta_m = TensorExpression(alg, 2, {(m_word, one): Rat(1), (one, m_word): Rat(1)})
    out = TensorExpression(alg, 2, {})
    for (letters, m, e), coeff in expr.terms.items():
        term = TensorExpression(alg, 2, {(((), 0, e), ((), 0, e)): coeff})
        for letter in letters:
            term = term * alg._letter_coproduct(letter)
        for _ in range(m):
            term = term * delta_m
        out = out + term
    return out


def _reference_coassoc(alg, g):
    # (Delta (x) id - id (x) Delta) Delta g, each leg through the reference route
    out = TensorExpression(alg, 3, {})
    for (w1, w2), coeff in alg.coproduct(g).terms.items():
        left = _letter_by_letter_coproduct_of(alg, UEAExpression(alg, {w1: coeff}))
        right = _letter_by_letter_coproduct_of(alg, UEAExpression(alg, {w2: coeff}))
        out = out + TensorExpression(alg, 3, {(u1, u2, w2): c for (u1, u2), c in left.terms.items()})
        out = out - TensorExpression(alg, 3, {(w1, u1, u2): c for (u1, u2), c in right.terms.items()})
    return out


def _doubled_left_leg(alg, letter):
    # Delta X = 2 X (x) 1 + 1 (x) X for every letter: not coassociative
    one, word = ((), 0, 0), ((letter,), 0, 0)
    return TensorExpression(alg, 2, {(word, one): Rat(2), (one, word): Rat(1)})


@pytest.mark.parametrize("fault", [None, "untwisted", "doubled"])
def test_stored_word_coproducts_match_letter_by_letter_route(monkeypatch, fault):
    # Delta of every generator, of every word in the 78 stored brackets and
    # of each bracket as a whole, read from the per-word store, equals the
    # letter-by-letter reference exactly; so does the coassociativity
    # residual, which is nonzero under a doubled left leg
    if fault:
        monkeypatch.setattr(GalileiHopf, "_letter_coproduct",
                            {"untwisted": _primitive_coproduct, "doubled": _doubled_left_leg}[fault])
    alg = GalileiHopf()
    for g in GENERATOR_NAMES:
        assert alg.coproduct(g) == _letter_by_letter_coproduct_of(alg, alg.gen(g)), g
        coassoc = alg.check_coassoc(g)
        assert coassoc == _reference_coassoc(alg, g), g
        assert coassoc.is_zero == (fault != "doubled" or g in ("M", "E", "Einv")), g
    pairs = list(itertools.combinations(GENERATOR_NAMES, 2))
    words = set()
    for g, h in pairs:
        bracket = alg.bracket(g, h)
        assert alg.coproduct_of(bracket) == _letter_by_letter_coproduct_of(alg, bracket), (g, h)
        words.update(bracket.terms)
    assert len(pairs) == 78 and len(words) > 1
    for word in words:
        single = UEAExpression(alg, {word: Rat(1)})
        assert alg.coproduct_of(single) == _letter_by_letter_coproduct_of(alg, single), word


@pytest.mark.parametrize("broken_first", [False, True])
def test_word_coproduct_store_is_per_algebra(monkeypatch, broken_first):
    # the per-word store lives in each algebra: one whose _letter_coproduct is
    # patched on the instance and a clean one, in one process and in either
    # order, keep their own Delta(P1), and only the patched one fails the
    # homomorphism check on (K1, P1); no module-level table holds a word
    clean, broken = GalileiHopf(), GalileiHopf()
    monkeypatch.setattr(broken, "_letter_coproduct",
                        lambda letter: _primitive_coproduct(broken, letter))
    for alg in (broken, clean) if broken_first else (clean, broken):
        alg.coproduct("P1")
        alg.check_hom("K1", "P1")
    assert clean.coproduct("P1").terms != broken.coproduct("P1").terms
    one, p1, e = ((), 0, 0), (("P1",), 0, 0), ((), 0, 1)
    assert clean.coproduct("P1").terms == {(p1, e): Rat(1), (one, p1): Rat(1)}
    assert clean.check_hom("K1", "P1").is_zero
    assert not broken.check_hom("K1", "P1").is_zero
    assert clean._word_coproducts is not broken._word_coproducts
    assert clean._word_coproducts[p1] is not broken._word_coproducts[p1]
    assert not any(isinstance(value, dict) and p1 in value for value in vars(hopf).values())


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


def _double_bracket(alg, g, h, f):
    # reference route: left-normed [[g, h], f], a commutator of the stored
    # [g, h] with the generator f wherever [g, h] is nonzero
    inner = alg.bracket(g, h)
    return inner.commutator(alg.gen(f)) if inner.terms else alg.zero()


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
        assert _double_bracket(alg, g, h, f) == gen(g).commutator(gen(h)).commutator(gen(f))
    expected = (alg.one() - gen("E") * gen("E")).scale(I * sym("k") / 2)
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
        return {key: -c for key, c in terms.items()}
    return terms


def test_wrong_bracket_sign_breaks_jacobi(monkeypatch, capsys):
    # negative control: with [J_i, P_j] = -i eps_ijl P_l the Jacobi identity
    # fails, and verify hopf names the first failing triple and its residual
    monkeypatch.setattr(GalileiHopf, "_letter_bracket", _wrong_sign_rotation_momentum)
    broken = GalileiHopf()
    assert broken.bracket("J1", "P2") == broken.gen("P3").scale(-I)
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


@pytest.mark.parametrize("wrong_sign", [False, True])
def test_table_reads_equal_the_generic_routes(monkeypatch, wrong_sign):
    # a generator bracket is read from the letter table and a letter's
    # coproduct is its table entry: all 169 ordered brackets equal the
    # commutator of the two generator elements, and every letter's Delta
    # equals 1 (x) 1 times it, term by term, under the letter table and
    # under a wrong-sign one, which both routes read through the instance
    if wrong_sign:
        monkeypatch.setattr(GalileiHopf, "_letter_bracket", _wrong_sign_rotation_momentum)
    alg, fresh = GalileiHopf(), GalileiHopf()
    for g, h in itertools.product(GENERATOR_NAMES, repeat=2):
        assert alg.bracket(g, h).terms == fresh.gen(g).commutator(fresh.gen(h)).terms, (g, h)
    sign = -1 if wrong_sign else 1
    assert alg.bracket("J1", "P2") == alg.gen("P3").scale(sign * I)
    unit = ((), 0, 0)
    one = TensorExpression(fresh, 2, {(unit, unit): Rat(1)})
    for letter in GENERATOR_NAMES[:10]:
        assert alg.coproduct(letter).terms == (one * fresh._letter_coproduct(letter)).terms


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


_letter_antipode = GalileiHopf._letter_antipode


def _flipped_momentum_antipode(self, letter):
    # S P1 = +P1 E^-1: the wrong sign on one letter, every other letter as it is
    value = _letter_antipode(self, letter)
    return -value if letter == "P1" else value


def _reference_jacobi(alg, g, h, f):
    # reference route: the three double brackets, added up with + chains
    return _double_bracket(alg, g, h, f) + _double_bracket(alg, h, f, g) + _double_bracket(alg, f, g, h)


def _reference_hom(alg, g, h):
    # reference route: Delta of the bracket, minus the commutator of the coproducts
    return alg.coproduct_of(alg.bracket(g, h)) - alg.coproduct(g).commutator(alg.coproduct(h))


def _reference_antipode_of(alg, expr):
    # reference route: per word, the central part S(M^m E^e) times one
    # letter antipode per letter in reverse, each a wrapped element
    out = alg.zero()
    for (letters, m, e), coeff in expr.terms.items():
        term = UEAExpression(alg, {((), m, -e): coeff * Rat(-1) ** m})
        for letter in reversed(letters):
            term = term * alg._letter_antipode(letter)
        out = out + term
    return out


def _reference_hopf_axiom(alg, g):
    # reference route: S(w1) w2 per coproduct term, wrapped, scaled and chained
    total = alg.zero()
    for (w1, w2), coeff in alg.coproduct(g).terms.items():
        left = _reference_antipode_of(alg, UEAExpression(alg, {w1: Rat(1)}))
        total = total + (left * UEAExpression(alg, {w2: Rat(1)})).scale(coeff)
    return total - alg.one().scale(alg.counit(g))


def _single_axis_boost_momentum(self, a, b):
    # [K1, P1] = i c (1 - E) in place of i c (1 - E^2), the other axes as
    # they are: sigma no longer commutes with the letter table
    if (a, b) == ("K1", "P1"):
        i_c = I * sym("k") / 2
        return {((), 0, 0): i_c, ((), 0, 1): -i_c}
    return _letter_bracket(self, a, b)


def _untwisted_momentum_one(self, letter):
    # Delta P1 = P1 (x) 1 + 1 (x) P1, every other letter as it is
    return _primitive_coproduct(self, letter) if letter == "P1" else _letter_coproduct(self, letter)


#: name -> (patched attribute, on one instance, method, failing checks)
_FAULTS = {
    "wrong-sign-bracket": ("_letter_bracket", False, _wrong_sign_rotation_momentum, {"jacobi"}),
    "untwisted-class": ("_letter_coproduct", False, _primitive_coproduct, {"hom", "axiom"}),
    "untwisted-instance": ("_letter_coproduct", True, _primitive_coproduct, {"hom", "axiom"}),
    "misplaced-class": ("_letter_coproduct", False, _momentum_twist_on_the_left, {"hom"}),
    "misplaced-instance": ("_letter_coproduct", True, _momentum_twist_on_the_left, {"hom"}),
    "flipped-antipode": ("_letter_antipode", False, _flipped_momentum_antipode, {"axiom"}),
    "single-axis-bracket": ("_letter_bracket", False, _single_axis_boost_momentum,
                            {"jacobi", "hom"}),
    "single-axis-coproduct": ("_letter_coproduct", True, _untwisted_momentum_one,
                              {"hom", "axiom"}),
}

#: The faults of ``_FAULTS`` that break sigma on the letter maps; the others
#: keep it, or, as the flipped antipode, touch no letter map the certificate reads.
_SINGLE_AXIS = {"single-axis-bracket", "single-axis-coproduct"}


def _maker(monkeypatch, fault):
    """A maker of algebras under ``fault``, patched on the class now or on
    each algebra it makes."""
    attr, on_instance, method, _ = _FAULTS[fault] if fault else (None, False, None, None)
    if fault and not on_instance:
        monkeypatch.setattr(GalileiHopf, attr, method)

    def make():
        alg = GalileiHopf()
        if fault and on_instance:
            monkeypatch.setattr(alg, attr, types.MethodType(method, alg))
        return alg
    return make


@pytest.mark.parametrize("fault", [None, *_FAULTS])
def test_one_pass_residuals_match_the_long_routes(monkeypatch, fault):
    # every ordered triple, every ordered pair and every generator, asked in
    # a shuffled order, gives exactly the residual of the long route on a
    # second algebra: the Jacobi sum, the homomorphism residual and the
    # Hopf axiom, and the antipode of each generator.  Those with a central
    # name are the shared zero of their algebra, as the long route finds.
    # Under each fault the suites it breaks fail, and only those; under a
    # single-axis one the sigma certificate fails and every residual is built
    make = _maker(monkeypatch, fault)
    alg, ref = make(), make()
    triples = list(itertools.product(GENERATOR_NAMES, repeat=3))
    pairs = list(itertools.product(GENERATOR_NAMES, repeat=2))
    rng = random.Random(0)
    rng.shuffle(triples)
    rng.shuffle(pairs)
    failing = set()
    for t in triples:
        value = alg.check_jacobi(*t)
        assert value.terms == _reference_jacobi(ref, *t).terms, t
        if set(t) & {"M", "E", "Einv"}:
            assert value is alg.zero(), t
        elif not value.is_zero:
            failing.add("jacobi")
    for p in pairs:
        value = alg.check_hom(*p)
        assert value.terms == _reference_hom(ref, *p).terms, p
        if set(p) & {"M", "E", "Einv"}:
            assert value is alg._zero_tensor, p
        elif not value.is_zero:
            failing.add("hom")
    for g in GENERATOR_NAMES:
        value = alg.check_hopf_axiom(g)
        assert value.terms == _reference_hopf_axiom(ref, g).terms, g
        assert alg.antipode_of(alg.gen(g)).terms == _reference_antipode_of(ref, ref.gen(g)).terms, g
        if not value.is_zero:
            failing.add("axiom")
    assert failing == (_FAULTS[fault][3] if fault else set())


@pytest.mark.parametrize("fault", [None, *_FAULTS])
def test_sigma_certificate_holds_exactly_where_sigma_commutes(monkeypatch, fault):
    # the certificate holds on the letter maps as they are and under every
    # fault that keeps sigma, and fails under each single-axis one; a
    # residual is stored for its orbit mates before they are asked exactly
    # when it is zero and the certificate holds, so no nonzero one is carried
    alg = _maker(monkeypatch, fault)()
    holds = alg._sigma_equivariant()
    assert holds is (fault not in _SINGLE_AXIS)
    for names, mates in ((("J1", "K2", "P3"), [("J2", "K3", "P1"), ("P2", "K1", "J3")]),
                         (("J3", "J1", "P1"), [("J1", "J2", "P2"), ("P3", "J3", "J2")]),
                         (("K1", "P1", "J2"), [("K2", "P2", "J3"), ("P3", "J1", "K3")])):
        carried = holds and alg.check_jacobi(*names).is_zero
        assert all((mate in alg._store) is carried for mate in mates), (names, fault)
    for pair, mates in ((("K1", "P1"), [("K2", "P2"), ("P3", "K3")]),
                        (("K3", "H"), [("K1", "H"), ("H", "K2")])):
        carried = holds and alg.check_hom(*pair).is_zero
        assert all((("Delta", *mate) in alg._store) is carried for mate in mates), (pair, fault)
    # sigma maps the three axes of one kind onto themselves: their Jacobi
    # sum is written under each of its six orderings once
    written = []

    class Recording(dict):
        def __setitem__(self, key, value):
            written.append(key)
            super().__setitem__(key, value)

    alg._store = Recording(alg._store)
    alg.check_jacobi("P3", "P1", "P2")
    assert sorted(key for key in written if len(key) == 3) == sorted(
        itertools.permutations(("P1", "P2", "P3")))


def test_flipped_antipode_fails_only_the_hopf_axiom(monkeypatch, capsys):
    # negative control: with S P1 = +P1 E^-1 the antipode of P1, read by
    # antipode_of and by the Hopf axiom from one word antipode, is wrong,
    # and verify hopf names P1 and its residual 2 P1 in the hopf-axiom check
    monkeypatch.setattr(GalileiHopf, "_letter_antipode", _flipped_momentum_antipode)
    broken = GalileiHopf()
    p1 = ("P1",)
    assert broken.antipode_of(broken.gen("P1")).terms == {(p1, 0, -1): Rat(1)}
    assert broken.check_hopf_axiom("P1").terms == {(p1, 0, 0): Rat(2)}
    assert run(["verify", "hopf", "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "jacobi": "exact-pass", "coproduct-homomorphism": "exact-pass",
        "coassociativity": "exact-pass", "hopf-axiom": "fail"}
    assert checks["hopf-axiom"]["residual"] == 1
    assert checks["hopf-axiom"]["detail"] == f"P1: {_reference_hopf_axiom(GalileiHopf(), 'P1')!r}"
    assert checks["hopf-axiom"]["detail"].startswith("P1: UEA(")


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


_LETTERS = list(GENERATOR_NAMES[:10])
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


def test_verify_hopf_reuses_brackets(monkeypatch, capsys, scalar_products):
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
    # or negation built a new one).  Each word's coproduct is built once per
    # algebra from its prefix's, and a coproduct of an expression is one
    # pass over its words' (51 tensor products, 754 scalar products, 633
    # additions and 677 elements when every coproduct was rebuilt letter by
    # letter).  Each residual is built in one dict: a Jacobi sum from the
    # word brackets of the stored brackets' words, a homomorphism residual
    # from the stored word coproducts and the tensor brackets, and a Hopf
    # axiom from the stored word antipodes and word products; a residual
    # with a central name is the shared zero (34 enveloping-algebra
    # products, 620 additions, 387 commutators, 620 scalar products, 627
    # enveloping-algebra and 481 tensor elements when each was built from
    # double brackets, commutators and wrapped antipodes).  A bracket cache
    # and a residual drop their zero coefficients with no element built, and
    # a residual that cancels to nothing is the shared zero (216
    # enveloping-algebra and 240 tensor elements when each built an element
    # to drop its zeros).  A generator bracket is read from the letter table
    # and a letter's coproduct is its table entry (45 commutators, 10 tensor
    # products, 463 scalar products and 39 tensor elements when each bracket
    # was the commutator of two generators and each letter's coproduct a
    # product by 1 (x) 1).  A zero residual is stored for its sigma orbit
    # under the certificate, which builds no enveloping-algebra element, so
    # the brackets of a carried residual are never read (358 scalar products
    # and 114 enveloping-algebra elements when every residual was built).
    # Scalar products are counted at the kernel.  The bounds are the
    # measured counts, the same under every hash seed tried: 198 scalar
    # products, 96 enveloping-algebra and 29 tensor elements
    calls = {(UEAExpression, "__mul__"): 0, (TensorExpression, "__mul__"): 0,
             (UEAExpression, "__add__"): 0, (LinearCombination, "commutator"): 0,
             (LinearCombination, "_bracket"): 0, (UEAExpression, "__init__"): 0,
             (TensorExpression, "__init__"): 0}

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
    assert calls[UEAExpression, "__mul__"] == 0
    assert calls[TensorExpression, "__mul__"] == 0
    assert calls[UEAExpression, "__add__"] == 0
    assert calls[LinearCombination, "commutator"] == 0
    assert 0 < scalar_products[0] <= 198
    assert 0 < calls[UEAExpression, "__init__"] <= 96
    assert 0 < calls[TensorExpression, "__init__"] <= 29
    assert calls[LinearCombination, "_bracket"] == 0
    assert algebras and [alg.rewrite_steps for alg in algebras] == [0] * len(algebras)


def test_verify_hopf_stores_only_built_residuals(monkeypatch, capsys):
    # work guard: an item with a repeated or central name, and a diagonal
    # pair, is the shared zero, answered from its names before any sort or
    # store write.  Of the 120 Jacobi sums and 45 homomorphism residuals of
    # distinct non-central names, one per sigma orbit is built, sorted and
    # stored, 42 sums and 15 residuals, each zero filled in for its whole
    # orbit and every ordering in one fill, with the 53 generator brackets
    # they read (2,447 store entries, 858 fills and 767 sorts when each such
    # zero was stored under its orderings; 891 entries, 165 fills and 120
    # sorts when every residual of an orbit was built).  The counts are the
    # measured ones, the same under every hash seed tried
    calls = {"_fill": 0, "sorted": 0}
    fill, init = GalileiHopf._fill, GalileiHopf.__init__
    algebras = []

    def counted_fill(alg, *args):
        calls["_fill"] += 1
        return fill(alg, *args)

    def counted_sorted(*args, **kwargs):
        calls["sorted"] += 1
        return sorted(*args, **kwargs)

    def register(alg):
        init(alg)
        algebras.append(alg)

    monkeypatch.setattr(GalileiHopf, "_fill", counted_fill)
    monkeypatch.setattr(GalileiHopf, "__init__", register)
    monkeypatch.setattr(hopf, "sorted", counted_sorted, raising=False)
    assert run(["verify", "hopf"]) == 0
    capsys.readouterr()
    (alg,) = algebras
    assert calls == {"_fill": 57, "sorted": 42}
    assert len(alg._store) == 863
    zero, zero_tensor = alg.zero(), alg.check_hom("M", "P1")
    for names in (("J1", "J1", "P2"), ("P2", "H", "P2"), ("K1", "M", "P1"), ("E", "E", "E")):
        assert alg.check_jacobi(*names) is zero
    for pair in (("H", "H"), ("Einv", "K3"), ("J2", "M")):
        assert alg.check_hom(*pair) is zero_tensor
    assert alg.bracket("P1", "P1") is zero and alg.bracket("E", "K1") is zero
    assert len(alg._store) == 863 and calls == {"_fill": 57, "sorted": 42}


@pytest.mark.parametrize("command", ["hopf", "realization"])
def test_brackets_build_no_element(monkeypatch, capsys, command):
    # work guard: a word, tensor or Weyl bracket, closed-form or merged,
    # drops its zero coefficients with no element built, so no element is
    # constructed while one of the four bracket hooks is on the stack.  The
    # Hopf scan takes word and tensor brackets; the realization suites read
    # the algebra's brackets from the letter table and take Weyl brackets
    depth, entered, built = [0], {}, []

    def nest(owner, name):
        method = getattr(owner, name)

        def nested(*args):
            entered[owner, name] = entered.get((owner, name), 0) + 1
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(owner, name, nested)

    for owner, name in ((GalileiHopf, "_word_bracket"), (TensorExpression, "_bracket"),
                        (WeylExpression, "_bracket"), (LinearCombination, "_bracket")):
        nest(owner, name)
    init = LinearCombination.__init__

    def counted(self, terms=None):
        if depth[0]:
            built.append(type(self).__name__)
        init(self, terms)

    monkeypatch.setattr(LinearCombination, "__init__", counted)
    assert run(["verify", command]) == 0
    capsys.readouterr()
    if command == "hopf":
        assert entered.get((GalileiHopf, "_word_bracket"), 0) > 0
        assert entered.get((TensorExpression, "_bracket"), 0) > 0
    else:
        assert entered.get((WeylExpression, "_bracket"), 0) > 0
    assert built == []


def _mutants() -> dict:
    """name -> {module attribute: value} for each mutant of the presentation:
    each ``_BRACKETS`` row negated and each dropped, each ``_DEGREE`` entry
    shifted by +1 and by -1, and the whole families [K_i, P_i], [K_i, H] and
    [J_i, K_j] negated, each of which sigma maps onto itself."""
    rows, degree = hopf._BRACKETS, hopf._DEGREE

    def negated(keys):
        return {"_BRACKETS": {**rows, **{key: {w: -c for w, c in rows[key].items()} for key in keys}}}

    out = {}
    for key in rows:
        out[f"negate[{','.join(key)}]"] = negated([key])
        out[f"drop[{','.join(key)}]"] = {"_BRACKETS": {k: v for k, v in rows.items() if k != key}}
    for letter in degree:
        for shift in (1, -1):
            out[f"degree[{letter}{shift:+d}]"] = {"_DEGREE": {**degree, letter: degree[letter] + shift}}
    for family, kinds in (("K_i,P_i", "KP"), ("K_i,H", "KH"), ("J_i,K_j", "JK")):
        out[f"negate[{family}]"] = negated([(a, b) for a, b in rows
                                            if (a[0], b[0]) == tuple(kinds)
                                            and (kinds != "KP" or a[1] == b[1])])
    return out


_MUTANTS = _mutants()


@pytest.mark.parametrize("mutant", _MUTANTS)
def test_every_presentation_mutant_is_caught(monkeypatch, capsys, mutant):
    # each mutant of the presentation fails verify hopf or verify
    # realization, and each report is the same, but for its wall time,
    # whether residuals are carried along their sigma orbits or all built:
    # a mutant of one axis breaks the certificate, and the negated families
    # and the shifted degree of H keep it
    for name, value in _MUTANTS[mutant].items():
        monkeypatch.setattr(hopf, name, value)
    symmetric = "_i" in mutant or mutant.startswith("degree[H")
    assert GalileiHopf()._sigma_equivariant() is symmetric

    def verify(command):
        code = run(["verify", command, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        del report["wall_ms"]
        return code, report

    carried = [verify("hopf"), verify("realization")]
    monkeypatch.setattr(GalileiHopf, "_sigma_equivariant", lambda self: False)
    assert [verify("hopf"), verify("realization")] == carried
    assert 1 in (carried[0][0], carried[1][0])
