"""Tests for the one- and two-particle operator realizations."""

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import kgalilei
from kgalilei import hopf, realization
from kgalilei.cli import run
from kgalilei.hopf import GalileiHopf, UEAExpression
from kgalilei.masses import VARIABLES, pairing
from kgalilei.realization import (
    CANONICAL_PAIRS,
    OneParticleRealization,
    TwoParticleSystem,
    canonical_residuals,
    default_system,
    verify_one_particle,
)
from kgalilei.scalars import I, Rat, sym
from kgalilei.weyl import WeylExpression, _normal_ordered, momentum, position, scalar


@pytest.fixture(scope="module")
def system():
    return default_system()


def test_default_mass_satisfies_constraint():
    r = OneParticleRealization(1, sym("lam"))
    k, lam = sym("k"), sym("lam")
    assert (r.m_f - (k / 2) * (1 - lam ** 2)).is_zero


def test_generator_images():
    r = OneParticleRealization(1, sym("lam"))
    assert r.realize("P2") == momentum(1, 2)
    assert r.realize("K3") == position(1, 3).scale(r.m_f)
    assert r.realize("E") == scalar(sym("lam"))
    # J_3 = x_1 p_2 - x_2 p_1
    expected = position(1, 1) * momentum(1, 2) - position(1, 2) * momentum(1, 1)
    assert r.realize("J3") == expected
    # H = p^2 / (2 m_f), the same as the products of the momenta
    p_squared = sum((momentum(1, i) * momentum(1, i) for i in (1, 2, 3)), WeylExpression.zero())
    assert r.realize("H") == p_squared.scale(1 / (2 * r.m_f))


def test_one_particle_brackets_all_vanish():
    r = OneParticleRealization(1, sym("lam"))
    for name, residual in verify_one_particle(r):
        assert residual.is_zero, name


def test_free_mass_breaks_constraint_exactly():
    # with m_f free, the [K, P] residual is i (m_f - (k/2)(1 - lam^2))
    mf, k, lam = sym("mf"), sym("k"), sym("lam")
    r = OneParticleRealization(1, lam, m_f=mf)
    residuals = dict(verify_one_particle(r))
    expected = scalar(I * (mf - (k / 2) * (1 - lam ** 2)))
    for i in (1, 2, 3):
        assert residuals[f"[K{i},P{i}]"] == expected
    assert not residuals["[K1,P1]"].is_zero


def test_nonzero_residual_keeps_only_nonzero_terms():
    # after the verdict, a refuted bracket holds exactly its surviving
    # monomial: the identity, with coefficient i (m_f - (k/2)(1 - lam^2))
    r = OneParticleRealization(1, sym("lam"), m_f=sym("mf"))
    residual = dict(verify_one_particle(r))["[K1,P1]"]
    assert not residual.is_zero
    identity = ((0,) * 6, (0,) * 6)
    assert set(residual.terms) == {identity}
    assert not residual.terms[identity].is_zero


def test_residuals_hold_no_zero_coefficient():
    # read before any zero test: no residual of a fresh system carries a
    # zero coefficient, so the zero kinetic split holds no term at all
    fresh = default_system()
    residuals = [res for _, res in fresh.verify_composed()]
    residuals += list(canonical_residuals(fresh).values())
    residuals += list(canonical_residuals(fresh, tilde=True).values())
    residuals.append(fresh.kinetic_split())
    for residual in residuals:
        assert all(not c.is_zero for c in residual.terms.values())
    assert fresh.kinetic_split().terms == {}


def test_realization_suites_multiply_few_scalars(scalar_products):
    # work guard, counts and not timings: a commutator multiplies the
    # coefficients of each pair of terms once, and those of a pair of
    # commuting monomials not at all (2,882 and 973 scalar products when a
    # commutator was the literal a*b - b*a).  Each word's image goes
    # straight into one sum, a one-letter word is its image, and a composed
    # generator's legs are read from the one-particle images (734 and 223
    # products, counted at the kernel, when every word was a product from
    # the unit scaled into a chained sum).  A generator bracket is read
    # from the letter table, a letter's coproduct is its table entry, and a
    # composed leg of image 1 multiplies nothing (516 and 190 products when
    # each bracket was the commutator of two generators, each letter's
    # coproduct a product by 1 (x) 1 and each such leg a Weyl product by
    # 1).  The bounds are the measured counts, the same under every hash
    # seed tried
    calls = scalar_products
    default_system().verify_composed()
    assert 0 < calls[0] <= 345
    calls[0] = 0
    verify_one_particle(OneParticleRealization(1, sym("lam"), m_f=sym("mf")))
    assert 0 < calls[0] <= 145


def test_verify_realization_builds_few_elements(monkeypatch, capsys):
    # work guard: a generator bracket is read from the letter table and a
    # residual is built in one dict, so no bracket is taken of two generator
    # elements (79 enveloping-algebra elements when each was, and 124 when
    # each two-letter bracket was also built as an element to drop its
    # zeros).  The bound is the measured count
    calls = [0]
    init = UEAExpression.__init__

    def counted(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(UEAExpression, "__init__", counted)
    assert run(["verify", "realization"]) == 0
    capsys.readouterr()
    assert 0 < calls[0] <= 58


def test_one_particle_suite_builds_no_unread_mirror(monkeypatch):
    # work guard: the realization suites read [g, h] for g before h only,
    # and the algebra builds the mirror [h, g] on its first read, so
    # verify_one_particle negates no enveloping-algebra element (21 mirrors
    # and 144 elements when each nonzero bracket's mirror was built with
    # it, and 78 when each bracket was the commutator of two generator
    # elements).  The bound is the measured count
    r = OneParticleRealization(1, sym("lam"), m_f=sym("mf"))
    calls = {"__init__": 0, "__neg__": 0}
    for name in calls:
        method = getattr(UEAExpression, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(UEAExpression, name, counted)
    assert len(verify_one_particle(r)) == 66
    assert calls["__neg__"] == 0
    assert 0 < calls["__init__"] <= 45


def _count_weyl_work(monkeypatch) -> dict:
    """Count Weyl brackets and products and variable-table builds."""
    calls = {"_bracket": 0, "__mul__": 0, "variable_table": 0}
    for name in ("_bracket", "__mul__"):
        method = getattr(WeylExpression, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(WeylExpression, name, counted)
    table = realization.variable_table

    def counted_table(*args):
        calls["variable_table"] += 1
        return table(*args)

    monkeypatch.setattr(realization, "variable_table", counted_table)
    return calls


def test_composed_verdicts_take_few_weyl_brackets_and_products(monkeypatch):
    # work guard: the commutator skips a pair of commuting monomials by
    # their slot masks, the one-particle images of H and J are written as
    # the normal-ordered monomials they are, and only the first pair of each
    # axis-rotation orbit takes a commutator, and the kinetic split squares
    # P_1 and Pi_1 only, the axis-2 and axis-3 squares being their rotated
    # copies, so the constraint-satisfying verdict (composed brackets,
    # direct pairings, kinetic split) takes 20 Weyl brackets and 2 products
    # (6 when every axis was squared), and the refutation (one particle and
    # the pair, with m_f free) 30 and none (60 and 90 when every pair took
    # its commutator; 457 and 24, and 587 and 18, when each pair reached
    # the bracket and each image was a product of generators).  A system
    # forms its variable tables once (twice when each pairing suite and the
    # kinetic split formed their own).  The counts are the measured ones,
    # the same under every hash seed tried
    calls = _count_weyl_work(monkeypatch)
    system = default_system()
    assert all(res.is_zero for _, res in system.verify_composed())
    assert all(res.is_zero for res in canonical_residuals(system).values())
    assert system.kinetic_split().is_zero
    assert calls == {"_bracket": 20, "__mul__": 2, "variable_table": 1}
    for name in calls:
        calls[name] = 0
    alg = GalileiHopf()
    r1 = OneParticleRealization(1, sym("lam"), m_f=sym("mf"), algebra=alg)
    refuted = TwoParticleSystem(r1, OneParticleRealization(2, sym("lamp"), algebra=alg))
    assert len(verify_one_particle(r1)) == len(refuted.verify_composed()) == 66
    assert calls == {"_bracket": 30, "__mul__": 0, "variable_table": 0}


def test_verify_realization_forms_the_variable_tables_once(monkeypatch, capsys):
    # work guard: the direct and tilde pairings and the kinetic split read
    # one system's tables (three builds when each formed its own)
    calls = _count_weyl_work(monkeypatch)
    assert run(["verify", "realization"]) == 0
    capsys.readouterr()
    assert calls["variable_table"] == 1


def test_composed_mass_formula(system):
    k, lam, lamp = sym("k"), sym("lam"), sym("lamp")
    assert (system.M_f - (k / 2) * (1 - lam ** 2 * lamp ** 2)).is_zero


def test_total_momentum_twist(system):
    lamp = sym("lamp")
    for i in (1, 2, 3):
        expected = momentum(1, i).scale(lamp) + momentum(2, i)
        assert system.total(f"P{i}") == expected


def _count_totals(suite) -> tuple:
    """(names passed to ``TwoParticleSystem.total``, result) of one run."""
    calls = []
    total = TwoParticleSystem.total
    with mock.patch.object(TwoParticleSystem, "total",
                           lambda self, name: calls.append(name) or total(self, name)):
        result = suite()
    return calls, result


def test_composed_images_built_once():
    # work guard: verify_composed realizes the coproduct of J1, K1, P1, H, M
    # and E once each, and takes each axis-2 and axis-3 image as the rotated
    # image of its axis predecessor (12 coproducts when each was realized).
    # The count is exact
    calls, residuals = _count_totals(default_system().verify_composed)
    assert len(residuals) == 66
    assert calls == ["J1", "K1", "P1", "H", "M", "E"]


def test_composed_brackets_sample(system):
    # spot-check the structurally loaded pairs; the full scan runs in acceptance
    alg = system.algebra
    for g, h in (("K1", "P1"), ("K1", "H"), ("J1", "J2"), ("K1", "P2"), ("J3", "P1")):
        lhs = system.total(g).commutator(system.total(h))
        rhs = system.realize_total_uea(alg.bracket(g, h))
        assert (lhs - rhs).is_zero, (g, h)


_CHECKED_NAMES = ("J1", "J2", "J3", "K1", "K2", "K3", "P1", "P2", "P3", "H", "M", "E")


def _chained_realize_words(expr, images, e_value, m_value):
    # reference route: every word a Weyl product starting from the unit,
    # scaled by its coefficient times its central factor and added to a
    # running total
    total = WeylExpression.zero()
    for (letters, m, e), coeff in expr.terms.items():
        factor = coeff
        if m:
            factor = factor * m_value ** m
        if e:
            factor = factor * e_value ** e
        term = WeylExpression.unit(Rat(1))
        for letter in letters:
            term = term * images[letter]
        total = total + term.scale(factor)
    return total


def _reference_residuals(alg, images, realize):
    # [image g, image h] - realize([g, h]) for each checked pair, by label
    names = list(images)
    return {f"[{g},{h}]": images[g].commutator(images[h]) - realize(alg.bracket(g, h))
            for n, g in enumerate(names) for h in names[n + 1:]}


def _reference_one_particle(r):
    images = {g: r.realize(g) for g in _CHECKED_NAMES}
    return _reference_residuals(r.algebra, images, lambda expr: _chained_realize_words(
        expr, images, r.lam, r.algebra_mass_symbol))


def _reference_totals(sys_):
    # each coproduct leg wrapped as an enveloping-algebra element and mapped
    # through the chained route, the Weyl product of the legs, a leg of
    # image 1 included, scaled and summed
    r1, r2, alg = sys_.r1, sys_.r2, sys_.algebra
    one = {g: r1.realize(g) for g in _CHECKED_NAMES}
    two = {g: r2.realize(g) for g in _CHECKED_NAMES}
    images = {}
    for g in _CHECKED_NAMES:
        total = WeylExpression.zero()
        for (w1, w2), coeff in alg.coproduct(g).terms.items():
            left = _chained_realize_words(UEAExpression(alg, {w1: Rat(1)}), one, r1.lam,
                                          r1.algebra_mass_symbol)
            right = _chained_realize_words(UEAExpression(alg, {w2: Rat(1)}), two, r2.lam,
                                           r2.algebra_mass_symbol)
            total = total + (left * right).scale(coeff)
        images[g] = total
    return images


def _reference_composed(sys_):
    r1, r2, alg = sys_.r1, sys_.r2, sys_.algebra
    images = _reference_totals(sys_)
    lam, mass = r1.lam * r2.lam, r1.algebra_mass_symbol + r2.algebra_mass_symbol
    return _reference_residuals(alg, images,
                                lambda expr: _chained_realize_words(expr, images, lam, mass))


def _assert_same_residuals(new, reference):
    assert len(new) == len(reference) == 66
    assert [label for label, _ in new] == list(reference)
    for label, residual in new:
        assert residual == reference[label], label
        assert all(not c.is_zero for c in residual.terms.values()), label


def _pair(free_mass):
    # the default two-particle system, or one whose particle 1 has a free m_f
    alg = GalileiHopf()
    m_f = sym("mf") if free_mass else None
    r1 = OneParticleRealization(1, sym("lam"), m_f=m_f, algebra=alg)
    return r1, TwoParticleSystem(r1, OneParticleRealization(2, sym("lamp"), algebra=alg))


@pytest.mark.parametrize("free_mass", [False, True])
def test_one_pass_route_matches_chained_reference(free_mass):
    # the one-pass sums, the one-letter words read from the image table and
    # the composed legs read straight from the one-particle images give
    # exactly the residuals of the chained route, at the default mass and
    # with a free m_f, where the three [K_i, P_i] residuals are nonzero
    r1, sys_ = _pair(free_mass)
    one, composed = verify_one_particle(r1), sys_.verify_composed()
    _assert_same_residuals(one, _reference_one_particle(r1))
    _assert_same_residuals(composed, _reference_composed(sys_))
    for residuals in (one, composed):
        nonzero = [label for label, res in residuals if not res.is_zero]
        assert nonzero == (["[K1,P1]", "[K2,P2]", "[K3,P3]"] if free_mass else [])


@pytest.mark.parametrize("free_mass", [False, True])
def test_totals_equal_the_weyl_product_route(free_mass):
    # a leg with no letters has image 1, so total adds the other leg's terms
    # as they are: every composed image equals, term by term, the one built
    # with a Weyl product of the two legs' images for every coproduct term
    _, sys_ = _pair(free_mass)
    reference = _reference_totals(sys_)
    for g in _CHECKED_NAMES:
        total = sys_.total(g)
        assert total.terms.keys() == reference[g].terms.keys(), g
        assert total == reference[g], g


@pytest.mark.parametrize("free_mass", [False, True])
def test_one_dict_residuals_equal_commutator_minus_realized_bracket(free_mass):
    # each residual is built in one dict from the commutator's terms and the
    # bracket's word images; key by key it equals the commutator of the two
    # images minus the public realization of [g, h], in both suites
    r1, sys_ = _pair(free_mass)
    alg = sys_.algebra
    for residuals, realize, image in (
            (verify_one_particle(r1), r1.realize_uea, r1.realize),
            (sys_.verify_composed(), sys_.realize_total_uea, sys_.total)):
        assert len(residuals) == 66
        for label, residual in residuals:
            g, h = label[1:-1].split(",")
            expected = image(g).commutator(image(h)) - realize(alg.bracket(g, h))
            assert residual.terms.keys() == expected.terms.keys(), label
            for mono, coeff in residual.terms.items():
                assert (coeff - expected.terms[mono]).is_zero, (label, mono)


@contextlib.contextmanager
def _direct(certificate=True, particles=True):
    """The direct route: the algebra's sigma certificate, or each particle's
    rotation check, or both, patched to False."""
    with contextlib.ExitStack() as stack:
        if certificate:
            stack.enter_context(
                mock.patch.object(GalileiHopf, "_sigma_equivariant", lambda self: False))
        if particles:
            stack.enter_context(mock.patch.object(OneParticleRealization, "_rotates", False))
        yield


def _count_commutators(suite) -> tuple:
    """(number of Weyl commutators taken, residuals) of one suite run."""
    calls = [0]
    terms = WeylExpression._commutator_terms

    def counted(self, other):
        calls[0] += 1
        return terms(self, other)

    with mock.patch.object(WeylExpression, "_commutator_terms", counted):
        residuals = suite()
    return calls[0], residuals


@pytest.mark.parametrize("free_mass", [False, True])
def test_each_suite_takes_24_commutators(free_mass):
    # work guard: the first pair of each of the 24 orbits of the axis
    # rotation takes its commutator, and the other 42 pairs are its rotated
    # copies, certified (66 commutators per suite when every pair takes its
    # own, see the failed-certificate test).  The count is exact
    r1, sys_ = _pair(free_mass)
    assert _count_commutators(lambda: verify_one_particle(r1))[0] == 24
    assert _count_commutators(sys_.verify_composed)[0] == 24


def _run_system(r1, sys_) -> dict:
    """Both suites, the composed images and the kinetic split of one system,
    with the commutators, ``total`` calls and Weyl products they took."""
    products = [0]
    mul = WeylExpression.__mul__

    def counted(self, other):
        products[0] += 1
        return mul(self, other)

    with mock.patch.object(WeylExpression, "__mul__", counted):
        one_count, one = _count_commutators(lambda: verify_one_particle(r1))
        totals, (composed_count, composed) = _count_totals(
            lambda: _count_commutators(sys_.verify_composed))
        split = sys_.kinetic_split()
    return {"work": (one_count, composed_count, len(totals), products[0]), "one": one,
            "composed": composed, "images": sys_._images, "split": split}


def _assert_same_system(new, reference):
    """Equal residuals in label order, composed images and kinetic split,
    key by key."""
    for suite in ("one", "composed"):
        assert [label for label, _ in new[suite]] == [label for label, _ in reference[suite]]
        for (label, residual), (_, expected) in zip(new[suite], reference[suite]):
            assert residual.terms.keys() == expected.terms.keys(), label
            assert residual == expected, label
    assert list(new["images"]) == list(reference["images"])
    for g, image in new["images"].items():
        assert image.terms.keys() == reference["images"][g].terms.keys(), g
        assert image == reference["images"][g], g
    assert new["split"].terms.keys() == reference["split"].terms.keys()
    assert new["split"] == reference["split"]


def _check_direct_route(free_mass, **forced):
    # work guard, and the carried route against the direct one: with both
    # checks the suites take 24 commutators each, the composed images 6
    # coproducts and the kinetic split 2 Weyl products; with the check
    # ``forced`` False, 66 commutators each, 12 coproducts and 6 products,
    # and every residual, composed image and the split equal the carried
    # route's key by key.  The counts are exact
    carried = _run_system(*_pair(free_mass))
    assert carried["work"] == (24, 24, 6, 2)
    r1, sys_ = _pair(free_mass)
    with _direct(**forced):
        built = _run_system(r1, sys_)
    assert built["work"] == (66, 66, 12, 6)
    _assert_same_system(built, carried)


@pytest.mark.parametrize("free_mass", [False, True])
def test_a_failed_algebra_certificate_builds_every_pair(free_mass):
    # the suites carry their orbits, and the composed system its images and
    # squares, under the algebra's own sigma certificate: where it fails,
    # everything is built
    _check_direct_route(free_mass, particles=False)


@pytest.mark.parametrize("free_mass", [False, True])
def test_a_failed_particle_rotation_builds_every_pair_and_image(free_mass):
    # the same where the certificate holds but no particle's images rotate
    _check_direct_route(free_mass, certificate=False)


def test_a_symmetric_cross_axis_term_in_h_stays_in_the_kinetic_split():
    # H^tot is never split by axis: a sigma-symmetric stray
    # s (p1 p2 + p2 p3 + p3 p1) in particle 1's H keeps every check, so the
    # split squares axis 1 only, and the stray is its whole residual,
    # exactly as on the direct route
    stray = _normal_ordered({((), ((1, i), (1, i % 3 + 1))): sym("s") for i in (1, 2, 3)})
    realize = OneParticleRealization.realize

    def faulty(self, name):
        image = realize(self, name)
        return image + stray if name == "H" and self.slot == 1 else image

    with mock.patch.object(OneParticleRealization, "realize", faulty):
        carried = _run_system(*_pair(False))
        r1, sys_ = _pair(False)
        with _direct():
            built = _run_system(r1, sys_)
    assert carried["work"] == (24, 24, 6, 2) and built["work"] == (66, 66, 12, 6)
    _assert_same_system(built, carried)
    assert carried["split"].terms.keys() == stray.terms.keys()
    assert carried["split"] == stray


def test_rotated_copies_keep_or_negate_their_coefficients():
    # a rotated copy keeps its source's coefficient objects; the negated
    # copies, [X1,X3] from [X2,X3], are checked where they are nonzero, under
    # a rotation-symmetric fault
    residuals = dict(verify_one_particle(OneParticleRealization(1, sym("lam"), m_f=sym("mf"))))
    source = residuals["[K1,P1]"].terms
    for label in ("[K2,P2]", "[K3,P3]"):
        assert [id(c) for c in residuals[label].terms.values()] == [id(c) for c in source.values()]


@pytest.mark.parametrize("kind", ["image", "table", "negated"])
def test_a_rotation_symmetric_fault_is_carried_exactly(kind):
    # a fault that every axis shares keeps the certificate: a stray s J_i in
    # each boost's image, or each [J_i, J_j] entry of the letter table
    # doubled or negated.  The suites still take 24 commutators, the
    # reversed pairs [X1,X3], carried as the negated rotation of [X2,X3],
    # are nonzero, and every residual equals the chained reference's
    realize = OneParticleRealization.realize

    def faulty(self, name):
        image = realize(self, name)
        if name[0] != "K":
            return image
        return image + realize(self, f"J{name[1]}").scale(sym("s"))

    factor = -1 if kind == "negated" else 2
    scaled = {key: {word: factor * c for word, c in terms.items()}
              for key, terms in hopf._BRACKETS.items() if key[0][0] == key[1][0] == "J"}
    patch = (mock.patch.object(OneParticleRealization, "realize", faulty) if kind == "image"
             else mock.patch.dict(hopf._BRACKETS, scaled))
    reversed_pair = "[K1,K3]" if kind == "image" else "[J1,J3]"
    with patch:
        r1, sys_ = _pair(False)
        for (count, residuals), reference in (
                (_count_commutators(lambda: verify_one_particle(r1)), _reference_one_particle(r1)),
                (_count_commutators(sys_.verify_composed), _reference_composed(sys_))):
            assert count == 24
            _assert_same_residuals(residuals, reference)
            assert not dict(residuals)[reversed_pair].is_zero


#: Generators whose one-particle image a fault may break: each per-axis
#: generator, and H, whose fault sits on one axis.
_BREAKABLE = tuple(f"{kind}{i}" for kind in "JKP" for i in (1, 2, 3)) + ("H",)

_COEFFICIENTS = st.sampled_from([Rat(2), Rat(-3), I, sym("s"), 1 / sym("lam")])


@st.composite
def _symmetry_fault(draw):
    """(kind, target, change, value): a stray term added to, or one
    coefficient scaled in, one generator's image ("image") or one entry of
    the letter table ("table")."""
    kind = draw(st.sampled_from(["image", "table"]))
    target = draw(st.sampled_from(_BREAKABLE if kind == "image" else sorted(hopf._BRACKETS)))
    change = draw(st.sampled_from(["stray", "scale"]))
    if change == "stray" and kind == "image":
        # one position or momentum factor, or a product of two, on one axis
        axis = draw(st.sampled_from((1, 2, 3)))
        particle = draw(st.sampled_from((1, 2)))
        shape = draw(st.sampled_from([(((particle, axis),), ()), ((), ((particle, axis),)),
                                      (((particle, axis),), ((particle, axis),))]))
        mono = next(iter(_normal_ordered({shape: 1}).terms))
        return kind, target, change, (mono, draw(_COEFFICIENTS))
    if change == "stray":
        letter = draw(st.sampled_from(_BREAKABLE))
        word = draw(st.sampled_from([((letter,), 0, 0), ((), 0, 1), ((), 1, 0)]))
        return kind, target, change, (word, draw(_COEFFICIENTS))
    return kind, target, change, draw(_COEFFICIENTS)


def _broken(terms: dict, change: str, value) -> dict:
    """``terms`` with a stray term added or its first coefficient scaled."""
    out = dict(terms)
    if change == "stray":
        mono, coeff = value
        out[mono] = out[mono] + coeff if mono in out else coeff
    else:
        mono = sorted(out)[0]
        out[mono] = out[mono] * value
    return out


@settings(max_examples=100, deadline=None)
@given(fault=_symmetry_fault(), free_mass=st.booleans())
def test_orbit_route_matches_the_direct_route_under_a_broken_symmetry_hypothesis(fault,
                                                                                  free_mass):
    # fault injection: one image or one letter-table entry breaks the axis
    # rotation on one axis.  More than 24 pairs then take their commutator,
    # and every residual of both suites equals, key by key, the chained
    # reference's, with the nonzero labels of the direct route, where the
    # certificate and each particle's rotation are patched to False and
    # every pair takes its commutator; the composed images and the kinetic
    # split equal that route's key by key too
    kind, target, change, value = fault
    realize = OneParticleRealization.realize

    def faulty(self, name):
        image = realize(self, name)
        if name != target or self.slot != 1:
            return image
        return WeylExpression(_broken(image.terms, change, value))

    if kind == "image":
        patch = mock.patch.object(OneParticleRealization, "realize", faulty)
    else:
        patch = mock.patch.dict(hopf._BRACKETS,
                                {target: _broken(hopf._BRACKETS[target], change, value)})
    with patch:
        r1, sys_ = _pair(free_mass)
        new = _run_system(r1, sys_)
        one_count, composed_count = new["work"][:2]
        assert one_count > 24 and composed_count > 24
        _assert_same_residuals(new["one"], _reference_one_particle(r1))
        _assert_same_residuals(new["composed"], _reference_composed(sys_))
        r1, sys_ = _pair(free_mass)
        with _direct():
            direct = _run_system(r1, sys_)
        for suite in ("one", "composed"):
            assert ([label for label, res in new[suite] if not res.is_zero]
                    == [label for label, res in direct[suite] if not res.is_zero])
        _assert_same_system(new, direct)


def test_canonical_pairs_direct(system):
    residuals = canonical_residuals(system)
    for key, res in residuals.items():
        assert res.is_zero, key


def test_canonical_pairs_tilde(system):
    residuals = canonical_residuals(system, tilde=True)
    for key, res in residuals.items():
        assert res.is_zero, key


def test_expected_canonical_pairs():
    assert CANONICAL_PAIRS == {("R", "P"), ("rho", "Pi")}


def test_kinetic_split(system):
    assert system.kinetic_split().is_zero


def test_kinetic_split_at_infinite_partner_mass():
    # lam' = 0 puts particle 2 at the bound m'_f = k/2 and forces v_f = m_f
    alg = GalileiHopf()
    r1 = OneParticleRealization(1, sym("lam"), algebra=alg)
    r2 = OneParticleRealization(2, Rat(0), algebra=alg)
    sys2 = TwoParticleSystem(r1, r2)
    assert (sys2.v_f - r1.m_f).is_zero
    assert sys2.kinetic_split().is_zero


def test_classical_limit_of_relative_variables(system):
    # for weak deformation the variables are close to the undeformed ones
    point = {"k": 10.0, "lam": math.exp(-0.3 / 10.0), "lamp": math.exp(-0.4 / 10.0)}
    m1 = 5.0 * (1.0 - point["lam"] ** 2)
    m2 = 5.0 * (1.0 - point["lamp"] ** 2)
    variables = system.relative_variables()
    mono = ((0,) * 6, (1, 0, 0, 0, 0, 0))
    # the coefficient of p_{1,1} in P is lam', close to 1
    assert abs(variables["P"][0].terms[mono].evaluate(point) - 1.0) <= 0.05
    classical = m2 / (m1 + m2)
    assert abs(variables["Pi"][0].terms[mono].evaluate(point) - classical) <= 0.05


def _free_partner_system():
    # particle 2's mass is a free symbol, so the composed mass no longer
    # matches the twist lam' and the conjugate pairings fail
    alg = GalileiHopf()
    return TwoParticleSystem(OneParticleRealization(1, sym("lam"), algebra=alg),
                             OneParticleRealization(2, sym("lamp"), m_f=sym("mfp"), algebra=alg))


@pytest.mark.parametrize("free_partner", [False, True])
def test_weyl_commutators_match_pairing_table(system, free_partner):
    # on axis 1, every Weyl commutator of the relative variables equals the
    # bilinear form i u^T Omega v on the table they are built from
    sys_ = _free_partner_system() if free_partner else system
    variables = sys_.relative_variables()
    direct = sys_.variable_table()[0]
    residuals = canonical_residuals(sys_)
    expected = {("R", "P"): I, ("P", "R"): -I, ("rho", "Pi"): I, ("Pi", "rho"): -I}
    weyl_nonzero, table_nonzero = set(), set()
    for a in VARIABLES:
        for b in VARIABLES:
            comm = variables[a][0].commutator(variables[b][0])
            assert comm == scalar(I * pairing(direct[a], direct[b], sys_.r1.m_f, sys_.r2.m_f))
            if not (comm - scalar(expected.get((a, b), Rat(0)))).is_zero:
                weyl_nonzero.add((a, b))
            if not residuals[(a, b, 1, 1)].is_zero:
                table_nonzero.add((a, b))
    assert weyl_nonzero == table_nonzero == (set(expected) if free_partner else set())


@pytest.mark.parametrize("tilde", [False, True])
@pytest.mark.parametrize("free_partner", [False, True])
def test_canonical_residuals_are_antisymmetric(system, tilde, free_partner):
    # each same-axis entry is i u^T Omega v minus its expected value for its
    # own order, and the mirror of an off-diagonal one is its exact negation;
    # the diagonal and the pairings of different axes share one zero
    sys_ = _free_partner_system() if free_partner else system
    table = sys_.variable_table()[1 if tilde else 0]
    residuals = canonical_residuals(sys_, tilde=tilde)
    expected = {("R", "P"): I, ("P", "R"): -I, ("rho", "Pi"): I, ("Pi", "rho"): -I}
    assert len(residuals) == 144 and residuals[("P", "P", 1, 1)].terms == {}
    nonzero = set()
    for a in VARIABLES:
        for b in VARIABLES:
            value = I * pairing(table[a], table[b], sys_.r1.m_f, sys_.r2.m_f)
            value = value - expected.get((a, b), Rat(0))
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    residual = residuals[(a, b, i, j)]
                    if i != j or a == b:
                        assert residual is residuals[("P", "P", 1, 1)], (a, b, i, j)
                        continue
                    assert residual == scalar(value), (a, b, i)
                    assert (residual + residuals[(b, a, i, i)]).is_zero, (a, b, i)
                    if not residual.is_zero:
                        nonzero.add((a, b))
    # a free m'_f breaks the direct twist lam' only; the tilde set twists by lam
    assert nonzero == (set(expected) if free_partner and not tilde else set())


def test_slot_and_algebra_validation():
    alg = GalileiHopf()
    r1 = OneParticleRealization(1, sym("lam"), algebra=alg)
    with pytest.raises(ValueError):
        TwoParticleSystem(r1, OneParticleRealization(1, sym("lamp"), algebra=alg))
    with pytest.raises(ValueError):
        TwoParticleSystem(r1, OneParticleRealization(2, sym("lamp")))
    with pytest.raises(ValueError):
        OneParticleRealization(3, sym("lam"))


#: The two-particle verdicts and the refutation of a free m_f, to the point
#: where each residual is known zero or nonzero (none is printed).
_VERDICTS_WITHOUT_SYMPY = """
import sys
from kgalilei import realization
from kgalilei.scalars import sym

system = realization.default_system()
assert all(res.is_zero for _, res in system.verify_composed())
for tilde in (False, True):
    assert all(res.is_zero for res in realization.canonical_residuals(system, tilde).values())
assert system.kinetic_split().is_zero
free = realization.OneParticleRealization(1, sym("lam"), m_f=sym("mf"), algebra=system.algebra)
nonzero = [label for label, res in realization.verify_one_particle(free) if not res.is_zero]
assert nonzero == ["[K1,P1]", "[K2,P2]", "[K3,P3]"], nonzero
assert "sympy" not in sys.modules
"""


def test_exact_verdicts_never_import_sympy():
    # a work guard, not a timing: sympy is only the lazy printer and
    # canonicalizer, so reaching these verdicts must not load it
    src = str(Path(kgalilei.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", _VERDICTS_WITHOUT_SYMPY], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
