"""Differential tests of the exact scalar core against sympy.

Seeded random expression trees over (k, lam, lamp) with Gaussian-integer
constants are built twice, once as RationalFunctions and once as sympy
expressions.  The core's exact zero test and equality must agree with
``cancel(together(a - b)) == 0``, its canonical pair with ``_canonical_pair``
of the sympy tree, and its float evaluation with sympy's.  The core's own
invariants (normalized atoms, atoms cancelled in a division) are checked on
its representation.
"""

import ast
import inspect
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from kgalilei import scalars
from kgalilei.scalars import DegenerateInputError, I, Rat, RationalFunction, _canonical_pair, sym

NAMES = ("k", "lam", "lamp")
SYMBOLS = {name: (sym(name), sp.Symbol(name)) for name in NAMES}


def sp_zero(expr) -> bool:
    return sp.cancel(sp.together(expr)) == 0


def leaf(rng):
    if rng.random() < 0.6:
        return SYMBOLS[rng.choice(NAMES)]
    re, im = rng.randint(-3, 3), rng.choice((0, 0, 0, rng.randint(-2, 2)))
    return re + im * I, sp.Integer(re) + sp.I * im


def tree(rng, depth):
    """A (RationalFunction, sympy) pair for one random expression tree."""
    if depth == 0 or rng.random() < 0.25:
        return leaf(rng)
    (a, ea), (b, eb) = tree(rng, depth - 1), tree(rng, depth - 1)
    op = rng.choice("+-*/^")
    if op == "+":
        return a + b, ea + eb
    if op == "-":
        return a - b, ea - eb
    if op == "*":
        return a * b, ea * eb
    if op == "^":
        n = rng.choice((-2, -1, 2, 3))
        if n < 0 and sp_zero(ea):
            with pytest.raises(DegenerateInputError):
                _ = a ** n
            return a, ea
        return a ** n, ea ** n
    if sp_zero(eb):
        with pytest.raises(DegenerateInputError):
            _ = a / b
        return a * b, ea * eb
    return a / b, ea / eb


def variants(rng, a, ea):
    """Forms of the same value that differ in their atoms and numerators."""
    (c, ec) = tree(rng, 1)
    yield (a * c - c * a) + a, ea
    if not sp_zero(ec):
        yield (a * c) / c, ea
        yield a + c / c - 1, ea
    yield a + c, ea + ec


@pytest.mark.parametrize("seed", range(6))
def test_random_trees_agree_with_sympy(seed):
    rng = random.Random(seed)
    values = [tree(rng, 3) for _ in range(8)]
    for a, ea in values:
        assert a.is_zero == sp_zero(ea)
        assert (a.num, a.den) == _canonical_pair(ea)
        for b, eb in [*variants(rng, a, ea), *rng.sample(values, 2)]:
            same = sp_zero(ea - eb)
            assert (a == b) is same
            assert (a - b).is_zero is same
            assert (b - a).is_zero is same


@pytest.mark.parametrize("seed", range(3))
def test_random_trees_evaluate_like_sympy(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        a, ea = tree(rng, 3)
        point = {name: rng.uniform(0.2, 2.0) for name in NAMES}
        den = complex(sp.fraction(sp.together(ea))[1].subs(
            {sp.Symbol(n): v for n, v in point.items()}))
        if abs(den) < 1e-6:
            continue
        expected = complex(ea.subs({sp.Symbol(n): v for n, v in point.items()}))
        got = complex(a.evaluate(point))
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def test_zeros_that_need_cancellation_across_atoms():
    k, lam = sym("k"), sym("lam")
    assert ((lam ** 2 - 1) / (lam + 1) - (lam - 1)).is_zero
    assert (1 / (k * (1 - lam ** 2)) - 1 / (k - k * lam ** 2)).is_zero
    assert 1 / (1 - lam) + 1 / (lam - 1) == 0
    assert (1 / (I * lam + 1) - (-I) / (lam - I)).is_zero
    assert not (1 / (k * (1 - lam ** 2)) - 1 / (k + k * lam ** 2)).is_zero


def test_division_by_a_cancelling_zero_is_degenerate():
    k, lam = sym("k"), sym("lam")
    zero = (lam ** 2 - 1) / (lam + 1) - (lam - 1)
    with pytest.raises(DegenerateInputError):
        _ = k / zero
    with pytest.raises(DegenerateInputError):
        _ = 1 / zero
    with pytest.raises(DegenerateInputError):
        _ = zero ** -1


def test_evaluate_needs_only_the_canonical_symbols():
    k, lam = sym("k"), sym("lam")
    assert (lam * k / k).evaluate({"lam": 0.5}) == 0.5
    assert (lam * k / k).evaluate({sp.Symbol("lam"): 0.5}) == 0.5


def test_foreign_operands_are_refused():
    # a value is built from ints and values only: a float, a Fraction, a
    # complex or a sympy object would be rounded or converted on the way in
    k = sym("k")
    for make in (lambda: k * 0.1, lambda: 0.1 * k, lambda: k + Fraction(1, 2),
                 lambda: k + sp.Rational(1, 2), lambda: sp.I * k, lambda: k * (1 + 2j),
                 lambda: Rat(0.1), lambda: Rat(sp.I), lambda: RationalFunction(sp.Symbol("k"))):
        with pytest.raises(TypeError):
            make()
    assert k * True == k
    assert Rat(3) / 4 * 4 == 3


def assert_atoms_normalized():
    """Every atom made so far in this process is a single variable, or a
    polynomial with no monomial or integer content whose leading coefficient
    has re > 0 and im >= 0.  Self-contained, so a subprocess can run it."""
    import math

    from kgalilei import scalars

    assert scalars._ATOMS
    for poly in scalars._ATOMS:
        monos = list(poly)
        re, im = poly[max(monos)]
        assert re > 0 and im >= 0
        if len(poly) == 1:
            assert poly[monos[0]] == (1, 0) and len(scalars._unpack(monos[0])) == 1
            continue
        assert math.gcd(*(part for pair in poly.values() for part in pair)) == 1
        exponents = [dict(scalars._unpack(m)) for m in monos]
        assert all(min(e.get(idx, 0) for e in exponents) == 0 for idx in exponents[0])


def test_atoms_are_primitive_and_unit_normalized():
    # every denominator atom any test has made
    k, lam, lamp = (sym(n) for n in NAMES)
    _ = 1 / (2 - 2 * lam) + 1 / (I * k * lam - 3 * I * k) + lamp / (lam * lamp - lamp)
    assert_atoms_normalized()


def test_division_cancels_common_atoms():
    # x / y with the atoms k and 1 - lam^2 on both sides leaves only lam + 1
    k, lam = sym("k"), sym("lam")
    x = lam / (k * (1 - lam ** 2))
    y = (lam + 1) / (k - k * lam ** 2)
    q = x / y
    assert q == lam / (lam + 1)
    assert q._den == (1 / (lam + 1))._den


def pickled_value():
    """The value pickled across processes.  Its atom k - I*lam has another
    leading term, so another unit, in the other variable order."""
    from kgalilei.scalars import I, sym

    k, lam = sym("k"), sym("lam")
    return (I * lam + 1) / (k * (1 - lam ** 2) * (k - I * lam) ** 2)


_PICKLE = inspect.getsource(pickled_value) + """
import pickle, sys
data = pickle.dumps(pickled_value())
assert "sympy" not in sys.modules
sys.stdout.buffer.write(data)
"""

_UNPICKLE = inspect.getsource(assert_atoms_normalized) + inspect.getsource(pickled_value) + """
import pickle, sys
sys.modules["sympy"] = None
from kgalilei.scalars import sym
sym("unrelated")  # variable ids here differ from the pickling process's,
sym("lam"), sym("k")  # and so does the order of k and lam
assert pickle.loads(sys.stdin.buffer.read()) == pickled_value()
assert_atoms_normalized()
"""


def test_pickle_keeps_the_value_across_processes():
    # a value pickles by variable names, not as one process's variable and
    # atom ids, and neither side imports sympy
    f = pickled_value()
    assert pickle.loads(pickle.dumps(f)) == f
    src = str(Path(scalars.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    wrote = subprocess.run([sys.executable, "-c", _PICKLE], capture_output=True, env=env,
                           timeout=120)
    assert wrote.returncode == 0, wrote.stderr.decode()
    done = subprocess.run([sys.executable, "-c", _UNPICKLE], input=wrote.stdout,
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


#: The functions of the canonical form, the only ones that may import sympy.
_SYMPY_SCOPES = {("scalars.py", name) for name in (
    "_grlex_lc", "_canonical_pair", "_poly_expr", "RationalFunction._canonical",
    "RationalFunction._evaluate_canonical")}


def test_sympy_is_imported_only_behind_the_canonical_form():
    # every sympy import in the package, with the function it sits in; and
    # no lookup of sympy by name, as in sys.modules.get("sympy")
    imports, lookups = [], []

    def walk(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, path, (*scope, child.name))
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            if any(module.split(".")[0] == "sympy" for module in modules):
                imports.append((path.name, ".".join(scope)))
            if isinstance(child, ast.Constant) and child.value == "sympy":
                lookups.append((path.name, child.lineno))
            walk(child, path, scope)

    for path in sorted(Path(scalars.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path, ())
    assert imports, "the walk must see the canonical form's own imports"
    assert [where for where in imports if where not in _SYMPY_SCOPES] == []
    assert lookups == []


# -- the canonical pair of a value whose atoms are all single variables ---------


def monomial_divisor(rng):
    """A (RationalFunction, sympy) pair: a product of symbols and nonzero Gaussian constants."""
    out = None
    while out is None or sp_zero(out[1]):
        a, ea = leaf(rng)
        for _ in range(rng.randint(0, 2)):
            b, eb = leaf(rng)
            a, ea = a * b, ea * eb
        out = a, ea
    return out


def monomial_tree(rng, depth):
    """A random tree like ``tree``'s, whose divisions are by monomials only."""
    if depth == 0 or rng.random() < 0.25:
        return leaf(rng)
    a, ea = monomial_tree(rng, depth - 1)
    op = rng.choice("+-*/")
    if op == "/":
        b, eb = monomial_divisor(rng)
        return a / b, ea / eb
    b, eb = monomial_tree(rng, depth - 1)
    if op == "+":
        return a + b, ea + eb
    if op == "-":
        return a - b, ea - eb
    return a * b, ea * eb


def _refuse(*args, **kwargs):
    raise AssertionError("a monomial denominator must not reach sympy's cancel")


@pytest.mark.parametrize("seed", range(6))
def test_monomial_denominators_agree_with_sympy(seed, monkeypatch):
    # the pair written out directly is the very pair sympy's cancel gives
    rng = random.Random(200 + seed)
    k, lam = SYMBOLS["k"], SYMBOLS["lam"]
    values = [(k[0] ** 3 * lam[0] / k[0] ** 2, k[1] ** 3 * lam[1] / k[1] ** 2),
              ((k[0] ** 2 + 3 * k[0]) / (2 * k[0] * lam[0]),
               (k[1] ** 2 + 3 * k[1]) / (2 * k[1] * lam[1]))]
    values += [monomial_tree(rng, 4) for _ in range(10)]
    values += [(a / c, ea / ec) for c, ec in ((2, 2), (3 + I, 3 + sp.I)) for a, ea in values[2:5]]
    monkeypatch.setattr(scalars, "_canonical_pair", _refuse)
    for a, ea in values:
        assert all(len(scalars._ATOMS[atom]) == 1 for atom in a._den)
        pair = (a.num, a.den)
        assert pair == _canonical_pair(ea)
        assert sp.srepr(pair) == sp.srepr(_canonical_pair(ea))
    assert values[0][0].num == k[1] * lam[1] and values[0][0].den == 1
    assert values[1][0].den == lam[1]


def test_hash_agrees_across_the_two_canonical_paths():
    # k (1 + lam) / (1 + lam) has a two-term atom, so sympy cancels it; k does not
    k, lam = sym("k"), sym("lam")
    cancelled = k * (1 + lam) / (1 + lam)
    assert any(len(scalars._ATOMS[atom]) > 1 for atom in cancelled._den)
    assert not k._den
    assert (cancelled.num, cancelled.den) == (k.num, k.den)
    assert cancelled == k and hash(cancelled) == hash(k)


def test_free_mass_residuals_print_without_sympy_cancel(monkeypatch):
    # work guard: the residuals of a realization off the mass constraint have
    # polynomial coefficients, so printing them needs no together or cancel
    from kgalilei import hopf, realization

    r = realization.OneParticleRealization(1, sym("lam"), m_f=sym("mf"),
                                           algebra=hopf.GalileiHopf())
    residuals = [res for _, res in realization.verify_one_particle(r) if not res.is_zero]
    assert residuals
    monkeypatch.setattr(sp, "cancel", _refuse)
    monkeypatch.setattr(sp, "together", _refuse)
    mf, k, lam = (sp.Symbol(n) for n in ("mf", "k", "lam"))
    for res in residuals:
        assert [c.expr for c in res.terms.values() if not c.is_zero] == [
            sp.expand(sp.I * (mf - k / 2 + k * lam ** 2 / 2))]


def _reference_accumulate(out: dict, terms: dict, factor, sign: int) -> dict:
    """out + sign * factor * terms, merged with RationalFunction operators."""
    out = dict(out)
    for mono, coeff in terms.items():
        add = coeff if factor is None else factor * coeff
        add = add if sign > 0 else -add
        out[mono] = out[mono] + add if mono in out else add
    return out


@pytest.mark.parametrize("seed", range(6))
def test_accumulate_and_nonzero_match_the_operators(seed):
    # drawn term dicts over a few shared keys, so that some keys meet and
    # some are on one side only, with and without a factor, of either sign
    rng = random.Random(300 + seed)
    for _ in range(8):
        out, terms = ({m: tree(rng, 2)[0] for m in rng.sample(range(5), rng.randint(0, 4))}
                      for _ in range(2))
        factor = None if rng.random() < 0.4 else tree(rng, 2)[0]
        sign = rng.choice((1, -1))
        expected = _reference_accumulate(out, terms, factor, sign)
        before = dict(terms)
        scalars._accumulate(out, terms, factor, sign)
        assert terms == before and list(terms) == list(before)
        assert list(out) == list(expected) and out == expected
        kept = scalars._nonzero(out)
        assert kept == {m: c for m, c in expected.items() if c != 0}
        assert all(not c.is_zero for c in kept.values())


def test_accumulate_keeps_a_cancelled_coefficient_for_nonzero_to_drop():
    k, lam = sym("k"), sym("lam")
    out = {"a": k * lam, "b": k}
    scalars._accumulate(out, {"a": k, "c": lam}, lam, -1)
    assert list(out) == ["a", "b", "c"]
    assert out["a"].is_zero and out["b"] == k and out["c"] == -lam * lam
    assert scalars._nonzero(out) == {"b": k, "c": -lam * lam}
    out = {"a": k}
    scalars._accumulate(out, {"a": -k})
    assert list(out) == ["a"] and out["a"].is_zero
    assert scalars._nonzero(out) == {}


def test_same_terms_compares_stored_forms_then_exactly():
    # the stored form is not unique: (k^2 - 1)/(k - 1) and k + 1 differ in
    # form and are equal, which the exact difference shows; a different
    # coefficient or a different set of monomials is not the same
    k = sym("k")
    a, b = (k * k - 1) / (k - 1), k + 1
    assert (a._num, a._den) != (b._num, b._den)
    assert scalars._same_terms({1: a, 2: k}, {2: k, 1: b})
    assert not scalars._same_terms({1: a}, {1: b + 1})
    assert not scalars._same_terms({1: a}, {2: a})
    assert not scalars._same_terms({1: a}, {1: a, 2: k})
