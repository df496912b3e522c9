"""Exact scalar arithmetic: multivariate rational functions over Q(i).

All coefficients in the algebraic modules live here.  A value is built from
ints, ``I`` and the symbols of ``sym`` by arithmetic: ``Rat`` and every
operand take an int or a value, and anything else (a float, a Fraction, a
sympy tree) is a TypeError, so nothing is rounded in.  It is held as

    numerator / (c * A_1^e_1 * ... * A_n^e_n)

- the numerator is a sparse dict from monomials to Gaussian-integer
  coefficient pairs ``(re, im)``, with no zero entries;
- ``c`` is a positive integer, with no factor common to every numerator
  coefficient;
- the A_j are atoms: polynomials made primitive and unit-normalized (leading
  coefficient with re > 0 and im >= 0), with their monomial content split
  off into single-variable atoms.  Atoms are interned, so the denominator is
  a multiset of atom ids and atoms compare structurally.

Sums lift both operands to the multiset maximum of their atoms, products add
the multisets, and dividing by a value cancels its denominator's atoms
against ours and adds its numerator's atoms.  No gcd is ever taken, so this
form is not unique; the zero test is exact all the same, because a quotient
by a product of nonzero polynomials is zero iff its numerator is.  So
``is_zero`` is "the numerator is empty" and ``a == b`` is ``(a - b).is_zero``.

The canonical form of a value is a coprime numerator/denominator pair of
expanded polynomials in formal symbols, with the denominator's leading
coefficient (graded-lex over alphabetically sorted symbols) normalized to 1.
It is built lazily, as sympy expressions, behind ``num``, ``den``, ``expr``,
``hash``, ``normalize`` and ``repr``: sympy is imported only by the five
functions of that form, ``_poly_expr``, ``_canonical_pair``, ``_grlex_lc``,
``_canonical`` and ``evaluate``'s fallback ``_evaluate_canonical``.
When every atom is a single variable the denominator is a monomial and the
gcd is the monomial it shares with the numerator, so sympy only builds the
two expressions; sympy's ``together``/``cancel`` run only when an atom has
more than one term, where they are the exact way to find the gcd (atoms are
not factored, so no trial division proves them coprime).  ``evaluate`` works
in floating point from the numerator and the atoms, and falls back to the
canonical pair where an atom vanishes (the point may be a removable
singularity) or a symbol is unassigned (the canonical form may not need it).
A value pickles by variable names, and the reading process divides by each
atom again, so it normalizes and interns the atoms in its own variable order.

``LinearCombination``, the sparse sum of monomials that the Weyl,
enveloping-algebra and tensor elements share, with their one distributive
product, builds on the exact zero test.  Every term table of the exact
engines, an element's terms, a monomial product or bracket and a letter
table alike, is a {monomial: coefficient} dict.  ``_accumulate`` is the one
merge of such dicts, and ``_nonzero`` the one zero filter: the zero rule
lives there and only there.  The constructor runs it, so an element never
holds a zero coefficient and its ``is_zero`` is "no terms"; the bracket
caches run it with no element built.  ``_same_terms`` compares two such
dicts, by stored form first and by exact difference only where the forms
differ.  A value never changes after construction.

The deformation exponentials e^{-m/k} are adjoined as independent formal
symbols (``lam``, ``lamp``), never expanded as series; every identity in scope
is rational in them.  A monomial packs its exponents into one integer,
``_BITS`` bits per variable, so exponents stay below 2**32 (``**`` checks).
"""

from __future__ import annotations

import threading
from math import gcd, lcm

__all__ = [
    "DegenerateInputError",
    "PoleError",
    "MissingSymbolError",
    "RationalFunction",
    "LinearCombination",
    "sym",
    "Rat",
    "I",
]


class DegenerateInputError(ZeroDivisionError):
    """Raised when a denominator is the zero polynomial."""


class PoleError(ZeroDivisionError):
    """Raised when a numeric evaluation point lies on a pole."""


class MissingSymbolError(KeyError):
    """Raised when an evaluation assignment does not cover all symbols."""


# -- monomials: one packed integer, _BITS bits of exponent per variable -------

_BITS = 32
_FIELD = (1 << _BITS) - 1
_VARS: list[str] = []
_VAR_INDEX: dict[str, int] = {}
_LOCK = threading.Lock()


def _var(name: str) -> int:
    """The packed monomial of the named variable (registered on first use)."""
    idx = _VAR_INDEX.get(name)
    if idx is None:
        with _LOCK:
            idx = _VAR_INDEX.get(name)
            if idx is None:
                idx = len(_VARS)
                _VARS.append(name)
                _VAR_INDEX[name] = idx
    return 1 << (_BITS * idx)


def _unpack(mono: int) -> list[tuple[int, int]]:
    """(variable index, exponent) pairs of a packed monomial."""
    out, idx = [], 0
    while mono:
        e = mono & _FIELD
        if e:
            out.append((idx, e))
        mono >>= _BITS
        idx += 1
    return out


# -- sparse polynomials: {monomial: (re, im)} with Gaussian-integer coefficients


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    get = out.get
    for m1, (a, b) in p.items():
        for m2, (c, d) in q.items():
            m = m1 + m2
            if b or d:
                re, im = a * c - b * d, a * d + b * c
            else:
                re, im = a * c, 0
            old = get(m)
            out[m] = (re, im) if old is None else (old[0] + re, old[1] + im)
    if len(out) < len(p) * len(q):  # terms met: some may have cancelled
        return {m: v for m, v in out.items() if v[0] or v[1]}
    return out


def _poly_add(p: dict, q: dict, sign: int) -> dict:
    """p + sign * q."""
    out = dict(p)
    for m, (c, d) in q.items():
        old = out.get(m)
        if old is None:
            out[m] = (c, d) if sign > 0 else (-c, -d)
            continue
        re, im = old[0] + sign * c, old[1] + sign * d
        if re or im:
            out[m] = (re, im)
        else:
            del out[m]
    return out


def _poly_scale(p: dict, a: int, b: int = 0) -> dict:
    """p times the Gaussian integer a + ib."""
    if b:
        return {m: (x * a - y * b, x * b + y * a) for m, (x, y) in p.items()}
    return {m: (x * a, y * a) for m, (x, y) in p.items()}


def _poly_value(poly: dict, point: dict):
    """Float value of a polynomial; KeyError if a variable is unassigned."""
    total = 0
    for mono, (a, b) in poly.items():
        term = complex(a, b) if b else a
        for idx, e in _unpack(mono):
            term *= point[_VARS[idx]] ** e
        total += term
    return total


# -- atoms: interned primitive, unit-normalized polynomials ---------------------

_ATOMS: list[dict] = []
_ATOM_IDS: dict[tuple, int] = {}
_ATOM_POWERS: dict[tuple[int, int], dict] = {}


def _atom(poly: dict) -> int:
    key = tuple(sorted(poly.items()))
    atom = _ATOM_IDS.get(key)
    if atom is None:
        with _LOCK:
            atom = _ATOM_IDS.get(key)
            if atom is None:
                atom = len(_ATOMS)
                _ATOMS.append(poly)
                _ATOM_IDS[key] = atom
    return atom


def _atom_power(atom: int, e: int) -> dict:
    key = (atom, e)
    poly = _ATOM_POWERS.get(key)
    if poly is None:
        poly = _ATOMS[atom] if e == 1 else _poly_mul(_atom_power(atom, e - 1), _ATOMS[atom])
        _ATOM_POWERS[key] = poly
    return poly


def _lift(num: dict, have: dict, want: dict) -> dict:
    """num over the atoms ``have``, rewritten over the larger multiset ``want``."""
    for atom, e in want.items():
        extra = e - have.get(atom, 0)
        if extra:
            num = _poly_mul(num, _atom_power(atom, extra))
    return num


def _unit(re: int, im: int) -> tuple[int, int]:
    """The unit u in {1, -1, i, -i} with u (re + i im) having re > 0, im >= 0."""
    if re > 0 and im >= 0:
        return 1, 0
    if re <= 0 and im > 0:
        return 0, -1
    if re < 0 and im <= 0:
        return -1, 0
    return 0, 1


def _common_monomial(mono: int, monos) -> int:
    """The largest monomial that divides ``mono`` and each of ``monos``."""
    out = 0
    for idx, e in _unpack(mono):
        shift = idx * _BITS
        for m in monos:
            e = min(e, (m >> shift) & _FIELD)
            if not e:
                break
        out += e << shift
    return out


def _divisor(poly: dict) -> tuple[int, int, int, dict]:
    """Write 1/poly as (re + i im) / (scale * product of atoms).

    Returns (re, im, scale, atoms) for a nonzero polynomial: its integer
    content and unit go to (re, im, scale), its monomial content to
    single-variable atoms, and the rest, if not constant, is one more atom.
    """
    if len(poly) == 1:
        ((mono, (a, b)),) = poly.items()
        re, im, scale, rest = a, -b, a * a + b * b, None
    else:
        monos = list(poly)
        mono = _common_monomial(monos[0], monos[1:])
        scale = gcd(*(part for pair in poly.values() for part in pair))
        re, im = _unit(*poly[max(monos)])
        rest = {m - mono: ((a * re - b * im) // scale, (a * im + b * re) // scale)
                for m, (a, b) in poly.items()}
    atoms: dict = {}
    for idx, e in _unpack(mono):
        atoms[_atom({1 << (_BITS * idx): (1, 0)})] = e
    if rest is not None:
        atoms[_atom(rest)] = 1
    return re, im, scale, atoms


# -- values ---------------------------------------------------------------------

#: The empty atom multiset, shared by every value without a denominator.
_NO_ATOMS: dict = {}
_ONE_TERMS = {0: (1, 0)}


def _new(num: dict, c: int, den: dict) -> "RationalFunction":
    out = object.__new__(RationalFunction)
    out._num = num
    out._c = c
    out._den = den
    out._pair = None
    return out


def _reduced(num: dict, c: int, den: dict) -> "RationalFunction":
    """The value num / (c * den), with c made coprime to num's content."""
    if not num:
        return _new({}, 1, _NO_ATOMS)
    if c != 1:
        g = c
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            num = {m: (re // g, im // g) for m, (re, im) in num.items()}
            c //= g
    return _new(num, c, den)


def _constant(re: int, im: int = 0, c: int = 1) -> "RationalFunction":
    if not (re or im):
        return _new({}, 1, _NO_ATOMS)
    if c < 0:
        re, im, c = -re, -im, -c
    return _reduced({0: (re, im)}, c, _NO_ATOMS)


def _is_constant(x: "RationalFunction") -> bool:
    return not x._den and len(x._num) == 1 and 0 in x._num


def _is_one(x: "RationalFunction") -> bool:
    return x._c == 1 and not x._den and x._num == _ONE_TERMS


def _add(a: "RationalFunction", b: "RationalFunction", sign: int) -> "RationalFunction":
    """a + sign * b."""
    if not b._num:
        return a
    if not a._num:
        return b if sign > 0 else -b
    na, nb, da, db = a._num, b._num, a._den, b._den
    if da == db:
        den = da
    else:
        den = dict(da)
        for atom, e in db.items():
            if e > den.get(atom, 0):
                den[atom] = e
        na = _lift(na, da, den)
        nb = _lift(nb, db, den)
    ca, cb = a._c, b._c
    c = ca
    if ca != cb:
        c = lcm(ca, cb)
        if c != ca:
            na = _poly_scale(na, c // ca)
        if c != cb:
            nb = _poly_scale(nb, c // cb)
    return _reduced(_poly_add(na, nb, sign), c, den)


def _mul(a: "RationalFunction", b: "RationalFunction") -> "RationalFunction":
    if not a._num:
        return a
    if not b._num:
        return b
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    da, db = a._den, b._den
    if not da and not db and _is_constant(a) and _is_constant(b):
        (x, y), (u, v) = a._num[0], b._num[0]
        return _constant(x * u - y * v, x * v + y * u, a._c * b._c)
    if not db:
        den = da
    elif not da:
        den = db
    else:
        den = dict(da)
        for atom, e in db.items():
            den[atom] = den.get(atom, 0) + e
    return _reduced(_poly_mul(a._num, b._num), a._c * b._c, den)


def _div(a: "RationalFunction", b: "RationalFunction") -> "RationalFunction":
    if not b._num:
        raise DegenerateInputError("division by the zero polynomial")
    if not a._num or _is_one(b):
        return a
    num, den = a._num, a._den
    if b._den:
        # b's atoms cancel against ours where they can; the rest go up
        den = dict(den)
        for atom, e in b._den.items():
            have = den.get(atom, 0)
            if have > e:
                den[atom] = have - e
            else:
                if have:
                    del den[atom]
                if e > have:
                    num = _poly_mul(num, _atom_power(atom, e - have))
    re, im, scale, atoms = _divisor(b._num)
    num = _poly_scale(num, re * b._c, im * b._c)
    if atoms:
        den = dict(den)
        for atom, e in atoms.items():
            den[atom] = den.get(atom, 0) + e
    return _reduced(num, a._c * scale, den)


def _coerce(value) -> "RationalFunction | None":
    """An arithmetic operand as a RationalFunction, or None if it is not an
    int or a RationalFunction."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, int):
        return _constant(value)
    return None


def sym(name: str) -> "RationalFunction":
    """The named formal symbol (``k``, ``lam``, ``mf``, ...) as a RationalFunction.

    Symbols of equal name are equal.
    """
    return _new({_var(name): (1, 0)}, 1, _NO_ATOMS)


def _grlex_lc(poly_expr):
    """Leading coefficient of an expanded polynomial under grlex order."""
    import sympy as sp

    free = sorted(poly_expr.free_symbols, key=str)
    if not free:
        return poly_expr
    return sp.Poly(poly_expr, *free).LC(order="grlex")


def _canonical_pair(expr):
    """Split a sympy expression into coprime (num, den), den grlex-monic, both expanded."""
    import sympy as sp

    if expr.is_number:
        return sp.expand(expr), sp.Integer(1)
    expr = sp.cancel(sp.together(expr))
    num, den = sp.fraction(expr)
    num = sp.expand(num)
    den = sp.expand(den)
    if den.is_zero:
        raise DegenerateInputError("zero denominator")
    lc = _grlex_lc(den)
    if lc != 1:
        num = sp.expand(sp.cancel(num / lc))
        den = sp.expand(sp.cancel(den / lc))
    return num, den


def _poly_expr(poly: dict, c: int = 1):
    """The polynomial poly / c as an expanded sympy expression.

    Real and imaginary parts are separate terms: sympy keeps a Gaussian
    coefficient times a monomial, such as ``lam*(-6 - 2*I)``, unexpanded.
    """
    import sympy as sp

    terms = []
    for mono, (a, b) in poly.items():
        factors = [sp.Symbol(_VARS[idx]) ** e for idx, e in _unpack(mono)]
        if a:
            terms.append(sp.Mul(sp.Rational(a, c), *factors))
        if b:
            terms.append(sp.Mul(sp.Rational(b, c), sp.I, *factors))
    return sp.Add(*terms)


class RationalFunction:
    """A multivariate rational function over Q(i); see the module docstring.

    Immutable from the caller's point of view (the only mutation is the
    internal canonical-pair cache), so instances are safe to share between
    threads.
    """

    __slots__ = ("_num", "_c", "_den", "_pair")

    def __init__(self, expr):
        value = _coerce(expr)
        if value is None:
            raise TypeError(f"not an int or a RationalFunction: {expr!r}")
        self._num, self._c, self._den, self._pair = value._num, value._c, value._den, value._pair

    # -- canonical form ------------------------------------------------------

    def _canonical(self):
        """The canonical pair, cached; sympy cancels only a multi-term atom.

        When every atom is a single variable the denominator is the monomial
        ``c * mono``, and its gcd with the numerator is the monomial they
        have in common, so the pair is written out directly.
        """
        if self._pair is None:
            if all(len(_ATOMS[atom]) == 1 for atom in self._den):
                mono = sum(e * next(iter(_ATOMS[atom])) for atom, e in self._den.items())
                common = _common_monomial(mono, self._num)
                num = {m - common: v for m, v in self._num.items()} if common else self._num
                self._pair = _poly_expr(num, self._c), _poly_expr({mono - common: (1, 0)})
            else:
                import sympy as sp

                num = _poly_expr(self._num)
                den = sp.Mul(self._c, *(_poly_expr(_ATOMS[atom]) ** e
                                        for atom, e in self._den.items()))
                self._pair = _canonical_pair(num / den)
        return self._pair

    @property
    def num(self):
        return self._canonical()[0]

    @property
    def den(self):
        return self._canonical()[1]

    def normalize(self) -> "RationalFunction":
        """Return self with the canonical pair computed (idempotent)."""
        self._canonical()
        return self

    @property
    def expr(self):
        num, den = self._canonical()
        return num / den

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return _is_one(self) or not _add(self, _constant(1), -1)._num

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return NotImplemented if other is None else _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        if not self._num:
            return self
        return _new({m: (-a, -b) for m, (a, b) in self._num.items()}, self._c, self._den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return NotImplemented if other is None else _add(self, other, -1)

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return NotImplemented if other is None else _add(other, self, -1)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return NotImplemented if other is None else _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return NotImplemented if other is None else _div(self, other)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return NotImplemented if other is None else _div(other, self)

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        if n < 0:
            if not self._num:
                raise DegenerateInputError("negative power of zero")
            return (_constant(1) / self) ** -n
        if n == 0:
            return _constant(1)
        if n == 1 or not self._num or _is_one(self):
            return self
        polys = [self._num, *(_ATOMS[atom] for atom in self._den)]
        degree = max(e for poly in polys for mono in poly for _, e in _unpack(mono) or [(0, 0)])
        if n * degree > _FIELD:
            raise OverflowError(f"exponent above {_FIELD} in a power")
        out, base = _constant(1), self
        while n:
            if n & 1:
                out = _mul(out, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return out

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return not _add(self, other, -1)._num

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"RationalFunction({self.expr})"

    def __reduce__(self):
        # variable indices and atom ids are per process: pickle by names
        return _rebuild, (_named(self._num), self._c,
                          [(_named(_ATOMS[atom]), e) for atom, e in self._den.items()])

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, assignment: dict) -> complex | float:
        """Substitute numbers for all symbols and divide in double precision.

        ``assignment`` maps symbol names (or sympy Symbols) to numbers.  A
        vanishing denominator raises PoleError; an uncovered symbol raises
        MissingSymbolError.  Both are judged on the canonical form, so a
        removable singularity evaluates, and a symbol that cancels needs no
        value.

        Away from such points the value comes from the uncancelled numerator
        and atoms, so near, but not at, a removable singularity it loses
        relative accuracy like eps/distance:
        ``((k*k - 1)/(k - 1)).evaluate({"k": 1 + 1e-8})`` gives 2.0, a
        relative error of 5e-9 against k + 1.
        """
        point = {key if isinstance(key, str) else str(key): value
                 for key, value in assignment.items()}
        value = None
        try:
            den = self._c
            for atom, e in self._den.items():
                den *= _poly_value(_ATOMS[atom], point) ** e
            if den != 0:
                value = complex(_poly_value(self._num, point)) / den
        except KeyError:
            pass
        if value is None:
            value = self._evaluate_canonical(point, assignment)
        if value.imag == 0.0:
            return value.real
        return value

    def _evaluate_canonical(self, point: dict, assignment: dict) -> complex:
        import sympy as sp

        subs = {sp.Symbol(name): value for name, value in point.items()}
        num, den = self._canonical()
        missing = (set(num.free_symbols) | set(den.free_symbols)) - set(subs)
        if missing:
            raise MissingSymbolError(f"assignment missing symbols: {sorted(map(str, missing))}")
        den_val = complex(den.subs(subs))
        if abs(den_val) == 0.0:
            raise PoleError(f"denominator vanishes at {assignment}")
        return complex(num.subs(subs)) / den_val


#: The imaginary unit.
I = _constant(0, 1)


def Rat(expr) -> RationalFunction:
    """Shorthand constructor used throughout the package.

    A RationalFunction is returned as it is (instances are immutable), so
    callers share its cached canonical form.
    """
    return expr if isinstance(expr, RationalFunction) else RationalFunction(expr)


def _named(poly: dict) -> list:
    """A polynomial's terms, each keyed by its (variable name, exponent) pairs."""
    return [(tuple((_VARS[idx], e) for idx, e in _unpack(mono)), coeff)
            for mono, coeff in poly.items()]


def _rebuild(num: list, c: int, atoms: list) -> RationalFunction:
    """The value that ``__reduce__`` wrote, over this process's variables: the
    numerator over c, divided by each atom as often as it occurs."""
    def poly(terms: list) -> dict:
        return {sum(e * _var(name) for name, e in names): v for names, v in terms}

    out = _reduced(poly(num), c, _NO_ATOMS)
    for terms, e in atoms:
        atom = _new(poly(terms), 1, _NO_ATOMS)
        for _ in range(e):
            out = _div(out, atom)
    return out


def _accumulate(out: dict, terms: dict, factor: RationalFunction | None = None,
                sign: int = 1) -> None:
    """Add sign * factor * terms (factor None: sign * terms) into ``out`` in
    place: the one merge of {monomial: coefficient} dicts.  A cancelled
    coefficient stays as a zero for ``_nonzero`` to drop."""
    for mono, coeff in terms.items():
        if factor is not None:
            coeff = _mul(factor, coeff)
        if mono in out:
            out[mono] = _add(out[mono], coeff, sign)
        else:
            out[mono] = coeff if sign > 0 else -coeff


def _nonzero(terms: dict) -> dict:
    """The terms whose coefficient is not zero: the one zero filter."""
    return {mono: coeff for mono, coeff in terms.items() if coeff._num}


def _same_terms(terms: dict, other: dict) -> bool:
    """True when two term dicts hold the same monomials with equal
    coefficients: the same object or the same stored form, else an exact
    zero difference (the form is not unique).  Loads no sympy."""
    if terms.keys() != other.keys():
        return False
    for mono, a in terms.items():
        b = other[mono]
        if a is not b and (a._num != b._num or a._c != b._c or a._den != b._den) \
                and _add(a, b, -1)._num:
            return False
    return True


class LinearCombination:
    """Finite sum of RationalFunction coefficients keyed by monomials.

    The arithmetic shared by the Weyl, enveloping-algebra and tensor
    elements, the distributive product and the commutator included.  A
    subclass defines how two monomials multiply (``_product``, as a
    {monomial: factor} dict) and how a monomial prints (``_monomial_str``).
    The commutator takes the bracket of two monomials from the ``_bracket``
    hook, which merges the two products; a subclass may keep its values or
    take the bracket in closed form.  It skips a pair of monomials that the
    ``_support`` hook shows to commute; by default none is skipped.
    A subclass that lives in a context (an algebra instance, a leg count)
    stores it as ``_context``, the tuple of its constructor's leading
    arguments; two operands must share it.

    The constructor drops every zero coefficient through ``_nonzero``, so
    ``terms`` never holds one and ``is_zero`` is "no terms".  Immutable:
    ``terms`` is never rebound or changed after construction, so a sum with
    an operand of no terms is the other operand itself, and the negation of
    a zero is that zero.  Sums, products and brackets are one pass each
    through ``_accumulate``: ``a + b`` and ``a - b`` copy a's terms once
    and accumulate b's into the copy, so ``a - b`` builds no ``-b``.
    """

    __slots__ = ("terms",)

    _name = "LinearCombination"
    _context: tuple = ()

    def __init__(self, terms: dict | None = None):
        self.terms = _nonzero(terms) if terms else {}

    def _like(self, terms: dict):
        return type(self)(*self._context, terms)

    def _same(self, other) -> None:
        if type(other) is not type(self) or other._context != self._context:
            raise ValueError(f"incompatible {self._name} operands")

    # -- the zero rule ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- linear arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._same(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return self._like(out)

    def __neg__(self):
        if not self.terms:
            return self
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        self._same(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        out = dict(self.terms)
        _accumulate(out, other.terms, sign=-1)
        return self._like(out)

    def scale(self, coeff):
        coeff = Rat(coeff)
        return self._like({m: _mul(coeff, c) for m, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    def __mul__(self, other):
        """The product, distributed over the terms; a scalar operand scales."""
        if not isinstance(other, LinearCombination):
            return self.scale(other)
        self._same(other)
        product = self._product
        out: dict = {}
        right = other.terms
        for m1, c1 in self.terms.items():
            for m2, c2 in right.items():
                _accumulate(out, product(m1, m2), _mul(c1, c2))
        return self._like(out)

    def _bracket(self, m1, m2) -> dict:
        """The monomial bracket m1 m2 - m2 m1, as {monomial: factor}: the
        two products merged, with only the factors that survive the
        cancellation kept."""
        merged = dict(self._product(m1, m2))
        _accumulate(merged, self._product(m2, m1), sign=-1)
        return _nonzero(merged)

    @staticmethod
    def _support(mono) -> tuple[int, int]:
        """Bit masks (a, b) of a monomial such that two monomials commute
        where a1 & b2 and a2 & b1 are both 0.  All bits set here, so no pair
        is taken to commute; a subclass that can tell overrides it."""
        return -1, -1

    def _commutator_terms(self, other) -> dict:
        """The terms of [self, other] as one unfiltered dict, for a caller to
        add to before it drops the zeros (see ``commutator``).  Each
        monomial's ``_support`` is read once, and a pair that it shows to
        commute is skipped with no ``_bracket`` call."""
        self._same(other)
        bracket, support = self._bracket, self._support
        out: dict = {}
        right = [(m2, c2, *support(m2)) for m2, c2 in other.terms.items()]
        for m1, c1 in self.terms.items():
            a1, b1 = support(m1)
            for m2, c2, a2, b2 in right:
                if a1 & b2 or a2 & b1:
                    factors = bracket(m1, m2)
                    if factors:
                        _accumulate(out, factors, _mul(c1, c2))
        return out

    def commutator(self, other):
        """[self, other]: c1 c2 times the monomial bracket, summed over pairs of terms.

        Scalars commute, so this is a*b - b*a exactly, whatever ``_product``
        does, and a pair whose monomials commute costs no scalar product.
        Termwise it is antisymmetric: ``b.commutator(a)`` is the exact
        negation of ``a.commutator(b)``.
        """
        return self._like(self._commutator_terms(other))

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable (equality is semantic)")

    def __repr__(self) -> str:
        if self.is_zero:
            return f"{self._name}(0)"
        bits = [f"({coeff.expr!r})*{self._monomial_str(mono)}"
                for mono, coeff in sorted(self.terms.items())]
        return f"{self._name}(" + " + ".join(bits) + ")"
