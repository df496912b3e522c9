"""Exact scalar arithmetic: multivariate rational functions over the rationals.

All coefficients in the algebraic modules live here.  The canonical form of a
value is a coprime numerator/denominator pair of expanded polynomials in
formal symbols, with the denominator's leading coefficient (graded-lex over
alphabetically sorted symbols) normalized to 1.  Equality of canonical forms
is plain structural equality, so every identity check in the package is
decidable.

Arithmetic is lazy: operations build sympy expression trees (cheap), and the
canonical pair is computed on demand and cached.  ``LinearCombination``, the
sparse sum of monomials that the Weyl, enveloping-algebra and tensor elements
share, keeps that promise: its constructor drops only structurally zero
coefficients, and each coefficient is canonicalized once, when ``is_zero``
(and so ``==``) reaches a verdict.  Long chains of operator arithmetic thus
stay fast while every verdict stays exact.

The deformation exponentials e^{-m/k} are adjoined as independent formal
symbols (``lam``, ``lamp``), never expanded as series; every identity in scope
is rational in them.
"""

from __future__ import annotations

from numbers import Number

import sympy as sp

__all__ = [
    "DegenerateInputError",
    "PoleError",
    "MissingSymbolError",
    "RationalFunction",
    "LinearCombination",
    "sym",
    "Rat",
]


class DegenerateInputError(ZeroDivisionError):
    """Raised when a denominator is the zero polynomial."""


class PoleError(ZeroDivisionError):
    """Raised when a numeric evaluation point lies on a pole."""


class MissingSymbolError(KeyError):
    """Raised when an evaluation assignment does not cover all symbols."""


def sym(name: str) -> "RationalFunction":
    """The named formal symbol (``k``, ``lam``, ``mf``, ...) as a RationalFunction.

    Symbols of equal name are equal, so no registry is kept.
    """
    return RationalFunction(sp.Symbol(name))


def _grlex_lc(poly_expr: sp.Expr) -> sp.Expr:
    """Leading coefficient of an expanded polynomial under grlex order."""
    free = sorted(poly_expr.free_symbols, key=str)
    if not free:
        return poly_expr
    return sp.Poly(poly_expr, *free).LC(order="grlex")


def _canonical_pair(expr: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """Split into coprime (num, den), den grlex-monic, both expanded."""
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


class RationalFunction:
    """A multivariate rational function over Q(i), canonicalized on demand.

    Immutable from the caller's point of view (the only mutation is the
    internal canonical-pair cache), so instances are safe to share between
    threads.
    """

    __slots__ = ("_expr", "_pair")

    def __init__(self, expr):
        if isinstance(expr, RationalFunction):
            self._expr = expr._expr
            self._pair = expr._pair
            return
        expr = sp.sympify(expr)
        self._expr = expr
        self._pair = (expr, sp.Integer(1)) if _is_simple_number(expr) else None

    @classmethod
    def _lazy(cls, expr: sp.Expr) -> "RationalFunction":
        out = object.__new__(cls)
        out._expr = expr
        out._pair = (expr, sp.Integer(1)) if _is_simple_number(expr) else None
        return out

    # -- canonical form ------------------------------------------------------

    def _canonical(self) -> tuple[sp.Expr, sp.Expr]:
        if self._pair is None:
            self._pair = _canonical_pair(self._expr)
            self._expr = self._pair[0] / self._pair[1]
        return self._pair

    @property
    def num(self) -> sp.Expr:
        return self._canonical()[0]

    @property
    def den(self) -> sp.Expr:
        return self._canonical()[1]

    def normalize(self) -> "RationalFunction":
        """Return self with the canonical pair computed (idempotent)."""
        self._canonical()
        return self

    @property
    def expr(self) -> sp.Expr:
        num, den = self._canonical()
        return num / den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero is True

    @property
    def is_one(self) -> bool:
        num, den = self._canonical()
        return num == den

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _as_expr(other) -> sp.Expr:
        if isinstance(other, RationalFunction):
            return other._expr
        return sp.sympify(other)

    def __add__(self, other) -> "RationalFunction":
        return RationalFunction._lazy(self._expr + self._as_expr(other))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._lazy(-self._expr)

    def __sub__(self, other) -> "RationalFunction":
        return RationalFunction._lazy(self._expr - self._as_expr(other))

    def __rsub__(self, other) -> "RationalFunction":
        return RationalFunction._lazy(self._as_expr(other) - self._expr)

    def __mul__(self, other) -> "RationalFunction":
        return RationalFunction._lazy(self._expr * self._as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = other if isinstance(other, RationalFunction) else RationalFunction(other)
        if o.is_zero:
            raise DegenerateInputError("division by the zero polynomial")
        return RationalFunction._lazy(self._expr / o._expr)

    def __rtruediv__(self, other) -> "RationalFunction":
        if self.is_zero:
            raise DegenerateInputError("division by the zero polynomial")
        return RationalFunction._lazy(self._as_expr(other) / self._expr)

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        if n < 0 and self.is_zero:
            raise DegenerateInputError("negative power of zero")
        return RationalFunction._lazy(self._expr ** n)

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Number)) or isinstance(other, sp.Expr):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"RationalFunction({self._expr})"

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, assignment: dict) -> complex | float:
        """Substitute numbers for all symbols and divide in double precision.

        ``assignment`` maps symbol names (or sympy Symbols) to numbers.  A
        vanishing denominator raises PoleError; an uncovered symbol raises
        MissingSymbolError.
        """
        subs = {}
        for key, value in assignment.items():
            subs[sp.Symbol(key) if isinstance(key, str) else key] = value
        num, den = self._canonical()
        missing = (set(num.free_symbols) | set(den.free_symbols)) - set(subs)
        if missing:
            raise MissingSymbolError(f"assignment missing symbols: {sorted(map(str, missing))}")
        den_val = complex(den.subs(subs))
        if abs(den_val) == 0.0:
            raise PoleError(f"denominator vanishes at {assignment}")
        num_val = complex(num.subs(subs))
        value = num_val / den_val
        if value.imag == 0.0:
            return value.real
        return value


#: sympy's singleton zero: the only coefficient a LinearCombination drops unasked.
_ZERO = sp.S.Zero


def _is_simple_number(expr: sp.Expr) -> bool:
    """True for values already in canonical shape: exact numbers over Q(i)."""
    if expr.is_Rational:
        return True
    if expr is sp.I:
        return True
    if expr.is_Mul and len(expr.args) == 2 and expr.args[1] is sp.I and expr.args[0].is_Rational:
        return True
    return False


def Rat(expr) -> RationalFunction:
    """Shorthand constructor used throughout the package.

    A RationalFunction is returned as it is (instances are immutable), so
    callers share its cached canonical form.
    """
    return expr if isinstance(expr, RationalFunction) else RationalFunction(expr)


class LinearCombination:
    """Finite sum of RationalFunction coefficients keyed by monomials.

    The linear arithmetic shared by the Weyl, enveloping-algebra and tensor
    elements.  A subclass defines its monomial product (``__mul__``) and how
    a monomial prints (``_monomial_str``).  One that lives in a context (an
    algebra instance, a leg count) stores it as ``_context``, the tuple of
    its constructor's leading arguments; two operands must share it.

    The zero rule lives here and only here: the constructor keeps every
    coefficient except a structural zero, and ``is_zero`` canonicalizes each
    coefficient once and deletes the zero terms in place before it answers.
    Immutable as a value: that pruning never changes which element it is.
    """

    __slots__ = ("terms",)

    _name = "LinearCombination"
    _context: tuple = ()

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in terms.items() if c._expr is not _ZERO} if terms else {}

    def _like(self, terms: dict):
        return type(self)(*self._context, terms)

    def _same(self, other) -> None:
        if type(other) is not type(self) or other._context != self._context:
            raise ValueError(f"incompatible {self._name} operands")

    # -- the zero rule ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True iff every coefficient is zero; drops the zero terms first."""
        for mono in [m for m, c in self.terms.items() if c.is_zero]:
            del self.terms[mono]
        return not self.terms

    # -- linear arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out[mono] + coeff if mono in out else coeff
        return self._like(out)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = Rat(coeff)
        return self._like({m: coeff * c for m, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    def commutator(self, other):
        return self * other - other * self

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
        bits = [f"({coeff.normalize().expr!r})*{self._monomial_str(mono)}"
                for mono, coeff in sorted(self.terms.items())]
        return f"{self._name}(" + " + ".join(bits) + ")"
