"""Noncommutative polynomial algebra in canonical position/momentum symbols.

Two particle slots (1, 2), three spatial axes, kinds ``x`` (position) and
``p`` (momentum), with the pairing [x_{A,i}, p_{B,j}] = i delta_{AB} delta_{ij}
and hbar = 1.  Every expression is kept in normal order: position symbols to
the left of momentum symbols, each block sorted by (slot, axis).  Reordering a
product of normal-ordered monomials uses the closed form

    p^a x^b = sum_j (-i)^j j! C(a,j) C(b,j) x^(b-j) p^(a-j)

per canonical pair, which is exact; all operator-identity checks downstream
reduce to a coefficient computation in the scalar field.  The weight of each
term is a Gaussian integer, kept once per exponent pair both as a scalar
(read by the product) and as an integer pair (read by the bracket).

The monomial bracket [m1, m2] is taken in closed form.  Two monomials commute
unless some slot pairs a momentum exponent of one with a position exponent of
the other.  Each monomial's slot supports, a p-mask and an x-mask, are formed
once and kept, and the commutator skips a pair whose masks show it commutes:
no bracket is taken and nothing is reordered.  Any other pair merges its two
orders as Gaussian-integer pairs, where their j = 0 terms always cancel, and
only the surviving terms become scalars.

A monomial written as positions times momenta is already in normal order, so
``_normal_ordered`` builds such sums directly from (particle, axis) factors;
``position``, ``momentum`` and the realizations' images go through it, and
none is a product.

``_rotated`` relabels every particle's axes 1 -> 2 -> 3 -> 1: slot
3(A-1) + (i-1) moves to particle A's next axis.  Positions and momenta move
alike, so a monomial stays in normal order and a relabeled sum needs no
rewriting; the realizations carry a residual along its rotation orbit with it.
"""

from __future__ import annotations

from math import comb, factorial
from operator import add, itemgetter

from .scalars import LinearCombination, Rat, _constant

__all__ = [
    "WeylExpression",
    "position",
    "momentum",
    "scalar",
]

N_SLOTS = 6  # (particle, axis) pairs flattened: slot = 3*(A-1) + (i-1)


# A monomial is a pair of exponent tuples (positions, momenta), each of
# length N_SLOTS.  The zero exponent tuple:
_ZERO = (0,) * N_SLOTS


class WeylExpression(LinearCombination):
    """Finite sum of RationalFunction coefficients times normal-ordered monomials.

    Immutable: arithmetic returns new values, and none holds a zero
    coefficient (see ``LinearCombination``).
    """

    __slots__ = ()

    _name = "WeylExpression"

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "WeylExpression":
        return cls({})

    @classmethod
    def unit(cls, coeff=1) -> "WeylExpression":
        return cls({(_ZERO, _ZERO): Rat(coeff)})

    # -- the monomial product -------------------------------------------------

    @staticmethod
    def _product(m1, m2) -> dict:
        (x1, p1), (x2, p2) = m1, m2
        return {(tuple(map(add, x1, mid_x)), tuple(map(add, mid_p, p2))): weight
                for (mid_x, mid_p), weight, _ in _reorder(p1, x2)}

    @staticmethod
    def _support(mono) -> tuple[int, int]:
        """(p-mask, x-mask) of a monomial, bit s set where slot s holds a
        momentum, a position exponent; formed once per monomial.  Two
        monomials commute unless a momentum slot of one is a position slot
        of the other (module docstring)."""
        masks = _SUPPORTS.get(mono)
        if masks is None:
            xs, ps = mono
            masks = _SUPPORTS[mono] = (_mask(ps), _mask(xs))
        return masks

    def _bracket(self, m1, m2) -> dict:
        """m1 m2 - m2 m1 in closed form (module docstring); not cached, as few
        pairs recur.  Both orders are reordered: the commutator takes no
        commuting pair (see ``_support``), and one would cancel to {}."""
        (x1, p1), (x2, p2) = m1, m2
        merged: dict = {}
        for xa, pa, xb, pb, sign in ((x1, p1, x2, p2, 1), (x2, p2, x1, p1, -1)):
            for (mid_x, mid_p), _, (re, im) in _reorder(pa, xb):
                mono = (tuple(map(add, xa, mid_x)), tuple(map(add, mid_p, pb)))
                r0, i0 = merged.get(mono, (0, 0))
                merged[mono] = (r0 + sign * re, i0 + sign * im)
        return {mono: _constant(re, im) for mono, (re, im) in merged.items() if re or im}

    def _monomial_str(self, mono) -> str:
        xs, ps = mono
        word = [f"{kind}{slot // 3 + 1}{slot % 3 + 1}^{exps[slot]}"
                for kind, exps in (("x", xs), ("p", ps)) for slot in range(N_SLOTS) if exps[slot]]
        return "*".join(word) if word else "1"


_REORDER_CACHE: dict = {}

#: (p-mask, x-mask) per monomial, see ``WeylExpression._support``.
_SUPPORTS: dict = {}


def _mask(exps: tuple) -> int:
    """The slots of nonzero exponent, as bits."""
    return sum(1 << slot for slot, n in enumerate(exps) if n)


def _reorder(pexp: tuple, xexp: tuple) -> list:
    """Normal-order the middle block p^pexp * x^xexp.

    Returns ((x_exponents, p_exponents), scalar_weight, (re, im)) triples.
    Distinct slots commute, so the closed form applies slot by slot and
    contributions multiply; the weight of a pattern is the Gaussian integer
    w * (-i)^j with integer w, held both as a scalar and as the pair (re, im).
    """
    key = (pexp, xexp)
    cached = _REORDER_CACHE.get(key)
    if cached is None:
        results = [(list(xexp), list(pexp), 1, 0)]
        for slot in range(N_SLOTS):
            a, b = pexp[slot], xexp[slot]
            if a == 0 or b == 0:
                continue
            expanded = []
            for xs, ps, w, jt in results:
                for j in range(min(a, b) + 1):
                    nxs = xs.copy()
                    nps = ps.copy()
                    nxs[slot] = b - j
                    nps[slot] = a - j
                    expanded.append((nxs, nps, w * comb(a, j) * comb(b, j) * factorial(j), jt + j))
            results = expanded
        cached = []
        for xs, ps, w, j in results:
            gauss = ((w, 0), (0, -w), (-w, 0), (0, w))[j % 4]  # w * (-i)^j
            cached.append(((tuple(xs), tuple(ps)), _constant(*gauss), gauss))
        _REORDER_CACHE[key] = cached
    return cached


# -- convenience constructors -------------------------------------------------


def _normal_ordered(terms: dict) -> WeylExpression:
    """The sum of coeff * x^a p^b over ``terms``, {(xs, ps): coeff}, where xs
    and ps list the (particle, axis) of each position and momentum factor, a
    repeat raising its power, and no two keys give the same monomial.
    Positions stand left of momenta, so each such monomial is already in
    normal order and nothing is multiplied."""
    out = {}
    for symbols, coeff in terms.items():
        mono = ([0] * N_SLOTS, [0] * N_SLOTS)
        for kind, exps, factors in zip("xp", mono, symbols):
            for particle, axis in factors:
                if particle not in (1, 2) or axis not in (1, 2, 3):
                    raise ValueError(f"invalid canonical symbol {kind}{particle}{axis}: "
                                     f"need particle 1 or 2 and axis 1, 2 or 3")
                exps[3 * (particle - 1) + (axis - 1)] += 1
        out[tuple(mono[0]), tuple(mono[1])] = Rat(coeff)
    return WeylExpression(out)


#: The exponent tuple with each particle's axes relabeled 1 -> 2 -> 3 -> 1: new
#: slot 3(A-1) + (i-1) reads old slot 3(A-1) + (i-2) mod 3.
_rotate = itemgetter(*(3 * (slot // 3) + (slot - 1) % 3 for slot in range(N_SLOTS)))


def _rotated(terms: dict, sign: int = 1) -> dict:
    """``terms`` with every particle's axes relabeled 1 -> 2 -> 3 -> 1, each
    coefficient object kept, or negated where ``sign`` is -1.  A relabeled
    normal-ordered monomial is normal-ordered, so nothing is rewritten."""
    if sign > 0:
        return {(_rotate(xs), _rotate(ps)): coeff for (xs, ps), coeff in terms.items()}
    return {(_rotate(xs), _rotate(ps)): -coeff for (xs, ps), coeff in terms.items()}


def position(particle: int, axis: int) -> WeylExpression:
    return _normal_ordered({(((particle, axis),), ()): 1})


def momentum(particle: int, axis: int) -> WeylExpression:
    return _normal_ordered({((), ((particle, axis),)): 1})


def scalar(coeff) -> WeylExpression:
    """Multiple of the identity."""
    return WeylExpression.unit(coeff)
