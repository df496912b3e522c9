"""The deformed centrally extended Galilei algebra and its Hopf structure.

Generators: rotations J_i, boosts K_i, momenta P_i, energy H, the central mass
operator M, and the invertible grouplike element E standing for exp(-M/k)
(adjoined as a formal generator so every check is exact).  Nonzero brackets:

    [J_i, J_j] = i eps_ijl J_l        [J_i, P_j] = i eps_ijl P_l
    [J_i, K_j] = i eps_ijl K_l        [K_i, H]   = i P_i
    [K_i, P_j] = i delta_ij c (1 - E^2)

with central constant c = k/2.  Every check below is linear in c, so the
checks at c = k/2, with k a free symbol, cover every nonzero c.

Enveloping-algebra elements are kept in the normal order J < K < P < H with
index-lexicographic ties, times central factors M^m E^e; products are
normalized by bracket rewriting, which terminates because every correction
term has a strictly shorter non-central word.  The letter table
``_letter_bracket`` is antisymmetric: it gives a pair out of normal order as
the exact negation of the ordered pair.

A word bracket is taken in closed form where one exists.  A word with no
letters is central, and two words with the same letters multiply to the
same word either way, so their bracket is empty; two single letters read
the letter table, their central exponents added to each term's.  Only
longer words merge the two rewritten products.  A tensor monomial bracket
follows the Leibniz rule

    [(x)_i u_i, (x)_i w_i] = sum_k (x)_{i<k} w_i u_i (x) [u_k, w_k] (x) (x)_{i>k} u_i w_i,

which telescopes to the difference of the two leg-wise products, so a pair
whose legs all commute forms no product.  Both brackets are kept per
ordered pair in each algebra.

The coproduct and antipode are written once per non-central letter: P_i and
K_i are twisted (Delta X = X (x) E + 1 (x) X, S X = -X E^-1), J_i and H
primitive.  M, primitive, and E, grouplike, are exponents of a word, so only
``coproduct_of`` and ``antipode_of``, which extend the letter maps to whole
expressions, handle them; a named generator's Delta and S are those maps
applied to it.  Each algebra instance keeps a table of its generator
elements, each built on first use, every generator coproduct, and one
signed store of residuals keyed by the ordered names: a bracket [g, h]
under (g, h), a homomorphism residual Delta([g, h]) - [Delta g, Delta h]
under ("Delta", g, h), and a Jacobi sum under (g, h, f).  A value is built
once, for the first ordering asked for (the sorted one, for a Jacobi sum),
and stored at once under every ordering of its names: the value itself
under the even orderings, its exact negation under the odd ones.  A
repeated call is then one dictionary lookup.  The bracket and the
homomorphism residual are antisymmetric in (g, h), since ``coproduct_of`` is
linear.  The Jacobi sum is alternating for any product rule, each term being
linear in a commutator, and a commutator is antisymmetric term by term: the
pair (m1, m2) of monomials adds c1 c2 [m1, m2] to [a, b] and c2 c1 [m2, m1]
to [b, a], and [m2, m1] is the exact negation of [m1, m2].  Central words
and words with the same letters give an empty bracket either way, two
letters read the antisymmetric table, and longer words and tensor
monomials give the difference of their two products.  A zero value is its
own negation, the same object, and a sum with a zero operand is the other
operand, so a Jacobi sum of three zero double brackets builds no element:
it, the diagonal pair and every triple with a repeated name share one zero
per algebra.  A double bracket [[g, h], f] is not stored: it reads the
stored [g, h] and takes one commutator only where that is nonzero, and the
scan reads each one once, in one Jacobi sum.  Sharing the stored values is
safe because no element changes after construction.
"""

from __future__ import annotations

from .scalars import I as _I, LinearCombination, RationalFunction, Rat, sym

__all__ = [
    "GalileiHopf",
    "UEAExpression",
    "TensorExpression",
    "GENERATOR_NAMES",
    "eps",
]

KIND_RANK = {"J": 0, "K": 1, "P": 2, "H": 3}

#: Public generator names of the algebra.
GENERATOR_NAMES = ("J1", "J2", "J3", "K1", "K2", "K3", "P1", "P2", "P3", "H", "M", "E", "Einv")

_RANK = {name: rank for rank, name in enumerate(GENERATOR_NAMES)}

#: The central generators, as the exponents (m, e) of M and E in a word.
_CENTRAL = {"M": (1, 0), "E": (0, 1), "Einv": (0, -1)}

_EMPTY = ()
_ONE = Rat(1)
#: i c, with c = k/2 the central constant of [K_i, P_i] = i c (1 - E^2).
_I_CENTRAL = _I * (sym("k") / 2)


def eps(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on axes 1..3."""
    return (i - j) * (j - k) * (k - i) // 2


def _letter(name: str) -> tuple:
    kind = name[0]
    axis = int(name[1]) if len(name) > 1 else 0
    return (kind, axis)


def _letter_key(letter: tuple) -> tuple:
    return (KIND_RANK[letter[0]], letter[1])


def _word_str(word: tuple) -> str:
    letters, m, e = word
    parts = [f"{kind}{axis}" if axis else kind for kind, axis in letters]
    if m:
        parts.append(f"M^{m}")
    if e:
        parts.append(f"E^{e}")
    return "*".join(parts) if parts else "1"


class UEAExpression(LinearCombination):
    """Element of the enveloping algebra: dict of normal-ordered words.

    A word is (letters, m, e): a sorted tuple of non-central letters, the
    power of M, and the (possibly negative) power of E.  Immutable, and holds
    no zero coefficient (see ``LinearCombination``).
    """

    __slots__ = ("algebra", "_context")

    _name = "UEA"

    def __init__(self, algebra: "GalileiHopf", terms: dict | None = None):
        self.algebra = algebra
        self._context = (algebra,)
        super().__init__(terms)

    def _product(self, w1: tuple, w2: tuple) -> list[tuple]:
        return self.algebra._word_product(w1, w2)

    def _bracket(self, w1: tuple, w2: tuple) -> dict:
        return self.algebra._word_bracket(w1, w2)

    _monomial_str = staticmethod(_word_str)


def _distribute(legs) -> list[tuple]:
    """The tensor monomials of per-leg (factor, word) lists, as (factor, words) terms."""
    first, *rest = legs
    out = [(factor, (word,)) for factor, word in first]
    for terms in rest:
        out = [(c * factor, key + (word,)) for c, key in out for factor, word in terms]
    return out


class TensorExpression(LinearCombination):
    """Sum of 2- or 3-leg tensor monomials, each leg a normal-ordered word.

    Immutable, and holds no zero coefficient (see ``LinearCombination``).
    """

    __slots__ = ("algebra", "legs", "_context")

    _name = "Tensor"

    def __init__(self, algebra: "GalileiHopf", legs: int, terms: dict | None = None):
        if legs not in (2, 3):
            raise ValueError("tensor expressions have 2 or 3 legs")
        self.algebra = algebra
        self.legs = legs
        self._context = (algebra, legs)
        super().__init__(terms)

    def _product(self, words1: tuple, words2: tuple) -> list[tuple]:
        """Leg-wise word products, distributed over the legs."""
        return _distribute(map(self.algebra._word_product, words1, words2))

    def _bracket(self, words1: tuple, words2: tuple) -> dict:
        """The monomial bracket by the Leibniz rule (see the module
        docstring), once per ordered pair in each algebra: leg k's word
        bracket, between the reversed products of the legs before it and the
        products of those after it."""
        alg = self.algebra
        key = (words1, words2)
        cached = alg._tensor_bracket_cache.get(key)
        if cached is None:
            merged: dict = {}
            for k, (u, w) in enumerate(zip(words1, words2)):
                middle = alg._word_bracket(u, w)
                if not middle:
                    continue
                legs = [*map(alg._word_product, words2[:k], words1[:k]),
                        [(factor, word) for word, factor in middle.items()],
                        *map(alg._word_product, words1[k + 1:], words2[k + 1:])]
                for factor, mono in _distribute(legs):
                    merged[mono] = merged[mono] + factor if mono in merged else factor
            cached = alg._tensor_bracket_cache[key] = self._like(merged).terms
        return cached

    def _monomial_str(self, words) -> str:
        return "(x)".join(_word_str(word) for word in words)


class GalileiHopf:
    """The deformed Galilei Hopf algebra, with central constant c = k/2."""

    def __init__(self):
        self._sort_cache: dict = {}
        # w1 w2 - w2 w1 under (w1, w2), see _word_bracket, and the same for
        # tensor monomials, see TensorExpression._bracket
        self._word_bracket_cache: dict = {}
        self._tensor_bracket_cache: dict = {}
        # [g, h] under (g, h), the homomorphism residual of (g, h) under
        # ("Delta", g, h) and the Jacobi sum of (g, h, f) under (g, h, f),
        # each under every ordering of its names, see _fill
        self._store: dict = {}
        self._generators: dict = {}
        self._coproduct_cache: dict = {}
        self._zero = UEAExpression(self, {})
        self._zero_tensor = TensorExpression(self, 2, {})
        self.rewrite_steps = 0

    # -- element constructors ------------------------------------------------

    def zero(self) -> UEAExpression:
        return self._zero

    def one(self) -> UEAExpression:
        return UEAExpression(self, {(_EMPTY, 0, 0): Rat(1)})

    def gen(self, name: str) -> UEAExpression:
        """The named generator, built on first use and then shared."""
        value = self._generators.get(name)
        if value is None:
            if name not in GENERATOR_NAMES:
                raise KeyError(f"unknown generator {name!r}")
            word = (_EMPTY, *_CENTRAL[name]) if name in _CENTRAL else ((_letter(name),), 0, 0)
            value = self._generators[name] = UEAExpression(self, {word: _ONE})
        return value

    # -- structure constants ---------------------------------------------------

    def _letter_bracket(self, a: tuple, b: tuple) -> list[tuple]:
        """[a, b] for single letters, as (coeff, letters, dm, de) terms."""
        ka, ia = a
        kb, ib = b
        if _letter_key(a) > _letter_key(b):
            return [(-c, ls, dm, de) for c, ls, dm, de in self._letter_bracket(b, a)]
        if ka == "J" and kb in ("J", "K", "P"):
            e = eps(ia, ib, 6 - ia - ib) if ia != ib else 0
            if e == 0:
                return []
            other = 6 - ia - ib
            return [(_I * e, ((kb, other),), 0, 0)]
        if ka == "K" and kb == "P":
            if ia != ib:
                return []
            return [(_I_CENTRAL, _EMPTY, 0, 0), (-_I_CENTRAL, _EMPTY, 0, 2)]
        if ka == "K" and kb == "H":
            return [(_I, (("P", ia),), 0, 0)]
        return []

    def _sorted_words(self, letters: tuple) -> list[tuple]:
        """Normal-order a letter tuple; returns (coeff, letters, dm, de) terms."""
        cached = self._sort_cache.get(letters)
        if cached is not None:
            return cached
        idx = -1
        for i in range(len(letters) - 1):
            if _letter_key(letters[i]) > _letter_key(letters[i + 1]):
                idx = i
                break
        if idx < 0:
            result = [(Rat(1), letters, 0, 0)]
            self._sort_cache[letters] = result
            return result
        self.rewrite_steps += 1
        a, b = letters[idx], letters[idx + 1]
        prefix, suffix = letters[:idx], letters[idx + 2:]
        out: dict = {}
        # swapped term: a b = b a + [a, b]
        for coeff, ls, dm, de in self._sorted_words(prefix + (b, a) + suffix):
            key = (ls, dm, de)
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
        for bc, bletters, bdm, bde in self._letter_bracket(a, b):
            for coeff, ls, dm, de in self._sorted_words(prefix + bletters + suffix):
                key = (ls, dm + bdm, de + bde)
                add = bc * coeff
                cur = out.get(key)
                out[key] = add if cur is None else cur + add
        result = [(c, ls, dm, de) for (ls, dm, de), c in out.items()]
        self._sort_cache[letters] = result
        return result

    def _word_product(self, w1: tuple, w2: tuple) -> list[tuple]:
        """Normal-ordered product of two words, as (coeff, word) terms."""
        (l1, m1, e1), (l2, m2, e2) = w1, w2
        return [(factor, (letters, m1 + m2 + dm, e1 + e2 + de))
                for factor, letters, dm, de in self._sorted_words(l1 + l2)]

    def _word_bracket(self, w1: tuple, w2: tuple) -> dict:
        """The word bracket w1 w2 - w2 w1 as {word: factor}, in closed form
        where it has one (see the module docstring), once per ordered pair."""
        key = (w1, w2)
        cached = self._word_bracket_cache.get(key)
        if cached is None:
            (l1, m1, e1), (l2, m2, e2) = w1, w2
            if not l1 or not l2 or l1 == l2:
                cached = {}
            elif len(l1) == len(l2) == 1:
                merged: dict = {}
                for c, letters, dm, de in self._letter_bracket(l1[0], l2[0]):
                    word = (letters, m1 + m2 + dm, e1 + e2 + de)
                    merged[word] = merged[word] + c if word in merged else c
                cached = UEAExpression(self, merged).terms
            else:
                cached = LinearCombination._bracket(self._zero, w1, w2)
            self._word_bracket_cache[key] = cached
        return cached

    # -- Hopf data -----------------------------------------------------------

    def _fill(self, even: tuple, odd: tuple, value):
        """Store ``value`` under the keys ``even`` and its negation under ``odd``; return it.

        The negation is exact because each stored value is alternating in its
        names (see the module docstring), and a zero value is its own.
        """
        store = self._store
        mirror = -value
        for key in even:
            store[key] = value
        for key in odd:
            store[key] = mirror
        return value

    def bracket(self, g: str, h: str) -> UEAExpression:
        """Commutator [g, h] of two named generators; [h, g] is its negation."""
        value = self._store.get((g, h))
        if value is None:
            value = self._fill(((g, h),), ((h, g),), self._zero if g == h
                               else self.gen(g).commutator(self.gen(h)))
        return value

    def double_bracket(self, g: str, h: str, f: str) -> UEAExpression:
        """Left-normed [[g, h], f]; zero, with no commutator taken, wherever [g, h] is."""
        inner = self.bracket(g, h)
        return inner.commutator(self.gen(f)) if inner.terms else self._zero

    def _letter_coproduct(self, letter: tuple) -> TensorExpression:
        """Delta X = X (x) E + 1 (x) X for the twisted P and K, X (x) 1 + 1 (x) X otherwise."""
        word, one = ((letter,), 0, 0), (_EMPTY, 0, 0)
        twist = (_EMPTY, 0, 1 if letter[0] in "PK" else 0)
        return TensorExpression(self, 2, {(word, twist): _ONE, (one, word): _ONE})

    def _letter_antipode(self, letter: tuple) -> UEAExpression:
        """S X = -X E^-1 for the twisted P and K, -X otherwise."""
        return UEAExpression(self, {((letter,), 0, -1 if letter[0] in "PK" else 0): Rat(-1)})

    def coproduct(self, g: str) -> TensorExpression:
        """Coproduct of a named generator, computed once per generator."""
        value = self._coproduct_cache.get(g)
        if value is None:
            value = self._coproduct_cache[g] = self.coproduct_of(self.gen(g))
        return value

    def coproduct_of(self, expr: UEAExpression) -> TensorExpression:
        """Extend the coproduct multiplicatively to a full UEA expression.

        M is primitive and E grouplike; every other letter has its own Delta.
        """
        one, m_word = (_EMPTY, 0, 0), (_EMPTY, 1, 0)
        delta_m = TensorExpression(self, 2, {(m_word, one): _ONE, (one, m_word): _ONE})
        out = TensorExpression(self, 2, {})
        for (letters, m, e), coeff in expr.terms.items():
            term = TensorExpression(self, 2, {((_EMPTY, 0, e), (_EMPTY, 0, e)): coeff})
            for letter in letters:
                term = term * self._letter_coproduct(letter)
            for _ in range(m):
                term = term * delta_m
            out = out + term
        return out

    def counit(self, g: str) -> RationalFunction:
        return Rat(1) if g in ("E", "Einv") else Rat(0)

    def antipode_of(self, expr: UEAExpression) -> UEAExpression:
        """Antipode extended as an anti-homomorphism: S M = -M, S E = E^-1."""
        out = self.zero()
        for (letters, m, e), coeff in expr.terms.items():
            term = UEAExpression(self, {(_EMPTY, m, -e): coeff * Rat(-1) ** m})
            for letter in reversed(letters):
                term = term * self._letter_antipode(letter)
            out = out + term
        return out

    # -- residual checks ---------------------------------------------------------

    def check_jacobi(self, g1: str, g2: str, g3: str) -> UEAExpression:
        """[[g1,g2],g3] + [[g2,g3],g1] + [[g3,g1],g2]; zero iff consistent.

        Built once per set of names, for its ``GENERATOR_NAMES`` order; see
        the module docstring.
        """
        value = self._store.get((g1, g2, g3))
        if value is None:
            a, b, c = sorted((g1, g2, g3), key=_RANK.__getitem__)
            if a == b or b == c:
                return self._fill(((g1, g2, g3),), (), self._zero)
            self._fill(((a, b, c), (b, c, a), (c, a, b)), ((b, a, c), (a, c, b), (c, b, a)),
                       self.double_bracket(a, b, c) + self.double_bracket(b, c, a)
                       + self.double_bracket(c, a, b))
            value = self._store[g1, g2, g3]
        return value

    def check_hom(self, g: str, h: str) -> TensorExpression:
        """Delta([g,h]) - [Delta g, Delta h]; zero iff Delta is an algebra map.

        Antisymmetric in (g, h), since ``coproduct_of`` is linear, and zero
        on the diagonal.
        """
        key = ("Delta", g, h)
        value = self._store.get(key)
        if value is None:
            value = self._fill((key,), (("Delta", h, g),), self._zero_tensor if g == h
                               else self.coproduct_of(self.bracket(g, h))
                               - self.coproduct(g).commutator(self.coproduct(h)))
        return value

    def check_coassoc(self, g: str) -> TensorExpression:
        """(Delta (x) id - id (x) Delta) applied to Delta g; three legs."""
        out = TensorExpression(self, 3, {})
        for (w1, w2), coeff in self.coproduct(g).terms.items():
            left = self.coproduct_of(UEAExpression(self, {w1: coeff}))
            right = self.coproduct_of(UEAExpression(self, {w2: coeff}))
            out = out + TensorExpression(
                self, 3, {(u1, u2, w2): c for (u1, u2), c in left.terms.items()})
            out = out - TensorExpression(
                self, 3, {(w1, u1, u2): c for (u1, u2), c in right.terms.items()})
        return out

    def check_hopf_axiom(self, g: str) -> UEAExpression:
        """multiply((S (x) id) Delta g) - counit(g) * 1; zero iff S is an antipode."""
        total = self.zero()
        for (w1, w2), coeff in self.coproduct(g).terms.items():
            left = self.antipode_of(UEAExpression(self, {w1: Rat(1)}))
            right = UEAExpression(self, {w2: Rat(1)})
            total = total + (left * right).scale(coeff)
        return total - self.one().scale(self.counit(g))

    # -- classical limit -----------------------------------------------------------

    def first_order_classical(self, expr: UEAExpression) -> UEAExpression:
        """Substitute E = 1 - M/k, keep terms at most first order in M.

        Used to confirm that the deformed brackets contract to the classical
        centrally extended Galilei algebra.
        """
        k = sym("k")
        out: dict = {}
        for (letters, m, e), coeff in expr.terms.items():
            if m > 1:
                continue
            # E^e -> 1 - e*M/k to first order
            candidates = [((letters, m, 0), coeff)]
            if e != 0 and m == 0:  # with m = 1 the E-correction is second order
                candidates.append(((letters, 1, 0), coeff * Rat(-e) / k))
            for word, c in candidates:
                out[word] = out[word] + c if word in out else c
        return UEAExpression(self, out)
