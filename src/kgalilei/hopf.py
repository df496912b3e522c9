"""The deformed centrally extended Galilei algebra and its Hopf structure.

Generators: rotations J_i, boosts K_i, momenta P_i, energy H, the central mass
operator M, and the invertible grouplike element E standing for exp(-M/k)
(adjoined as a formal generator so every check is exact).  Nonzero brackets:

    [J_i, J_j] = i eps_ijl J_l        [J_i, P_j] = i eps_ijl P_l
    [J_i, K_j] = i eps_ijl K_l        [K_i, H]   = i P_i
    [K_i, P_j] = i delta_ij c (1 - E^2)

with central constant c = k/2 by default (the normalized convention; the
unnormalized mu/(1 - e^(-2 mu/k)) is available via ``unnormalized_central``).
Coproducts: P_i and K_i are twisted primitive (X (x) E + 1 (x) X), E is
grouplike, everything else primitive.

Enveloping-algebra elements are kept in the normal order J < K < P < H with
index-lexicographic ties, times central factors M^m E^e; products are
normalized by bracket rewriting, which terminates because every correction
term has a strictly shorter non-central word.

Each algebra instance computes a generator bracket [g, h] and a left-normed
double bracket [[g, h], f] once and keeps it (at most 13^2 + 13^3 values), so
a Jacobi sum is three stored double brackets.  Sharing the stored values is
safe because arithmetic on elements always builds new ones.
"""

from __future__ import annotations

from .scalars import I as _I, LinearCombination, RationalFunction, Rat, sym

__all__ = [
    "GalileiHopf",
    "UEAExpression",
    "TensorExpression",
    "GENERATOR_NAMES",
    "unnormalized_central",
    "eps",
]

KIND_RANK = {"J": 0, "K": 1, "P": 2, "H": 3}

#: Public generator names of the algebra.
GENERATOR_NAMES = ("J1", "J2", "J3", "K1", "K2", "K3", "P1", "P2", "P3", "H", "M", "E", "Einv")

_EMPTY = ()


def eps(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on axes 1..3."""
    return (i - j) * (j - k) * (k - i) // 2


def _letter(name: str) -> tuple:
    kind = name[0]
    axis = int(name[1]) if len(name) > 1 else 0
    return (kind, axis)


def _letter_key(letter: tuple) -> tuple:
    return (KIND_RANK[letter[0]], letter[1])


def unnormalized_central() -> RationalFunction:
    """The central constant mu / (1 - e^(-2 mu / k)) with mu a formal symbol."""
    mu = sym("mu")
    lam_mu = sym("lam_mu")
    return mu / (1 - lam_mu ** 2)


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
    power of M, and the (possibly negative) power of E.  Immutable as a
    value; ``is_zero`` prunes zero terms in place (see ``LinearCombination``).
    """

    __slots__ = ("algebra", "_context")

    _name = "UEA"

    def __init__(self, algebra: "GalileiHopf", terms: dict | None = None):
        self.algebra = algebra
        self._context = (algebra,)
        super().__init__(terms)

    def degree(self) -> int:
        return max((len(w[0]) + w[1] for w in self.terms), default=0)

    def __mul__(self, other) -> "UEAExpression":
        if not isinstance(other, UEAExpression):
            return self.scale(other)
        self._same(other)
        alg = self.algebra
        out: dict = {}
        right = other._nonzero_terms()
        for w1, c1 in self._nonzero_terms().items():
            for w2, c2 in right.items():
                base = c1 * c2
                for factor, word in alg._word_product(w1, w2):
                    coeff = base * factor
                    out[word] = out[word] + coeff if word in out else coeff
        return UEAExpression(alg, out)

    _monomial_str = staticmethod(_word_str)


class TensorExpression(LinearCombination):
    """Sum of 2- or 3-leg tensor monomials, each leg a normal-ordered word.

    Immutable as a value; ``is_zero`` prunes zero terms in place (see
    ``LinearCombination``).
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

    def __mul__(self, other) -> "TensorExpression":
        if not isinstance(other, TensorExpression):
            return self.scale(other)
        self._same(other)
        alg = self.algebra
        out: dict = {}
        right = other._nonzero_terms()
        for words1, c1 in self._nonzero_terms().items():
            for words2, c2 in right.items():
                # leg-wise products, then distribute
                partial = [((), c1 * c2)]
                for w1, w2 in zip(words1, words2):
                    prod = alg._word_product(w1, w2)
                    partial = [(key + (word,), coeff * factor)
                               for key, coeff in partial for factor, word in prod]
                for key, coeff in partial:
                    out[key] = out[key] + coeff if key in out else coeff
        return TensorExpression(alg, self.legs, out)

    def _monomial_str(self, words) -> str:
        return "(x)".join(_word_str(word) for word in words)


class GalileiHopf:
    """The deformed Galilei Hopf algebra with a configurable central constant."""

    def __init__(self, central: RationalFunction | None = None):
        self.central = central if central is not None else sym("k") / 2
        self._sort_cache: dict = {}
        self._bracket_cache: dict = {}
        self.rewrite_steps = 0

    # -- element constructors ------------------------------------------------

    def zero(self) -> UEAExpression:
        return UEAExpression(self, {})

    def one(self) -> UEAExpression:
        return UEAExpression(self, {(_EMPTY, 0, 0): Rat(1)})

    def gen(self, name: str) -> UEAExpression:
        if name == "M":
            return UEAExpression(self, {(_EMPTY, 1, 0): Rat(1)})
        if name == "E":
            return UEAExpression(self, {(_EMPTY, 0, 1): Rat(1)})
        if name == "Einv":
            return UEAExpression(self, {(_EMPTY, 0, -1): Rat(1)})
        if name not in GENERATOR_NAMES:
            raise KeyError(f"unknown generator {name!r}")
        return UEAExpression(self, {((_letter(name),), 0, 0): Rat(1)})

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
            c = self.central
            return [(_I * c, _EMPTY, 0, 0), (-(_I * c), _EMPTY, 0, 2)]
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

    # -- Hopf data -----------------------------------------------------------

    def bracket(self, g: str, h: str) -> UEAExpression:
        """Commutator [g, h] of two named generators, computed once per pair."""
        key = (g, h)
        value = self._bracket_cache.get(key)
        if value is None:
            value = self._bracket_cache[key] = self.gen(g).commutator(self.gen(h))
        return value

    def double_bracket(self, g: str, h: str, f: str) -> UEAExpression:
        """Left-normed [[g, h], f] of named generators, computed once per triple."""
        key = (g, h, f)
        value = self._bracket_cache.get(key)
        if value is None:
            value = self._bracket_cache[key] = self.bracket(g, h).commutator(self.gen(f))
        return value

    def _letter_coproduct(self, letter: tuple) -> TensorExpression:
        kind, axis = letter
        one = (_EMPTY, 0, 0)
        word = ((letter,), 0, 0)
        if kind in ("P", "K"):
            e_word = (_EMPTY, 0, 1)
            return TensorExpression(self, 2, {(word, e_word): Rat(1), (one, word): Rat(1)})
        return TensorExpression(self, 2, {(word, one): Rat(1), (one, word): Rat(1)})

    def coproduct(self, g: str) -> TensorExpression:
        """Coproduct of a named generator."""
        one = (_EMPTY, 0, 0)
        if g == "M":
            m = (_EMPTY, 1, 0)
            return TensorExpression(self, 2, {(m, one): Rat(1), (one, m): Rat(1)})
        if g in ("E", "Einv"):
            e = (_EMPTY, 0, 1 if g == "E" else -1)
            return TensorExpression(self, 2, {(e, e): Rat(1)})
        if g not in GENERATOR_NAMES:
            raise KeyError(f"unknown generator {g!r}")
        return self._letter_coproduct(_letter(g))

    def coproduct_of(self, expr: UEAExpression) -> TensorExpression:
        """Extend the coproduct multiplicatively to a full UEA expression."""
        out = TensorExpression(self, 2, {})
        one = (_EMPTY, 0, 0)
        for (letters, m, e), coeff in expr._nonzero_terms().items():
            term = TensorExpression(self, 2, {(one, one): coeff})
            for letter in letters:
                term = term * self._letter_coproduct(letter)
            if m:
                dm = self.coproduct("M")
                for _ in range(m):
                    term = term * dm
            if e:
                de = TensorExpression(self, 2, {((_EMPTY, 0, e), (_EMPTY, 0, e)): Rat(1)})
                term = term * de
            out = out + term
        return out

    def counit(self, g: str) -> RationalFunction:
        return Rat(1) if g in ("E", "Einv") else Rat(0)

    def antipode(self, g: str) -> UEAExpression:
        if g == "M":
            return -self.gen("M")
        if g == "E":
            return self.gen("Einv")
        if g == "Einv":
            return self.gen("E")
        kind = g[0]
        if kind in ("P", "K"):
            return -(self.gen(g) * self.gen("Einv"))
        return -self.gen(g)

    def antipode_of(self, expr: UEAExpression) -> UEAExpression:
        """Antipode extended as an anti-homomorphism."""
        out = self.zero()
        for (letters, m, e), coeff in expr._nonzero_terms().items():
            term = UEAExpression(self, {(_EMPTY, 0, -e): coeff * Rat(-1) ** m})
            term = term * UEAExpression(self, {(_EMPTY, m, 0): Rat(1)})
            for letter in reversed(letters):
                name = f"{letter[0]}{letter[1]}" if letter[1] else letter[0]
                term = term * self.antipode(name)
            out = out + term
        return out

    # -- residual checks ---------------------------------------------------------

    def check_jacobi(self, g1: str, g2: str, g3: str) -> UEAExpression:
        """[[g1,g2],g3] + [[g2,g3],g1] + [[g3,g1],g2]; zero iff consistent."""
        return (self.double_bracket(g1, g2, g3) + self.double_bracket(g2, g3, g1)
                + self.double_bracket(g3, g1, g2))

    def check_hom(self, g: str, h: str) -> TensorExpression:
        """Delta([g,h]) - [Delta g, Delta h]; zero iff Delta is an algebra map."""
        lhs = self.coproduct_of(self.bracket(g, h))
        rhs = self.coproduct(g).commutator(self.coproduct(h))
        return lhs - rhs

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
            if e != 0 and m == 0:
                candidates.append(((letters, 1, 0), coeff * Rat(-e) / k))
            elif e != 0 and m == 1:
                pass  # E-correction would be second order in M
            for word, c in candidates:
                out[word] = out[word] + c if word in out else c
        return UEAExpression(self, out)
