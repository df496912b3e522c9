"""The deformed centrally extended Galilei algebra and its Hopf structure.

Generators: rotations J_i, boosts K_i, momenta P_i, energy H, the central mass
operator M, and the invertible grouplike element E standing for exp(-M/k)
(adjoined as a formal generator so every check is exact).  Nonzero brackets:

    [J_i, J_j] = i eps_ijl J_l        [J_i, P_j] = i eps_ijl P_l
    [J_i, K_j] = i eps_ijl K_l        [K_i, H]   = i P_i
    [K_i, P_j] = i delta_ij c (1 - E^2)

with central constant c = k/2.  Every check below is linear in c, so the
checks at c = k/2, with k a free symbol, cover every nonzero c.

The presentation is one block of data below, and a letter is its generator
name ("P1", "H").  ``_DEGREE`` lists the non-central letters in normal order
with their mass degree, 1 for P and K and 0 for J and H; ``_CENTRAL`` gives
M, E and Einv as exponents of M and E; ``_RANK`` orders ``GENERATOR_NAMES``
and ``_LETTER`` marks its letters; ``_BRACKETS`` holds the 21 nonzero
brackets of ordered letter pairs, shared and never mutated.  The coproduct
and antipode of a letter read its degree,

    Delta X = X (x) E^deg + 1 (x) X,        S X = -X E^-deg,

the mass grading of a Jordanian twist; M is primitive and E grouplike.

A word is normal-ordered letters times M^m E^e; products are normalized by
bracket rewriting, which terminates because every correction term has a
strictly shorter non-central word.  ``_letter_bracket`` reads ``_BRACKETS``
and gives a pair out of normal order as the exact negation of the ordered
pair.  Every product, bracket and rewriting is a {(letters, dm, de): coeff}
dict, with dm and de the powers of M and E it adds; ``_shifted`` adds two
words' central exponents to one, which makes it their product, or, from the
letter table, their bracket.

A word bracket is taken in closed form where one exists.  A word with no
letters is central, and two words with the same letters multiply to the
same word either way, so their bracket is empty; two single letters read
the letter table, shifted by their central exponents.  Only longer words
merge the two rewritten products, and each algebra keeps them per ordered
pair.  A tensor monomial bracket follows the Leibniz rule

    [(x)_i u_i, (x)_i w_i] = sum_k (x)_{i<k} w_i u_i (x) [u_k, w_k] (x) (x)_{i>k} u_i w_i,

which telescopes to the difference of the two leg-wise products, so a pair
whose legs all commute forms no product; it is not kept, as each ordered
pair of tensor monomials is bracketed once.

Each algebra keeps Delta and S of every word it meets, built on first use
from ``_letter_coproduct`` and ``_letter_antipode``; a lone letter's Delta is
its ``_letter_coproduct`` itself.  So a negative control that patches a
letter map on a class or on one instance reaches every check.  It keeps its
generator elements too, and one signed store keyed by the ordered names:
[g, h] under (g, h), Delta([g, h]) - [Delta g, Delta h] under ("Delta", g,
h), and the Jacobi sum under (g, h, f).  A bracket of two generators is read
from ``_letter_bracket`` for g before h, with no commutator taken; [h, g] is
its negation.  A residual is built once, in one dict, for the first ordering
asked for (the sorted one, for a Jacobi sum), and stored under every
ordering of its names, negated under the odd ones: both residuals are
alternating, as every word and tensor bracket changes sign exactly with its
order and Delta is linear.

sigma, the cyclic relabeling of the axes 1 -> 2 -> 3 -> 1 (``_SIGMA``), maps
the built residuals onto each other in orbits of three, or of one for the
three axes of a kind.  ``_sigma_equivariant``, taken once per algebra and
held, certifies that sigma commutes with the letter maps, none of whose words
has two letters; the realization suites read the same certificate.  A
generator's Jacobi sum and homomorphism residual then read only words of at
most one letter, so they do no rewriting of letter order, and each is term
for term sigma of its orbit source's.  A zero residual is then stored for its
whole orbit; a nonzero one is never carried, so a failing report is the
direct route's and no relabeled word needs a re-sort.

Most items are zero by their names alone, and are answered from the names
before any sort, build or store write, once ``_LETTER`` has read each name,
so an unknown one raises KeyError as in ``gen``.  A word with no letters
brackets to nothing, and M, E and Einv are such words, as is every leg of
their Delta, so a bracket, triple or pair that holds one is zero in closed
form; so are a bracket or homomorphism residual on the diagonal, and a Jacobi
sum with a repeated name, whose two remaining double brackets cancel by
antisymmetry.  These and every sum that cancels share one zero per algebra,
its own negation; a sum is filtered by ``_nonzero`` before any element is
built.  So the store holds only the brackets and residuals that were built,
their mirrors and orbits.  Sharing is safe: no element changes once built.
"""

from __future__ import annotations

from math import comb

from .scalars import (I as _I, LinearCombination, RationalFunction, Rat, _accumulate, _mul,
                      _nonzero, _same_terms, sym)

__all__ = ["GalileiHopf", "UEAExpression", "TensorExpression", "GENERATOR_NAMES"]

# -- the presentation ----------------------------------------------------------

#: The non-central letters in normal order, each with its mass degree.
_DEGREE = {"J1": 0, "J2": 0, "J3": 0, "K1": 1, "K2": 1, "K3": 1, "P1": 1, "P2": 1, "P3": 1,
           "H": 0}

#: The central generators, as the exponents (m, e) of M and E in a word.
_CENTRAL = {"M": (1, 0), "E": (0, 1), "Einv": (0, -1)}

#: Public generator names of the algebra.
GENERATOR_NAMES = (*_DEGREE, *_CENTRAL)

_RANK = {name: rank for rank, name in enumerate(GENERATOR_NAMES)}
_LETTER = {name: name in _DEGREE for name in GENERATOR_NAMES}

#: sigma, the cyclic relabeling of the axes 1 -> 2 -> 3 -> 1; H, M, E and Einv are fixed.
_SIGMA = {name: f"{name[0]}{int(name[1]) % 3 + 1}" if name[1:] in ("1", "2", "3") else name
          for name in GENERATOR_NAMES}

_EMPTY = ()
_UNIT = (_EMPTY, 0, 0)
_ONE = Rat(1)


def _brackets() -> dict:
    """The nonzero [a, b] of letters a before b in normal order, as term dicts."""
    i_c = _I * (sym("k") / 2)   # i c, with c = k/2
    table = {}
    for i, j, l in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):   # eps_ijl = 1 = -eps_jil
        for kind in "JKP":
            table[f"J{i}", f"{kind}{j}"] = {((f"{kind}{l}",), 0, 0): _I}
            table[f"J{j}", f"{kind}{i}"] = {((f"{kind}{l}",), 0, 0): -_I}
    for i in "123":
        table[f"K{i}", f"P{i}"] = {_UNIT: i_c, (_EMPTY, 0, 2): -i_c}
        table[f"K{i}", "H"] = {((f"P{i}",), 0, 0): _I}
    return {(a, b): terms for (a, b), terms in table.items() if _RANK[a] < _RANK[b]}


#: The 21 nonzero brackets of ordered letter pairs.  Shared: never mutated.
_BRACKETS = _brackets()


def _relabeled(word: tuple) -> tuple:
    """sigma of a word's letters."""
    letters, m, e = word
    return tuple(map(_SIGMA.__getitem__, letters)), m, e


def _orbit(keys: tuple) -> tuple:
    """Store keys and their sigma and sigma^2 images; ``keys`` alone where
    sigma maps them onto themselves, as for the three axes of a kind."""
    image = tuple(tuple(_SIGMA.get(name, name) for name in key) for key in keys)
    return keys if image[0] in keys else keys + image + tuple(
        tuple(_SIGMA.get(name, name) for name in key) for key in image)


def _word_str(word: tuple) -> str:
    letters, m, e = word
    parts = list(letters)
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

    def _product(self, w1: tuple, w2: tuple) -> dict:
        return self.algebra._word_product(w1, w2)

    def _bracket(self, w1: tuple, w2: tuple) -> dict:
        return self.algebra._word_bracket(w1, w2)

    _monomial_str = staticmethod(_word_str)


def _shifted(terms: dict, m: int, e: int) -> dict:
    """Terms keyed (letters, dm, de) as {word: factor}, with m added to each
    power of M and e to each power of E."""
    return {(letters, dm + m, de + e): c for (letters, dm, de), c in terms.items()}


def _distribute(legs) -> dict:
    """The tensor monomials of per-leg {word: factor} dicts, as {words: factor}."""
    first, *rest = legs
    out = {(word,): factor for word, factor in first.items()}
    for terms in rest:
        out = {key + (word,): c * factor
               for key, c in out.items() for word, factor in terms.items()}
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

    def _product(self, words1: tuple, words2: tuple) -> dict:
        """Leg-wise word products, distributed over the legs."""
        return _distribute(map(self.algebra._word_product, words1, words2))

    def _bracket(self, words1: tuple, words2: tuple) -> dict:
        """The monomial bracket by the Leibniz rule (see the module
        docstring): leg k's word bracket, between the reversed products of
        the legs before it and the products of those after it."""
        alg = self.algebra
        merged: dict = {}
        for k, (u, w) in enumerate(zip(words1, words2)):
            middle = alg._word_bracket(u, w)
            if not middle:
                continue
            legs = [*map(alg._word_product, words2[:k], words1[:k]), middle,
                    *map(alg._word_product, words1[k + 1:], words2[k + 1:])]
            _accumulate(merged, _distribute(legs))
        return _nonzero(merged)

    def _monomial_str(self, words) -> str:
        return "(x)".join(_word_str(word) for word in words)


class GalileiHopf:
    """The deformed Galilei Hopf algebra, with central constant c = k/2."""

    def __init__(self):
        self._sort_cache: dict = {}
        # w1 w2 - w2 w1 under (w1, w2), see _word_bracket
        self._word_bracket_cache: dict = {}
        # for distinct non-central names: [g, h] under (g, h), see bracket,
        # and the homomorphism residual of (g, h) under ("Delta", g, h) and
        # the Jacobi sum of (g, h, f) under (g, h, f), each under every
        # ordering of its names, see _fill
        self._store: dict = {}
        self._generators: dict = {}
        # Delta and S of each word, see _word_coproduct and _word_antipode
        self._word_coproducts: dict = {}
        self._word_antipodes: dict = {}
        self._zero = UEAExpression(self, {})
        self._zero_tensor = TensorExpression(self, 2, {})
        self._equivariant = None   # _sigma_equivariant, taken on first use
        self.rewrite_steps = 0

    # -- element constructors ------------------------------------------------

    def zero(self) -> UEAExpression:
        return self._zero

    def one(self) -> UEAExpression:
        return UEAExpression(self, {_UNIT: _ONE})

    def gen(self, name: str) -> UEAExpression:
        """The named generator, built on first use and then shared."""
        value = self._generators.get(name)
        if value is None:
            if name not in GENERATOR_NAMES:
                raise KeyError(f"unknown generator {name!r}")
            word = (_EMPTY, *_CENTRAL[name]) if name in _CENTRAL else ((name,), 0, 0)
            value = self._generators[name] = UEAExpression(self, {word: _ONE})
        return value

    # -- structure constants ---------------------------------------------------

    def _letter_bracket(self, a: str, b: str) -> dict:
        """[a, b] for single letters, as {(letters, dm, de): coeff}, read from
        ``_BRACKETS``; a pair out of normal order is the negation of the other."""
        if _RANK[a] > _RANK[b]:
            return {key: -c for key, c in self._letter_bracket(b, a).items()}
        return _BRACKETS.get((a, b), {})

    def _sorted_words(self, letters: tuple) -> dict:
        """Normal-order a letter tuple, as {(letters, dm, de): coeff}."""
        cached = self._sort_cache.get(letters)
        if cached is not None:
            return cached
        idx = next((i for i in range(len(letters) - 1)
                    if _RANK[letters[i]] > _RANK[letters[i + 1]]), -1)
        if idx < 0:
            out = {(letters, 0, 0): _ONE}
        else:
            self.rewrite_steps += 1
            a, b = letters[idx], letters[idx + 1]
            prefix, suffix = letters[:idx], letters[idx + 2:]
            # swapped term: a b = b a + [a, b]
            out = dict(self._sorted_words(prefix + (b, a) + suffix))
            for (bletters, bdm, bde), bc in self._letter_bracket(a, b).items():
                inner = self._sorted_words(prefix + bletters + suffix)
                _accumulate(out, _shifted(inner, bdm, bde), bc)
        self._sort_cache[letters] = out
        return out

    def _word_product(self, w1: tuple, w2: tuple) -> dict:
        """Normal-ordered product of two words, as {word: coeff}."""
        (l1, m1, e1), (l2, m2, e2) = w1, w2
        return _shifted(self._sorted_words(l1 + l2), m1 + m2, e1 + e2)

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
                cached = _nonzero(_shifted(self._letter_bracket(l1[0], l2[0]), m1 + m2, e1 + e2))
            else:
                cached = LinearCombination._bracket(self._zero, w1, w2)
            self._word_bracket_cache[key] = cached
        return cached

    # -- Hopf data -----------------------------------------------------------

    def _fill(self, even: tuple, odd: tuple, value):
        """Store a built residual ``value`` under the keys ``even`` and its
        negation under ``odd``; return it.

        The negation is exact because each stored value is alternating in its
        names (see the module docstring), and a zero value is its own.  Under
        ``_sigma_equivariant`` a zero is stored for the sigma orbit of its keys.
        """
        store = self._store
        mirror = -value
        if not value.terms and self._sigma_equivariant():
            even, odd = _orbit(even), _orbit(odd)
        for key in even:
            store[key] = value
        for key in odd:
            store[key] = mirror
        return value

    def _sigma_equivariant(self) -> bool:
        """The certificate that ``_letter_bracket`` of (sigma a, sigma b) is
        the relabeled one of (a, b) for every ordered pair of letters, and
        Delta of sigma a, from ``_letter_coproduct``, the relabeled Delta of
        a.  A bracket word or tensor monomial of more than one letter is not
        certified.  Taken on first use and held: the Hopf scan and both
        realization suites read this one certificate."""
        if self._equivariant is None:
            self._equivariant = all(self._sigma_commutes())
        return self._equivariant

    def _sigma_commutes(self):
        """Whether sigma carries each letter map onto its relabeling: one
        answer per ordered letter pair whose bracket or sigma image is not
        empty, then one per letter's Delta; ``all`` stops at the first no."""
        table = {(a, b): self._letter_bracket(a, b) for a in _DEGREE for b in _DEGREE}
        for (a, b), terms in table.items():
            image = table[_SIGMA[a], _SIGMA[b]]
            if terms or image:
                rotated = {_relabeled(word): c for word, c in terms.items() if len(word[0]) < 2}
                yield len(rotated) == len(terms) and _same_terms(image, rotated)
        for a in _DEGREE:
            terms = self._word_coproduct(((a,), 0, 0)).terms
            rotated = {(_relabeled(u), _relabeled(w)): c for (u, w), c in terms.items()
                       if len(u[0]) + len(w[0]) < 2}
            yield len(rotated) == len(terms) and _same_terms(
                self._word_coproduct(((_SIGMA[a],), 0, 0)).terms, rotated)

    def bracket(self, g: str, h: str) -> UEAExpression:
        """Commutator [g, h] of two named generators: the shared zero on the
        diagonal and where a name is central, read from the names alone;
        otherwise read from ``_letter_bracket`` for g before h, and [h, g],
        built on its first read, is its negation."""
        if not (_LETTER[g] & _LETTER[h]) or g == h:
            return self._zero
        value = self._store.get((g, h))
        if value is None:
            if _RANK[g] < _RANK[h]:
                value = UEAExpression(self, self._letter_bracket(g, h))
            else:
                value = -self.bracket(h, g)
            self._store[g, h] = value
        return value

    def _letter_coproduct(self, letter: str) -> TensorExpression:
        """Delta X = X (x) E^deg + 1 (x) X, deg the letter's mass degree."""
        word = ((letter,), 0, 0)
        return TensorExpression(self, 2, {(word, (_EMPTY, 0, _DEGREE[letter])): _ONE,
                                          (_UNIT, word): _ONE})

    def _letter_antipode(self, letter: str) -> UEAExpression:
        """S X = -X E^-deg, deg the letter's mass degree."""
        return UEAExpression(self, {((letter,), 0, -_DEGREE[letter]): Rat(-1)})

    def _word_coproduct(self, word: tuple) -> TensorExpression:
        """Delta of one word, built once per algebra and kept in its store.

        M is primitive and E grouplike, so the central part M^m E^e has the
        closed form sum_j C(m, j) M^j E^e (x) M^(m-j) E^e; a letter alone is
        its ``_letter_coproduct``, and any other word with letters is its
        stored prefix times ``_letter_coproduct`` of its last letter.
        """
        value = self._word_coproducts.get(word)
        if value is None:
            letters, m, e = word
            if len(letters) == 1 and not m and not e:
                value = self._letter_coproduct(letters[0])
            elif letters:
                value = (self._word_coproduct((letters[:-1], m, e))
                         * self._letter_coproduct(letters[-1]))
            else:
                value = TensorExpression(self, 2, {
                    ((_EMPTY, j, e), (_EMPTY, m - j, e)): Rat(comb(m, j)) for j in range(m + 1)})
            self._word_coproducts[word] = value
        return value

    def coproduct(self, g: str) -> TensorExpression:
        """Coproduct of a named generator: its word's stored Delta."""
        (word,) = self.gen(g).terms
        return self._word_coproduct(word)

    def coproduct_of(self, expr: UEAExpression) -> TensorExpression:
        """Extend the coproduct linearly to a full UEA expression, in one pass
        over its words' stored coproducts."""
        out: dict = {}
        for word, coeff in expr.terms.items():
            _accumulate(out, self._word_coproduct(word).terms, coeff)
        return TensorExpression(self, 2, out)

    def counit(self, g: str) -> RationalFunction:
        return Rat(1) if g in ("E", "Einv") else Rat(0)

    def _word_antipode(self, word: tuple) -> UEAExpression:
        """S of one word, built once per algebra: (-1)^m M^m E^-e times S of
        its letter, or 1, for a word of at most one letter; S of its tail
        times S of its first letter for a longer word."""
        value = self._word_antipodes.get(word)
        if value is None:
            letters, m, e = word
            if len(letters) > 1:
                value = (self._word_antipode((letters[1:], m, e))
                         * self._letter_antipode(letters[0]))
            else:
                terms = self._letter_antipode(letters[0]).terms if letters else {_UNIT: _ONE}
                value = UEAExpression(self, {(ls, lm + m, le - e): -c if m % 2 else c
                                             for (ls, lm, le), c in terms.items()})
            self._word_antipodes[word] = value
        return value

    def antipode_of(self, expr: UEAExpression) -> UEAExpression:
        """Antipode extended linearly, in one pass over its words' stored antipodes."""
        out: dict = {}
        for word, coeff in expr.terms.items():
            _accumulate(out, self._word_antipode(word).terms, coeff)
        return UEAExpression(self, out)

    # -- residual checks ---------------------------------------------------------

    def check_jacobi(self, g1: str, g2: str, g3: str) -> UEAExpression:
        """[[g1,g2],g3] + [[g2,g3],g1] + [[g3,g1],g2]; zero iff consistent.

        The shared zero where a name repeats or is central, read from the
        names alone; otherwise built once per set of names, for its
        ``GENERATOR_NAMES`` order.  See the module docstring.
        """
        if not (_LETTER[g1] & _LETTER[g2] & _LETTER[g3]) or g1 == g2 or g2 == g3 or g1 == g3:
            return self._zero
        value = self._store.get((g1, g2, g3))
        if value is None:
            a, b, c = sorted((g1, g2, g3), key=_RANK.__getitem__)
            out: dict = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                (word_z,) = self.gen(z).terms
                for word, coeff in self.bracket(x, y).terms.items():
                    _accumulate(out, self._word_bracket(word, word_z), coeff)
            out = _nonzero(out)
            self._fill(((a, b, c), (b, c, a), (c, a, b)), ((b, a, c), (a, c, b), (c, b, a)),
                       UEAExpression(self, out) if out else self._zero)
            value = self._store[g1, g2, g3]
        return value

    def check_hom(self, g: str, h: str) -> TensorExpression:
        """Delta([g,h]) - [Delta g, Delta h]; zero iff Delta is an algebra map.

        Antisymmetric in (g, h); the shared zero on the diagonal and where a
        name is central, read from the names alone.
        """
        if not (_LETTER[g] & _LETTER[h]) or g == h:
            return self._zero_tensor
        key = ("Delta", g, h)
        value = self._store.get(key)
        if value is None:
            out: dict = {}
            for word, coeff in self.bracket(g, h).terms.items():
                _accumulate(out, self._word_coproduct(word).terms, coeff)
            tensor_bracket, right = self._zero_tensor._bracket, self.coproduct(h).terms
            for m1, c1 in self.coproduct(g).terms.items():
                for m2, c2 in right.items():
                    factors = tensor_bracket(m1, m2)
                    if factors:
                        _accumulate(out, factors, _mul(c1, c2), -1)
            out = _nonzero(out)
            value = self._fill((key,), (("Delta", h, g),),
                               TensorExpression(self, 2, out) if out else self._zero_tensor)
        return value

    def check_coassoc(self, g: str) -> TensorExpression:
        """(Delta (x) id - id (x) Delta) applied to Delta g; three legs."""
        out: dict = {}
        for (w1, w2), coeff in self.coproduct(g).terms.items():
            left = self._word_coproduct(w1).terms
            right = self._word_coproduct(w2).terms
            _accumulate(out, {(u1, u2, w2): c for (u1, u2), c in left.items()}, coeff)
            _accumulate(out, {(w1, u1, u2): c for (u1, u2), c in right.items()}, coeff, -1)
        return TensorExpression(self, 3, out)

    def check_hopf_axiom(self, g: str) -> UEAExpression:
        """multiply((S (x) id) Delta g) - counit(g) * 1; zero iff S is an antipode."""
        out: dict = {}
        for (w1, w2), coeff in self.coproduct(g).terms.items():
            for word, c in self._word_antipode(w1).terms.items():
                _accumulate(out, self._word_product(word, w2), _mul(coeff, c))
        _accumulate(out, {_UNIT: self.counit(g)}, sign=-1)
        return UEAExpression(self, out)

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
            terms = {(letters, m, 0): coeff}
            if e != 0 and m == 0:  # with m = 1 the E-correction is second order
                terms[letters, 1, 0] = coeff * Rat(-e) / k
            _accumulate(out, terms)
        return UEAExpression(self, out)
