"""Operator realizations of the deformed Galilei algebra in the Weyl algebra.

One particle in slot A with deformation symbol lam = e^(-m/k):

    P_i -> p_{A,i}          K_i -> m_f x_{A,i}       H -> p_A^2 / (2 m_f)
    J_i -> eps_{ijl} x_{A,j} p_{A,l}   M -> m * 1      E -> lam * 1

with m_f = (k/2)(1 - lam^2) by default; m_f can be overridden by a free
symbol to demonstrate that the algebra brackets then fail (the [K, P]
residual is exactly i (m_f - (k/2)(1 - lam^2))).

Two particles compose through the coproduct with leg 1 = particle 1, so the
twist scalar multiplying particle 1's operators is lam' = e^(-m'/k):

    P_i^tot = lam' p_{1,i} + p_{2,i}
    K_i^tot = lam' m_f x_{1,i} + m'_f x_{2,i}

and the remaining generators are plain sums.  Each realization, one- or
two-particle, builds the image of every checked generator once
(``_images``).  A one-particle image is a sum of monomials already in
normal order (p_i, m_f x_i, x_j p_l, p_i^2), written through
``weyl._normal_ordered`` with no Weyl product.  Every UEA expression a
realization maps reads its table in one pass: each word's terms, times its
coefficient and central factor, go straight into one sum, and a one-letter
word is its table entry.  A composed generator is the Weyl product of each
coproduct term's legs, read from the two one-particle tables; a leg with no
letters is 1, so the other leg's terms are added with no product.

The composed images, the bracket residuals and the kinetic split are taken
along the orbits of sigma, the cyclic relabeling of the axes
1 -> 2 -> 3 -> 1 (``weyl._rotated``; a relabeled normal-ordered monomial is
normal-ordered).  M and E = e^(-M/k) are rotation scalars, so
Delta X = X (x) E^(deg X) + 1 (x) X commutes with sigma, and so do both
realizations (the rotation covariance of the Galilei algebra).  Two checks
decide, each taken once: the algebra's own certificate
(``GalileiHopf._sigma_equivariant``, held per algebra and shared with the
Hopf scan), and, per particle, that sigma carries the image of every checked
generator onto the image of its relabeling (``_rotates``), compared by terms
with no sympy.

Composed images.  The certificate's coproduct half gives
Delta(sigma a) = (sigma (x) sigma) Delta a with at most one letter per
tensor monomial, and each particle's images rotate, with sigma keeping
normal order on each particle's slots; so the composed image of sigma g is
term for term sigma of the composed image of g.  Under both checks
(``TwoParticleSystem._carried``) the images of J1, K1, P1, H, M and E are
built through the coproduct and each axis-2 and axis-3 image is the rotated
image of its axis predecessor: 6 coproducts realized, not 12.  The composed
suite needs no image check of its own: the lemma gives it.

Bracket residuals.  The 66 checked pairs fall into 24 orbits, 21 of three
pairs and the three pairs of H, M and E.  The pairs are walked in label
order, and each pair not yet reached is built in one dict: the commutator's
terms of the two images, with the images of the words of the algebra's
[g, h] subtracted into it, filtered once.  Where the checks hold, its orbit
is then walked until it closes: each further pair is sigma of the pair
before it, negated where sigma reverses the pair's ``hopf._RANK`` order
([X1, X3] from [X2, X3]).  The certificate's bracket half gives
[sigma g, sigma h] = sigma [g, h] with words of at most one letter, so a
carried residual is term for term the built one.  So a suite takes 24
commutators where the symmetry holds.

Where either check fails, as under a fault on one axis, everything is
built: all 12 composed images, all 66 pairs' commutators and all three
axes of the kinetic split, with exactly the direct route's residuals.

The center-of-mass / relative variables (P, R, Pi, rho) of the direct and of
the transposed ("tilde") coproduct come from the exact coefficient table and
commutator form of ``masses``, formed once per system with its M_f and v_f:
``relative_variables`` turns the direct table into Weyl expressions, one
axis at a time, and ``canonical_residuals`` takes each pairing as
i u^T Omega v, antisymmetric in the pair, so only the six unordered pairings
per axis are taken.  The Weyl-algebra composed brackets and the exact
kinetic-split identity

    H^tot = P^2 / (2 M_f) + Pi^2 / (2 v_f)

stay as the independent end-to-end cross-check.  Under the checks the split
squares only the axis-1 variables P_1 and Pi_1, built as
``relative_variables`` builds them, and subtracts each square and its sigma
and sigma^2 copies from the whole H^tot image: 2 Weyl products, not 6.
H^tot is never split by axis, so a term across axes stays in the residual.

Everything here is symbolic and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .hopf import GENERATOR_NAMES, GalileiHopf, UEAExpression, _RANK, _SIGMA
from .masses import VARIABLES, pairing, variable_table
from .scalars import I as _I, RationalFunction, Rat, _accumulate, _same_terms, sym
from .weyl import WeylExpression, _normal_ordered, _rotated, momentum, scalar

__all__ = [
    "OneParticleRealization",
    "TwoParticleSystem",
    "verify_one_particle",
    "canonical_residuals",
    "default_system",
    "CANONICAL_PAIRS",
]

#: Generators whose brackets are checked against the realization: all but
#: Einv, the inverse of E.
_CHECKED = tuple(name for name in GENERATOR_NAMES if name != "Einv")

_AXES = (1, 2, 3)

_ONE = Rat(1)


@dataclass(frozen=True)
class OneParticleRealization:
    """Realization of one particle in Weyl-algebra slot 1 or 2."""

    slot: int
    lam: RationalFunction
    m_f: RationalFunction | None = None
    algebra: GalileiHopf = field(default_factory=GalileiHopf, compare=False)

    def __post_init__(self):
        if self.slot not in (1, 2):
            raise ValueError("slot must be 1 or 2")
        if self.m_f is None:
            k = sym("k")
            object.__setattr__(self, "m_f", (k / 2) * (1 - self.lam ** 2))
        if isinstance(self.m_f, RationalFunction) and self.m_f.is_zero:
            raise ValueError("physical mass must be nonzero")

    @property
    def algebra_mass_symbol(self) -> RationalFunction:
        # opaque placeholder for the eigenvalue of M; never related to lam
        return sym(f"m{self.slot}")

    def realize(self, name: str) -> WeylExpression:
        """Weyl-algebra image of a named generator.  Each image is a sum of
        normal-ordered monomials, written as such through ``_normal_ordered``."""
        A = self.slot
        if name == "H":
            factor = 1 / (2 * self.m_f)
            return _normal_ordered({((), ((A, i), (A, i))): factor for i in _AXES})
        if name == "M":
            return WeylExpression.unit(self.algebra_mass_symbol)
        if name == "E":
            return WeylExpression.unit(self.lam)
        if name == "Einv":
            return WeylExpression.unit(1 / self.lam)
        kind, axis = name[0], int(name[1])
        if kind == "P":
            return momentum(A, axis)
        if kind == "K":
            return _normal_ordered({(((A, axis),), ()): self.m_f})
        if kind == "J":  # eps_{ijl} x_j p_l, with (i, j, l) cyclic
            j, l = axis % 3 + 1, (axis + 1) % 3 + 1
            return _normal_ordered({(((A, j),), ((A, l),)): 1, (((A, l),), ((A, j),)): -1})
        raise KeyError(f"unknown generator {name!r}")

    @cached_property
    def _images(self) -> dict[str, WeylExpression]:
        """The image of every checked generator, built once."""
        return {g: self.realize(g) for g in _CHECKED}

    @cached_property
    def _rotates(self) -> bool:
        """Whether sigma carries the image of every checked generator g onto
        the image of sigma(g), compared by terms; taken once and read by both
        suites and the kinetic split."""
        images = self._images
        return all(_same_terms(_rotated(images[g].terms), images[_SIGMA[g]].terms)
                   for g in _CHECKED)

    def realize_uea(self, expr: UEAExpression) -> WeylExpression:
        return _realize_words(expr, self._images, self.lam, self.algebra_mass_symbol)


_UNIT = WeylExpression.unit()


def _word_image(word: tuple, images: dict, e_value: RationalFunction,
                m_value: RationalFunction) -> tuple[RationalFunction, WeylExpression]:
    """(central factor, image of the letters) of one normal-ordered word.

    A one-letter word's image is the table's own entry; longer words are
    Weyl products of the letters' images, and a word with no letters is 1.
    """
    letters, m, e = word
    factor = _ONE
    if m:
        factor = m_value ** m
    if e:
        factor = factor * e_value ** e
    image = _UNIT
    for n, letter in enumerate(letters):
        image = image * images[letter] if n else images[letter]
    return factor, image


def _accumulate_words(out: dict, expr: UEAExpression, images: dict, e_value: RationalFunction,
                      m_value: RationalFunction, sign: int = 1) -> None:
    """Add sign times the image of a UEA expression into ``out`` in place:
    every word's terms, times its coefficient and central factor, in one pass."""
    for word, coeff in expr.terms.items():
        factor, image = _word_image(word, images, e_value, m_value)
        _accumulate(out, image.terms, coeff * factor, sign)


def _realize_words(expr: UEAExpression, images: dict, e_value: RationalFunction,
                   m_value: RationalFunction) -> WeylExpression:
    """Map a UEA expression through a table of generator images, in one sum."""
    out: dict = {}
    _accumulate_words(out, expr, images, e_value, m_value)
    return WeylExpression(out)


#: The checked pairs (g, h), g before h in ``_CHECKED``, in label order.
_PAIRS = tuple((g, h) for n, g in enumerate(_CHECKED) for h in _CHECKED[n + 1:])


#: The axis predecessor sigma^-1(g) of each generator that sigma moves.
_PREDECESSOR = {image: g for g, image in _SIGMA.items() if image != g}


def _bracket_residuals(alg: GalileiHopf, images: dict, e_value: RationalFunction,
                       m_value: RationalFunction, carry: bool) -> list[tuple[str, WeylExpression]]:
    """("[g,h]", [image g, image h] - image of [g, h]) for each checked pair,
    in label order, with E -> e_value and M -> m_value.

    Each pair not yet reached is built in one dict: the commutator's terms,
    minus the bracket's words' images.  Where ``carry`` holds (the algebra's
    ``_sigma_equivariant``, and sigma carries every image onto its
    relabeling), its sigma orbit is then walked until it closes, each pair
    sigma of the one before it, negated where sigma reverses the pair's
    ``_RANK`` order (``weyl._rotated``).  Otherwise every pair is built.
    """
    done = {}
    for g, h in _PAIRS:
        if (g, h) in done:
            continue
        terms = images[g]._commutator_terms(images[h])
        _accumulate_words(terms, alg.bracket(g, h), images, e_value, m_value, -1)
        done[g, h] = value = WeylExpression(terms)
        while carry:
            g, h, sign = _SIGMA[g], _SIGMA[h], 1
            if _RANK[g] > _RANK[h]:
                g, h, sign = h, g, -1
            if (g, h) in done:
                break
            done[g, h] = value = WeylExpression(_rotated(value.terms, sign))
    return [(f"[{g},{h}]", done[g, h]) for g, h in _PAIRS]


def verify_one_particle(r: OneParticleRealization) -> list[tuple[str, WeylExpression]]:
    """Evaluate every algebra bracket in the realization; return residuals.

    Each entry is ("[g,h]", commutator(real g, real h) - realize([g, h])).
    All residuals vanish identically iff m_f = (k/2)(1 - lam^2).
    """
    return _bracket_residuals(r.algebra, r._images, r.lam, r.algebra_mass_symbol,
                              r.algebra._sigma_equivariant() and r._rotates)


@dataclass(frozen=True)
class TwoParticleSystem:
    """Two one-particle realizations composed through the coproduct.

    Frozen, so what it caches stays its own: the composed generator images,
    M_f, v_f and the variable tables, each formed once.
    """

    r1: OneParticleRealization
    r2: OneParticleRealization

    def __post_init__(self):
        if self.r1.slot == self.r2.slot:
            raise ValueError("the two particles must use distinct slots")
        if self.r1.algebra is not self.r2.algebra:
            raise ValueError("both particles must share one algebra instance")

    @property
    def algebra(self) -> GalileiHopf:
        return self.r1.algebra

    @cached_property
    def M_f(self) -> RationalFunction:
        """Composed physical mass; equals (k/2)(1 - lam^2 lam'^2) by default."""
        k = sym("k")
        return self.r1.m_f + self.r2.m_f - 2 * self.r1.m_f * self.r2.m_f / k

    @cached_property
    def v_f(self) -> RationalFunction:
        return self.r1.m_f * self.r2.m_f / self.M_f

    def total(self, name: str) -> WeylExpression:
        """Composed generator: realization of the coproduct with leg A = particle A.

        Each term of Delta(name) is the Weyl product of its two legs' images,
        their central factors and the term's coefficient taken as one scalar;
        a leg with no letters has image 1, so the other leg's terms are added
        as they are.
        """
        r1, r2 = self.r1, self.r2
        out: dict = {}
        for (w1, w2), coeff in self.algebra.coproduct(name).terms.items():
            f1, left = _word_image(w1, r1._images, r1.lam, r1.algebra_mass_symbol)
            f2, right = _word_image(w2, r2._images, r2.lam, r2.algebra_mass_symbol)
            if not w1[0]:
                terms = right.terms
            elif not w2[0]:
                terms = left.terms
            else:
                terms = (left * right).terms
            _accumulate(out, terms, coeff * f1 * f2)
        return WeylExpression(out)

    @cached_property
    def _carried(self) -> bool:
        """Whether sigma carries each composed image onto its relabeling
        term for term: the algebra's ``_sigma_equivariant`` (its coproduct
        half) and both particles' ``_rotates`` (module docstring)."""
        return self.algebra._sigma_equivariant() and self.r1._rotates and self.r2._rotates

    @cached_property
    def _images(self) -> dict[str, WeylExpression]:
        """The composed image of every checked generator, built once: where
        ``_carried`` holds, the image of an axis-2 or axis-3 generator is the
        rotated image of its axis predecessor, and the other six are built."""
        carry, images = self._carried, {}
        for g in _CHECKED:
            source = _PREDECESSOR.get(g)
            images[g] = (WeylExpression(_rotated(images[source].terms))
                         if carry and source in images else self.total(g))
        return images

    @cached_property
    def _central_values(self) -> tuple[RationalFunction, RationalFunction]:
        """The composed values (lam lam', m + m') of E and M, formed once."""
        r1, r2 = self.r1, self.r2
        return r1.lam * r2.lam, r1.algebra_mass_symbol + r2.algebra_mass_symbol

    def realize_total_uea(self, expr: UEAExpression) -> WeylExpression:
        """Composed image of a UEA expression (E -> lam lam', M -> m + m')."""
        return _realize_words(expr, self._images, *self._central_values)

    def verify_composed(self) -> list[tuple[str, WeylExpression]]:
        """Brackets of the composed generators against the algebra's table."""
        return _bracket_residuals(self.algebra, self._images, *self._central_values, self._carried)

    # -- relative variables -------------------------------------------------

    def variable_table(self) -> tuple[dict, dict]:
        """Exact coefficient tables (direct, tilde); see ``masses.variable_table``."""
        return self._variable_tables

    @cached_property
    def _variable_tables(self) -> tuple[dict, dict]:
        """The tables of ``variable_table``, formed once; shared, never mutated."""
        return variable_table(self.r1.m_f, self.r2.m_f, self.r1.lam, self.r2.lam, self.M_f)

    def _axis_variables(self, i: int, names: tuple = VARIABLES) -> dict[str, WeylExpression]:
        """The direct variables ``names`` on axis i, from the table and the
        particles' images of P_i and K_i."""
        direct = self.variable_table()[0]
        basis = (self.r1._images[f"P{i}"], self.r2._images[f"P{i}"],
                 self.r1._images[f"K{i}"], self.r2._images[f"K{i}"])
        out = {}
        for name in names:
            total: dict = {}
            for coeff, op in zip(direct[name], basis):
                _accumulate(total, op.terms, Rat(coeff))
            out[name] = WeylExpression(total)
        return out

    def relative_variables(self) -> dict[str, list[WeylExpression]]:
        """Total/center-of-mass/relative variable set of the direct coproduct."""
        per_axis = [self._axis_variables(i) for i in _AXES]
        return {name: [variables[name] for variables in per_axis] for name in VARIABLES}

    def kinetic_split(self) -> WeylExpression:
        """H^tot - P^2/(2 M_f) - Pi^2/(2 v_f); normalizes to exactly zero.

        Under ``_carried`` (its particle half is what this reads) P_i and
        Pi_i are sigma^(i-1) of their axis-1 variables, so only P_1^2 and
        Pi_1^2 are Weyl products and the squares on axes 2 and 3 are their
        rotated copies.  The whole H^tot image is kept, so a term across axes
        stays in the residual.
        """
        carry = self._carried
        per_axis = [self._axis_variables(i, ("P", "Pi")) for i in ((1,) if carry else _AXES)]
        residual = dict(self._images["H"].terms)
        for name, mass in (("P", self.M_f), ("Pi", self.v_f)):
            factor = 1 / (2 * mass)
            for variables in per_axis:
                square = (variables[name] * variables[name]).terms
                _accumulate(residual, square, factor, -1)
                for _ in range(2 if carry else 0):
                    square = _rotated(square)
                    _accumulate(residual, square, factor, -1)
        return WeylExpression(residual)


#: Expected commutators of the canonical set per axis: conjugate pairs give
#: i * delta, everything else vanishes.
CANONICAL_PAIRS = {("R", "P"), ("rho", "Pi")}


def canonical_residuals(sys: TwoParticleSystem, tilde: bool = False) -> dict[tuple, WeylExpression]:
    """All sixteen commutator pairings per axis pair, minus expected values.

    Each pairing is i u^T Omega v on the exact coefficient table; pairings
    of different axes vanish because Omega does not mix axes.  The residual
    is antisymmetric in (a, b), since ``pairing`` is and so is each expected
    value, so only the six unordered pairings per axis are taken: (b, a)
    holds the exact negation of (a, b), and the diagonal and every pairing
    of different axes share one zero.
    """
    table = sys.variable_table()[1 if tilde else 0]
    m1, m2 = sys.r1.m_f, sys.r2.m_f
    zero = WeylExpression.zero()
    same_axis = {}
    for n, a in enumerate(VARIABLES):
        same_axis[(a, a)] = zero
        for b in VARIABLES[n + 1:]:
            value = _I * pairing(table[a], table[b], m1, m2)
            if (a, b) in CANONICAL_PAIRS:
                value = value - _I
            elif (b, a) in CANONICAL_PAIRS:
                value = value + _I
            same_axis[(a, b)] = scalar(value)
            same_axis[(b, a)] = -same_axis[(a, b)]
    residuals = {}
    for a in VARIABLES:
        for b in VARIABLES:
            for i in _AXES:
                for j in _AXES:
                    residuals[(a, b, i, j)] = same_axis[(a, b)] if i == j else zero
    return residuals


def default_system() -> TwoParticleSystem:
    """Two particles with the constraint-satisfying masses and symbols lam, lam'."""
    alg = GalileiHopf()
    r1 = OneParticleRealization(1, sym("lam"), algebra=alg)
    r2 = OneParticleRealization(2, sym("lamp"), algebra=alg)
    return TwoParticleSystem(r1, r2)
