"""Normalized linear atoms.

An :class:`Atom` is a constraint of the form ``term REL 0`` where ``REL``
is one of ``<=``, ``<`` or ``=``.  Constructors normalize arbitrary
comparisons (``lhs <= rhs`` etc.) to this form.  Atoms over
integer-valued variables additionally admit *integral tightening*
(``t < 0`` becomes ``t <= -1`` when all coefficients are integral),
which improves the precision of the rational decision procedure.

An atom's term stores ints where integral, ``Fraction`` otherwise,
floats never (see :mod:`repro.logic.terms`); tightening scales and
rounds on ints and builds a ``Fraction`` only for the non-integral
constant of a scaled atom over a rational-valued variable.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Mapping

from repro.logic.terms import Coeff, LinTerm, _as_term, _frac

#: Names of rational-valued variables.  Program variables are
#: integer-valued, but the auxiliary rank variable of the certificates
#: (``predicates.OLDRNK``) stores ranking-function values, which are
#: rationals (e.g. ``1/6*y + 5/6``); atoms mentioning it may be scaled
#: but must never be rounded over the integers.
RATIONAL_VARS = frozenset({"oldrnk"})


class Rel(enum.Enum):
    """Relation of a normalized atom ``term REL 0``."""

    LE = "<="
    LT = "<"
    EQ = "="

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Atom:
    """A normalized linear constraint ``term rel 0``.

    An immutable value: ``term`` and ``rel`` are never reassigned.  The
    hash is computed once, at construction, because atoms key every
    solver memo and every conjunction's atom set; equality checks
    identity, then the hash, and only then the term and relation.
    """

    __slots__ = ("term", "rel", "_hash")

    def __init__(self, term: LinTerm, rel: Rel):
        self.term = term
        self.rel = rel
        self._hash = hash((term, rel))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom):
            return NotImplemented
        return (self._hash == other._hash and self.rel is other.rel
                and self.term == other.term)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom(term={self.term!r}, rel={self.rel!r})"

    def variables(self) -> frozenset[str]:
        return self.term.variables()

    def is_trivially_true(self) -> bool:
        """Constant atom that always holds."""
        if not self.term.is_constant():
            return False
        c = self.term._constant
        if self.rel is Rel.LE:
            return c <= 0
        if self.rel is Rel.LT:
            return c < 0
        return c == 0

    def is_trivially_false(self) -> bool:
        """Constant atom that never holds."""
        return self.term.is_constant() and not self.is_trivially_true()

    def negate(self) -> Atom:
        """Negation of this atom, when expressible as a single atom.

        ``t <= 0`` negates to ``-t < 0``; ``t < 0`` to ``-t <= 0``.
        Negating an equality is a disjunction, so :func:`negate_atom`
        (returning a list of atoms, one per disjunct) must be used instead.
        """
        if self.rel is Rel.LE:
            return Atom(-self.term, Rel.LT)
        if self.rel is Rel.LT:
            return Atom(-self.term, Rel.LE)
        raise ValueError("negation of an equality is a disjunction; use negate_atom()")

    def substitute(self, bindings: Mapping[str, LinTerm]) -> Atom:
        return Atom(self.term.substitute(bindings), self.rel)

    def rename(self, mapping: Mapping[str, str]) -> Atom:
        return Atom(self.term.rename(mapping), self.rel)

    def evaluate(self, valuation: Mapping[str, Coeff]) -> bool:
        value = self.term.evaluate(valuation)
        if self.rel is Rel.LE:
            return value <= 0
        if self.rel is Rel.LT:
            return value < 0
        return value == 0

    def tighten_integral(self) -> Atom:
        """Normalize and tighten the atom over integer-valued variables.

        The atom is first scaled so every variable coefficient is an
        integer and their gcd is 1 (positive scaling preserves the
        relation exactly); then ``t + d < 0`` becomes
        ``t + floor(d) + 1 <= 0`` and a fractional constant of a
        non-strict atom is ceiling-normalized.  Equalities are scaled
        but otherwise unchanged.  All steps are equivalences over the
        integers, so callers may freely mix tightened and raw atoms.

        Atoms mentioning a rational-valued variable (:data:`RATIONAL_VARS`,
        i.e. ``oldrnk``) are only scaled, never rounded: rounding bounds
        on ``oldrnk`` manufactures contradictions — e.g.
        ``6*oldrnk - y - 5 = 0 and 3 <= y <= 5`` is satisfiable (at
        ``oldrnk = 5/3``) but has no solution with integral ``oldrnk``,
        and an unsound "unsat" here becomes an unsound accepting state
        in the powerset modules.
        """
        items = self.term._coeffs
        if not items:
            return self
        # Scale by den/g: den clears the coefficients' denominators, g is
        # the gcd of the cleared coefficients.  All of it on ints.
        den = 1
        for _, c in items:
            if type(c) is not int:
                den = _lcm(den, c.denominator)
        if den != 1:
            items = tuple((n, c.numerator * (den // c.denominator))
                          for n, c in items)
        g = _gcd(*(c for _, c in items))
        if g != 1:
            items = tuple((n, c // g) for n, c in items)
        # the scaled constant num/dnm = constant * den / g, dnm > 0
        d = self.term._constant
        num, dnm = d.numerator * den, d.denominator * g
        scaled = den != 1 or g != 1
        if any(name in RATIONAL_VARS for name, _ in items):
            # scaling is exact over the rationals; the integral rounding
            # below is not, and oldrnk takes fractional values
            if not scaled:
                return self
            return Atom(LinTerm._from_sorted(items, _frac(Fraction(num, dnm))),
                        self.rel)
        if self.rel is Rel.LT:
            # linear + d < 0  over ints  <=>  linear <= -floor(d) - 1
            return Atom(LinTerm._from_sorted(items, num // dnm + 1), Rel.LE)
        if num % dnm:
            if self.rel is Rel.LE:
                # linear <= -d  <=>  linear <= floor(-d)  <=>  linear + ceil(d) <= 0
                return Atom(LinTerm._from_sorted(items, -(-num // dnm)), Rel.LE)
            # coprime integer coefficients cannot sum to a fraction
            return Atom(LinTerm({}, 1), Rel.EQ)  # trivially false
        if not scaled:
            return self
        return Atom(LinTerm._from_sorted(items, num // dnm), self.rel)

    def __str__(self) -> str:
        return f"{self.term} {self.rel} 0"


def atom_le(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs <= rhs``."""
    return Atom(_as_term(lhs) - _as_term(rhs), Rel.LE)


def atom_lt(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs < rhs``."""
    return Atom(_as_term(lhs) - _as_term(rhs), Rel.LT)


def atom_ge(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs >= rhs``."""
    return atom_le(rhs, lhs)


def atom_gt(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs > rhs``."""
    return atom_lt(rhs, lhs)


def atom_eq(lhs: LinTerm | Coeff, rhs: LinTerm | Coeff) -> Atom:
    """The atom ``lhs = rhs``."""
    return Atom(_as_term(lhs) - _as_term(rhs), Rel.EQ)


def negate_atom(atom: Atom) -> list[Atom]:
    """Negation of an atom as a disjunction (list) of atoms."""
    if atom.rel is Rel.EQ:
        return [Atom(atom.term, Rel.LT), Atom(-atom.term, Rel.LT)]
    return [atom.negate()]
