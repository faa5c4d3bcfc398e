"""Normalized linear atoms.

An :class:`Atom` is a constraint of the form ``term REL 0`` where ``REL``
is one of ``<=``, ``<`` or ``=``.  Constructors normalize arbitrary
comparisons (``lhs <= rhs`` etc.) to this form.  An atom's term stores
ints where integral, ``Fraction`` otherwise, floats never (see
:mod:`repro.logic.terms`).

:meth:`Atom.tighten_integral` is *integral tightening* (``t < 0``
becomes ``t <= -1`` over integer-valued variables), which improves the
precision of the rational decision procedure.  It is the
Fourier--Motzkin row kernel run on the one atom; the module docstring
of :mod:`repro.logic.fourier_motzkin` defines it.
"""

from __future__ import annotations

import enum
from typing import Mapping

from repro.logic.terms import Coeff, LinTerm, _as_term

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
        """This atom tightened over integer-valued variables, by
        :func:`repro.logic.fourier_motzkin.tighten`: scaled to coprime
        integer coefficients, the constant rounded, never rounded with
        a rational-valued variable (:data:`RATIONAL_VARS`).  An
        equivalence over the integers, so callers may freely mix
        tightened and raw atoms."""
        from repro.logic.fourier_motzkin import tighten
        return tighten(self)

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
