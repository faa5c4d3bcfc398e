"""Conjunctions of linear atoms with decision procedures.

:class:`LinConj` is the workhorse formula class of the substrate: an
immutable conjunction of normalized atoms offering satisfiability,
entailment, projection (existential quantifier elimination) and model
extraction, all exact over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

import repro.faults as _faults
from repro.logic import fourier_motzkin as fm
from repro.logic.atoms import Atom, Rel, negate_atom
from repro.logic.terms import Coeff, LinTerm
from repro.obs import metrics as _metrics


class LinConj:
    """An immutable conjunction of linear atoms.

    The empty conjunction is ``TRUE``.  A dedicated unsatisfiable object
    ``FALSE`` is provided for convenience; any conjunction may of course
    also be semantically unsatisfiable.
    """

    __slots__ = ("_atoms", "_hash", "_sat_cache")

    def __init__(self, atoms: Iterable[Atom] = ()):
        unique: list[Atom] = []
        seen: set[Atom] = set()
        for atom in atoms:
            if atom.is_trivially_true():
                continue
            if atom not in seen:
                seen.add(atom)
                unique.append(atom)
        self._atoms: tuple[Atom, ...] = tuple(unique)
        self._hash = hash(frozenset(self._atoms))
        self._sat_cache: bool | None = None

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self._atoms:
            names |= atom.variables()
        return frozenset(names)

    # -- logical operations ---------------------------------------------------

    def and_(self, other: "LinConj | Atom | Iterable[Atom]") -> "LinConj":
        """Conjunction with another conjunction, atom, or atom iterable."""
        if isinstance(other, LinConj):
            extra: Iterable[Atom] = other._atoms
        elif isinstance(other, Atom):
            extra = (other,)
        else:
            extra = tuple(other)
        return LinConj(self._atoms + tuple(extra))

    __and__ = and_

    def substitute(self, bindings: Mapping[str, LinTerm]) -> "LinConj":
        return LinConj(a.substitute(bindings) for a in self._atoms)

    def rename(self, mapping: Mapping[str, str]) -> "LinConj":
        return LinConj(a.rename(mapping) for a in self._atoms)

    def project_away(self, names: Iterable[str]) -> "LinConj":
        """Existentially quantify out ``names`` (exact over rationals).

        If the conjunction is unsatisfiable the result is ``FALSE``.
        """
        remaining = fm.eliminate(self._atoms, names)
        if remaining is None:
            return FALSE
        return LinConj(remaining)

    # -- decision procedures ----------------------------------------------------

    def is_sat(self) -> bool:
        """Exact rational satisfiability."""
        if self._sat_cache is None:
            self._sat_cache = fm.satisfiable(self._atoms)
        return self._sat_cache

    def is_unsat(self) -> bool:
        return not self.is_sat()

    def entails_atom(self, atom: Atom) -> bool:
        """Does this conjunction entail ``atom`` (over the rationals)?

        Checked as UNSAT of ``self AND NOT atom``; the negation of an
        equality is a disjunction, so both branches must be unsat.
        """
        _metrics.inc("logic.entailment_calls")
        if _faults._ACTIVE is not None:
            # Fault-injection site: crashes/delays here, and in
            # adversarial mode the *returned* decision may be flipped.
            # Only the return value is corrupted (never the underlying
            # sat caches), so the verdict firewall re-checks exactly
            # under repro.faults.suspended().
            _faults.perturb("solver.entailment")
            return _faults.filter_bool("solver.entailment",
                                       self._entails_atom(atom))
        return self._entails_atom(atom)

    def _entails_atom(self, atom: Atom) -> bool:
        if not self.is_sat():
            return True
        for neg in negate_atom(atom):
            if fm.satisfiable(self._atoms + (neg,)):
                return False
        return True

    def entails(self, other: "LinConj") -> bool:
        """Does this conjunction entail ``other``?"""
        return all(self.entails_atom(a) for a in other._atoms)

    def equivalent(self, other: "LinConj") -> bool:
        return self.entails(other) and other.entails(self)

    def find_model(self, prefer: dict[str, Fraction] | None = None
                   ) -> dict[str, Fraction] | None:
        """A satisfying rational valuation, or ``None`` if UNSAT."""
        return fm.find_model(self._atoms, prefer=prefer)

    def evaluate(self, valuation: Mapping[str, Coeff]) -> bool:
        return all(a.evaluate(valuation) for a in self._atoms)

    # -- value protocol -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinConj):
            return NotImplemented
        # The hash is the atom set's, so unequal hashes settle it
        # without building the two sets.
        return (self._hash == other._hash
                and frozenset(self._atoms) == frozenset(other._atoms))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LinConj({self})"

    def __str__(self) -> str:
        if not self._atoms:
            return "true"
        return " & ".join(str(a) for a in self._atoms)


def conj(*atoms: Atom) -> LinConj:
    """Convenience constructor for a conjunction of atoms."""
    return LinConj(atoms)


#: The trivially true conjunction.
TRUE = LinConj()

#: A canonical unsatisfiable conjunction (``0 < 0`` is trivially false,
#: but kept as an atom so ``FALSE`` is a regular LinConj value).
FALSE = LinConj((Atom(LinTerm({}, 0), Rel.LT),))
