"""Rank-certificate predicates with the special ``oldrnk`` variable.

Definition 3.1 of the paper maps automaton states to predicates over the
program variables plus an auxiliary variable ``oldrnk`` ranging over
``W + {oo}`` -- the previously observed ranking-function value, which is
``oo`` before the first visit to the accepting state.

A :class:`Pred` represents such a predicate *exactly* by case splitting
on the finiteness of ``oldrnk``::

    (oldrnk = oo  AND  OR(inf_disjuncts))  OR  (oldrnk finite  AND  OR(fin_disjuncts))

Each disjunct is a :class:`~repro.logic.linconj.LinConj`; the
``inf_disjuncts`` range over program variables only (atoms like
``f(v) < oldrnk`` are vacuously true when ``oldrnk = oo`` and therefore
simply disappear from that case), while ``fin_disjuncts`` may mention
the rational-valued variable ``oldrnk``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.logic.atoms import Atom, atom_eq, negate_atom
from repro.logic.linconj import TRUE, LinConj
from repro.logic.terms import LinTerm, var

#: Reserved name of the auxiliary old-rank variable.
OLDRNK = "oldrnk"

#: Cap on the case-splitting depth of exact DNF entailment; beyond it the
#: check conservatively answers "not entailed" (sound: we only lose
#: generalization power, never soundness).
_ENTAIL_SPLIT_BUDGET = 256


def _prune(disjuncts: Iterable[LinConj]) -> tuple[LinConj, ...]:
    """Drop unsatisfiable and absorbed disjuncts.

    Absorption (``D2 |= D1`` makes ``D1 or D2`` collapse to ``D1``)
    keeps the DNFs small -- usually a single conjunction, on which the
    entailment checks below are complete.
    """
    candidates: list[LinConj] = []
    seen: set[LinConj] = set()
    for d in disjuncts:
        if d.is_unsat() or d in seen:
            continue
        seen.add(d)
        candidates.append(d)
    out: list[LinConj] = []
    for d in candidates:
        if any(d.entails(kept) for kept in out):
            continue  # d is stronger than (absorbed by) a kept disjunct
        out = [kept for kept in out if not kept.entails(d)]
        out.append(d)
    return tuple(out)


def _dnf_entails(lhs: LinConj, disjuncts: Sequence[LinConj], budget: list[int]) -> bool:
    """Exact check of ``lhs |= disjuncts[0] OR disjuncts[1] OR ...``.

    Uses the identity ``lhs |= C or D  iff  for every branch b of not-C,
    (lhs and b) |= D``; branches multiply, so a global budget bounds the
    recursion and unknown collapses to False (a sound answer here).
    """
    if lhs.is_unsat():
        return True
    if not disjuncts:
        return False
    # Fast path: direct entailment of a single disjunct.
    for d in disjuncts:
        if lhs.entails(d):
            return True
    if len(disjuncts) == 1:
        return False
    # lhs |= C or D   iff   (lhs and not-C) |= D, and not-C is the
    # DISJUNCTION of the negations of C's atoms, so every branch
    # (lhs and not-a_i) must entail the remaining disjuncts.
    head, rest = disjuncts[0], disjuncts[1:]
    branches: list[list[Atom]] = [[negated]
                                  for atom in head.atoms
                                  for negated in negate_atom(atom)]
    if not branches:  # head is TRUE: lhs |= head trivially (caught above)
        return True
    for branch in branches:
        budget[0] -= 1
        if budget[0] <= 0:
            return False
        if not _dnf_entails(lhs.and_(branch), rest, budget):
            return False
    return True


def dnf_entails(lhs: Sequence[LinConj], rhs: Sequence[LinConj]) -> bool:
    """Does ``OR(lhs)`` entail ``OR(rhs)``?  Sound; exact within budget."""
    budget = [_ENTAIL_SPLIT_BUDGET]
    return all(_dnf_entails(d, tuple(rhs), budget) for d in lhs)


@dataclass(frozen=True)
class Pred:
    """A two-case predicate over program variables and ``oldrnk``."""

    inf_disjuncts: tuple[LinConj, ...]
    fin_disjuncts: tuple[LinConj, ...]

    def __post_init__(self) -> None:
        for d in self.inf_disjuncts:
            if OLDRNK in d.variables():
                raise ValueError("the oldrnk = oo case must not constrain oldrnk")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of_inf(conj: LinConj = TRUE) -> "Pred":
        """``oldrnk = oo AND conj`` (conj over program variables)."""
        return Pred(_prune([conj]), ())

    # -- logical structure ------------------------------------------------------

    def is_sat(self) -> bool:
        return bool(self.inf_disjuncts) or bool(self.fin_disjuncts)

    def is_unsat(self) -> bool:
        return not self.is_sat()

    def and_(self, other: "Pred") -> "Pred":
        inf = [a.and_(b) for a in self.inf_disjuncts for b in other.inf_disjuncts]
        fin = [a.and_(b) for a in self.fin_disjuncts for b in other.fin_disjuncts]
        return Pred(_prune(inf), _prune(fin))

    def entails(self, other: "Pred") -> bool:
        """Sound entailment check (exact within the splitting budget)."""
        return (dnf_entails(self.inf_disjuncts, other.inf_disjuncts)
                and dnf_entails(self.fin_disjuncts, other.fin_disjuncts))

    def equivalent(self, other: "Pred") -> bool:
        return self.entails(other) and other.entails(self)

    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        for d in self.inf_disjuncts + self.fin_disjuncts:
            names |= d.variables()
        return frozenset(names)

    def mentions_oldrnk(self) -> bool:
        """Does the predicate genuinely constrain ``oldrnk``?

        True when some finite-case disjunct mentions the variable or when
        the two cases differ (e.g. ``oldrnk = oo`` itself).  Used by the
        deterministic-module construction of Definition 3.2, which drops
        loop states whose predicate involves ``oldrnk``.
        """
        if any(OLDRNK in d.variables() for d in self.fin_disjuncts):
            return True
        return bool(self.inf_disjuncts) != bool(self.fin_disjuncts)

    # -- transformers (used by statement semantics) ------------------------------

    def map_cases(self, fn: Callable[[LinConj], LinConj]) -> "Pred":
        """Apply a per-disjunct transformer to both cases."""
        return Pred(_prune(fn(d) for d in self.inf_disjuncts),
                    _prune(fn(d) for d in self.fin_disjuncts))

    def assign_oldrnk(self, rank: LinTerm) -> "Pred":
        """Strongest postcondition of ``oldrnk := rank(v)``.

        Every case becomes a finite case with ``oldrnk = rank``; the old
        (possibly infinite) value is forgotten, which is exactly the
        semantics of the auxiliary update of Definition 3.1.
        """
        eq = atom_eq(var(OLDRNK), rank)
        fin: list[LinConj] = []
        for d in self.inf_disjuncts:
            fin.append(d.and_(eq))
        for d in self.fin_disjuncts:
            fin.append(d.project_away([OLDRNK]).and_(eq))
        return Pred((), _prune(fin))

    def __str__(self) -> str:
        parts = []
        for d in self.inf_disjuncts:
            parts.append(f"(oldrnk = oo & {d})")
        for d in self.fin_disjuncts:
            parts.append(f"(oldrnk < oo & {d})")
        return " | ".join(parts) if parts else "false"


#: Canonical bottom predicate.
PRED_FALSE = Pred((), ())

#: Canonical top predicate.
PRED_TRUE = Pred((TRUE,), (TRUE,))
