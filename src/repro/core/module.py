"""Certified modules ``M = (A_M, f_M, I_M)`` (Definition 3.1).

A certified module packages a BA, a ranking function, and a rank
certificate mapping every state to a predicate.  Its language is a set
of program paths that all share the same termination argument: along
every accepted word the certificate predicates are maintained (the
Hoare triples) and each visit to the accepting state strictly decreases
the ranking function below the remembered ``oldrnk``.

``validate_module`` mechanically discharges all Definition 3.1
obligations; every stage construction in :mod:`repro.core.stages` is
validated in the test suite against it.  ``recheck`` is the one gate
for modules that come from outside the running refinement loop --
the verdict firewall, checkpoint restore, and library reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import repro.faults as faults
from repro.automata.gba import GBA, State
from repro.automata.words import UPWord, accepts
from repro.core.budget import use_budget
from repro.logic.atoms import atom_le
from repro.logic.linconj import TRUE
from repro.logic.predicates import OLDRNK, Pred
from repro.logic.terms import LinTerm, var
from repro.program.statements import Statement, hoare_valid


@dataclass
class CertifiedModule:
    """``(A_M, f_M, I_M)`` plus provenance for statistics."""

    automaton: GBA
    ranking: LinTerm
    certificate: dict[State, Pred]
    stage: str = "lasso"
    source_word: UPWord | None = None

    def language_contains(self, word: UPWord) -> bool:
        return accepts(self.automaton, word)

    def states(self) -> frozenset[State]:
        return self.automaton.states

    def __repr__(self) -> str:
        return (f"CertifiedModule(stage={self.stage!r}, "
                f"|Q|={len(self.automaton.states)}, f={self.ranking})")


def validate_module(module: CertifiedModule) -> list[str]:
    """Check the four Definition 3.1 conditions; returns violations.

    The definition is stated for a single initial and a single accepting
    state; the checker generalizes naturally to sets (every initial
    state must carry ``oldrnk = oo``, every accepting state must force
    the rank decrease, and edges out of accepting states take the
    ``oldrnk := f(v)`` update).
    """
    problems: list[str] = []
    auto = module.automaton
    if not auto.is_ba():
        return ["module automaton must be a BA"]
    cert = module.certificate
    missing = auto.states - cert.keys()
    if missing:
        return [f"certificate misses states: {sorted(map(str, missing))}"]

    oldrnk_inf = Pred.of_inf(TRUE)
    for q in auto.initial_states():
        pred = cert[q]
        if pred.fin_disjuncts or not oldrnk_inf.entails(pred):
            problems.append(f"initial {q}: predicate not equivalent to oldrnk = oo")

    decrease = Pred((TRUE,), (TRUE.and_([atom_le(module.ranking,
                                                 var(OLDRNK) - 1)]),))
    accepting = auto.accepting
    for q in accepting:
        if not cert[q].entails(decrease):
            problems.append(f"accepting {q}: predicate does not force rank decrease")

    for (q, stmt), targets in auto.transitions.items():
        assert isinstance(stmt, Statement)
        update = module.ranking if q in accepting else None
        for target in targets:
            if not hoare_valid(cert[q], stmt, cert[target], oldrnk_update=update):
                problems.append(
                    f"triple invalid: {{{cert[q]}}} {stmt} {{{cert[target]}}}"
                    f"  ({q} -> {target}{' with oldrnk update' if update else ''})")
    return problems


def recheck(module: CertifiedModule) -> str | None:
    """Re-check an untrusted module; returns the first problem or None.

    Definition 3.1 (:func:`validate_module`) plus "still accepts its
    source word", run with fault injection suspended and the budget
    cleared: the checker must see honest solver answers and must not be
    starved by the budget that pressured the run.  A crash inside the
    check is reported as the problem, never raised.
    """
    with faults.suspended(), use_budget(None):
        try:
            issues = validate_module(module)
            if issues:
                return issues[0]
            if (module.source_word is not None
                    and not module.language_contains(module.source_word)):
                return "rejects its source word"
        except Exception as exc:  # noqa: BLE001 - untrusted input
            return f"{type(exc).__name__}: {exc}"
    return None
