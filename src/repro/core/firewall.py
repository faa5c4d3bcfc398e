"""The verdict firewall: independent re-validation of conclusive verdicts.

No TERMINATING or NONTERMINATING result leaves
:func:`repro.core.api.prove_termination` unscreened.  The screen
re-derives each verdict from first principles, using only machinery
*outside* the refinement loop's trust base:

- **TERMINATING** -- every certified module goes through
  :func:`repro.core.module.recheck`, the same gate checkpoint restore
  and library reuse use: the Definition 3.1 obligations (certificate
  coverage, ``oldrnk``-at-infinity initials, rank decrease at accepting
  states, all Hoare triples) and acceptance of the counterexample word
  it was built from.  The final uncertified remainder is re-searched
  for an accepting lasso.
- **NONTERMINATING** -- the recorded witness state is replayed through
  the concrete interpreter (:func:`repro.program.interp.run_word`): it
  must be integral, reachable through the stem, and keep the loop alive;
  havoc loops fall back to the exact relational fixed-point check.

Any failed obligation downgrades the verdict to UNKNOWN and records a
structured :class:`~repro.core.stats.Incident` -- the firewall never
*flips* a verdict, so the worst possible outcome of a bug (or an
injected adversarial solver answer, see :mod:`repro.faults`) is a lost
answer, not a wrong one.

The screen runs with fault injection suspended, the resource budget
cleared and fresh Fourier--Motzkin and Hoare-triple memos: its solver
calls must see honest answers, never one the engine computed, and a
budget that ended the analysis must not also starve the validation of
the result.
"""

from __future__ import annotations

import time
from fractions import Fraction

import repro.faults as faults
from repro.automata.emptiness import ExplorationTimeout, find_accepting_lasso
from repro.core.budget import use_budget
from repro.core.module import recheck
from repro.core.refinement import TerminationResult, Verdict
from repro.core.stats import Incident
from repro.logic import fourier_motzkin as fm
from repro.logic.terms import var
from repro.obs import metrics as _metrics
from repro.program import statements
from repro.program.interp import run_word
from repro.program.statements import Havoc
from repro.ranking.lasso import Lasso, primed
from repro.ranking.nontermination import (_drift_keeps_guard,
                                          _loop_as_translation)

#: Loop iterations replayed concretely for a nontermination witness
#: (mirrors the prover's own probe depth).
REPLAY_ROUNDS = 16


def allowance(timeout: float | None) -> float:
    """Wall-clock the screen may spend; generous enough for the cheap
    re-checks, bounded so a screened run cannot blow far past its
    configured deadline.  The worker pool's hard deadline for a budget
    covers the budget plus this allowance (plus its kill grace), so a
    verdict reached just before the budget runs out is screened, not
    SIGKILLed."""
    if timeout is None:
        return 10.0
    return max(1.0, 0.25 * timeout)


def screen(result: TerminationResult, timeout: float | None = None,
           ) -> TerminationResult:
    """Re-validate a conclusive result; downgrade to UNKNOWN on failure.

    Returns ``result`` untouched when it is UNKNOWN or passes all
    checks.  Otherwise returns a fresh UNKNOWN result carrying the same
    stats/attempts plus one ``firewall.*`` incident per violation.
    """
    if result.verdict is Verdict.UNKNOWN:
        return result
    _metrics.inc("firewall.screens")
    deadline = time.perf_counter() + allowance(timeout)
    with faults.suspended(), use_budget(None), fm.use_memo(), \
            statements.use_memo():
        if result.verdict is Verdict.TERMINATING:
            problems = _check_terminating(result, deadline)
        else:
            problems = _check_nonterminating(result)
    if not problems:
        _metrics.inc("firewall.passed")
        return result
    for kind, detail in problems:
        result.stats.record_incident(Incident(kind, "firewall", detail))
    first_kind, first_detail = problems[0]
    downgraded = TerminationResult(
        Verdict.UNKNOWN, result.modules, None, None, result.stats,
        reason=f"firewall: {first_detail}", attempts=result.attempts)
    downgraded.stats.gave_up_reason = downgraded.reason
    return downgraded


def _check_terminating(result: TerminationResult,
                       deadline: float) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []
    for index, module in enumerate(result.modules):
        if time.perf_counter() > deadline:
            _metrics.inc("firewall.truncated")
            break
        problem = recheck(module)
        if problem:
            problems.append(("firewall.certificate",
                             f"module {index} ({module.stage}): {problem}"))
    if result.remainder is not None:
        try:
            lasso = find_accepting_lasso(result.remainder, deadline=deadline)
        except ExplorationTimeout:
            # Inconclusive recheck; the module certificates above carry
            # the verdict, so a slow emptiness re-search does not
            # invalidate it.
            _metrics.inc("firewall.truncated")
            lasso = None
        if lasso is not None:
            problems.append((
                "firewall.emptiness",
                f"final remainder still accepts {lasso}"))
    return problems


def _check_nonterminating(result: TerminationResult) -> list[tuple[str, str]]:
    witness, word = result.witness, result.witness_word
    if witness is None or word is None:
        return [("firewall.witness",
                 "nontermination verdict without a replayable witness")]
    lasso = Lasso.from_word(word)
    state = {v: witness.state.get(v, Fraction(0)) for v in lasso.variables}
    for name, value in state.items():
        if value.denominator != 1:
            return [("firewall.witness",
                     f"non-integral witness value {name}={value}")]
    try:
        if not lasso.stem_post().evaluate(state):
            return [("firewall.witness",
                     "witness state is not reachable through the stem")]
    except KeyError as exc:
        return [("firewall.witness", f"witness state incomplete: {exc}")]

    if not any(isinstance(s, Havoc) for s in lasso.loop):
        # Deterministic loop: the strongest check is running it.
        current = dict(state)
        for _ in range(REPLAY_ROUNDS):
            step = run_word(list(lasso.loop), current)
            if step is None:
                return [("firewall.witness",
                         "loop blocked when replayed from the witness state")]
            current = {k: step[k] for k in state}
        return []

    # Havoc loop: concrete replay proves nothing, so re-check the exact
    # relational argument behind the witness kind.
    if witness.kind == "fixed-point":
        relation = lasso.loop_relation()
        identity = {primed(v): var(v) for v in relation.variables}
        try:
            holds = relation.rel.substitute(identity).evaluate(state)
        except KeyError:
            holds = False
        if not holds:
            return [("firewall.witness",
                     "R(x, x) does not hold at the witness state")]
        return []
    translation = _loop_as_translation(lasso)
    if translation is None:
        return [("firewall.witness",
                 f"{witness.kind} witness for a non-translation loop")]
    guard, delta = translation
    if not _drift_keeps_guard(guard, delta):
        return [("firewall.witness",
                 "loop drift does not preserve the guard")]
    try:
        if not guard.evaluate(state):
            return [("firewall.witness", "guard false at the witness state")]
    except KeyError as exc:
        return [("firewall.witness", f"witness state incomplete: {exc}")]
    return []
