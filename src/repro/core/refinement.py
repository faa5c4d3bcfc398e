"""The refinement loop of Figure 1.

Starting from the program GBA, the engine repeatedly

1. extracts an ultimately periodic word ``u v^w`` from the uncertified
   remainder (Algorithm 1 keeps it trimmed, so a plain accepting-lasso
   search suffices),
2. runs the lasso prover,
3. on success, generalizes the proof into a certified module through the
   configured stage sequence,
4. removes the module's language with the on-the-fly difference
   (complementation class chosen by the module's shape; NCSB-Lazy and
   subsumption per configuration),

until the remainder is empty (TERMINATING), a nontermination witness is
found (NONTERMINATING), or a budget is exhausted (UNKNOWN).

Resource discipline: every run owns a :class:`~repro.core.budget.Budget`
(wall-clock deadline plus macrostate/antichain/FM caps from the
configuration) scoped via ``use_budget``, so the solver and automata
layers can poll it without parameter threading.  Cap overruns surface as
typed :class:`~repro.core.budget.ResourceExhausted` errors caught here
at round boundaries: a deadline always ends the run (UNKNOWN/timeout,
in one handler), while a state or constraint blowup first walks the
*degradation ladder* -- the same proof re-generalized at structurally
cheaper stages -- and only becomes UNKNOWN when every rung blows up
too.  Each fallback is recorded as an ``Incident`` on the run's stats.

Every module joins the decomposition through one step, whichever of
the three sources it came from -- a re-checked checkpoint record, a
re-checked library hit, or fresh synthesis: subtract, observe, append,
publish if fresh, save, and stop as TERMINATING on an empty remainder.

Each run is observed end to end: an ``analysis`` span wraps the loop,
every iteration gets a ``round`` span (with ``lasso-search``,
``prove-lasso``, and ``generalize`` children; ``difference`` /
``emptiness`` / ``solver-call`` spans open further down the stack).
Counts go to the current metrics registry, which
:func:`repro.core.api.prove_termination` scopes to the run; each
round's ``counters`` are the registry's deltas over that round.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.automata.complement.dispatch import ComplementKind, kind_applies
from repro.automata.difference import difference
from repro.automata.emptiness import find_accepting_lasso
from repro.automata.gba import GBA
from repro.automata.words import UPWord
from repro.core.budget import (Budget, DeadlineExceeded, ResourceExhausted,
                               use_budget)
from repro.core.config import AnalysisConfig
from repro.core.module import CertifiedModule
from repro.core.stages import Stage, build_finite_module, generalize
from repro.core.stats import (AnalysisStats, Incident, RefinementRound,
                              StatsCollector)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import get_tracer
from repro.program.cfg import ControlFlowGraph
from repro.ranking.lasso import Lasso
from repro.ranking.nontermination import NontermWitness
from repro.ranking.synthesis import ProofKind, prove_lasso


class Verdict(enum.Enum):
    TERMINATING = "terminating"
    NONTERMINATING = "nonterminating"
    UNKNOWN = "unknown"


#: The degradation ladder: when subtracting a module blows a resource
#: cap, the proof is re-generalized at the next rung and the subtraction
#: retried.  Ordered from the most general module (worst-case
#: complementation) down to the finite-trace module whose complement is
#: trivial; the lasso module sits between the semideterministic and
#: deterministic powerset stages because it is semideterministic but
#: never larger than the sampled word.
DEGRADATION_LADDER: tuple[Stage, ...] = (Stage.NONDET, Stage.SEMIDET,
                                         Stage.LASSO, Stage.DETERMINISTIC,
                                         Stage.FINITE)


def ladder_tail(stage_value: str) -> tuple[Stage, ...]:
    """The rungs to retry after a module of stage ``stage_value`` blew a
    resource cap: everything strictly below it on the ladder.

    A stage *not* on the ladder (e.g. ``"interp"`` interpolant modules)
    restarts the ladder from the top: every rung is structurally
    cheaper than an off-ladder module, and skipping the ladder would
    send such runs straight to UNKNOWN.
    """
    for position, stage in enumerate(DEGRADATION_LADDER):
        if stage.value == stage_value:
            return DEGRADATION_LADDER[position + 1:]
    return DEGRADATION_LADDER


@dataclass
class TerminationResult:
    """Outcome of a termination analysis."""

    verdict: Verdict
    modules: list[CertifiedModule] = field(default_factory=list)
    witness: NontermWitness | None = None
    witness_word: UPWord | None = None
    stats: AnalysisStats = field(default_factory=AnalysisStats)
    reason: str | None = None
    #: Per-configuration stats of a portfolio run (the winner's included;
    #: empty for direct :func:`~repro.core.api.prove_termination` calls).
    attempts: list[AnalysisStats] = field(default_factory=list)
    #: The final uncertified remainder for TERMINATING verdicts, so the
    #: firewall can recheck emptiness independently.  None otherwise.
    remainder: GBA | None = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.TERMINATING

    def __repr__(self) -> str:
        return f"TerminationResult({self.verdict.value}, modules={len(self.modules)})"


class RefinementEngine:
    """Drives the analysis of one program."""

    def __init__(self, cfg: ControlFlowGraph,
                 config: AnalysisConfig | None = None,
                 collector: StatsCollector | None = None,
                 checkpoint=None,
                 library=None):
        self._cfg = cfg
        self._config = config or AnalysisConfig()
        self._collector = collector or StatsCollector()
        #: Optional :class:`repro.core.checkpoint.Checkpointer`: every
        #: round's new modules are appended to the job's log, and
        #: re-checked modules seed the run before the first round.
        self._checkpoint = checkpoint
        #: Optional :class:`repro.core.library.ModuleLibrary`: each
        #: fresh counterexample queries it before synthesis (a
        #: validated hit is subtracted with zero LP work) and every
        #: newly certified module is published back for other jobs.
        self._library = library

    def run(self) -> TerminationResult:
        tracer = get_tracer()
        with tracer.span("analysis", program=self._cfg.name,
                         config=self._config.describe()) as span:
            result = self._run(tracer)
            span.set(verdict=result.verdict.value,
                     rounds=result.stats.iterations)
        return result

    def _run(self, tracer) -> TerminationResult:
        config = self._config
        deadline = (time.perf_counter() + config.timeout
                    if config.timeout is not None else None)
        budget = Budget(deadline=deadline,
                        macrostate_cap=config.macrostate_cap,
                        antichain_cap=config.antichain_cap,
                        fm_constraint_cap=config.fm_constraint_cap,
                        simulation_cap=config.simulation_cap)
        with use_budget(budget):
            return self._refine(tracer, deadline)

    def _refine(self, tracer, deadline: float | None) -> TerminationResult:
        config = self._config
        registry = obs_metrics.registry()
        collector = self._collector
        name = self._cfg.name
        program_gba: GBA = self._cfg.to_gba()
        alphabet = program_gba.alphabet
        current = program_gba
        modules: list[CertifiedModule] = []
        round_start = time.perf_counter()
        round_base: dict[str, int] = {}
        # The round in flight once it has a RefinementRound; the
        # deadline handler records it before ending the run.
        round_stats: RefinementRound | None = None
        library = self._library
        checkpoint = self._checkpoint

        def finish(verdict: Verdict, *, witness=None, word=None,
                   reason: str | None = None) -> TerminationResult:
            stats = collector.finish(name, config.describe(), reason)
            result = TerminationResult(verdict, modules, witness, word,
                                       stats, reason)
            if verdict is Verdict.TERMINATING:
                result.remainder = current
            return result

        def record(round_stats: RefinementRound) -> None:
            round_stats.seconds = time.perf_counter() - round_start
            registry.counter("refinement.rounds").inc()
            registry.histogram("round.seconds").observe(round_stats.seconds)
            round_stats.counters = {
                key: value - round_base.get(key, 0)
                for key, value in registry.counts().items()
                if value != round_base.get(key, 0)}
            collector.stats.record_round(round_stats)

        def note(kind: str, component: str, detail: str,
                 index: int | None) -> None:
            collector.stats.record_incident(
                Incident(kind, component, detail, round=index))

        pinned_kind = (ComplementKind(config.complement_kind)
                       if config.complement_kind else None)

        def subtract(minuend: GBA, module: CertifiedModule):
            # Best-effort pin: a kind that cannot complement this
            # module's automaton (e.g. NCSB pinned but a degraded module
            # is not semideterministic) falls back to the dispatch for
            # this subtraction instead of sinking the whole analysis.
            module_kind = pinned_kind
            if module_kind is not None \
                    and not kind_applies(module_kind, module.automaton):
                module_kind = None
            return difference(
                minuend, module.automaton,
                lazy=config.lazy_complement,
                subsumption=config.subsumption,
                via_semidet=config.via_semidet,
                modular=config.modular_complement,
                kind=module_kind,
                cache=config.kernel_cache,
                simulation_reduction=config.simulation_reduction,
                state_limit=config.difference_state_limit,
                deadline=deadline)

        def degrade(failed: CertifiedModule, proof, exc: ResourceExhausted,
                    index: int):
            """Walk the ladder below ``failed``'s stage; retry the
            subtraction at each rung.  Returns ``(module, result)`` on
            success, ``(None, last_exc)`` when every rung blows up.
            Deadline overruns propagate -- time cannot be degraded away.
            """
            tried = {failed.stage}
            last: ResourceExhausted = exc
            for stage in ladder_tail(failed.stage):
                if stage.value in tried:
                    continue
                try:
                    candidate = generalize(
                        proof, (stage,), alphabet, interpolants=False)
                except ResourceExhausted as gen_exc:
                    last = _unless_deadline(gen_exc)
                    continue
                if candidate.stage in tried:
                    continue
                tried.add(candidate.stage)
                note("budget.degraded", "refinement",
                     f"{failed.stage} -> {candidate.stage} "
                     f"after {last.resource}", index)
                try:
                    return candidate, subtract(current, candidate)
                except ResourceExhausted as retry_exc:
                    last = _unless_deadline(retry_exc)
            return None, last

        def admit(module: CertifiedModule, result,
                  round_stats: RefinementRound | None = None, *,
                  fresh: bool = False, companion=None) -> bool:
            """The one step every module takes into the decomposition,
            whatever its source: a restored module (no ``round_stats``:
            no round of this run), a library hit, or a fresh module
            (with its same-round ``(companion, subtraction)``, if any).
            ``result`` is its subtraction from the remainder.  Observe,
            take the new remainder, append, publish if fresh, save;
            True when the remainder is empty."""
            nonlocal current
            current = result.automaton
            added = [module]
            if round_stats is None:
                collector.stats.modules_by_stage[module.stage] += 1
            else:
                if result.kind in (ComplementKind.SDBA_ORIGINAL,
                                   ComplementKind.SDBA_LAZY):
                    # the Figure 4 corpus: every SDBA sent to NCSB
                    collector.observe_sdba(module.automaton)
                if companion is not None:
                    extra_module, extra = companion
                    collector.stats.modules_by_stage[extra_module.stage] += 1
                    round_stats.companion_stage = extra_module.stage
                    current = extra.automaton
                    added.insert(0, extra_module)
                # The remainder the round ends with: a companion
                # emptying it must show.
                round_stats.difference_states = len(current.states)
                record(round_stats)
            modules.extend(added)
            if fresh and library is not None:
                # Library hits are already in the file; restored
                # modules were published by the run that earned them.
                for new in added:
                    library.publish(new, program=name)
            if checkpoint is not None and round_stats is not None:
                # (a restored module is already in the log)
                checkpoint.save(modules)
            return not current.initial_states()

        try:
            if checkpoint is not None:
                # Warm start: the persisted modules come back re-checked
                # (Definition 3.1, inside restore()) and are re-subtracted
                # from the fresh program automaton.  The remainder is
                # rebuilt here, so the checkpoint never enters the trust
                # base; a rejected one costs only the cold start.
                restored = checkpoint.restore(alphabet)
                if checkpoint.rejected:
                    note("checkpoint.rejected", "checkpoint",
                         checkpoint.rejected, None)
                for module in restored:
                    try:
                        result = subtract(current, module)
                    except ResourceExhausted as exc:
                        # Keep the modules already seeded (each is sound
                        # on its own); the loop continues from there.
                        _unless_deadline(exc)
                        note("budget.degraded", "checkpoint",
                             f"restore stopped after "
                             f"{checkpoint.restored_rounds} rounds: "
                             f"{exc.resource}", None)
                        break
                    checkpoint.restored_rounds += 1
                    registry.counter("checkpoint.rounds_restored").inc()
                    if admit(module, result):
                        return finish(Verdict.TERMINATING)

            for index in range(config.max_refinements):
                round_stats = None
                if deadline is not None and time.perf_counter() > deadline:
                    raise DeadlineExceeded("refinement", deadline)
                round_start = time.perf_counter()
                round_base = registry.counts()
                with tracer.span("round", index=index) as round_span:
                    # The budget is checked *inside* the long
                    # explorations too (lasso search here, Algorithm 1 in
                    # difference, the FM combination step in the solver),
                    # so one oversized round cannot blow far past the
                    # deadline.
                    with tracer.span("lasso-search"):
                        word = find_accepting_lasso(current, deadline=deadline)
                    if word is None:
                        return finish(Verdict.TERMINATING)
                    round_span.set(word=str(word))

                    hit: CertifiedModule | None = None
                    if library is not None:
                        # Reuse before synthesis: a published module that
                        # accepts this counterexample and passes the
                        # re-check is subtracted with zero prover/LP
                        # work.  The library is advisory -- any failure
                        # below just falls through to synthesis.
                        try:
                            with tracer.span("library-lookup") as lib_span:
                                hit = library.match(word, alphabet)
                                lib_span.set(hit=hit is not None)
                        except Exception as exc:  # noqa: BLE001 - advisory
                            note("library.error", "library",
                                 f"{type(exc).__name__}: {exc}", index)
                    if hit is not None:
                        round_stats = RefinementRound(
                            word=str(word), proof_kind="library",
                            stage=hit.stage,
                            module_states=len(hit.automaton.states))
                        round_span.set(library=True, stage=hit.stage)
                        try:
                            result = subtract(current, hit)
                        except ResourceExhausted as exc:
                            # A reused module blowing a cap is a miss in
                            # disguise: synthesize fresh, which can walk
                            # the degradation ladder stage by stage.
                            _unless_deadline(exc)
                            note("library.degraded", "library",
                                 f"reused {hit.stage} module blew "
                                 f"{exc.resource}; synthesizing fresh",
                                 index)
                            round_stats = None
                        else:
                            if admit(hit, result, round_stats):
                                return finish(Verdict.TERMINATING)
                            continue

                    lasso = Lasso.from_word(word)
                    try:
                        with tracer.span("prove-lasso") as proof_span:
                            proof = prove_lasso(lasso, check_nontermination=(
                                config.check_nontermination))
                            proof_span.set(kind=proof.kind.value)
                    except ResourceExhausted as exc:
                        _unless_deadline(exc)
                        note("budget.exhausted", "prove-lasso",
                             f"{exc.resource}: {exc.detail}", index)
                        return finish(
                            Verdict.UNKNOWN,
                            reason=f"resource exhausted: {exc.resource}")
                    round_span.set(proof=proof.kind.value)
                    round_stats = RefinementRound(word=str(word),
                                                  proof_kind=proof.kind.value)
                    if proof.kind is ProofKind.NONTERMINATING:
                        record(round_stats)
                        # Report the canonicalized lasso's word, not the
                        # sampled one: Lasso.from_word may rotate the
                        # period, and the nontermination witness state is
                        # a loop-head state of the *rotated* loop --
                        # replaying the sampled period from it could
                        # block at the rotated-away guard.
                        return finish(Verdict.NONTERMINATING,
                                      witness=proof.witness, word=lasso.word())
                    if not proof.is_terminating:
                        record(round_stats)
                        return finish(Verdict.UNKNOWN, word=word,
                                      reason=f"lasso not provable: {word}")

                    if deadline is not None and time.perf_counter() > deadline:
                        raise DeadlineExceeded("refinement", deadline)
                    try:
                        with tracer.span("generalize") as gen_span:
                            module = generalize(
                                proof, config.stages, alphabet,
                                interpolants=config.interpolant_modules)
                            gen_span.set(stage=module.stage,
                                         states=len(module.automaton.states))
                    except ResourceExhausted as exc:
                        # Re-generalize at the cheap end of the ladder:
                        # the finite/lasso modules exist for every proof
                        # and need no powerset construction or solver
                        # calls.
                        _unless_deadline(exc)
                        note("budget.degraded", "generalize",
                             f"{exc.resource} -> fallback module", index)
                        try:
                            module = generalize(
                                proof, (Stage.FINITE, Stage.LASSO), alphabet,
                                interpolants=False)
                        except ResourceExhausted as exc2:
                            _unless_deadline(exc2)
                            record(round_stats)
                            note("budget.exhausted", "generalize",
                                 f"{exc2.resource}: {exc2.detail}", index)
                            return finish(
                                Verdict.UNKNOWN,
                                reason=f"resource exhausted: {exc2.resource}")
                    round_stats.stage = module.stage
                    round_stats.module_states = len(module.automaton.states)
                    round_span.set(stage=module.stage)
                    # With interpolant modules on, the O(1)-complement
                    # finite module still comes for free: subtract it in
                    # the same round so coverage is a strict superset of
                    # the stage-1 path.
                    companion: CertifiedModule | None = None
                    if (config.interpolant_modules
                            and proof.kind is ProofKind.STEM_INFEASIBLE
                            and module.stage != Stage.FINITE.value):
                        companion = build_finite_module(proof, alphabet)
                    try:
                        result = subtract(current, module)
                    except ResourceExhausted as exc:
                        _unless_deadline(exc)
                        module, result = degrade(module, proof, exc, index)
                        if module is None:
                            last = result  # (None, last_exc) from degrade
                            record(round_stats)
                            note("budget.exhausted", "difference",
                                 f"{last.resource}: {last.detail}", index)
                            reason = ("difference state limit"
                                      if last.resource == "difference-states"
                                      else f"resource exhausted: "
                                           f"{last.resource}")
                            return finish(Verdict.UNKNOWN, reason=reason)
                        round_stats.stage = module.stage
                        round_stats.module_states = len(
                            module.automaton.states)
                        round_span.set(stage=module.stage, degraded=True)
                    extra = None
                    if companion is not None and not result.is_empty:
                        try:
                            extra = subtract(result.automaton, companion)
                        except ResourceExhausted:
                            # Includes deadline overruns: the companion is
                            # an optional extra subtraction, and the next
                            # round's deadline check ends the run if time
                            # is truly up.
                            pass
                    if admit(module, result, round_stats, fresh=True,
                             companion=(companion, extra)
                             if extra is not None else None):
                        return finish(Verdict.TERMINATING)
        except DeadlineExceeded:
            if round_stats is not None:
                record(round_stats)
            return finish(Verdict.UNKNOWN, reason="timeout")
        return finish(Verdict.UNKNOWN, reason="refinement budget exhausted")


def _unless_deadline(exc: ResourceExhausted) -> ResourceExhausted:
    """``exc``, unless it is a deadline overrun: that is re-raised to
    the run's one deadline handler -- time cannot be degraded away."""
    if isinstance(exc, DeadlineExceeded):
        raise exc
    return exc
