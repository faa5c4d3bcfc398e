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
(the configured wall-clock deadline plus the fixed
:data:`FM_CONSTRAINT_CAP` and :data:`SIMULATION_CAP`) scoped via
``use_budget``, so the solver and automata layers can poll it without
parameter threading; ``difference_state_limit`` bounds each difference.
Cap overruns surface as typed
:class:`~repro.core.budget.ResourceExhausted` errors.  A deadline always
ends the run (UNKNOWN/timeout, in one handler).  Any other blowup
follows one fallback rule: each round tries its candidate modules in
order -- the library hit (if any), the module :func:`generalize` builds
from the configured stage sequence, then the :data:`DEGRADATION_LADDER`
rungs below the stage that module reached (a build blowup counts as a
blown ``nondet``) -- and takes the first one whose subtraction stays
within the caps.  Each blown candidate is one ``budget.degraded``
incident naming the component (``library``, ``generalize`` or
``difference``); a round whose candidates run out, or whose lasso proof
blows a cap, ends the run at one exit with one ``budget.exhausted``
incident.

Every module joins the decomposition through one step, whichever of
the three sources it came from -- a re-checked checkpoint record, a
re-checked library hit, or fresh synthesis: subtract, append, publish
if fresh, save, and stop as TERMINATING on an empty remainder.

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
from collections import Counter
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
from repro.core.stats import AnalysisStats, Incident, RefinementRound
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


#: Constraint-count cap per Fourier--Motzkin elimination: the guard
#: against the combination step's quadratic blowup.
FM_CONSTRAINT_CAP = 20_000
#: Candidate pairs per run for the simulation solvers.  A blown cap
#: skips the reduction, never the analysis.
SIMULATION_CAP = 200_000

#: The degradation ladder: when building or subtracting a module blows a
#: resource cap, the proof is re-generalized at the next rung and the
#: subtraction retried.  Ordered from the most general module (worst-case
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

    def summary(self) -> str:
        """One line: program, config, rounds, modules per stage, seconds."""
        stages = Counter(m.stage for m in self.modules)
        listed = ", ".join(f"{k}={v}" for k, v in sorted(stages.items()))
        return (f"{self.stats.program} [{self.stats.config}]: "
                f"{self.stats.iterations} rounds, modules: {listed or 'none'}, "
                f"{self.stats.total_seconds:.3f}s")

    def to_dict(self) -> dict:
        """The run's one JSON record: what ``run --json`` prints,
        ``run --stats-json`` writes and every ``bench`` store row
        carries.  Each fact appears once; counts such as modules per
        stage or rounds are derived from ``modules`` and ``rounds``.
        ``attempts`` (portfolio runs only) lists every attempt's
        per-run part, the deciding one last."""
        stats = self.stats.to_dict()
        witness = self.witness
        record = {
            "program": self.stats.program,
            "config": stats["config"],
            "verdict": self.verdict.value,
            "reason": self.reason,
            "seconds": stats["seconds"],
            "witness": None if witness is None else {
                "kind": witness.kind,
                "state": {k: str(v) for k, v in sorted(witness.state.items())}},
            "witness_word": (None if self.witness_word is None
                             else str(self.witness_word)),
            "modules": [{"stage": m.stage,
                         "states": len(m.automaton.states),
                         "ranking": str(m.ranking)} for m in self.modules],
        }
        record.update(stats)  # config and seconds keep their places
        if self.attempts:
            record["attempts"] = [a.to_dict() for a in self.attempts]
        return record


class RefinementEngine:
    """Drives the analysis of one program."""

    def __init__(self, cfg: ControlFlowGraph,
                 config: AnalysisConfig | None = None,
                 checkpoint=None,
                 library=None):
        self._cfg = cfg
        self._config = config or AnalysisConfig()
        self._stats = AnalysisStats(program=cfg.name,
                                    config=self._config.describe())
        self._start = time.perf_counter()
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
                        fm_constraint_cap=FM_CONSTRAINT_CAP,
                        simulation_cap=SIMULATION_CAP)
        with use_budget(budget):
            return self._refine(tracer, budget)

    def _refine(self, tracer, budget: Budget) -> TerminationResult:
        config = self._config
        deadline = budget.deadline
        registry = obs_metrics.registry()
        stats = self._stats
        name = self._cfg.name
        program_gba: GBA = self._cfg.to_gba()
        alphabet = program_gba.alphabet
        current = program_gba
        modules: list[CertifiedModule] = []
        round_start = time.perf_counter()
        round_base: dict[str, int] = {}
        # The round in flight once it has a RefinementRound; the
        # deadline handler and the exhaustion exit record it.
        round_stats: RefinementRound | None = None
        # The round's last blowup as (component, stage, error): the
        # ladder starts below that stage, and the exhaustion exit
        # reports it.
        failure: tuple[str, str, ResourceExhausted] | None = None
        library = self._library
        checkpoint = self._checkpoint

        def finish(verdict: Verdict, *, witness=None, word=None,
                   reason: str | None = None) -> TerminationResult:
            stats.total_seconds = time.perf_counter() - self._start
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
            stats.rounds.append(round_stats)

        def note(kind: str, component: str, detail: str,
                 index: int | None) -> None:
            stats.record_incident(
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

        def build(proof, stages: tuple[Stage, ...], *,
                  interpolants: bool = False) -> CertifiedModule:
            with tracer.span("generalize") as gen_span:
                module = generalize(proof, stages, alphabet,
                                    interpolants=interpolants)
                gen_span.set(stage=module.stage,
                             states=len(module.automaton.states))
            return module

        def attempt(component: str, stage: str, make, index: int):
            """Build one candidate module of the round and subtract it
            from the remainder: ``(module, result)``, or None when
            ``make`` has no module or a cap blew.  A blowup is one
            ``budget.degraded`` incident naming the component that blew
            -- ``component`` itself, or ``difference`` for a fresh
            module's subtraction -- and becomes the round's ``failure``.
            Deadlines propagate to the run's one handler."""
            nonlocal failure
            module = None
            try:
                module = make()
                if module is None:
                    return None
                round_stats.stage = module.stage
                round_stats.module_states = len(module.automaton.states)
                return module, subtract(current, module)
            except ResourceExhausted as exc:
                _unless_deadline(exc)
                if module is not None:
                    stage = module.stage
                    if component == "generalize":
                        component = "difference"
                failure = (component, stage, exc)
                note("budget.degraded", component,
                     f"{stage}: {exc.resource}: {exc.detail}", index)
                return None

        def rung(proof, stage: Stage) -> CertifiedModule | None:
            # generalize() falls back to the lasso module when the stage
            # does not apply; that module is its own rung.
            module = build(proof, (stage,))
            return module if module.stage == stage.value else None

        def admit(module: CertifiedModule, result,
                  round_stats: RefinementRound | None = None, *,
                  fresh: bool = False, companion=None) -> bool:
            """The one step every module takes into the decomposition,
            whatever its source: a restored module (no ``round_stats``:
            no round of this run), a library hit, or a fresh module
            (with its same-round ``(companion, subtraction)``, if any).
            ``result`` is its subtraction from the remainder.  Take the
            new remainder, append, publish if fresh, save; True when the
            remainder is empty."""
            nonlocal current
            current = result.automaton
            added = [module]
            if round_stats is not None:
                if companion is not None:
                    extra_module, extra = companion
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
                failure = None
                budget.check_deadline("refinement")
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
                        # re-check is the round's first candidate, with
                        # zero prover/LP work.  The library is advisory.
                        try:
                            with tracer.span("library-lookup") as lib_span:
                                hit = library.match(word, alphabet)
                                lib_span.set(hit=hit is not None)
                        except Exception as exc:  # noqa: BLE001 - advisory
                            note("library.error", "library",
                                 f"{type(exc).__name__}: {exc}", index)
                    taken = None
                    if hit is not None:
                        round_stats = RefinementRound(word=str(word),
                                                      proof_kind="library")
                        taken = attempt("library", hit.stage,
                                        lambda: hit, index)

                    proof = None
                    if taken is None:
                        round_stats = None
                        lasso = Lasso.from_word(word)
                        try:
                            with tracer.span("prove-lasso") as proof_span:
                                proof = prove_lasso(lasso)
                                proof_span.set(kind=proof.kind.value)
                        except ResourceExhausted as exc:
                            failure = ("prove-lasso", "",
                                       _unless_deadline(exc))
                            break
                        round_span.set(proof=proof.kind.value)
                        round_stats = RefinementRound(
                            word=str(word), proof_kind=proof.kind.value)
                        if proof.kind is ProofKind.NONTERMINATING:
                            record(round_stats)
                            # Report the canonicalized lasso's word, not
                            # the sampled one: Lasso.from_word may rotate
                            # the period, and the nontermination witness
                            # state is a loop-head state of the *rotated*
                            # loop -- replaying the sampled period from
                            # it could block at the rotated-away guard.
                            return finish(Verdict.NONTERMINATING,
                                          witness=proof.witness,
                                          word=lasso.word())
                        if not proof.is_terminating:
                            record(round_stats)
                            return finish(Verdict.UNKNOWN, word=word,
                                          reason=f"lasso not provable: {word}")

                        # Fresh synthesis: the configured sequence's
                        # module, then the ladder rungs below the stage
                        # it reached.  A build blowup counts as a blown
                        # nondet, the stage every sequence ends with.
                        budget.check_deadline("refinement")
                        taken = attempt(
                            "generalize", Stage.NONDET.value,
                            lambda: build(
                                proof, config.stages,
                                interpolants=config.interpolant_modules),
                            index)
                        if taken is None:
                            for stage in ladder_tail(failure[1]):
                                taken = attempt(
                                    "generalize", stage.value,
                                    lambda: rung(proof, stage), index)
                                if taken is not None:
                                    break
                    if taken is None:
                        break  # every candidate blew a cap

                    module, result = taken
                    round_span.set(stage=module.stage, library=proof is None)
                    # With interpolant modules on, the O(1)-complement
                    # finite module still comes for free: subtract it in
                    # the same round so coverage is a strict superset of
                    # the stage-1 path.
                    companion = None
                    if (proof is not None and config.interpolant_modules
                            and proof.kind is ProofKind.STEM_INFEASIBLE
                            and module.stage != Stage.FINITE.value):
                        extra_module = build_finite_module(proof, alphabet)
                        if not result.is_empty:
                            try:
                                companion = (extra_module, subtract(
                                    result.automaton, extra_module))
                            except ResourceExhausted:
                                # Includes deadline overruns: the
                                # companion is an optional extra
                                # subtraction, and the next round's
                                # deadline check ends the run if time is
                                # truly up.
                                pass
                    if admit(module, result, round_stats,
                             fresh=proof is not None, companion=companion):
                        return finish(Verdict.TERMINATING)
            else:
                return finish(Verdict.UNKNOWN,
                              reason="refinement budget exhausted")
        except DeadlineExceeded:
            if round_stats is not None:
                record(round_stats)
            return finish(Verdict.UNKNOWN, reason="timeout")
        # The one exhaustion exit: the round's lasso proof or its last
        # candidate blew a cap.
        component, _, exc = failure
        if round_stats is not None:
            record(round_stats)
        note("budget.exhausted", component, f"{exc.resource}: {exc.detail}",
             index)
        reason = ("difference state limit"
                  if exc.resource == "difference-states"
                  else f"resource exhausted: {exc.resource}")
        return finish(Verdict.UNKNOWN, reason=reason)


def _unless_deadline(exc: ResourceExhausted) -> ResourceExhausted:
    """``exc``, unless it is a deadline overrun: that is re-raised to
    the run's one deadline handler -- time cannot be degraded away."""
    if isinstance(exc, DeadlineExceeded):
        raise exc
    return exc
