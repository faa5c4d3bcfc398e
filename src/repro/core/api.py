"""Public entry points.

>>> from repro import prove_termination_source
>>> result = prove_termination_source('''
... program count_down(x):
...     while x > 0:
...         x := x - 1
... ''')
>>> result.verdict.value
'terminating'
"""

from __future__ import annotations

import time

import repro.faults as faults
from repro.core.config import AnalysisConfig
from repro.core.firewall import screen
from repro.core.refinement import RefinementEngine, TerminationResult, Verdict
from repro.core.stats import AnalysisStats
from repro.logic.memo import use_memo
from repro.obs import metrics as obs_metrics
from repro.program.ast import Program
from repro.program.cfg import build_cfg
from repro.program.parser import parse_program


def prove_termination(program: Program,
                      config: AnalysisConfig | None = None,
                      checkpoint=None,
                      library=None,
                      ) -> TerminationResult:
    """Run the termination analysis on a parsed program.

    Two robustness layers wrap the engine here: a fault plan from the
    configuration (or the ``REPRO_FAULT_PLAN`` environment variable) is
    activated around the run, and every conclusive verdict is
    independently re-validated by :func:`repro.core.firewall.screen`
    before being returned.

    ``checkpoint`` (a :class:`repro.core.checkpoint.Checkpointer`,
    optional) makes the run crash-recoverable: the certified module
    decomposition is durably persisted after every refinement round,
    and a valid existing checkpoint warm-starts the run (every restored
    certificate is re-validated first -- see the trust model in
    :mod:`repro.core.checkpoint`).

    ``library`` (a :class:`repro.core.library.ModuleLibrary` or a path
    to one, optional) makes
    certified modules flow *across* programs: each counterexample
    queries the library before synthesis and every freshly certified
    module is published back.  Same trust model as checkpoints -- every
    reused module is re-validated, so the library never changes a
    verdict, only the work it costs.

    One fresh metrics registry spans the whole run -- building the
    control-flow graph, the engine and the firewall's re-check alike --
    so its snapshot, ``result.stats.metrics``, holds every count.  One
    solver memo (:func:`repro.logic.memo.use_memo`: Fourier--Motzkin,
    postconditions, Hoare triples and Farkas LPs) spans the CFG build and
    the engine; the firewall opens a fresh one of its own.
    """
    config = config or AnalysisConfig()
    if library is not None and not hasattr(library, "match"):
        from repro.core.library import ModuleLibrary
        library = ModuleLibrary(library)
    plan = faults.resolve_plan(config.fault_plan)
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        with use_memo():
            engine = RefinementEngine(build_cfg(program), config,
                                      checkpoint=checkpoint, library=library)
            if plan is not None:
                with faults.use_plan(plan):
                    result = engine.run()
            else:
                result = engine.run()
        result = screen(result, config.timeout)
    result.stats.metrics = registry.snapshot()
    return result


def prove_termination_source(source: str,
                             config: AnalysisConfig | None = None,
                             checkpoint=None,
                             library=None,
                             ) -> TerminationResult:
    """Parse source text and run the termination analysis."""
    return prove_termination(parse_program(source), config,
                             checkpoint=checkpoint, library=library)


#: The default portfolio: the paper-faithful multi-stage configuration,
#: then a retry with interpolant-based infeasibility modules -- the two
#: generalization strategies have complementary strengths (see
#: EXPERIMENTS.md).
DEFAULT_PORTFOLIO: tuple[AnalysisConfig, ...] = (
    AnalysisConfig(),
    AnalysisConfig(interpolant_modules=True),
)


def prove_termination_portfolio(program: Program | str,
                                configs: tuple[AnalysisConfig, ...] = DEFAULT_PORTFOLIO,
                                timeout: float | None = None,
                                checkpoint_dir: str | None = None,
                                module_library: str | None = None,
                                ) -> TerminationResult:
    """Run configurations in order until one produces a verdict.

    ``program`` is a parsed :class:`~repro.program.ast.Program` or its
    source text.  ``timeout`` is a budget for the whole portfolio:
    before each attempt the *remaining* wall-clock is split evenly over
    the configurations still to run, so time an early config leaves
    unused flows to the later ones instead of being thrown away.  The
    last UNKNOWN result is returned when none succeeds.  The returned
    result carries the deciding run's stats in ``result.stats`` and the
    stats of every attempted configuration, in order, in
    ``result.attempts``.

    ``checkpoint_dir`` makes every attempt durable: each configuration
    checkpoints under its own (program, config, code-version) key --
    the config without its wall-clock budget, exactly as ``run`` and
    ``bench`` key it -- so an attempt cut short by the budget leaves
    its certified rounds on disk, and a later run of that program and
    configuration warm-starts from them whatever its budget.  Only
    source text keys the same file as ``run``; a parsed program is
    keyed on its ``repr``.

    ``module_library`` (a path) attaches the cross-program certified-
    module library to every attempt; the attempts share one handle, so
    config B reuses what config A certified in the same portfolio run.
    """
    if not configs:
        raise ValueError("the portfolio needs at least one configuration")
    if isinstance(program, str):
        source, program = program, parse_program(program)
    else:
        source = str(program)
    library = None
    if module_library is not None:
        from repro.core.library import ModuleLibrary
        library = ModuleLibrary(module_library)
    start = time.perf_counter()
    attempts: list[AnalysisStats] = []
    result: TerminationResult | None = None
    for index, config in enumerate(configs):
        if timeout is not None:
            remaining = timeout - (time.perf_counter() - start)
            if remaining <= 0:
                # The budget is gone: launching an attempt with a zero
                # (or negative) timeout would only burn more wall-clock
                # on setup before its first deadline check fires.
                break
            budget = remaining / (len(configs) - index)
            config = config.with_(timeout=budget)
        checkpoint = None
        if checkpoint_dir is not None:
            from repro.core.checkpoint import Checkpointer
            from repro.runner.store import job_key
            checkpoint = Checkpointer(
                checkpoint_dir,
                job_key(program.name, source,
                        config.with_(timeout=None).to_dict()),
                program=program.name)
        result = prove_termination(program, config,
                                   checkpoint=checkpoint, library=library)
        attempts.append(result.stats)
        if result.verdict is not Verdict.UNKNOWN:
            break
    if result is None:
        # The whole budget was spent before the first attempt could run.
        result = TerminationResult(Verdict.UNKNOWN, reason="timeout")
    result.attempts = attempts
    return result
