"""Chaos suite: seeded fault plans against programs with known verdicts.

The robustness contract under deterministic fault injection
(:mod:`repro.faults`) is graded, never wrong:

- an injected *crash* may surface as an error (``ReproError`` escaping
  ``prove_termination``) or be absorbed by the degradation ladder,
- an injected *delay* may push the run into its timeout,
- an injected *wrong answer* (adversarially flipped solver verdict)
  must be caught by the verdict firewall,

but under no plan may the analysis return the *opposite* conclusive
verdict, and no run may blow unboundedly past its wall-clock budget.
"""

import time

import pytest

import repro.faults as faults
from repro.core.api import prove_termination_source
from repro.core.budget import ReproError
from repro.core.config import AnalysisConfig
from repro.faults import FaultPlan

TIMEOUT = 5.0
#: Slack past the timeout before a run counts as a deadline overrun:
#: the firewall allowance plus scheduling noise (mirrors the worker
#: pool's kill grace).
SLACK = 10.0

COUNTDOWN = """
program countdown(x):
    while x > 0:
        x := x - 1
"""

DIVERGING = """
program up(x):
    while x > 0:
        x := x + 1
"""

PROGRAMS = (
    (COUNTDOWN, "terminating", "nonterminating"),
    (DIVERGING, "nonterminating", "terminating"),
)

#: 7 seeds x 3 shapes = 21 deterministic plans (the issue asks for >= 20).
SHAPES = (
    ("crash", dict(crash_rate=0.05)),
    ("mixed", dict(crash_rate=0.02, delay_rate=0.2, delay_seconds=0.001)),
    ("flip", dict(wrong_answer_rate=0.15)),
)
PLANS = [
    pytest.param(FaultPlan(seed=seed, **kwargs), id=f"{shape}-seed{seed}")
    for shape, kwargs in SHAPES
    for seed in range(7)
]


def run_under(plan: FaultPlan, source: str):
    """One analysis under ``plan``; returns (outcome, injected, seconds).

    ``outcome`` is the verdict value, or ``"error"`` when an injected
    crash escaped -- an *allowed* outcome, never a wrong answer.
    """
    config = AnalysisConfig(timeout=TIMEOUT)  # fault_plan=None: the
    # outer use_plan below stays the active injector, so its counters
    # are observable after the run.
    start = time.perf_counter()
    with faults.use_plan(plan):
        try:
            result = prove_termination_source(source, config)
            outcome = result.verdict.value
        except ReproError:
            outcome = "error"
        injected = faults.injected_counts()
    return outcome, injected, time.perf_counter() - start


@pytest.mark.parametrize("plan", PLANS)
def test_no_unsound_verdict_under_faults(plan):
    for source, expected, forbidden in PROGRAMS:
        outcome, _, seconds = run_under(plan, source)
        assert outcome != forbidden, \
            f"unsound verdict {outcome!r} under {plan!r}"
        assert outcome in (expected, "unknown", "error")
        assert seconds <= TIMEOUT + SLACK, \
            f"deadline overrun: {seconds:.1f}s under {plan!r}"


def test_chaos_plans_actually_inject():
    """The suite must exercise real faults, not a dormant injector."""
    totals = {"crash": 0, "delay": 0, "flip": 0}
    for shape, kwargs in SHAPES:
        plan = FaultPlan(seed=0, **kwargs)
        for source, _, _ in PROGRAMS:
            _, injected, _ = run_under(plan, source)
            for site_counts in injected.values():
                for kind, n in site_counts.items():
                    totals[kind] += n
    assert totals["crash"] > 0
    assert totals["flip"] > 0


def test_crash_plan_is_deterministic():
    """Same seed, same program => same outcome (no wall-clock coupling)."""
    plan = FaultPlan(seed=4, crash_rate=0.05)
    first = run_under(plan, COUNTDOWN)[0]
    second = run_under(plan, COUNTDOWN)[0]
    assert first == second


def test_flip_plans_never_flip_the_verdict():
    """Adversarial solver answers are the firewall's core threat model."""
    for seed in range(7):
        plan = FaultPlan(seed=seed, wrong_answer_rate=0.3)
        for source, expected, forbidden in PROGRAMS:
            outcome, _, _ = run_under(plan, source)
            assert outcome in (expected, "unknown", "error")
            assert outcome != forbidden


#: Seeded plans aimed at the durable-checkpoint write path.
CHECKPOINT_PLANS = [
    pytest.param(FaultPlan(seed=seed, crash_rate=rate,
                           sites=("checkpoint.write",)),
                 id=f"ckpt-rate{rate}-seed{seed}")
    for rate in (0.5, 1.0)
    for seed in range(5)
]


@pytest.mark.parametrize("plan", CHECKPOINT_PLANS)
def test_checkpoint_write_faults_never_flip_verdicts(plan, tmp_path):
    """Torn/partial checkpoint writes cost durability, never soundness.

    Each program runs twice under the plan: the first run's saves may
    be lost to injected crashes (leaving torn files and orphaned tmps
    behind), and the second run must either reject those artifacts into
    a clean cold start or restore only re-validated rounds -- with the
    correct verdict both times.
    """
    from repro.core.checkpoint import Checkpointer

    for index, (source, expected, forbidden) in enumerate(PROGRAMS):
        directory = tmp_path / f"ckpt{index}"
        config = AnalysisConfig(timeout=TIMEOUT)
        for attempt in range(2):
            checkpoint = Checkpointer(str(directory), f"chaos-{index}")
            with faults.use_plan(plan):
                try:
                    result = prove_termination_source(
                        source, config, checkpoint=checkpoint)
                    outcome = result.verdict.value
                except ReproError:
                    outcome = "error"
            assert outcome != forbidden, \
                f"unsound verdict {outcome!r} under {plan!r}"
            assert outcome in (expected, "unknown", "error")
            # whatever the injected write crashes left on disk, a
            # restore never seeds unvalidated rounds
            assert checkpoint.restored_rounds >= 0
            if checkpoint.rejected is not None:
                # rejected checkpoints mean a cold start happened --
                # and the verdict above was still correct
                assert checkpoint.restored_rounds == 0


def test_checkpoint_write_fault_plans_actually_inject(tmp_path):
    from repro.core.checkpoint import Checkpointer

    plan = FaultPlan(seed=0, crash_rate=1.0, sites=("checkpoint.write",))
    checkpoint = Checkpointer(str(tmp_path), "inject-check")
    with faults.use_plan(plan):
        result = prove_termination_source(
            COUNTDOWN, AnalysisConfig(timeout=TIMEOUT), checkpoint=checkpoint)
        injected = faults.injected_counts()
    assert injected.get("checkpoint.write", {}).get("crash", 0) >= 1
    assert result.stats.counter("checkpoint.saves") == 0
    assert result.stats.counter("checkpoint.save_failures") >= 1


def test_worker_site_faults_become_error_rows(tmp_path):
    """A crash at the worker site surfaces as resumable error rows."""
    from repro.runner.corpus import run_corpus
    from repro.runner.pool import WorkerPool, analysis_task

    plan = FaultPlan(seed=0, crash_rate=1.0, sites=("worker",))
    manifest = {
        "name": "chaos-pool", "task_timeout": 30,
        "programs": [
            {"name": "a", "expected": "terminating", "source": COUNTDOWN},
            {"name": "b", "expected": "nonterminating", "source": DIVERGING},
        ],
        "configs": [{"name": "faulty", "fault_plan": plan.to_json()}],
    }
    pool = WorkerPool(workers=1, task=analysis_task, task_timeout=30,
                      inprocess=True)
    summary = run_corpus(manifest, tmp_path / "results.jsonl", pool=pool)
    assert summary.errors == 2
    assert all(row.get("status") == "error" for row in summary.rows)


#: Seeded plans aimed at the module-library publish path: every publish
#: replaces the honest entry with a plausibly-corrupted one.
LIBRARY_PLANS = [
    pytest.param(FaultPlan(seed=seed, crash_rate=1.0,
                           sites=("library.publish",)),
                 id=f"lib-seed{seed}")
    for seed in range(3)
]


@pytest.mark.parametrize("plan", LIBRARY_PLANS)
def test_tampered_library_entries_are_rejected_not_trusted(plan, tmp_path):
    """A poisoned module library costs work, never soundness.

    The first run publishes under the fault, so only tampered entries
    (certificates silently missing one state's predicate) reach the
    shared file.  The second run's queries find candidates that decode
    and accept the counterexample word -- the Definition 3.1 re-check
    must reject every one and fall back to synthesis, with the correct
    verdict both times and zero library hits.
    """
    from repro.core.library import ModuleLibrary

    for index, (source, expected, forbidden) in enumerate(PROGRAMS):
        path = tmp_path / f"lib{index}.jsonl"
        config = AnalysisConfig(timeout=TIMEOUT)
        for attempt in range(2):
            library = ModuleLibrary(path)
            counter = None  # a run that raised leaves no metrics
            with faults.use_plan(plan):
                try:
                    result = prove_termination_source(
                        source, config, library=library)
                    outcome = result.verdict.value
                    counter = result.stats.counter
                except ReproError:
                    outcome = "error"
                injected = faults.injected_counts()
            assert outcome != forbidden, \
                f"unsound verdict {outcome!r} under {plan!r}"
            assert outcome in (expected, "unknown", "error")
            if counter is not None:
                # nothing tampered was ever reused
                assert counter("library.hits") == 0
            if attempt == 0 and outcome == expected == "terminating":
                # the fault actually fired on every publish attempt
                assert injected.get("library.publish", {}) \
                               .get("crash", 0) >= 1
                assert counter("library.published") == 0
                assert counter("library.publish_failures") >= 1
            if attempt == 1 and path.exists() and outcome == "terminating":
                assert library.rejected >= 1, \
                    "tampered entries must be rejected, not ignored"
