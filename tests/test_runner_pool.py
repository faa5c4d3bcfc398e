"""Worker-pool semantics: deadlines, crash isolation, retry, degradation.

The interesting paths (hung workers, SIGKILLed workers, ``on_outcome``
cancellation) are driven by the fault-injection tasks of
:mod:`repro.runner._testing` rather than pathological programs, so the
tests are fast and deterministic.
"""

from __future__ import annotations

import time

import pytest

from repro.runner._testing import crash_task, echo_task, flaky_task, sleep_task
from repro.runner.pool import TaskOutcome, WorkerPool, analysis_task

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-threaded interpreter (3.12+)

TERMINATING = """
program t(x):
    while x > 0:
        x := x - 1
"""


def test_pool_runs_payloads_in_order_across_workers():
    pool = WorkerPool(workers=3, task=echo_task)
    outcomes = pool.run([{"name": f"p{i}", "value": i} for i in range(6)])
    assert [o.status for o in outcomes] == ["ok"] * 6
    assert [o.result["value"] for o in outcomes] == list(range(6))
    if not pool.inprocess:
        # crash isolation: every job ran in its own subprocess
        pids = {o.result["pid"] for o in outcomes}
        assert len(pids) == 6


def test_hard_deadline_sigkills_hung_worker():
    pool = WorkerPool(workers=2, task=echo_task,
                      task_timeout=0.2, kill_grace=0.2)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: no hard deadlines")
    start = time.perf_counter()
    outcomes = pool.run([{"name": "hung", "delay": 3600.0},
                         {"name": "quick", "value": 1}])
    wall = time.perf_counter() - start
    assert outcomes[0].status == "timeout"
    assert "SIGKILL" in outcomes[0].error
    assert outcomes[1].status == "ok"
    assert wall < 30.0  # killed at ~0.4s, not after an hour


def test_sigkilled_worker_is_quarantined_after_retries():
    pool = WorkerPool(workers=2, task=crash_task, max_retries=1,
                      retry_backoff=0.01)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: cannot observe SIGKILL")
    outcomes = pool.run([{"name": "crash"}])
    assert outcomes[0].status == "quarantined"
    assert outcomes[0].status != "unknown"
    assert "died" in outcomes[0].error
    assert "quarantined" in outcomes[0].error
    assert outcomes[0].executions == 2  # the original + exactly one retry


def test_memory_watchdog_kills_and_reports_oom():
    # Any live Python worker's RSS dwarfs a 1 kB cap, so the watchdog
    # must kill it on the first heartbeat -- no balloon task needed.
    pool = WorkerPool(workers=1, task=sleep_task, max_rss_kb=1,
                      heartbeat_interval=0.05, kill_grace=0.2)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: no watchdog")
    start = time.perf_counter()
    outcomes = pool.run([{"key": "fat", "name": "fat", "delay": 3600.0}])
    wall = time.perf_counter() - start
    assert outcomes[0].status == "oom"
    assert "rss" in outcomes[0].error
    assert "kB cap" in outcomes[0].error
    assert wall < 30.0  # killed at the first heartbeat, not the deadline


def test_oom_kill_is_not_retried():
    pool = WorkerPool(workers=1, task=sleep_task, max_rss_kb=1,
                      max_retries=3, heartbeat_interval=0.05, kill_grace=0.2)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: no watchdog")
    outcomes = pool.run([{"key": "fat", "name": "fat", "delay": 3600.0}])
    assert outcomes[0].status == "oom"
    assert outcomes[0].executions == 1  # a deterministic balloon:
    # respawning it would only re-balloon


def test_retry_delay_is_seeded_capped_exponential():
    pool = WorkerPool(workers=1, task=echo_task,
                      retry_backoff=0.1, retry_backoff_cap=1.0)
    payload = {"key": "j1", "name": "j1"}
    delays = [pool.retry_delay(payload, n) for n in range(1, 8)]
    # deterministic: same job, same execution => same delay
    assert delays == [pool.retry_delay(payload, n) for n in range(1, 8)]
    # exponential floor with full jitter, capped
    for n, delay in enumerate(delays, start=1):
        base = 0.1 * (2 ** (n - 1))
        assert min(base, 1.0) <= delay <= min(2 * base, 1.0) + 1e-9
    assert delays[-1] == 1.0  # the cap
    # a different job draws a different jitter stream
    other = pool.retry_delay({"key": "j2", "name": "j2"}, 1)
    assert other != delays[0]


def test_flaky_worker_recovers_on_retry(tmp_path):
    pool = WorkerPool(workers=1, task=flaky_task, max_retries=1)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    marker = tmp_path / "attempt.marker"
    outcomes = pool.run([{"name": "flaky", "marker": str(marker)}])
    assert outcomes[0].status == "ok"
    assert outcomes[0].result["recovered"] is True
    assert outcomes[0].executions == 2


def test_task_exception_is_error_without_retry():
    pool = WorkerPool(workers=1, task=crash_task)
    outcomes = pool.run([{"name": "boom", "inprocess": True}])
    assert outcomes[0].status == "error"
    assert "simulated crash" in outcomes[0].error
    assert outcomes[0].executions == 1  # deterministic: not retried


def test_on_outcome_false_cancels_the_rest():
    pool = WorkerPool(workers=2, task=echo_task)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    start = time.perf_counter()
    outcomes = pool.run(
        [{"name": "slow", "delay": 3600.0}, {"name": "fast", "value": 7}],
        on_outcome=lambda o: False)  # first landing outcome stops the run
    wall = time.perf_counter() - start
    assert wall < 30.0
    by_name = {o.payload["name"]: o for o in outcomes}
    assert by_name["fast"].status == "ok"
    assert by_name["slow"].status == "cancelled"


def test_inprocess_degradation_still_executes():
    pool = WorkerPool(workers=4, task=echo_task, inprocess=True)
    assert pool.inprocess
    outcomes = pool.run([{"name": "a", "value": 1}, {"name": "b", "value": 2}])
    assert [o.result["value"] for o in outcomes] == [1, 2]


def test_inprocess_cancellation():
    pool = WorkerPool(task=echo_task, inprocess=True)
    outcomes = pool.run([{"value": 1}, {"value": 2}, {"value": 3}],
                        on_outcome=lambda o: False)
    assert [o.status for o in outcomes] == ["ok", "cancelled", "cancelled"]
    assert outcomes[1].executions == 0


def test_analysis_task_row_shape():
    row = analysis_task({"name": "t", "source": TERMINATING,
                         "config": {}, "key": "k1",
                         "expected": "terminating"})
    assert row["status"] == "terminating"
    assert row["verdict"] == "terminating"
    assert row["key"] == "k1"
    assert row["rounds"] >= 1
    assert row["seconds"] > 0
    assert row["stats"]["metrics"]["counters"]["refinement.rounds"] >= 1


def test_analysis_task_cooperative_timeout_status():
    row = analysis_task({"name": "t", "source": TERMINATING,
                         "config": {}, "timeout": 0.0})
    assert row["status"] == "timeout"
    assert row["verdict"] == "unknown"
    assert row["reason"] == "timeout"


def test_analysis_task_parse_error_is_error_row():
    row = analysis_task({"name": "broken", "source": "program broken(\n"})
    assert row["status"] == "error"
    assert "parse error" in row["error"]


def test_analysis_task_through_real_workers():
    pool = WorkerPool(workers=2, task=analysis_task, task_timeout=30.0)
    outcomes = pool.run([
        {"name": "t", "source": TERMINATING, "config": {}},
        {"name": "u", "source": "program u(x):\n    while x > 0:\n"
                                "        x := x + 1\n", "config": {}},
    ])
    assert outcomes[0].result["verdict"] == "terminating"
    assert outcomes[1].result["verdict"] == "nonterminating"


def test_config_round_trips_to_workers():
    from repro.core.config import AnalysisConfig, StageSequence

    config = AnalysisConfig(stages=StageSequence.SEQ_III,
                            interpolant_modules=True, lazy_complement=False,
                            timeout=12.5, difference_state_limit=None)
    rebuilt = AnalysisConfig.from_dict(config.to_dict())
    assert rebuilt == config
    assert rebuilt.describe() == config.describe()
    # manifests can name sequences and must get typos rejected
    assert AnalysisConfig.from_dict({"stages": "iii"}).stages == \
        StageSequence.SEQ_III
    with pytest.raises(ValueError):
        AnalysisConfig.from_dict({"lazyness": True})
