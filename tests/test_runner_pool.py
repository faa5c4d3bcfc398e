"""Worker-pool semantics: deadlines, crash isolation, respawn, degradation.

The interesting paths (hung workers, SIGKILLed workers) are driven by
the fault-injection tasks of
:mod:`repro.runner._testing` rather than pathological programs, so the
tests are fast and deterministic.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner._testing import crash_task, echo_task, flaky_task
from repro.core.firewall import allowance
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
    assert wall < 30.0  # killed at ~1.4s, not after an hour


def test_hard_deadline_covers_the_firewall_allowance():
    """A verdict reached at the budget is screened before the SIGKILL:
    the kill lands after the budget, the screen's allowance for that
    budget and the grace."""
    pool = WorkerPool(workers=1, task=echo_task, kill_grace=1.0)
    assert allowance(5.0) == 1.25
    assert pool.kill_after(5.0) == 5.0 + 1.25 + 1.0
    assert pool.kill_after(0.2) == 0.2 + 1.0 + 1.0  # the 1 s floor
    for budget in (0.0, 0.5, 3.0, 5.0, 30.0, 600.0):
        assert pool.kill_after(budget) == (budget + allowance(budget)
                                           + pool.kill_grace)
    assert pool.kill_after(None) is None  # no budget, no hard deadline


def _running(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to tell a live worker from a zombie")
def test_worker_exits_when_its_parent_is_killed(tmp_path):
    """A SIGKILLed harness leaves no worker running its job behind."""
    if WorkerPool(workers=1, task=echo_task).inprocess:
        pytest.skip("multiprocessing unavailable: no worker subprocesses")
    pid_file = tmp_path / "worker.pid"
    script = (
        "from repro.runner._testing import echo_task\n"
        "from repro.runner.pool import WorkerPool\n"
        "WorkerPool(workers=1, task=echo_task).run(\n"
        f"    [{{'delay': 60.0, 'pid_file': {str(pid_file)!r}}}])\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    worker = None
    try:
        give_up = time.monotonic() + 30.0
        while worker is None:
            assert parent.poll() is None, "parent exited before its worker ran"
            assert time.monotonic() < give_up, "worker never started"
            try:
                worker = int(pid_file.read_text(encoding="utf-8"))
            except (FileNotFoundError, ValueError):
                time.sleep(0.05)
        parent.kill()
        parent.wait()
        give_up = time.monotonic() + 5.0
        while _running(worker) and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not _running(worker), "worker outlived its killed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)


def test_sigkilled_worker_is_quarantined_after_retries():
    """A job whose worker dies on both executions is an ``error``
    outcome naming the exit code (no status of its own)."""
    pool = WorkerPool(workers=2, task=crash_task)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: cannot observe SIGKILL")
    outcomes = pool.run([{"name": "crash"}])
    assert outcomes[0].status == "error"
    assert "died" in outcomes[0].error
    assert f"exit code {-signal.SIGKILL}" in outcomes[0].error
    assert outcomes[0].executions == 2  # the original + exactly one respawn


def test_flaky_worker_recovers_on_retry(tmp_path):
    pool = WorkerPool(workers=1, task=flaky_task)
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


class _SecondSpawnFails:
    """A start-method context whose second ``Process`` raises EMFILE."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.spawned = []

    def Pipe(self, duplex=True):
        return self._ctx.Pipe(duplex=duplex)

    def Process(self, **kwargs):
        if len(self.spawned) == 1:
            raise OSError(24, "Too many open files")
        proc = self._ctx.Process(**kwargs)
        self.spawned.append(proc)
        return proc


def test_spawn_failure_finishes_only_the_rest_inprocess():
    pool = WorkerPool(workers=1, task=echo_task)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    pool._ctx = _SecondSpawnFails(pool._ctx)
    seen = []
    outcomes = pool.run([{"name": f"j{i}", "value": i} for i in range(3)],
                        on_outcome=lambda o: seen.append(o.payload["name"]))
    assert seen == ["j0", "j1", "j2"]  # each payload exactly once
    assert [o.result["value"] for o in outcomes] == [0, 1, 2]
    assert pool.inprocess


def test_spawn_failure_kills_and_reaps_running_workers():
    pool = WorkerPool(workers=2, task=echo_task)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    ctx = pool._ctx = _SecondSpawnFails(pool._ctx)
    seen = []
    outcomes = pool.run([{"name": "j0", "value": 0, "delay": 1.0},
                         {"name": "j1", "value": 1}],
                        on_outcome=lambda o: seen.append(o.payload["name"]))
    # j0's worker was running when j1's spawn failed: it is killed and
    # reaped, and j0 itself runs again in-process with j1
    [worker] = ctx.spawned
    assert worker.exitcode == -signal.SIGKILL
    assert seen == ["j0", "j1"]
    assert [o.status for o in outcomes] == ["ok", "ok"]


def test_inprocess_degradation_still_executes():
    pool = WorkerPool(workers=4, task=echo_task, inprocess=True)
    assert pool.inprocess
    outcomes = pool.run([{"name": "a", "value": 1}, {"name": "b", "value": 2}])
    assert [o.result["value"] for o in outcomes] == [1, 2]


def test_analysis_task_row_shape():
    row = analysis_task({"name": "t", "source": TERMINATING,
                         "config": {}, "key": "k1",
                         "expected": "terminating"})
    assert row["status"] == "terminating"
    assert row["verdict"] == "terminating"
    assert row["key"] == "k1" and row["name"] == "t"
    assert row["expected"] == "terminating" and row["error"] is None
    assert row["program"] == "t" and row["config"].startswith("multi(i)")
    assert len(row["rounds"]) >= 1
    assert row["seconds"] > 0
    assert row["metrics"]["counters"]["refinement.rounds"] == \
        len(row["rounds"])


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
