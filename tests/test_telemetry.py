"""Fleet telemetry: event schema, pool lifecycle, heartbeats, monitor.

The pool-facing tests drive real subprocess workers (skipped where
multiprocessing is unavailable, mirroring test_runner_pool); the
FleetState/FleetMonitor tests run on synthetic event streams so the
derived views (tally, throughput, ETA, slowest jobs) are deterministic.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.report import aggregate, load_records
from repro.obs.telemetry import (EVENT_TYPES, FleetMonitor, FleetState,
                                 Telemetry, read_events)
from repro.runner._testing import crash_task, echo_task, sleep_task
from repro.runner.pool import WorkerPool, analysis_task

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-threaded interpreter (3.12+)

TERMINATING = """
program t(x):
    while x > 0:
        x := x - 1
"""


# -- channel / schema ---------------------------------------------------------


def test_event_schema_round_trips_through_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    with Telemetry(str(path)) as tel:
        tel.emit("plan", total=3, skipped=1, to_run=2)
        tel.emit("spawned", job="j1", name="p1", pid=123, execution=1)
        tel.emit("heartbeat", job="j1", pid=123, elapsed=0.5, rss_kb=2048)
        tel.emit("finished", job="j1", status="ok", elapsed=1.0)
    events = list(read_events(str(path)))
    # the channel opener stamps a meta record first
    assert events[0]["type"] == "meta"
    assert events[0]["pid"] > 0
    assert [e["type"] for e in events[1:]] == ["plan", "spawned",
                                               "heartbeat", "finished"]
    # the on-disk events equal the in-memory ones (full round-trip)
    assert events == tel.events
    # monotone relative timestamps
    assert all(a["t"] <= b["t"] for a, b in zip(events, events[1:]))
    # None-valued fields are dropped, not serialized as null
    with Telemetry() as quiet:
        event = quiet.emit("heartbeat", job="j", rss_kb=None)
    assert "rss_kb" not in event


def test_unknown_event_type_is_rejected():
    tel = Telemetry()
    with pytest.raises(ValueError, match="unknown telemetry event type"):
        tel.emit("exploded")
    assert "heartbeat" in EVENT_TYPES and "killed" in EVENT_TYPES


def test_read_events_skips_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    with Telemetry(str(path)) as tel:
        tel.emit("finished", job="a", status="ok")
    with open(path, "ab") as fh:
        fh.write(b'{"type": "finished", "job": "b", "st')  # torn tail
    events = list(read_events(str(path)))
    assert [e["type"] for e in events] == ["meta", "finished"]
    assert events[1]["job"] == "a"


# -- pool lifecycle -----------------------------------------------------------


def test_pool_emits_lifecycle_events_per_job(tmp_path):
    path = tmp_path / "events.jsonl"
    tel = Telemetry(str(path))
    pool = WorkerPool(workers=2, task=echo_task, telemetry=tel)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    pool.run([{"key": f"j{i}", "name": f"p{i}", "value": i}
              for i in range(3)])
    tel.close()
    events = list(read_events(str(path)))
    for job in ("j0", "j1", "j2"):
        types = [e["type"] for e in events if e.get("job") == job]
        assert types == ["spawned", "started", "finished"]
    finished = [e for e in events if e["type"] == "finished"]
    assert all(e["status"] == "ok" for e in finished)
    # spawned carries the worker pid; started echoes it from inside
    spawned = [e for e in events if e["type"] == "spawned"]
    assert all(e["pid"] > 0 for e in spawned)


def test_deadline_killed_worker_leaves_killed_event(tmp_path):
    path = tmp_path / "events.jsonl"
    tel = Telemetry(str(path))
    pool = WorkerPool(workers=2, task=echo_task, task_timeout=0.2,
                      kill_grace=0.2, telemetry=tel,
                      heartbeat_interval=0.05)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: no hard deadlines")
    outcomes = pool.run([{"key": "hung", "name": "hung", "delay": 3600.0},
                         {"key": "ok", "name": "ok", "value": 1}])
    tel.close()
    assert outcomes[0].status == "timeout"
    events = list(read_events(str(path)))
    killed = [e for e in events if e["type"] == "killed"]
    assert len(killed) == 1
    assert killed[0]["job"] == "hung"
    assert killed[0]["reason"] == "deadline"
    # the wedged worker was heartbeating right up to the kill
    beats = [e for e in events if e["type"] == "heartbeat"
             and e.get("job") == "hung"]
    assert beats, "no heartbeats for the hung job"
    assert all(b["pid"] > 0 for b in beats)
    # every line of the file is intact JSON (parseable end to end)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)


def test_worker_death_emits_retried_then_quarantined(tmp_path):
    path = tmp_path / "events.jsonl"
    tel = Telemetry(str(path))
    pool = WorkerPool(workers=1, task=crash_task, max_retries=1,
                      retry_backoff=0.01, telemetry=tel)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: cannot observe SIGKILL")
    outcomes = pool.run([{"key": "c", "name": "c"}])
    tel.close()
    assert outcomes[0].status == "quarantined"
    events = [e for e in read_events(str(path)) if e.get("job") == "c"]
    types = [e["type"] for e in events]
    # spawned, (started), retried, spawned, (started), finished(quar) --
    # "started" may lose the race against SIGKILL, the rest may not
    assert types.count("retried") == 1
    assert types.count("spawned") == 2
    assert types[-1] == "finished"
    assert events[-1]["status"] == "quarantined"
    # the respawn was delayed by the (seeded, capped) backoff
    retried = next(e for e in events if e["type"] == "retried")
    assert retried["delay"] >= 0.01


def test_memory_watchdog_emits_killed_oom_event(tmp_path):
    path = tmp_path / "events.jsonl"
    tel = Telemetry(str(path))
    pool = WorkerPool(workers=1, task=sleep_task, max_rss_kb=1,
                      heartbeat_interval=0.05, kill_grace=0.2,
                      telemetry=tel)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: no watchdog")
    outcomes = pool.run([{"key": "fat", "name": "fat", "delay": 3600.0}])
    tel.close()
    assert outcomes[0].status == "oom"
    events = list(read_events(str(path)))
    killed = [e for e in events if e["type"] == "killed"]
    assert len(killed) == 1
    assert killed[0]["reason"] == "oom"
    assert killed[0]["rss_kb"] > 1
    # the fleet view folds the oom kill into its own status bucket
    state = FleetState()
    for event in events:
        state.observe(event)
    assert state.ooms == 1


def test_inprocess_pool_still_emits_lifecycle():
    tel = Telemetry()
    pool = WorkerPool(task=echo_task, inprocess=True, telemetry=tel)
    pool.run([{"key": "a", "name": "a", "value": 1}])
    types = [e["type"] for e in tel.events if e.get("job") == "a"]
    assert types == ["started", "finished"]


def test_on_outcome_cancel_emits_killed_cancelled(tmp_path):
    tel = Telemetry()
    pool = WorkerPool(workers=2, task=echo_task, telemetry=tel)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    pool.run([{"key": "slow", "name": "slow", "delay": 3600.0},
              {"key": "fast", "name": "fast", "value": 7}],
             on_outcome=lambda o: False)
    killed = [e for e in tel.events if e["type"] == "killed"]
    assert any(e.get("reason") == "cancelled" for e in killed)


# -- fleet state / monitor ----------------------------------------------------


def _synthetic_stream():
    return [
        {"type": "plan", "t": 0.0, "total": 4, "skipped": 1, "to_run": 3},
        {"type": "spawned", "t": 0.1, "job": "a", "name": "a", "pid": 10},
        {"type": "started", "t": 0.2, "job": "a", "pid": 10},
        {"type": "spawned", "t": 0.2, "job": "b", "name": "b", "pid": 11},
        {"type": "heartbeat", "t": 1.0, "job": "a", "pid": 10,
         "elapsed": 0.8, "rss_kb": 4096},
        {"type": "heartbeat", "t": 1.0, "job": "b", "pid": 11,
         "elapsed": 0.8},
        {"type": "finished", "t": 1.5, "job": "a", "status": "ok"},
        {"type": "spawned", "t": 1.5, "job": "c", "name": "c", "pid": 12},
        {"type": "killed", "t": 2.1, "job": "b", "reason": "deadline"},
        {"type": "finished", "t": 2.5, "job": "c", "status": "error"},
    ]


def test_fleet_state_counts_throughput_and_eta():
    state = FleetState()
    events = _synthetic_stream()
    for event in events[:6]:
        state.observe(event)
    assert state.total == 3          # from the plan event (to_run)
    assert state.done == 0
    assert set(state.running) == {"a", "b"}
    slowest = state.slowest_running()
    assert slowest[0][1]["elapsed"] == 0.8
    assert state.running["a"]["rss_kb"] == 4096

    for event in events[6:]:
        state.observe(event)
    assert state.done == 3
    assert state.by_status == {"ok": 1, "timeout": 1, "error": 1}
    assert state.errors == 1 and state.timeouts == 1
    assert not state.running
    # 3 jobs finished between first spawn (t=0.1) and last event (t=2.5)
    assert state.throughput() == pytest.approx(3 / 2.4, rel=1e-6)
    assert state.eta_seconds() == pytest.approx(0.0)
    tally = state.tally()
    assert "3/3" in tally and "1 err" in tally and "1 t/o" in tally


def test_fleet_state_folds_oom_kills_and_quarantines():
    state = FleetState()
    for event in [
        {"type": "plan", "t": 0.0, "total": 3, "skipped": 0, "to_run": 3},
        {"type": "spawned", "t": 0.1, "job": "fat", "name": "fat", "pid": 7},
        {"type": "killed", "t": 0.5, "job": "fat", "reason": "oom",
         "rss_kb": 999999},
        {"type": "spawned", "t": 0.5, "job": "poison", "name": "poison",
         "pid": 8},
        {"type": "finished", "t": 0.9, "job": "poison",
         "status": "quarantined"},
        {"type": "spawned", "t": 0.9, "job": "ok", "name": "ok", "pid": 9},
        {"type": "finished", "t": 1.2, "job": "ok", "status": "ok"},
    ]:
        state.observe(event)
    assert state.by_status == {"oom": 1, "quarantined": 1, "ok": 1}
    assert state.ooms == 1 and state.quarantined == 1
    assert not state.running
    tally = state.tally()
    assert "1 oom" in tally and "1 quar" in tally


def test_fleet_monitor_renders_rows_and_status():
    rows, status = io.StringIO(), io.StringIO()
    monitor = FleetMonitor(row_stream=rows, status_stream=status,
                           status_interval=0.0)
    for event in _synthetic_stream():
        monitor.observe(event)
    monitor.row({"program": "a", "config": "default", "status": "ok",
                 "seconds": 0.42})
    line = rows.getvalue()
    assert "a" in line and "[default]" in line and "0.42s" in line
    assert "3/3" in line            # the running done/total tally
    assert "running" in status.getvalue()  # heartbeat status lines

    # quiet monitor: no output at all
    silent = FleetMonitor()
    for event in _synthetic_stream():
        silent.observe(event)
    silent.row({"program": "x"})    # no stream, no crash


# -- --trace-dir threading ----------------------------------------------------


def test_analysis_task_trace_dir_writes_reportable_trace(tmp_path):
    trace_dir = tmp_path / "traces"
    row = analysis_task({"name": "t", "source": TERMINATING, "config": {},
                         "key": "k123", "trace_dir": str(trace_dir)})
    assert row["status"] == "terminating"
    trace = trace_dir / "trace_k123.jsonl"
    assert trace.is_file()
    report = aggregate(load_records(str(trace)))
    assert report.phases["analysis"].calls == 1
    assert report.accounted >= 0.9
    # the worker's metrics snapshot rode along in the trace
    assert report.metrics["counters"]["refinement.rounds"] >= 1


def test_run_corpus_trace_dir_one_trace_per_job(tmp_path):
    from repro.runner.corpus import run_corpus
    manifest = {"name": "mini", "programs": [
        {"name": "p1", "expected": "terminating", "source": TERMINATING},
        {"name": "p2", "expected": "terminating", "source": TERMINATING},
    ]}
    pool = WorkerPool(task=analysis_task, inprocess=True)
    summary = run_corpus(manifest, tmp_path / "results.jsonl", pool=pool,
                         trace_dir=tmp_path / "traces")
    assert summary.ran == 2
    traces = sorted((tmp_path / "traces").glob("trace_*.jsonl"))
    assert len(traces) == 2
    for trace in traces:
        assert aggregate(load_records(str(trace))).phases
