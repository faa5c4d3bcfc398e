"""Corpus harness: manifest expansion, the JSONL store, resume, report."""

from __future__ import annotations

import json

import pytest

from repro.obs.report import aggregate, load_records
from repro.runner.corpus import (expand_manifest, load_manifest, run_corpus,
                                 suite_manifest)
from repro.runner.pool import WorkerPool, analysis_task
from repro.runner.report import aggregate_rows, render_table, to_dict
from repro.runner.store import ResultStore, job_key, read_rows

INLINE_TERMINATING = ("program a(x):\n    while x > 0:\n"
                      "        x := x - 1\n")
INLINE_DIVERGING = ("program b(x):\n    while x > 0:\n"
                    "        x := x + 1\n")
TERMINATING = """
program t(x):
    while x > 0:
        x := x - 1
"""


def tiny_manifest(**extra) -> dict:
    manifest = {
        "name": "tiny",
        "task_timeout": 30,
        "programs": [
            {"name": "a", "source": INLINE_TERMINATING,
             "expected": "terminating"},
            {"name": "b", "source": INLINE_DIVERGING,
             "expected": "nonterminating"},
        ],
        "configs": [{"name": "default"}],
    }
    manifest.update(extra)
    return manifest


def row_counter(row: dict, name: str) -> int:
    return row["metrics"]["counters"].get(name, 0)


def inprocess_pool(**kwargs) -> WorkerPool:
    kwargs.setdefault("task", analysis_task)
    kwargs.setdefault("inprocess", True)
    return WorkerPool(**kwargs)


# -- manifest expansion ---------------------------------------------------------


def test_expand_suite_and_scaled_and_inline():
    manifest = {
        "name": "m",
        "programs": [
            {"suite": "nested"},
            {"scaled": "sequential_loops", "k": [1, 2]},
            {"name": "inline1", "source": INLINE_TERMINATING,
             "expected": "terminating"},
        ],
        "configs": [{"name": "default"}, {"name": "interp",
                                          "interpolant_modules": True}],
    }
    jobs = expand_manifest(manifest, version="v-test")
    names = {j.name for j in jobs}
    assert "sort" in names            # benchgen "nested" family
    assert "sequential_2" in names    # scaled generator
    assert "inline1" in names
    # full matrix: every program under every config
    assert len(jobs) == len(names) * 2
    assert {j.config_name for j in jobs} == {"default", "interp"}
    assert len({j.key for j in jobs}) == len(jobs)  # keys are unique


def test_expand_file_and_glob(tmp_path):
    (tmp_path / "p1.t").write_text(INLINE_TERMINATING)
    (tmp_path / "p2.t").write_text(INLINE_DIVERGING)
    manifest = {"name": "files", "_base_dir": str(tmp_path),
                "programs": [{"glob": "*.t", "expected": "unknown"}],
                "configs": []}
    jobs = expand_manifest(manifest, version="v")
    assert sorted(j.name for j in jobs) == ["p1", "p2"]

    single = {"name": "one", "_base_dir": str(tmp_path),
              "programs": [{"file": "p1.t", "expected": "terminating"}]}
    jobs = expand_manifest(single, version="v")
    assert jobs[0].expected == "terminating"
    assert jobs[0].source == INLINE_TERMINATING


def test_expand_rejects_unknown_entries():
    with pytest.raises(ValueError):
        expand_manifest({"programs": [{"mystery": 1}]})
    with pytest.raises(ValueError):
        expand_manifest({"programs": [{"scaled": "no_such_family"}]})
    with pytest.raises(ValueError):  # config typos surface at expansion
        expand_manifest({"programs": [{"suite": "gcd"}],
                         "configs": [{"subsumptions": True}]})


def test_load_manifest_resolves_relative_paths(tmp_path):
    (tmp_path / "prog.t").write_text(INLINE_TERMINATING)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"programs": [{"file": "prog.t"}]}))
    manifest = load_manifest(path)
    jobs = expand_manifest(manifest, version="v")
    assert jobs[0].name == "prog"


def test_suite_manifest_covers_twenty_plus_programs():
    jobs = expand_manifest(suite_manifest(), version="v")
    assert len(jobs) >= 20


# -- resume keying --------------------------------------------------------------


def test_job_key_sensitivity():
    base = job_key("p", "src", {"a": 1}, "v1")
    assert base == job_key("p", "src", {"a": 1}, "v1")  # deterministic
    assert base != job_key("p", "src2", {"a": 1}, "v1")  # program changed
    assert base != job_key("p", "src", {"a": 2}, "v1")   # config changed
    assert base != job_key("p", "src", {"a": 1}, "v2")   # code changed


def test_store_roundtrip_and_torn_tail(tmp_path):
    path = tmp_path / "rows.jsonl"
    with ResultStore(path) as store:
        store.append({"key": "k1", "status": "terminating"})
        store.append({"key": "k2", "status": "timeout"})
    # a crash mid-write leaves a torn line; resume must ignore it
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "k3", "stat')
    rows = ResultStore(path).load()
    assert set(rows) == {"k1", "k2"}
    assert rows["k2"]["status"] == "timeout"
    # duplicate keys: last row wins (retry-errors rewrites)
    with ResultStore(path) as store:
        store.append({"key": "k1", "status": "error"})
    assert ResultStore(path).load()["k1"]["status"] == "error"
    assert len(list(read_rows(path))) == 3


def test_store_tail_torn_inside_multibyte_codepoint(tmp_path):
    path = tmp_path / "rows.jsonl"
    with ResultStore(path) as store:
        store.append({"key": "k1", "status": "terminating", "note": "naïve λ"})
        store.append({"key": "k2", "status": "timeout"})
    # a crash can cut the file anywhere -- including *inside* a
    # multi-byte UTF-8 sequence, which a text-mode reader would refuse
    # to decode before it could even see the newline structure
    torn = '{"key": "k3", "note": "λ'.encode("utf-8")
    with path.open("ab") as fh:
        fh.write(torn[:-1])  # cut mid-codepoint
    rows = list(read_rows(path))
    assert [r["key"] for r in rows] == ["k1", "k2"]
    assert rows[0]["note"] == "naïve λ"
    assert ResultStore(path).load().keys() == {"k1", "k2"}
    # appending repairs the torn tail so the new row stays readable
    with ResultStore(path) as store:
        store.append({"key": "k4", "status": "error"})
    assert {r["key"] for r in read_rows(path)} == {"k1", "k2", "k4"}


# -- the corpus driver ----------------------------------------------------------


def test_run_corpus_and_resume_zero_recompute(tmp_path):
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest()
    summary = run_corpus(manifest, store, pool=inprocess_pool())
    assert summary.total == 2 and summary.ran == 2 and summary.skipped == 0
    assert summary.by_status == {"terminating": 1, "nonterminating": 1}
    rows_on_disk = list(read_rows(store))
    assert len(rows_on_disk) == 2
    assert all(r["status"] in ("terminating", "nonterminating")
               for r in rows_on_disk)

    # the acceptance property: a rerun resumes with ZERO recomputed jobs
    again = run_corpus(manifest, store, pool=inprocess_pool())
    assert again.ran == 0 and again.skipped == 2
    assert len(list(read_rows(store))) == 2  # nothing appended
    assert len(again.rows) == 2  # reused rows still feed the report


def test_resume_skips_completed_reruns_only_missing(tmp_path):
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest()
    run_corpus(manifest, store, pool=inprocess_pool())
    # grow the corpus: one new program joins, old rows must be reused
    manifest["programs"].append({"name": "c", "source": INLINE_TERMINATING
                                 .replace("a(", "c("),
                                 "expected": "terminating"})
    summary = run_corpus(manifest, store, pool=inprocess_pool())
    assert summary.total == 3 and summary.ran == 1 and summary.skipped == 2


def test_error_rows_recorded_and_retry_errors(tmp_path):
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest()
    manifest["programs"].append({"name": "broken",
                                 "source": "program broken(\n"})
    summary = run_corpus(manifest, store, pool=inprocess_pool())
    assert summary.errors == 1
    assert summary.by_status["error"] == 1
    # plain resume does not retry the error row...
    again = run_corpus(manifest, store, pool=inprocess_pool())
    assert again.ran == 0
    # ...retry_errors re-runs exactly the error rows
    third = run_corpus(manifest, store, pool=inprocess_pool(),
                       retry_errors=True)
    assert third.ran == 1 and third.skipped == 2


def test_retry_errors_reruns_out_of_taxonomy_rows(tmp_path):
    """A stored status outside the five is an error row to the report,
    so ``retry_errors`` re-runs it; a plain resume keeps it."""
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest()
    with ResultStore(store) as rows:
        for job in expand_manifest(manifest):
            rows.append({"key": job.key, "program": job.name,
                         "config": job.config_name, "status": "quarantined"})
    again = run_corpus(manifest, store, pool=inprocess_pool())
    assert again.ran == 0
    third = run_corpus(manifest, store, pool=inprocess_pool(),
                       retry_errors=True)
    assert third.ran == 2
    assert third.by_status == {"terminating": 1, "nonterminating": 1}


def test_run_corpus_through_real_workers(tmp_path):
    pool = WorkerPool(workers=2, task=analysis_task, task_timeout=30.0)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    store = tmp_path / "results.jsonl"
    summary = run_corpus(tiny_manifest(), store, pool=pool)
    assert summary.ran == 2
    assert summary.by_status == {"terminating": 1, "nonterminating": 1}
    rows = list(read_rows(store))
    assert all(r["executions"] == 1 for r in rows)
    # the full record travels back
    assert all(r["rounds"] and r["metrics"]["counters"] for r in rows)


def test_quarantined_rows_survive_every_retry_knob(tmp_path):
    """A job whose worker died twice is an ``error`` row: a plain
    resume (or ``retry_timeouts``) keeps it, ``retry_errors`` re-runs
    it."""
    from repro.runner._testing import crash_task
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest()

    def crashing_pool():
        return WorkerPool(workers=1, task=crash_task)

    pool = crashing_pool()
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: cannot kill a worker")
    summary = run_corpus(manifest, store, pool=pool)
    assert summary.by_status == {"error": 2}
    assert summary.errors == 2
    rows = list(read_rows(store))
    assert all(r["executions"] == 2 and "exit code" in r["error"]
               for r in rows)
    again = run_corpus(manifest, store, pool=crashing_pool(),
                       retry_timeouts=True)
    assert again.ran == 0 and again.skipped == 2
    third = run_corpus(manifest, store, pool=inprocess_pool(),
                       retry_errors=True)
    assert third.ran == 2 and third.skipped == 0
    assert third.by_status == {"terminating": 1, "nonterminating": 1}


def test_retry_timeouts_reruns_timeout_and_oom_rows(tmp_path):
    """``retry_timeouts`` re-runs exactly the timeout rows."""
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest(task_timeout=0.0)
    manifest["programs"].append({"name": "broken",
                                 "source": "program broken(\n"})
    first = run_corpus(manifest, store, pool=inprocess_pool())
    assert first.by_status == {"timeout": 2, "error": 1}
    # a plain resume keeps the timeout rows ...
    again = run_corpus(manifest, store, pool=inprocess_pool(),
                       task_timeout=30.0)
    assert again.ran == 0
    # ... --retry-timeouts re-runs them (here: with a real budget), and
    # leaves the error row to --retry-errors
    third = run_corpus(manifest, store, pool=inprocess_pool(),
                       task_timeout=30.0, retry_timeouts=True)
    assert third.ran == 2
    assert third.by_status == {"terminating": 1, "nonterminating": 1,
                               "error": 1}


def test_corpus_checkpoint_dir_flows_to_workers_and_warm_starts(tmp_path):
    store = tmp_path / "results.jsonl"
    ckpt = tmp_path / "ckpt"
    summary = run_corpus(tiny_manifest(), store, pool=inprocess_pool(),
                         checkpoint_dir=ckpt)
    assert summary.ran == 2
    # only the terminating job certifies modules to persist; the
    # diverging one refutes on its first lasso with nothing to save
    files = sorted(ckpt.glob("checkpoint_*.jsonl"))
    assert len(files) == 1
    saves = [row_counter(r, "checkpoint.saves") for r in summary.rows]
    assert sorted(saves)[0] == 0 and sorted(saves)[1] >= 1

    # a fresh run (fresh store) over the same corpus warm-starts the
    # checkpointed job and counts it in that row's metrics
    again = run_corpus(tiny_manifest(), tmp_path / "results2.jsonl",
                       pool=inprocess_pool(), checkpoint_dir=ckpt)
    assert again.ran == 2
    assert again.by_status == {"terminating": 1, "nonterminating": 1}
    restored = [row_counter(r, "checkpoint.rounds_restored")
                for r in again.rows]
    assert sorted(restored)[0] == 0 and sorted(restored)[1] >= 1
    warm = next(r for r in again.rows if r["status"] == "terminating")
    assert row_counter(warm, "checkpoint.rounds_restored") >= 1


def test_warm_corpus_report_sums_checkpoint_counters(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_corpus(tiny_manifest(), tmp_path / "cold.jsonl",
               pool=inprocess_pool(), checkpoint_dir=ckpt)
    warm = run_corpus(tiny_manifest(), tmp_path / "warm.jsonl",
                      pool=inprocess_pool(), checkpoint_dir=ckpt)
    counters = aggregate_rows(warm.rows)["default"].counters
    assert counters["checkpoint.rounds_restored"] >= 1
    for row in warm.rows:
        assert "checkpoint" not in row and "library" not in row


# -- reporting ------------------------------------------------------------------


def test_report_aggregates_solved_counts_and_metrics(tmp_path):
    store = tmp_path / "results.jsonl"
    summary = run_corpus(tiny_manifest(), store, pool=inprocess_pool())
    aggs = aggregate_rows(summary.rows)
    agg = aggs["default"]
    assert agg.jobs == 2
    assert agg.solved == 2 and agg.expected_known == 2
    assert agg.terminating == 1 and agg.nonterminating == 1
    assert agg.total_seconds > 0
    # the obs metrics snapshots flowed into the aggregate
    assert agg.counters["refinement.rounds"] >= 2
    table = render_table(aggs)
    assert "default" in table and "2/2" in table
    payload = to_dict(aggs)
    assert payload["default"]["solved"] == 2
    assert "refinement.rounds" in payload["default"]["counters"]


def test_report_counts_timeout_rows(tmp_path):
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest(task_timeout=0.0)
    summary = run_corpus(manifest, store, pool=inprocess_pool())
    agg = aggregate_rows(summary.rows)["default"]
    assert agg.timeout == 2
    assert agg.solved == 0


def _write_status_store(path, statuses):
    with open(path, "w", encoding="utf-8") as fh:
        for i, status in enumerate(statuses):
            row = {"key": f"k{i}", "name": f"p{i}", "config": "default",
                   "status": status, "seconds": 0.1}
            if status in ("terminating", "nonterminating"):
                row["verdict"] = row["expected"] = status
            fh.write(json.dumps(row) + "\n")


def test_report_exit_code_matrix(tmp_path, capsys):
    """Exit 0 = every row conclusive, 2 = inconclusive rows, 3 = broken
    rows or an empty store."""
    from repro.runner.report import main as report_main
    store = tmp_path / "rows.jsonl"
    cases = [
        (["terminating", "nonterminating"], 0),
        (["terminating", "unknown"], 2),
        (["timeout"], 2),
        (["terminating", "timeout"], 2),
        (["terminating", "error"], 3),
        (["error"], 3),
        (["timeout", "error"], 3),            # broken outranks inconclusive
    ]
    for statuses, expected_exit in cases:
        _write_status_store(store, statuses)
        assert report_main([str(store)]) == expected_exit, statuses
        capsys.readouterr()
    store.write_text("")
    assert report_main([str(store)]) == 3  # empty store is a broken run


@pytest.mark.parametrize("status", ["bogus", "oom", "quarantined",
                                    "cancelled", None])
def test_report_counts_out_of_taxonomy_rows_as_errors(tmp_path, capsys,
                                                      status):
    """A row whose status is not one of the five (a typo, or a status
    an older version wrote) is an error row, so the report exits 3
    rather than calling the store conclusive."""
    from repro.runner.report import main as report_main
    store = tmp_path / "rows.jsonl"
    row = {"key": "k0", "program": "p0", "config": "default",
           "seconds": 0.1}
    if status is not None:
        row["status"] = status
    store.write_text(json.dumps(row) + "\n")
    assert report_main([str(store), "--json"]) == 3
    agg = json.loads(capsys.readouterr().out)["default"]
    assert (agg["jobs"], agg["error"]) == (1, 1)


def test_report_and_trajectory_count_only_the_latest_row_per_key(
        tmp_path, capsys):
    """A ``--retry-timeouts`` re-run appends a second row for one job
    key; resume, ``report`` and ``trajectory`` must all see only the
    last one (a timeout that is now solved is not still a timeout)."""
    from repro.obs.trajectory import load_store
    from repro.runner.report import main as report_main
    store = tmp_path / "rows.jsonl"
    with ResultStore(store) as rows:
        rows.append({"key": "k0", "program": "p0", "config": "default",
                     "expected": "terminating", "status": "timeout",
                     "verdict": "unknown", "seconds": 5.0})
        rows.append({"key": "k0", "program": "p0", "config": "default",
                     "expected": "terminating", "status": "terminating",
                     "verdict": "terminating", "seconds": 0.5})
    assert ResultStore(store).load()["k0"]["status"] == "terminating"
    assert report_main([str(store), "--json"]) == 0
    agg = json.loads(capsys.readouterr().out)["default"]
    assert (agg["jobs"], agg["solved"], agg["timeout"]) == (1, 1, 0)
    [record] = load_store(store)
    assert record.metrics["jobs"] == 1
    assert record.metrics["timeout"] == 0


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
    # the trace carries the spans, the row the counts
    assert report.phases["round"].calls == len(row["rounds"]) == \
        row["metrics"]["counters"]["refinement.rounds"]


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
