"""Corpus harness: manifest expansion, the JSONL store, resume, report."""

from __future__ import annotations

import json

import pytest

from repro.runner.corpus import (expand_manifest, load_manifest, run_corpus,
                                 suite_manifest)
from repro.runner.pool import WorkerPool, analysis_task
from repro.runner.report import aggregate_rows, render_table, to_dict
from repro.runner.store import ResultStore, job_key, read_rows

INLINE_TERMINATING = ("program a(x):\n    while x > 0:\n"
                      "        x := x - 1\n")
INLINE_DIVERGING = ("program b(x):\n    while x > 0:\n"
                    "        x := x + 1\n")


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
    return row["stats"]["metrics"]["counters"].get(name, 0)


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


def test_run_corpus_fail_fast_cancels_rest(tmp_path):
    manifest = tiny_manifest(programs=[
        {"name": "bad", "source": "program bad(\n"},
        {"name": "a", "source": INLINE_TERMINATING,
         "expected": "terminating"},
        {"name": "b", "source": INLINE_DIVERGING,
         "expected": "nonterminating"},
    ])
    store = tmp_path / "results.jsonl"
    summary = run_corpus(manifest, store, pool=inprocess_pool(workers=1),
                         fail_fast=True)
    assert summary.total == 3
    assert summary.errors == 1
    assert len(summary.rows) < 3  # the rest of the matrix was cancelled
    # finished rows stay resumable: a fixed rerun picks up where it stopped
    again = run_corpus(manifest, store, pool=inprocess_pool(workers=1))
    assert again.skipped == len(summary.rows)


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
    assert all(r.get("stats") for r in rows)  # full stats travel back


def test_quarantined_rows_survive_every_retry_knob(tmp_path):
    from repro.runner._testing import crash_task
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest()

    def crashing_pool():
        return WorkerPool(workers=1, task=crash_task, max_retries=1,
                          retry_backoff=0.01)

    pool = crashing_pool()
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable: cannot quarantine")
    summary = run_corpus(manifest, store, pool=pool)
    assert summary.by_status == {"quarantined": 2}
    assert summary.quarantined == 2
    # poison jobs are pinned: neither resume nor the retry knobs may
    # respawn a job that killed its worker on every execution
    again = run_corpus(manifest, store, pool=crashing_pool(),
                       retry_errors=True, retry_timeouts=True)
    assert again.ran == 0 and again.skipped == 2


def test_retry_timeouts_reruns_timeout_and_oom_rows(tmp_path):
    store = tmp_path / "results.jsonl"
    manifest = tiny_manifest(task_timeout=0.0)
    first = run_corpus(manifest, store, pool=inprocess_pool())
    assert first.by_status == {"timeout": 2}
    # a plain resume keeps the timeout rows ...
    again = run_corpus(manifest, store, pool=inprocess_pool(),
                       task_timeout=30.0)
    assert again.ran == 0
    # ... --retry-timeouts re-runs them (here: with a real budget)
    third = run_corpus(manifest, store, pool=inprocess_pool(),
                       task_timeout=30.0, retry_timeouts=True)
    assert third.ran == 2
    assert third.by_status == {"terminating": 1, "nonterminating": 1}


def test_corpus_checkpoint_dir_flows_to_workers_and_telemetry(tmp_path):
    from repro.obs.telemetry import Telemetry
    store = tmp_path / "results.jsonl"
    ckpt = tmp_path / "ckpt"
    tel = Telemetry()
    summary = run_corpus(tiny_manifest(), store,
                         pool=inprocess_pool(telemetry=tel),
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
    tel2 = Telemetry()
    again = run_corpus(tiny_manifest(), tmp_path / "results2.jsonl",
                       pool=inprocess_pool(telemetry=tel2),
                       checkpoint_dir=ckpt)
    assert again.ran == 2
    assert again.by_status == {"terminating": 1, "nonterminating": 1}
    restored = [row_counter(r, "checkpoint.rounds_restored")
                for r in again.rows]
    assert sorted(restored)[0] == 0 and sorted(restored)[1] >= 1
    warm = next(r for r in again.rows if r["status"] == "terminating")
    assert row_counter(warm, "checkpoint.rounds_restored") >= 1
    # the fleet channel carries lifecycle events only, no count copies
    for events in (tel.events, tel2.events):
        assert any(e["type"] == "finished" for e in events)
        assert not any(e["type"].startswith("checkpoint.") for e in events)


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
    rows or an empty store.  Regression: ``cancelled`` rows (e.g. jobs
    `bench --fail-fast` stopped) carry no verdict, so a cancelled-only
    store used to exit 0 and let CI treat a half-cancelled corpus as clean."""
    from repro.runner.report import main as report_main
    store = tmp_path / "rows.jsonl"
    cases = [
        (["terminating", "nonterminating"], 0),
        (["terminating", "unknown"], 2),
        (["timeout"], 2),
        (["oom"], 2),
        (["cancelled"], 2),                   # the bugfix
        (["terminating", "cancelled"], 2),
        (["terminating", "error"], 3),
        (["quarantined"], 3),
        (["cancelled", "error"], 3),          # broken outranks inconclusive
    ]
    for statuses, expected_exit in cases:
        _write_status_store(store, statuses)
        assert report_main([str(store)]) == expected_exit, statuses
        capsys.readouterr()
    store.write_text("")
    assert report_main([str(store)]) == 3  # empty store is a broken run


def test_report_help_epilog_documents_cancelled(capsys):
    from repro.runner.report import main as report_main
    with pytest.raises(SystemExit) as err:
        report_main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert "cancelled" in out
