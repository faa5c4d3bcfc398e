"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import yardstick  # noqa: E402
from repro.automata.difference import difference  # noqa: E402
from repro.benchgen.programs import suite_by_name  # noqa: E402
from repro.benchgen.sdba_corpus import random_sdba  # noqa: E402
from repro.core.config import AnalysisConfig  # noqa: E402
from repro.core.refinement import TerminationResult, Verdict  # noqa: E402


def test_self_time_on_a_nested_call_tree():
    now = [0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 5

    def mid():
        now[0] += 10
        leaf_t()
        now[0] += 1
        leaf_t()

    def top():
        now[0] += 100
        mid_t()
        now[0] += 7

    def rec(depth):
        now[0] += 1
        if depth:
            rec_t(depth - 1)

    leaf_t = tracer.wrap("leaf", leaf)
    mid_t = tracer.wrap("mid", mid)
    top_t = tracer.wrap("top", top)
    rec_t = tracer.wrap("rec", rec)
    top_t()
    rec_t(2)

    assert tracer.totals["leaf"] == [2, 10, 10]
    assert tracer.totals["mid"] == [1, 11, 21]
    assert tracer.totals["top"] == [1, 107, 128]
    # Re-entry: every call's self time counts, inclusive time only once.
    assert tracer.totals["rec"] == [3, 3, 3]


def test_install_patches_where_callers_bind_and_uninstall_restores():
    import repro.core.refinement as refinement
    original = refinement.find_accepting_lasso
    tracer = layers.install()
    try:
        assert refinement.find_accepting_lasso is not original
        assert (sys.modules["repro.automata.difference"].difference
                is not difference)
        result = worker.api.prove_termination_source(
            suite_by_name()["count_down"].source, AnalysisConfig())
    finally:
        tracer.uninstall()
    assert result.verdict is Verdict.TERMINATING
    assert refinement.find_accepting_lasso is original
    assert tracer.totals["refinement"][0] == 1
    assert tracer.totals["emptiness.lasso_search"][0] >= 1
    assert tracer.totals["logic.fm.eliminate"][0] > 0
    refinement_incl = tracer.totals["refinement"][2]
    assert sum(acc[1] for acc in tracer.totals.values()) == refinement_incl


def test_every_per_layer_metric_names_what_it_should_move():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    moves = json.loads((HERE / "moves.json").read_text())
    assert list(moves) == [m["name"] for m in spec["per_layer"]]
    gated = {m["name"] for m in spec["end_to_end"]}
    # ``scaled`` runs by hand only, as the control for ``warm``.
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "scaled"]
    workloads = set(run.WORKLOADS)
    for name, entry in moves.items():
        assert set(entry) == {"moves", "flat"}, name
        if not name.startswith("trace."):
            assert entry["moves"], name
        for pair in entry["moves"] + entry["flat"]:
            assert pair["metric"] in gated and pair["workload"] in workloads


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_or_none(range(99)) is None
    assert run.p90_or_none(range(1, 101)) == 90
    assert run.p90_or_none(range(1, 113)) == 101


def test_one_slow_pass_moves_no_median():
    def one_pass(scale):
        jobs = [["a", 0.010 * scale, 1, "solved"],
                ["b", 0.024 * scale, 2, "solved"],
                ["c", 0.031 * scale, 1, "solved"]]
        return {"seconds": sum(job[1] for job in jobs), "jobs": jobs}

    report = {"passes": [one_pass(1), one_pass(2), one_pass(1)],
              "peak_rss_mb": 20.0}
    metrics = run.end_to_end(report, [0.2, 0.1, 0.3])
    assert metrics["setup_s"][0] == 0.2
    assert abs(metrics["wall_s"][0] - 0.065) < 1e-12
    assert abs(metrics["job_p50_ms"][0] - 24) < 1e-9
    assert abs(metrics["rounds_per_s"][0] - 4 / 0.065) < 1e-9


def test_calibration_averages_speed_over_time():
    nominal = yardstick.NOMINAL_S
    assert yardstick.calibrate(2.0, [nominal, nominal]) == 2.0
    # Half the job at full speed, half at half speed: the work done
    # would take 1.5 s at full speed throughout.
    assert abs(yardstick.calibrate(2.0, [nominal, 2 * nominal]) - 1.5) < 1e-12


def test_sampler_reads_while_busy_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = yardstick.Sampler(0.01).start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent < 0.2
    assert signal.getsignal(signal.SIGALRM) is previous


def test_verdict_rules():
    assert checks.verdict_status("terminating", "terminating") == checks.SOLVED
    assert checks.verdict_status("terminating", "nonterminating") == checks.WRONG
    assert checks.verdict_status("terminating", "unknown") == checks.OPEN
    assert checks.verdict_status("unknown", "nonterminating") == checks.WRONG
    assert checks.verdict_status("unknown", "terminating") == checks.OPEN


def test_planted_wrong_verdict_is_caught(monkeypatch):
    def planted(source, config, **stores):
        return TerminationResult(Verdict.NONTERMINATING)

    monkeypatch.setattr(worker.api, "prove_termination_source", planted)
    workload = worker.Analysis([suite_by_name()["count_down"]],
                               AnalysisConfig())
    record = workload.run_pass()
    assert [job[3] for job in record.jobs] == [checks.WRONG]
    assert workload.problems


def test_tampered_difference_is_caught():
    import random
    minuend, subtrahend = random_sdba(1), random_sdba(2)
    words = checks.sample_words(minuend.alphabet, random.Random(0), 20)
    honest = difference(minuend, subtrahend).automaton
    assert checks.difference_mismatches(minuend, subtrahend, honest,
                                        words) == []
    # Subtracting an automaton from itself leaves nothing; a result that
    # still accepts the minuend's words is wrong on its own lasso.
    assert checks.difference_mismatches(minuend, minuend, minuend, words)
    assert not checks.remainder_is_empty(minuend)


def test_two_suite_runs_give_identical_counts(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "suite",
             "--seconds", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        assert set(last["metrics"]) == {"setup_s", "wall_s", "job_p50_ms",
                                        "rounds_per_s", "peak_rss_mb"}
        reports.append(json.loads((out / "suite.json").read_text()))
    assert reports[0]["counts"] == reports[1]["counts"]
    assert reports[0]["outcomes"]["solved"] == 27 * reports[0]["outcomes"]["passes"]


def test_refuses_to_run_without_the_checker(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
