"""End-to-end benchmark of the termination checker.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload suite --seed 1 --seconds 10 --trace 0

``--workload`` takes one or more of suite, deep, scaled, warm and
automata (default: all, one after another).  ``BENCHMARK.json`` lists
all but ``scaled``, the cold control for ``warm``, which is left out
to keep the runs it asks for short.  Every workload runs in
fresh worker processes, one process at a time: set-up is timed three
times, from spawn to ``READY``, and the third worker goes on to the
timed passes and the reference checks.  Workers run with
``PYTHONHASHSEED`` pinned, so every count repeats exactly.  Every time
is calibrated to a host of fixed speed by the yardstick
(``yardstick.py``); the raw times are printed beside them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, which come from wrappers around each layer's entry points (see
``layers.py``).  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out DIR`` also writes
the full report of each workload (and its spans, when traced) there.
The exit status is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

WORKLOADS = ("suite", "deep", "scaled", "warm", "automata")
#: The hash seed steers set iteration order and with it counterexample
#: choice: across seeds one ``deep`` program's time moves by 60%, so it
#: is pinned rather than drawn from ``--seed``.
HASH_SEED = "2018"
SETUPS = 3
#: Yardstick loops per reading around a set-up; the parent idles then.
SETUP_REPS = 15
#: A workload that has not finished by then is killed: the run fails.
RUN_LIMIT_S = 170.0

#: Per-layer boundary names, in ``layers.BOUNDARIES`` order.
BOUNDARIES = tuple(dict.fromkeys(entry[0] for entry in layers.BOUNDARIES))
PER_PASS_COUNTS = ("refinement.rounds", "ranking.syntheses",
                   "logic.fm.eliminations", "logic.entailment_calls",
                   "logic.lp.pivots", "difference.calls",
                   "difference.explored_states", "complement.macrostates",
                   "simulation.pairs", "checkpoint.rounds_restored")


class BenchError(RuntimeError):
    """The workload could not produce a result."""


def p90_or_none(samples):
    """Nearest-rank 90th percentile, or None when fewer than ten samples
    lie beyond it (that is, fewer than 100 samples)."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(report: dict, setups: list[float]) -> dict:
    """The user-facing metrics: ``{name: (value, unit)}``.

    Each is a median over the passes, so a slow spell of the machine
    during one pass moves it little.  ``job_p50_ms`` is the median over
    jobs of each job's median over the passes: the two middle jobs of a
    ``suite`` pass lie a quarter apart, and a raw median over all
    samples jumps across that gap when one pass runs slow.
    """
    passes = report["passes"]
    by_job: dict[str, list[float]] = {}
    for p in passes:
        for name, seconds, *_ in p["jobs"]:
            by_job.setdefault(name, []).append(seconds)
    rates = [sum(job[2] for job in p["jobs"]) / p["seconds"] for p in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["seconds"] for p in passes), "s"),
        "job_p50_ms": (statistics.median(
            statistics.median(times) for times in by_job.values()) * 1000,
            "ms"),
        "rounds_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def outcomes(report: dict) -> dict:
    """Verdict accounting and the tail percentile, where it is defined."""
    jobs = [job for p in report["passes"] for job in p["jobs"]]
    statuses = [job[3] for job in jobs]
    p90 = p90_or_none([job[1] for job in jobs])
    return {
        "attempted": len(jobs),
        "solved": statuses.count("solved"),
        "wrong": statuses.count("wrong"),
        "failed": statuses.count("failed"),
        "failed_frac": ratio(statuses.count("failed"), len(jobs)),
        "job_p90_ms": None if p90 is None else p90 * 1000,
        "passes": len(report["passes"]),
    }


def counts(report: dict) -> dict:
    """Work counts of the first pass, and the ratios of useful outcomes
    to attempts.  At the pinned hash seed they repeat exactly."""
    raw = report["counts"]
    out = {name: (raw[name], "count/pass") for name in PER_PASS_COUNTS}
    out["difference.subsumption_hit_ratio"] = (ratio(
        raw["difference.subsumption_hits"],
        raw["difference.subsumption_hits"] + raw["difference.explored_states"]),
        "ratio")
    out["difference.cache.hit_ratio"] = (ratio(
        raw["difference.cache.hits"],
        raw["difference.cache.hits"] + raw["difference.cache.misses"]), "ratio")
    out["difference.antichain.peak"] = (raw["difference.antichain.peak"],
                                        "count")
    out["library.hit_ratio"] = (ratio(
        raw["library.hits"], raw["library.hits"] + raw["library.misses"]),
        "ratio")
    return out


def raw_times(report: dict, raw_setups: list[float]) -> dict:
    """The uncalibrated counterparts of the time metrics, for reading."""
    return {"raw_setup_s": (statistics.median(raw_setups), "s"),
            "raw_wall_s": (statistics.median(
                p["raw_seconds"] for p in report["passes"]), "s")}


def per_layer(report: dict) -> dict:
    """Traced per-pass time and calls of each layer, plus the counts and
    what the tracing itself cost.  Layer times are calibrated with the
    passes' overall yardstick scale.  The ratios compare them with the
    raw job time plus the yardstick readings taken during the jobs,
    which the wrappers charge to whichever layer they interrupt."""
    trace = report["trace"]
    passes = len(report["passes"])
    raw_s = sum(p["raw_seconds"] for p in report["passes"])
    job_s = raw_s + sum(p["sampled_seconds"] for p in report["passes"])
    scale = ratio(sum(p["seconds"] for p in report["passes"]), raw_s)
    out = {}
    for name in BOUNDARIES:
        calls, self_ns, incl_ns = trace["totals"].get(name, (0, 0, 0))
        out[f"{name}.calls"] = (calls / passes, "calls/pass")
        out[f"{name}.self_s"] = (self_ns * scale / 1e9 / passes, "s/pass")
        if name in layers.INCLUSIVE:
            out[f"{name}.incl_s"] = (incl_ns * scale / 1e9 / passes,
                                     "s/pass")
    out.update(counts(report))
    calls = sum(acc[0] for acc in trace["totals"].values())
    self_s = sum(acc[1] for acc in trace["totals"].values()) / 1e9
    out["trace.wrapper_ns_per_call"] = (trace["wrapper_ns_per_call"], "ns")
    out["trace.overhead_ratio"] = (
        ratio(calls * trace["wrapper_ns_per_call"] / 1e9, job_s), "ratio")
    out["trace.accounted_ratio"] = (ratio(self_s, job_s), "ratio")
    return out


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    remaining = deadline - time.perf_counter()
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
    if not ready:
        raise BenchError("worker did not become ready in time")
    return proc.stdout.readline()


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               work: Path, spans: Path | None
               ) -> tuple[list[float], list[float], dict]:
    """Time ``SETUPS`` worker set-ups; the last worker measures.

    Returns the calibrated set-up times, the raw ones, and the report.
    Each set-up is calibrated by the yardstick readings the worker took
    while it set up, and by two taken here: just before the spawn, and
    just after ``READY``, while the worker idles.
    """
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_FAULT_PLAN", None)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups: list[float] = []
    raw_setups: list[float] = []
    for index in range(SETUPS):
        last = index == SETUPS - 1
        command = [sys.executable, "-u", str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--work", str(work / f"setup{index}")]
        if spans is not None and last:
            command += ["--spans", str(spans)]
        before = yardstick.reading(SETUP_REPS)
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            line = _read_line(proc, deadline)
            elapsed = time.perf_counter() - start
            if not line.startswith("READY "):
                raise BenchError(f"{workload}: worker failed during set-up")
            sampled = json.loads(line[len("READY "):])
            raw = elapsed - sampled["spent"]
            raw_setups.append(raw)
            setups.append(yardstick.calibrate(
                raw, [before, *sampled["samples"],
                      yardstick.reading(SETUP_REPS)]))
            output, _ = proc.communicate("go\n" if last else "stop\n",
                                         timeout=deadline - time.perf_counter())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: over the {RUN_LIMIT_S:.0f} s limit")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited {proc.returncode}")
    lines = [line for line in output.splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError(f"{workload}: worker printed no report")
    return setups, raw_setups, json.loads(lines[-1])


def show(label: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{label:9s} {name:40s} {value:14.6f} {unit}")


def run(workload: str, args) -> bool:
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    spans = None
    if args.out is not None and args.trace:
        spans = args.out / f"{workload}-spans.jsonl"
    try:
        setups, raw_setups, report = run_worker(
            workload, args.seed, args.seconds, args.trace, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    e2e = end_to_end(report, setups)
    raw = raw_times(report, raw_setups)
    tally = outcomes(report)
    correct = tally["wrong"] == 0 and not report["problems"]
    print(f"{workload}: seed {args.seed}, hash seed {HASH_SEED}, "
          f"{tally['passes']} passes, {tally['attempted']} jobs, "
          f"{tally['solved']} solved, {tally['wrong']} wrong, "
          f"{tally['failed']} failed")
    for problem in report["problems"][:10]:
        print(f"{workload}: CHECK FAILED: {problem}")
    if tally["job_p90_ms"] is None:
        print(f"{workload}: job_p90_ms omitted: {tally['attempted']} samples, "
              f"fewer than 10 beyond it")
    else:
        print(f"{workload}: job_p90_ms {tally['job_p90_ms']:.3f} ms "
              f"(n={tally['attempted']})")
    layer_metrics = per_layer(report) if args.trace else None
    if layer_metrics is None:
        show(workload, e2e)
        show(workload, raw)
        show(workload, counts(report))
        chosen = e2e
    else:
        show(workload, layer_metrics)
        chosen = layer_metrics
    if args.out is not None:
        name = f"{workload}-traced.json" if args.trace else f"{workload}.json"
        full = {"workload": workload, "seed": args.seed,
                "hash_seed": int(HASH_SEED), "seconds": args.seconds,
                "trace": args.trace, "setups_s": setups,
                "raw_setups_s": raw_setups, "correct": correct,
                "outcomes": tally, "end_to_end": e2e, "raw": raw,
                "counts": counts(report),
                "per_layer": layer_metrics, "report": report}
        (args.out / name).write_text(json.dumps(full, indent=1) + "\n",
                                     encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()}}), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the termination checker.")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so the ``finally`` blocks stop the
    # worker and remove the scratch stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no checker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for workload in args.workload:
        try:
            all_correct &= run(workload, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
