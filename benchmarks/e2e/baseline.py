"""Take and compare baseline sets of the end-to-end benchmark.

A set holds, for every workload, several runs of ``run.py`` at one seed
and the median of each metric over them, with the raw (uncalibrated)
times of each run beside them.  ``take`` fills several sets in
alternation, one run of each workload at a time, so a slow spell of
the machine falls on both sets alike::

    python3 benchmarks/e2e/baseline.py take --runs 5 \\
        benchmarks/e2e/baseline/set1 benchmarks/e2e/baseline/set2
    python3 benchmarks/e2e/baseline.py take --runs 1 --trace 1 \\
        benchmarks/e2e/baseline/set1 benchmarks/e2e/baseline/set2
    python3 benchmarks/e2e/baseline.py compare \\
        benchmarks/e2e/baseline/set1 benchmarks/e2e/baseline/set2

``compare`` exits non-zero unless the two sets agree: the medians of
every end-to-end metric within the bound ``BENCHMARK.json`` gives it
(for ``setup_s``, that bound or 0.1 s, whichever is larger), and every
count and ratio identical in every run of both sets, traced or not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

SEED = 2018
SECONDS = 10
#: Set-up is interpreter start-up on most workloads, about 0.2 s, so a
#: share alone would be a few tens of milliseconds.
SETUP_FLOOR_S = 0.1


def set_file(directory: Path, workload: str, trace: int) -> Path:
    return directory / (f"{workload}-traced.json" if trace
                        else f"{workload}.json")


def one_run(workload: str, trace: int) -> dict:
    """Run ``run.py`` once; a summary of its report without the jobs."""
    command = [sys.executable, str(bench.HERE / "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", str(SECONDS),
               "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as out:
        # Traced runs are read from their last line: with ``--out`` they
        # would also record spans, which cost time.
        if not trace:
            command += ["--out", out]
        done = subprocess.run(command, cwd=bench.ROOT, capture_output=True,
                              text=True, timeout=bench.RUN_LIMIT_S + 10)
        if done.returncode != 0:
            raise SystemExit(f"{workload}: run.py exited {done.returncode}:"
                             f"\n{done.stdout}{done.stderr}")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {name: m["value"] for name, m in last["metrics"].items()}
        if trace:
            return {"correct": last["correct"], "attempted": last["attempted"],
                    "failed": last["failed"], "per_layer": metrics}
        full = json.loads(set_file(Path(out), workload, 0).read_text())
    return {"correct": full["correct"], "outcomes": full["outcomes"],
            "setups_s": full["setups_s"], "end_to_end": metrics,
            "raw": {name: value for name, (value, _) in full["raw"].items()},
            "counts": {name: value for name, (value, _) in
                       full["counts"].items()}}


def take(directories: list[Path], runs: int, trace: int,
         workloads: list[str]) -> None:
    results = {(d, w): [] for d in directories for w in workloads}
    for index in range(runs):
        for workload in workloads:
            # Alternate which set runs first.
            order = directories if index % 2 == 0 else directories[::-1]
            for directory in order:
                summary = one_run(workload, trace)
                results[directory, workload].append(summary)
                print(f"{directory.name} {workload} run {index + 1}: "
                      f"{summary.get('end_to_end', '')}", flush=True)
    for (directory, workload), summaries in results.items():
        key = "per_layer" if trace else "end_to_end"
        median = {name: statistics.median(s[key][name] for s in summaries)
                  for name in summaries[0][key]}
        directory.mkdir(parents=True, exist_ok=True)
        set_file(directory, workload, trace).write_text(json.dumps(
            {"workload": workload, "seed": SEED, "seconds": SECONDS,
             "trace": trace, "hash_seed": int(bench.HASH_SEED),
             "median": median, "runs": summaries}, indent=1) + "\n",
            encoding="utf-8")


def run_counts(summary: dict) -> dict:
    """The counts and ratios of one run; a traced run has them among its
    per-layer metrics, beside the timings."""
    if "counts" in summary:
        return summary["counts"]
    timings = {f"{b}.{kind}" for b in bench.BOUNDARIES
               for kind in ("calls", "self_s", "incl_s")}
    return {name: value for name, value in summary["per_layer"].items()
            if name not in timings and not name.startswith("trace.")}


def compare(first: Path, second: Path) -> bool:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    agree = True
    print(f"{'workload':9s} {'metric':13s} {first.name:>12s} "
          f"{second.name:>12s} {'change':>8s} {'allowed':>8s}")
    for workload in bench.WORKLOADS:
        sets = [json.loads(set_file(d, workload, 0).read_text())
                for d in (first, second)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (s["median"][name] for s in sets)
            allowed = metric["bound"]
            if name == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S / min(a, b))
            change = abs(b - a) / min(a, b)
            ok = change <= allowed
            agree &= ok
            print(f"{workload:9s} {name:13s} {a:12.4f} {b:12.4f} "
                  f"{change:8.1%} {allowed:8.1%}{'' if ok else '  TOO FAR'}")
        summaries = [s for d in (first, second) for trace in (0, 1)
                     if set_file(d, workload, trace).exists()
                     for s in json.loads(set_file(d, workload, trace)
                                         .read_text())["runs"]]
        distinct = {json.dumps(run_counts(s), sort_keys=True)
                    for s in summaries}
        wrong = [s for s in summaries if not s["correct"]]
        print(f"{workload:9s} counts identical over {len(summaries)} runs: "
              f"{len(distinct) == 1}; all correct: {not wrong}")
        agree &= len(distinct) == 1 and not wrong
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    taking = commands.add_parser("take")
    taking.add_argument("directories", type=Path, nargs="+")
    taking.add_argument("--runs", type=int, default=5)
    taking.add_argument("--trace", type=int, choices=(0, 1), default=0)
    taking.add_argument("--workload", nargs="+", choices=bench.WORKLOADS,
                        default=list(bench.WORKLOADS))
    comparing = commands.add_parser("compare")
    comparing.add_argument("first", type=Path)
    comparing.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "take":
        take(args.directories, args.runs, args.trace, args.workload)
        return 0
    return 0 if compare(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
