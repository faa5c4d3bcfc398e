"""The perf trajectory: BENCH_*.json histories compared across commits.

Five PRs of instrumentation emit machine-readable measurements --
``benchmarks/conftest.write_bench_json`` drops a ``BENCH_<name>.json``
per bench, ``repro bench`` leaves resumable JSONL result stores -- but
nothing *ingested* them: the perf trajectory was write-only.  This
module closes the loop::

    python -m repro trajectory benchmarks/baselines bench-out

ingests one **run** per input path (a directory of ``BENCH_*.json``
files and/or ``*.jsonl`` corpus stores; a single directory whose
records carry several git commits is split into one run per commit),
aligns records across runs by **bench name + config** (the commit is
the run's identity), computes per-family deltas for every numeric
metric, and gates on thresholded regression verdicts:

- **time** metrics (``seconds``/``time`` in the name): regression when
  the candidate is more than ``threshold`` slower *and* the absolute
  growth exceeds ``min_seconds`` (sub-noise timings never gate),
- **solved** counts: regression when the solved fraction drops by more
  than ``threshold``,
- **badness** counts (``error``/``timeout``/``unsound``/``crash``):
  regression when they grow beyond ``threshold`` (any growth from a
  zero baseline gates),
- everything else (explored states, cache hits, rounds, ...) is an
  **effort** metric: reported as a delta, gated only under
  ``--gate-effort``.

Exit codes extend the runner's deterministic taxonomy: **0** aligned
and clean, **2** nothing to compare (one run, or no aligned pairs),
**3** regression beyond threshold.  ``--json`` emits the full
machine-readable comparison for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Bump when the BENCH_*.json envelope changes shape (see
#: ``benchmarks/conftest.write_bench_json``); readers stay tolerant of
#: records without the field (schema 1 predates the stamp).
SCHEMA_VERSION = 2

#: Top-level envelope keys that are run metadata, not measurements.
_ENVELOPE_KEYS = frozenset({"bench", "unix_time", "python", "git_commit",
                            "host", "schema_version"})


# -- records ------------------------------------------------------------------


@dataclass
class BenchRecord:
    """One measurement record: a flattened BENCH_*.json or store slice."""

    bench: str
    config_key: str          # canonical JSON of the run configuration
    metrics: dict            # dotted metric path -> numeric value
    commit: str | None = None
    host: str | None = None
    unix_time: float | None = None
    path: str = ""

    @property
    def align_key(self) -> tuple[str, str]:
        """Records align across runs by bench name + configuration."""
        return (self.bench, self.config_key)


@dataclass
class TrajectoryRun:
    """One point on the trajectory: a labelled set of records."""

    label: str
    records: list = field(default_factory=list)
    commit: str | None = None

    @property
    def by_key(self) -> dict:
        return {r.align_key: r for r in self.records}

    def order_time(self) -> float:
        stamps = [r.unix_time for r in self.records if r.unix_time]
        return min(stamps) if stamps else float("inf")


def flatten_metrics(obj, prefix: str = "") -> dict:
    """Numeric leaves of a nested JSON object as dotted paths.

    Booleans are excluded (they are flags, not measurements); lists are
    indexed so per-item series stay alignable when lengths match.
    """
    out: dict = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten_metrics(
                value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.update(flatten_metrics(value, f"{prefix}[{i}]"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def load_bench_file(path: str | Path) -> BenchRecord | None:
    """Parse one ``BENCH_*.json``; None when unreadable (stay tolerant
    -- a torn file from a killed bench run must not sink the report)."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    config = record.get("config") or {}
    payload = {k: v for k, v in record.items()
               if k not in _ENVELOPE_KEYS and k != "config"}
    return BenchRecord(
        bench=str(record.get("bench") or path.stem),
        config_key=json.dumps(config, sort_keys=True),
        metrics=flatten_metrics(payload),
        commit=record.get("git_commit"),
        host=record.get("host"),
        unix_time=record.get("unix_time"),
        path=str(path))


def load_store(path: str | Path) -> list:
    """A corpus JSONL store as one record per configuration.

    The Table-3 aggregation already computes exactly the comparable
    scalars -- solved, status counts, wall-clock, summed effort
    counters -- so a store enters the trajectory as pre-aggregated
    ``corpus:<store stem>`` records, one per config line.
    """
    from repro.runner.report import aggregate_rows, to_dict
    from repro.runner.store import latest_rows

    path = Path(path)
    records = []
    for config, agg in to_dict(aggregate_rows(latest_rows(path))).items():
        records.append(BenchRecord(
            bench=f"corpus:{path.stem}",
            config_key=json.dumps({"config": config}, sort_keys=True),
            metrics=flatten_metrics(agg),
            path=str(path)))
    return records


def _load_path(path: Path) -> list:
    records = []
    if path.is_dir():
        for bench_file in sorted(path.rglob("BENCH_*.json")):
            record = load_bench_file(bench_file)
            if record is not None:
                records.append(record)
        for store in sorted(path.rglob("*.jsonl")):
            records.extend(load_store(store))
    elif path.suffix == ".jsonl":
        records.extend(load_store(path))
    else:
        record = load_bench_file(path)
        if record is not None:
            records.append(record)
    return records


def collect_runs(paths, by_commit: bool = False) -> list:
    """Fold input paths into ordered trajectory runs.

    Default: one run per path, in argument order (the caller's
    chronology).  With ``by_commit`` -- or when a *single* path yields
    records from several commits -- records regroup by commit, ordered
    by their earliest timestamp: a flat archive directory of stamped
    BENCH files becomes a history without any directory discipline.
    """
    paths = [Path(p) for p in paths]
    runs = []
    for path in paths:
        records = _load_path(path)
        if records:
            commits = {r.commit for r in records if r.commit}
            runs.append(TrajectoryRun(
                label=path.name or str(path), records=records,
                commit=commits.pop() if len(commits) == 1 else None))
    if not by_commit and len(runs) == 1:
        by_commit = len({r.commit for r in runs[0].records
                         if r.commit}) > 1
    if by_commit:
        grouped: dict = {}
        for run in runs:
            for record in run.records:
                commit = record.commit or "unstamped"
                grouped.setdefault(commit, []).append(record)
        runs = [TrajectoryRun(label=commit, records=records, commit=commit)
                for commit, records in grouped.items()]
        runs.sort(key=TrajectoryRun.order_time)
    return runs


# -- comparison ---------------------------------------------------------------

#: Metric kinds and their gating semantics.
KIND_TIME = "time"            # lower is better, noise-floored
KIND_SOLVED = "solved"        # higher is better
KIND_BADNESS = "badness"      # lower is better, zero-anchored
KIND_EFFORT = "effort"        # informational unless --gate-effort

_BADNESS_MARKERS = ("error", "unsound", "crash", "timeout")


def classify(metric: str) -> str:
    """Gate semantics of a metric, from its (dotted) name."""
    leaf = metric.rsplit(".", 1)[-1].lower()
    full = metric.lower()
    if "seconds" in full or leaf.endswith("time") or leaf == "time":
        return KIND_TIME
    if "solved" in full or "speedup" in full:
        return KIND_SOLVED
    if any(marker in leaf for marker in _BADNESS_MARKERS):
        return KIND_BADNESS
    return KIND_EFFORT


@dataclass
class Delta:
    """One metric compared between the baseline and a candidate run."""

    bench: str
    config: str
    metric: str
    kind: str
    base: float
    cand: float
    #: Signed relative change in the *bad* direction: positive means
    #: worse (slower / fewer solved / more errors), negative better.
    rel: float
    gated: bool
    regression: bool

    def to_dict(self) -> dict:
        return {"bench": self.bench, "config": self.config,
                "metric": self.metric, "kind": self.kind,
                "base": self.base, "cand": self.cand,
                "rel": None if self.rel in (float("inf"),) else round(self.rel, 6),
                "gated": self.gated, "regression": self.regression}


def compare_records(base: BenchRecord, cand: BenchRecord,
                    threshold: float, min_seconds: float,
                    gate_effort: bool = False) -> list:
    """Deltas for every metric the two aligned records share."""
    deltas = []
    config = json.loads(base.config_key)
    config_label = (config.get("config")
                    or json.dumps(config, sort_keys=True))
    for metric in sorted(set(base.metrics) & set(cand.metrics)):
        b, c = base.metrics[metric], cand.metrics[metric]
        kind = classify(metric)
        if kind == KIND_SOLVED:
            worse = b - c           # a drop is bad
        else:
            worse = c - b           # growth is bad
        if b > 0:
            rel = worse / b
        else:
            rel = float("inf") if worse > 0 else 0.0
        gated = kind != KIND_EFFORT or gate_effort
        regression = gated and rel > threshold
        if kind == KIND_TIME and abs(worse) < min_seconds:
            regression = False      # sub-noise timing wiggle
        deltas.append(Delta(base.bench, str(config_label), metric, kind,
                            b, c, rel, gated, regression))
    return deltas


@dataclass
class Comparison:
    """One candidate run measured against the baseline."""

    baseline: str
    candidate: str
    deltas: list = field(default_factory=list)
    aligned: int = 0
    unaligned: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        return [d for d in self.deltas if d.regression]

    def to_dict(self) -> dict:
        return {"baseline": self.baseline, "candidate": self.candidate,
                "aligned": self.aligned, "unaligned": self.unaligned,
                "regressions": [d.to_dict() for d in self.regressions],
                "deltas": [d.to_dict() for d in self.deltas]}


def compare_runs(base: TrajectoryRun, cand: TrajectoryRun,
                 threshold: float = 0.1, min_seconds: float = 0.05,
                 gate_effort: bool = False) -> Comparison:
    comparison = Comparison(baseline=base.label, candidate=cand.label)
    base_by, cand_by = base.by_key, cand.by_key
    for key in sorted(set(base_by) & set(cand_by)):
        comparison.aligned += 1
        comparison.deltas.extend(compare_records(
            base_by[key], cand_by[key], threshold=threshold,
            min_seconds=min_seconds, gate_effort=gate_effort))
    for key in sorted(set(base_by) ^ set(cand_by)):
        comparison.unaligned.append(key[0])
    return comparison


# -- rendering ----------------------------------------------------------------


def _fmt_rel(delta: Delta) -> str:
    if delta.rel == float("inf"):
        return "+inf"
    return f"{delta.rel:+.1%}"


def render(comparisons: list, verbose: bool = False) -> str:
    """The human trajectory table: regressions first, then the gated
    deltas that moved, improvements marked."""
    lines = []
    for comp in comparisons:
        lines.append(f"{comp.baseline} -> {comp.candidate}: "
                     f"{comp.aligned} aligned bench/config cells, "
                     f"{len(comp.regressions)} regression(s)")
        if comp.unaligned:
            lines.append(f"  unaligned (only in one run): "
                         f"{', '.join(sorted(set(comp.unaligned))[:6])}"
                         f"{' ...' if len(set(comp.unaligned)) > 6 else ''}")
        shown = [d for d in comp.deltas
                 if d.regression or (d.gated and abs(d.rel) > 0.02)
                 or verbose]
        if not shown and comp.aligned:
            lines.append("  no gated metric moved more than 2%")
        for delta in sorted(shown, key=lambda d: (not d.regression,
                                                  -abs(d.rel))):
            flag = ("REGRESSION" if delta.regression
                    else "improved" if delta.rel < 0 else "")
            lines.append(f"  {delta.bench:<28} {delta.metric:<44} "
                         f"{delta.base:>10.4g} -> {delta.cand:>10.4g} "
                         f"{_fmt_rel(delta):>8} [{delta.kind}] {flag}")
    return "\n".join(lines)


def to_dict(runs: list, comparisons: list, threshold: float) -> dict:
    regressions = [d for c in comparisons for d in c.regressions]
    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": threshold,
        "runs": [{"label": r.label, "commit": r.commit,
                  "records": len(r.records)} for r in runs],
        "comparisons": [c.to_dict() for c in comparisons],
        "verdict": "regression" if regressions else (
            "ok" if any(c.aligned for c in comparisons) else "no-overlap"),
    }


# -- CLI ----------------------------------------------------------------------


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trajectory",
        description="Compare BENCH_*.json histories / corpus stores "
                    "across runs and gate on perf regressions.",
        epilog="exit codes: 0 = aligned and clean, 2 = nothing to "
               "compare, 3 = regression beyond threshold")
    parser.add_argument("paths", nargs="+",
                        help="runs to compare, oldest first: directories "
                             "of BENCH_*.json files, single BENCH files, "
                             "or corpus result stores (*.jsonl); one "
                             "directory spanning several stamped commits "
                             "is split into per-commit runs")
    parser.add_argument("--baseline", default=None, metavar="LABEL",
                        help="run label (path basename or commit) to "
                             "compare against (default: the first run)")
    parser.add_argument("--threshold", type=float, default=0.1,
                        help="relative slowdown/drop that counts as a "
                             "regression (default 0.1 = 10%%)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="absolute time-growth noise floor in seconds "
                             "(default 0.05)")
    parser.add_argument("--gate-effort", action="store_true",
                        help="also gate effort counters (explored states, "
                             "cache misses, ...), not just time/solved/"
                             "error metrics")
    parser.add_argument("--by-commit", action="store_true",
                        help="regroup all records by their stamped git "
                             "commit instead of by input path")
    parser.add_argument("--verbose", action="store_true",
                        help="list every aligned delta, not just the "
                             "moved/gated ones")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable comparison on "
                             "stdout instead of the table")
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="additionally write the machine-readable "
                             "comparison to FILE")
    args = parser.parse_args(argv)

    runs = collect_runs(args.paths, by_commit=args.by_commit)
    if len(runs) < 2:
        print("trajectory needs at least two runs to compare "
              f"(found {len(runs)})", file=sys.stderr)
        return 2
    if args.baseline is not None:
        matches = [r for r in runs
                   if r.label == args.baseline or r.commit == args.baseline]
        if not matches:
            print(f"no run labelled {args.baseline!r} "
                  f"(have {[r.label for r in runs]})", file=sys.stderr)
            return 2
        baseline = matches[0]
    else:
        baseline = runs[0]

    comparisons = [compare_runs(baseline, run, threshold=args.threshold,
                                min_seconds=args.min_seconds,
                                gate_effort=args.gate_effort)
                   for run in runs if run is not baseline]
    payload = to_dict(runs, comparisons, args.threshold)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render(comparisons, verbose=args.verbose))
        regressions = [d for c in comparisons for d in c.regressions]
        print(f"\nverdict: {payload['verdict']}"
              + (f" ({len(regressions)} gated metric(s) past "
                 f"{args.threshold:.0%})" if regressions else ""))

    if payload["verdict"] == "regression":
        return 3
    if payload["verdict"] == "no-overlap":
        print("no aligned (bench, config) cells between runs",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
