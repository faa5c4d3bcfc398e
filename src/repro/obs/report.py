"""Per-phase time breakdown of a trace file.

``python -m repro.obs.report trace.jsonl`` aggregates the span records
written by :class:`repro.obs.trace.Tracer` into a per-phase table:
call counts, cumulative seconds (span durations summed by name), self
seconds (duration minus direct children -- the phase's own work), and
the top-k hottest individual spans.  ``--json`` emits the same
breakdown machine-readably.

Self times partition the traced wall-clock exactly: summed over all
phases they equal the cumulative time of the root spans, so the
"accounted" line measures how much of the file's wall-clock extent the
spans cover.  (Cumulative time double-counts a phase nested under
itself, as in any tree profiler; no span in the shipped taxonomy is
recursive.)

The aggregation helpers are reused by ``python -m repro --profile``,
which renders the same table from the in-memory records of the run's
tracer.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field


@dataclass
class PhaseAgg:
    """Aggregate over every span sharing one name."""

    name: str
    calls: int = 0
    cumulative: float = 0.0
    self_seconds: float = 0.0
    max_dur: float = 0.0


@dataclass
class TraceReport:
    """The aggregated view of one trace."""

    phases: dict[str, PhaseAgg] = field(default_factory=dict)
    wall: float = 0.0
    spans: list[dict] = field(default_factory=list)
    #: Spans the tracer closed as ``truncated`` (still open when the
    #: run ended) -- their durations are lower bounds, not self-times.
    truncated: int = 0

    @property
    def accounted(self) -> float:
        """Fraction of the wall-clock extent covered by span self-times."""
        if self.wall <= 0:
            return 0.0
        return sum(p.self_seconds for p in self.phases.values()) / self.wall

    def hottest(self, k: int = 5) -> list[dict]:
        return sorted(self.spans, key=lambda s: s.get("dur", 0.0),
                      reverse=True)[:k]

    def to_dict(self, top: int = 5) -> dict:
        return {
            "wall_seconds": self.wall,
            "accounted": self.accounted,
            "truncated_spans": self.truncated,
            "phases": {
                name: {"calls": p.calls, "cumulative_seconds": p.cumulative,
                       "self_seconds": p.self_seconds, "max_seconds": p.max_dur}
                for name, p in sorted(self.phases.items(),
                                      key=lambda kv: -kv[1].self_seconds)},
            "hottest": [{"name": s["name"], "dur": s.get("dur", 0.0),
                         "t0": s.get("t0", 0.0),
                         "attrs": s.get("attrs", {})}
                        for s in self.hottest(top)],
        }


def load_records(path: str) -> list[dict]:
    """Read a JSONL trace, skipping torn or garbage lines.

    A SIGKILLed worker leaves at most one half-written trailing line
    (the tracer flushes per record); :func:`repro.runner.store.read_rows`
    drops it, so a partial trace still renders.
    """
    from repro.runner.store import read_rows
    return list(read_rows(path))


def aggregate(records: list[dict]) -> TraceReport:
    """Fold span records into per-phase aggregates.

    Tolerates partial traces: spans missing fields are defaulted (a
    missing duration counts as zero), and ``truncated`` spans -- open
    when the run died -- are aggregated with their observed lower-bound
    durations and counted separately.
    """
    report = TraceReport()
    spans = [r for r in records
             if r.get("type") == "span" and r.get("name") is not None]
    report.spans = spans
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + span.get("dur", 0.0))
    t_min, t_max = float("inf"), float("-inf")
    for span in spans:
        if span.get("truncated"):
            report.truncated += 1
        agg = report.phases.get(span["name"])
        if agg is None:
            agg = report.phases[span["name"]] = PhaseAgg(span["name"])
        dur = float(span.get("dur", 0.0))
        t0 = float(span.get("t0", 0.0))
        agg.calls += 1
        agg.cumulative += dur
        agg.self_seconds += dur - child_time.get(span.get("id"), 0.0)
        agg.max_dur = max(agg.max_dur, dur)
        t_min = min(t_min, t0)
        t_max = max(t_max, t0 + dur)
    report.wall = max(0.0, t_max - t_min) if spans else 0.0
    return report


def render(report: TraceReport, top: int = 5) -> str:
    """The human-readable per-phase table."""
    lines = []
    wall = report.wall
    lines.append(f"{'phase':<22} {'calls':>7} {'cum(s)':>10} {'self(s)':>10} "
                 f"{'self%':>7} {'avg(ms)':>9} {'max(ms)':>9}")
    ordered = sorted(report.phases.values(), key=lambda p: -p.self_seconds)
    for p in ordered:
        pct = 100.0 * p.self_seconds / wall if wall else 0.0
        avg_ms = 1000.0 * p.cumulative / p.calls if p.calls else 0.0
        lines.append(f"{p.name:<22} {p.calls:>7d} {p.cumulative:>10.4f} "
                     f"{p.self_seconds:>10.4f} {pct:>6.1f}% "
                     f"{avg_ms:>9.2f} {1000.0 * p.max_dur:>9.2f}")
    lines.append(f"accounted: {100.0 * report.accounted:.1f}% of "
                 f"{wall:.4f}s wall-clock")
    if report.truncated:
        lines.append(f"truncated: {report.truncated} span(s) still open "
                     f"when the run ended (durations are lower bounds)")
    hottest = report.hottest(top)
    if hottest:
        lines.append(f"\nhottest spans (top {len(hottest)}):")
        for s in hottest:
            attrs = s.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in attrs.items())
            if s.get("truncated"):
                detail = (detail + " " if detail else "") + "(truncated)"
            lines.append(f"  {1000.0 * s.get('dur', 0.0):>9.2f}ms  "
                         f"{s['name']:<18} {detail}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Per-phase time breakdown of a repro trace file.")
    parser.add_argument("trace", help="JSONL trace written by --trace")
    parser.add_argument("--top", type=int, default=5,
                        help="number of hottest spans to list (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit the breakdown as JSON instead of a table")
    args = parser.parse_args(argv)
    report = aggregate(load_records(args.trace))
    if not report.spans:
        print("no span records in trace", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(json.dumps(report.to_dict(args.top), indent=2))
        else:
            print(render(report, args.top))
    except BrokenPipeError:  # `... | head` is fine
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
