"""Solved-counts / time aggregation over a result store (Table 3 style).

``aggregate_rows`` folds JSONL rows into one line per configuration:
verdict counts, solved (verdict matches the manifest's expectation,
where one was given), timeouts, errors, and wall-clock totals -- the
shape of the paper's Table 3.  Because every completed row embeds its
run's :mod:`repro.obs` metrics snapshot, the aggregate also sums
every counter of those snapshots (refinement rounds, difference
explorations, cache hits, checkpoint and library work) across the
corpus, giving the per-configuration cost profile without re-tracing
anything.

``python -m repro report results.jsonl [--json]`` renders it.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from dataclasses import dataclass, field

from repro.runner.store import latest_rows

@dataclass
class ConfigAgg:
    """Aggregate over every row sharing one configuration."""

    config: str
    jobs: int = 0
    terminating: int = 0
    nonterminating: int = 0
    unknown: int = 0
    timeout: int = 0
    error: int = 0
    cancelled: int = 0
    #: Workers SIGKILLed by the memory-pressure watchdog.
    oom: int = 0
    #: Poison jobs that killed their worker on every execution.
    quarantined: int = 0
    #: Rows whose verdict matched a stated expectation.
    solved: int = 0
    #: Rows that *had* a stated (non-"unknown") expectation.
    expected_known: int = 0
    #: Rows with a *conclusive* verdict contradicting the stated
    #: expectation -- the one count the soundness firewall must keep at
    #: zero (chaos CI asserts exactly this).
    unsound: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.jobs if self.jobs else 0.0


def aggregate_rows(rows) -> dict[str, ConfigAgg]:
    """Fold result rows into per-configuration aggregates."""
    aggs: dict[str, ConfigAgg] = {}
    for row in rows:
        config = row.get("config") or "?"
        agg = aggs.get(config)
        if agg is None:
            agg = aggs[config] = ConfigAgg(config)
        agg.jobs += 1
        status = row.get("status", "?")
        if status in ("terminating", "nonterminating", "unknown",
                      "timeout", "error", "cancelled", "oom",
                      "quarantined"):
            setattr(agg, status, getattr(agg, status) + 1)
        expected = row.get("expected")
        if expected and expected != "unknown":
            agg.expected_known += 1
            verdict = row.get("verdict")
            if verdict == expected:
                agg.solved += 1
            elif verdict in ("terminating", "nonterminating"):
                agg.unsound += 1
        seconds = float(row.get("seconds") or 0.0)
        agg.total_seconds += seconds
        agg.max_seconds = max(agg.max_seconds, seconds)
        counters = (row.get("stats") or {}).get("metrics", {}).get("counters", {})
        for name, value in counters.items():
            agg.counters[name] = agg.counters.get(name, 0) + value
    return aggs


def to_dict(aggs: dict[str, ConfigAgg]) -> dict:
    return {
        config: {
            "jobs": a.jobs, "solved": a.solved,
            "expected_known": a.expected_known,
            "unsound": a.unsound,
            "terminating": a.terminating, "nonterminating": a.nonterminating,
            "unknown": a.unknown, "timeout": a.timeout, "error": a.error,
            "cancelled": a.cancelled, "oom": a.oom,
            "quarantined": a.quarantined,
            "total_seconds": a.total_seconds, "mean_seconds": a.mean_seconds,
            "max_seconds": a.max_seconds,
            "counters": dict(sorted(a.counters.items())),
        }
        for config, a in sorted(aggs.items())
    }


def render_table(aggs: dict[str, ConfigAgg]) -> str:
    """The human-readable Table 3 analogue."""
    # oom / quarantined columns only appear when some row carries those
    # statuses, keeping the common table compact.
    pressure = any(a.oom or a.quarantined for a in aggs.values())
    header = (f"{'config':<28} {'jobs':>5} {'solved':>7} {'term':>5} "
              f"{'nonterm':>8} {'unk':>5} {'t/o':>5} {'err':>5}")
    if pressure:
        header += f" {'oom':>5} {'quar':>5}"
    header += f" {'total(s)':>9} {'mean(s)':>8}"
    lines = [header]
    for config in sorted(aggs):
        a = aggs[config]
        solved = (f"{a.solved}/{a.expected_known}" if a.expected_known
                  else "-")
        line = (f"{config:<28} {a.jobs:>5d} {solved:>7} "
                f"{a.terminating:>5d} {a.nonterminating:>8d} "
                f"{a.unknown:>5d} {a.timeout:>5d} {a.error:>5d}")
        if pressure:
            line += f" {a.oom:>5d} {a.quarantined:>5d}"
        line += f" {a.total_seconds:>9.2f} {a.mean_seconds:>8.2f}"
        lines.append(line)
    if any(a.counters for a in aggs.values()):
        lines.append("\neffort (summed obs counters):")
        for config in sorted(aggs):
            counters = aggs[config].counters
            if counters:
                lines.append(f"  {config}")
                lines.extend(textwrap.wrap(
                    "  ".join(f"{n}={v}" for n, v in sorted(counters.items())),
                    width=100, initial_indent="    ",
                    subsequent_indent="    ", break_long_words=False,
                    break_on_hyphens=False))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Aggregate a corpus result store (Table 3 style).",
        epilog="exit codes: 0 = all rows conclusive, 2 = unknown/timeout/"
               "oom/cancelled rows, 3 = error/quarantined rows or an "
               "empty store")
    parser.add_argument("store", help="results JSONL written by `repro bench`")
    parser.add_argument("--json", action="store_true",
                        help="emit the aggregate as JSON")
    args = parser.parse_args(argv)
    rows = latest_rows(args.store)
    if not rows:
        print("no result rows in store", file=sys.stderr)
        return 3
    aggs = aggregate_rows(rows)
    try:
        if args.json:
            print(json.dumps(to_dict(aggs), indent=2))
        else:
            print(render_table(aggs))
    except BrokenPipeError:  # `repro report store | head` is fine
        sys.stderr.close()
    if any(a.error or a.quarantined for a in aggs.values()):
        return 3
    # Cancelled rows (jobs `bench --fail-fast` stopped) are
    # inconclusive too: no verdict was produced for them, so a
    # cancelled-only store must not exit 0 ("all rows conclusive").
    if any(a.unknown or a.timeout or a.oom or a.cancelled
           for a in aggs.values()):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
