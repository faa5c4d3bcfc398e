"""The ``bench`` subcommand of ``python -m repro``.

``bench`` evaluates a corpus manifest through the worker pool and
streams rows to a resumable JSONL store::

    python -m repro bench benchmarks/manifests/smoke.json \\
        --workers 4 --task-timeout 5 --store results.jsonl

It uses the deterministic exit-code scheme shared by every
``python -m repro`` subcommand: **0** all rows conclusive, **2** some
row unknown / timed out, **3** error rows or unusable input (empty
store).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.telemetry import FleetMonitor, Telemetry
from repro.runner import report as runner_report
from repro.runner.corpus import load_manifest, run_corpus, suite_manifest
from repro.runner.pool import WorkerPool, analysis_task


def _events_path(args) -> str | None:
    """Where the run's ``events.jsonl`` goes: ``--events`` wins, else
    ``--trace-dir`` implies ``<trace-dir>/events.jsonl``."""
    if getattr(args, "events", None):
        return args.events
    if getattr(args, "trace_dir", None):
        return os.path.join(args.trace_dir, "events.jsonl")
    return None


def bench_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Evaluate a corpus manifest through the worker pool.",
        epilog="exit codes: 0 = all rows conclusive, 2 = some row "
               "unknown, timed out, or oom-killed, 3 = error or "
               "quarantined rows (or --fail-fast cancellation)")
    parser.add_argument("manifest", nargs="?", default=None,
                        help="corpus manifest JSON (default: the full "
                             "benchgen suite)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: min(cpu, 8))")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task budget in seconds (overrides the "
                             "manifest; hard-killed one grace period past it)")
    parser.add_argument("--store", default="results.jsonl",
                        help="append-only JSONL result store "
                             "(default: results.jsonl)")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-run jobs even if the store has their rows")
    parser.add_argument("--retry-errors", action="store_true",
                        help="re-run jobs whose stored status is 'error'")
    parser.add_argument("--retry-timeouts", action="store_true",
                        help="re-run jobs whose stored status is 'timeout' "
                             "or 'oom' (with --checkpoint-dir they "
                             "warm-start from their certified rounds)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="durable per-job refinement checkpoints: a "
                             "killed run resumes from its certified rounds "
                             "(see README 'Resuming a killed analysis')")
    parser.add_argument("--module-library", metavar="PATH", default=None,
                        help="shared cross-program certified-module library "
                             "(append-only JSONL): workers reuse published "
                             "modules before synthesizing and publish what "
                             "they certify (see README 'Warm-starting a "
                             "corpus from a module library')")
    parser.add_argument("--max-rss", type=float, default=None, metavar="MB",
                        help="memory-pressure watchdog: SIGKILL any worker "
                             "whose resident set exceeds this many MB and "
                             "record the job as status 'oom'")
    parser.add_argument("--max-retries", type=int, default=1,
                        help="respawns granted to a job whose worker died "
                             "before it is quarantined (default 1)")
    parser.add_argument("--inprocess", action="store_true",
                        help="run jobs in-process (no subprocesses; "
                             "cooperative timeouts only)")
    parser.add_argument("--report-json", metavar="FILE", default=None,
                        help="write the aggregate report as JSON")
    parser.add_argument("--fail-on-error", action="store_true",
                        help="(kept for compatibility; error rows already "
                             "exit 3 under the deterministic scheme)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="cancel the remaining jobs after the first "
                             "'error' row (finished rows stay resumable)")
    parser.add_argument("--fault-plan", metavar="JSON_OR_FILE", default=None,
                        help="deterministic fault plan (inline JSON or a "
                             "file containing it) injected into every "
                             "config of the run -- chaos testing; see "
                             "DESIGN.md 'Robustness'")
    parser.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="per-job JSONL traces: every worker writes "
                             "trace_<job key>.jsonl here (render with "
                             "python -m repro.obs.report) and the fleet "
                             "event log goes to DIR/events.jsonl")
    parser.add_argument("--events", metavar="FILE", default=None,
                        help="write the fleet telemetry event log "
                             "(heartbeats + job lifecycle) as JSONL")
    parser.add_argument("--heartbeat-interval", type=float, default=2.0,
                        help="seconds between per-job heartbeats "
                             "(default 2.0)")
    parser.add_argument("--quiet", action="store_true",
                        help="no per-row progress / live status lines")
    args = parser.parse_args(argv)

    if args.manifest is not None:
        manifest = load_manifest(args.manifest)
    else:
        manifest = suite_manifest(task_timeout=args.task_timeout)
    if args.fault_plan:
        text = args.fault_plan
        if os.path.isfile(text):
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        from repro.faults import FaultPlan
        FaultPlan.from_json(text)  # reject malformed plans up front
        # The plan lands in every config dict, so it travels to the
        # workers and -- being part of the job key -- gives each fault
        # plan its own store rows.
        entries = manifest.get("configs") or [{}]
        manifest["configs"] = [dict(entry, fault_plan=text)
                               for entry in entries]

    # The fleet monitor drives both output shapes (suppressed by
    # --quiet): per-row progress lines with the running done/total +
    # error/timeout tally on stdout, and heartbeat-driven "slowest
    # running jobs" status lines on stderr.  The telemetry channel
    # feeding it also writes events.jsonl when a sink path is given.
    monitor = FleetMonitor(
        row_stream=None if args.quiet else sys.stdout,
        status_stream=None if args.quiet else sys.stderr)
    telemetry = Telemetry(_events_path(args), on_event=monitor.observe)

    def on_row(row: dict) -> None:
        monitor.row(row)

    pool = WorkerPool(workers=args.workers, task=analysis_task,
                      task_timeout=args.task_timeout
                      if args.task_timeout is not None
                      else manifest.get("task_timeout"),
                      inprocess=True if args.inprocess else None,
                      telemetry=telemetry,
                      heartbeat_interval=args.heartbeat_interval,
                      max_retries=args.max_retries,
                      max_rss_kb=int(args.max_rss * 1024)
                      if args.max_rss is not None else None)
    try:
        summary = run_corpus(manifest, args.store,
                             task_timeout=args.task_timeout,
                             resume=not args.no_resume,
                             retry_errors=args.retry_errors,
                             retry_timeouts=args.retry_timeouts,
                             pool=pool, on_row=on_row,
                             fail_fast=args.fail_fast,
                             trace_dir=args.trace_dir,
                             checkpoint_dir=args.checkpoint_dir,
                             module_library=args.module_library)
    finally:
        telemetry.close()

    mode = "in-process" if pool.inprocess else f"{pool.workers} workers"
    print(f"\n{summary.manifest}: {summary.total} jobs "
          f"({summary.skipped} resumed, {summary.ran} run, {mode}) "
          f"in {summary.seconds:.2f}s")
    aggs = runner_report.aggregate_rows(summary.rows)
    print(runner_report.render_table(aggs))
    if args.report_json:
        payload = {"manifest": summary.manifest, "total": summary.total,
                   "skipped": summary.skipped, "ran": summary.ran,
                   "by_status": summary.by_status,
                   "seconds": summary.seconds,
                   "configs": runner_report.to_dict(aggs)}
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if summary.errors or summary.quarantined:
        bad = summary.errors + summary.quarantined
        print(f"{bad} error/quarantined row(s) in {args.store}",
              file=sys.stderr)
        return 3
    if (summary.by_status.get("unknown", 0)
            or summary.by_status.get("timeout", 0)
            or summary.ooms):
        return 2
    return 0
