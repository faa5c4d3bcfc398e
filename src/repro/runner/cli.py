"""The ``bench`` subcommand of ``python -m repro``.

``bench`` evaluates a corpus manifest through the worker pool and
streams rows to a resumable JSONL store::

    python -m repro bench benchmarks/manifests/smoke.json \\
        --workers 4 --task-timeout 5 --store results.jsonl

It uses the deterministic exit-code scheme shared by every
``python -m repro`` subcommand: **0** all rows conclusive, **2** some
row unknown / timed out, **3** error rows or unusable input (a
malformed manifest or fault plan, reported as one ``bench: ...`` line
on stderr before any job runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.faults import FaultPlan
from repro.runner import report as runner_report
from repro.runner.corpus import (expand_manifest, load_manifest, run_corpus,
                                 suite_manifest)
from repro.runner.pool import WorkerPool, analysis_task


def bench_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Evaluate a corpus manifest through the worker pool.",
        epilog="exit codes: 0 = all rows conclusive, 2 = some row "
               "unknown or timed out, 3 = error rows (a task that raised "
               "or a worker that died twice), a malformed manifest or "
               "a malformed fault plan")
    parser.add_argument("manifest", nargs="?", default=None,
                        help="corpus manifest JSON (default: the full "
                             "benchgen suite)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: min(cpu, 8))")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task budget in seconds (overrides the "
                             "manifest; hard-killed once the firewall's "
                             "screening allowance and a grace period past it)")
    parser.add_argument("--store", default="results.jsonl",
                        help="append-only JSONL result store "
                             "(default: results.jsonl)")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-run jobs even if the store has their rows")
    parser.add_argument("--retry-errors", action="store_true",
                        help="re-run jobs whose stored status is 'error'")
    parser.add_argument("--retry-timeouts", action="store_true",
                        help="re-run jobs whose stored status is 'timeout' "
                             "(with --checkpoint-dir they warm-start from "
                             "their certified rounds)")
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
    parser.add_argument("--inprocess", action="store_true",
                        help="run jobs in-process (no subprocesses; "
                             "cooperative timeouts only)")
    parser.add_argument("--report-json", metavar="FILE", default=None,
                        help="write the aggregate report as JSON")
    parser.add_argument("--fault-plan", metavar="JSON_OR_FILE", default=None,
                        help="deterministic fault plan (inline JSON or a "
                             "file containing it) injected into every "
                             "config of the run -- chaos testing; see "
                             "DESIGN.md 'Robustness'")
    parser.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="per-job JSONL traces: every worker writes "
                             "trace_<job key>.jsonl here (render with "
                             "python -m repro.obs.report)")
    parser.add_argument("--quiet", action="store_true",
                        help="no per-row progress lines")
    args = parser.parse_args(argv)

    try:
        if args.manifest is not None:
            manifest = load_manifest(args.manifest)
        else:
            manifest = suite_manifest(task_timeout=args.task_timeout)
        expand_manifest(manifest)  # reject malformed programs and configs
        if args.fault_plan:
            text = args.fault_plan
            if os.path.isfile(text):
                with open(text, encoding="utf-8") as fh:
                    text = fh.read()
            FaultPlan.from_json(text)  # reject malformed plans up front
            # The plan lands in every config dict, so it travels to the
            # workers and -- being part of the job key -- gives each
            # fault plan its own store rows.
            entries = manifest.get("configs") or [{}]
            manifest["configs"] = [dict(entry, fault_plan=text)
                                   for entry in entries]
    except (OSError, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 3

    def on_row(row: dict) -> None:
        print(f"  {row.get('program', '?'):<24} [{row.get('config', '?')}] "
              f"{row.get('status', '?'):<14} "
              f"{float(row.get('seconds') or 0.0):7.2f}s", flush=True)

    pool = WorkerPool(workers=args.workers, task=analysis_task,
                      task_timeout=args.task_timeout
                      if args.task_timeout is not None
                      else manifest.get("task_timeout"),
                      inprocess=True if args.inprocess else None)
    summary = run_corpus(manifest, args.store,
                         task_timeout=args.task_timeout,
                         resume=not args.no_resume,
                         retry_errors=args.retry_errors,
                         retry_timeouts=args.retry_timeouts,
                         pool=pool, on_row=None if args.quiet else on_row,
                         trace_dir=args.trace_dir,
                         checkpoint_dir=args.checkpoint_dir,
                         module_library=args.module_library)

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
    code = runner_report.exit_code(aggs)
    if code == 3:
        errors = sum(a.error for a in aggs.values())
        print(f"{errors} error row(s) in {args.store}", file=sys.stderr)
    return code
