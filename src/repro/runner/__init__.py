"""The parallel evaluation runner (Section 7's harness, industrialized).

The paper evaluates over hundreds of SV-COMP tasks under per-task time
budgets.  This package is that execution layer:

- :mod:`repro.runner.pool` -- a multiprocess worker pool with one
  worker per job, hard per-task deadlines (SIGKILL on overrun), crash
  isolation (one immediate respawn on worker death), and graceful
  in-process degradation,
- :mod:`repro.runner.corpus` -- manifest expansion (benchgen families,
  ``examples/*.t`` files, inline programs) into analysis jobs and the
  resumable corpus driver,
- :mod:`repro.runner.store` -- the append-only JSONL result store
  keyed by (program, config, code version) that makes interrupted
  runs resumable,
- :mod:`repro.runner.report` -- solved-counts / time aggregation in
  the style of the paper's Table 3.

CLI: ``python -m repro run|bench|report`` (see ``--help``).
"""

from repro.runner.corpus import (CorpusJob, expand_manifest, load_manifest,
                                 run_corpus)
from repro.runner.pool import TaskOutcome, WorkerPool, analysis_task
from repro.runner.store import ResultStore, code_version, job_key

__all__ = [
    "WorkerPool",
    "TaskOutcome",
    "analysis_task",
    "CorpusJob",
    "expand_manifest",
    "load_manifest",
    "run_corpus",
    "ResultStore",
    "job_key",
    "code_version",
]
