"""Corpus manifests and the resumable evaluation driver.

A manifest is a JSON object describing *what to run* -- programs x
configurations -- without code:

.. code-block:: json

    {
      "name": "smoke",
      "task_timeout": 5,
      "programs": [
        {"suite": "*"},
        {"suite": "nested"},
        {"scaled": "nested_loops", "k": [1, 2, 3]},
        {"file": "examples/sort.t"},
        {"glob": "examples/*.t"},
        {"name": "inline_loop", "expected": "terminating",
         "source": "program p(x):\\n    while x > 0:\\n        x := x - 1\\n"}
      ],
      "configs": [
        {"name": "default"},
        {"name": "interp", "interpolant_modules": true}
      ]
    }

Each ``programs`` entry is an object with exactly one of the keys
``suite`` (a :mod:`repro.benchgen` family name or ``"*"``), ``scaled``
(a scaled generator, with ``k`` an int or a list of ints), ``file`` or
``glob`` (program files relative to the manifest; a glob must match)
and ``source`` (an inline program).  ``configs`` entries are
:meth:`AnalysisConfig.from_dict` dicts (plus an optional ``name``
label); an absent/empty list means the default configuration.
:func:`expand_manifest` raises ``ValueError`` on any malformed part,
so ``bench`` rejects a manifest before any job runs.

``run_corpus`` expands the manifest into jobs, skips the ones whose
(program, config, code-version) key already has a row in the JSONL
store -- interrupted runs resume without recomputation -- and streams
the rest through the worker pool, appending a row per finished job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.benchgen import program_suite
from repro.benchgen.programs import BenchProgram
from repro.benchgen.scaled import (interleaved_counters, nested_loops,
                                   phase_chain, sequential_loops)
from repro.core.config import AnalysisConfig
from repro.runner.pool import (TaskOutcome, WorkerPool, analysis_task,
                                job_fields)
from repro.runner.report import STATUSES
from repro.runner.store import ResultStore, code_version, job_key

_SCALED = {
    "interleaved_counters": interleaved_counters,
    "sequential_loops": sequential_loops,
    "nested_loops": nested_loops,
    "phase_chain": phase_chain,
}

#: The keys that say what a ``programs`` entry is; each entry has one.
_PROGRAM_KINDS = ("suite", "scaled", "file", "glob", "source")


@dataclass(frozen=True)
class CorpusJob:
    """One (program, config) cell of the evaluation matrix."""

    key: str
    name: str
    family: str
    source: str
    expected: str | None
    config: dict
    config_name: str
    timeout: float | None

    def payload(self) -> dict:
        return {"key": self.key, "name": self.name, "family": self.family,
                "source": self.source, "expected": self.expected,
                "config": self.config, "config_name": self.config_name,
                "timeout": self.timeout}


@dataclass
class CorpusRun:
    """Summary of one ``run_corpus`` invocation."""

    manifest: str
    total: int
    skipped: int
    ran: int
    by_status: dict = field(default_factory=dict)
    seconds: float = 0.0
    rows: list = field(default_factory=list)

    @property
    def errors(self) -> int:
        return self.by_status.get("error", 0)


def load_manifest(path: str | Path) -> dict:
    import json
    path = Path(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"a manifest must be a JSON object, got {manifest!r}")
    manifest.setdefault("name", path.stem)
    manifest["_base_dir"] = str(path.parent)
    return manifest


def suite_manifest(task_timeout: float | None = None) -> dict:
    """The built-in manifest: the full benchgen suite, default config."""
    return {"name": "suite", "programs": [{"suite": "*"}],
            "configs": [{"name": "default"}], "task_timeout": task_timeout}


def _expand_programs(manifest: dict) -> list[BenchProgram]:
    base = Path(manifest.get("_base_dir", "."))
    programs: list[BenchProgram] = []
    seen: set[str] = set()

    def add(bench: BenchProgram) -> None:
        if bench.name not in seen:
            seen.add(bench.name)
            programs.append(bench)

    entries = manifest.get("programs", [])
    if not isinstance(entries, list):
        raise ValueError(f"'programs' must be a JSON list, got {entries!r}")
    for entry in entries:
        kinds = [kind for kind in _PROGRAM_KINDS
                 if isinstance(entry, dict) and kind in entry]
        if len(kinds) != 1 or not isinstance(entry[kinds[0]], str):
            raise ValueError(f"a program entry must be a JSON object with "
                             f"one string-valued key of {_PROGRAM_KINDS}, "
                             f"got {entry!r}")
        if "suite" in entry:
            family = entry["suite"]
            suite = program_suite()
            families = sorted({bench.family for bench in suite})
            if family != "*" and family not in families:
                raise ValueError(f"unknown suite family {family!r} "
                                 f"(have {families} or '*')")
            for bench in suite:
                if family in ("*", bench.family):
                    add(bench)
        elif "scaled" in entry:
            generator = _SCALED.get(entry["scaled"])
            if generator is None:
                raise ValueError(f"unknown scaled family {entry['scaled']!r} "
                                 f"(have {sorted(_SCALED)})")
            ks = entry.get("k", [1, 2, 3])
            ks = [ks] if isinstance(ks, int) else ks
            if not (isinstance(ks, list) and ks
                    and all(type(k) is int for k in ks)):
                raise ValueError(f"'k' must be an int or a list of ints, "
                                 f"got {entry['k']!r}")
            for k in ks:
                add(generator(k))
        elif "file" in entry or "glob" in entry:
            if "glob" in entry:
                paths = sorted(base.glob(entry["glob"]))
            else:
                paths = [base / entry["file"]]
            if not paths:
                raise ValueError(f"glob {entry['glob']!r} matched no files "
                                 f"under {base}")
            for path in paths:
                add(BenchProgram(path.stem, entry.get("family", "file"),
                                 path.read_text(encoding="utf-8"),
                                 entry.get("expected", "unknown")))
        else:
            add(BenchProgram(entry.get("name", f"inline_{len(programs)}"),
                             entry.get("family", "inline"), entry["source"],
                             entry.get("expected", "unknown")))
    return programs


def _expand_configs(manifest: dict) -> list[tuple[str, dict]]:
    entries = manifest.get("configs") or [{}]
    configs: list[tuple[str, dict]] = []
    for i, entry in enumerate(entries):
        config = AnalysisConfig.from_dict(entry)  # validates the knobs
        label = entry.get("name")
        configs.append((label or config.describe() or f"config{i}",
                        config.to_dict()))
    return configs


def expand_manifest(manifest: dict,
                    task_timeout: float | None = None,
                    version: str | None = None) -> list[CorpusJob]:
    """The manifest's full job matrix, with stable resume keys.

    Raises ``ValueError`` on a malformed manifest, and on a task
    timeout (``task_timeout`` or the manifest's) that is not a
    non-negative number.
    """
    timeout = (task_timeout if task_timeout is not None
               else manifest.get("task_timeout"))
    if timeout is not None and (isinstance(timeout, bool)
                                or not isinstance(timeout, (int, float))
                                or not timeout >= 0):
        raise ValueError(f"task timeout must be a non-negative number, "
                         f"got {timeout!r}")
    version = version if version is not None else code_version()
    jobs: list[CorpusJob] = []
    configs = _expand_configs(manifest)
    for bench in _expand_programs(manifest):
        for config_name, config in configs:
            jobs.append(CorpusJob(
                key=job_key(bench.name, bench.source, config, version),
                name=bench.name, family=bench.family, source=bench.source,
                expected=bench.expected, config=config,
                config_name=config_name, timeout=timeout))
    return jobs


def outcome_row(outcome: TaskOutcome) -> dict:
    """Fold a pool outcome into one JSON-ready store row: the task's row
    (the run's record plus its job fields), or the job fields alone for
    a job whose worker never reported (timeout, kill, crash)."""
    if outcome.status == "ok" and outcome.result is not None:
        row = dict(outcome.result)
    else:
        row = job_fields(outcome.payload, outcome.status, outcome.error)
    row["executions"] = outcome.executions
    row["wall_seconds"] = outcome.seconds
    return row


def run_corpus(manifest: dict,
               store_path: str | Path,
               workers: int | None = None,
               task_timeout: float | None = None,
               resume: bool = True,
               retry_errors: bool = False,
               retry_timeouts: bool = False,
               pool: WorkerPool | None = None,
               on_row: Callable[[dict], None] | None = None,
               trace_dir: str | Path | None = None,
               checkpoint_dir: str | Path | None = None,
               module_library: str | Path | None = None,
               ) -> CorpusRun:
    """Evaluate a manifest, streaming rows into the JSONL store.

    With ``resume`` (default), jobs whose key already has a row are
    skipped -- re-running a finished corpus recomputes nothing.
    ``retry_errors`` additionally re-runs the rows the report counts
    as errors -- status ``error`` or a status outside
    :data:`~repro.runner.report.STATUSES` (fresh code often fixes a
    crash, including a job whose worker died twice); ``retry_timeouts``
    re-runs ``timeout`` rows (useful with a bigger budget, and -- with
    ``checkpoint_dir`` -- such rows *warm-start* from the rounds their
    killed attempt already certified).  With ``trace_dir``, every
    worker runs under its own JSONL tracer and leaves
    ``trace_<job key>.jsonl`` there.  With ``checkpoint_dir``,
    every worker durably checkpoints its refinement rounds there keyed
    by the job key.  With ``module_library``, every worker shares one
    cross-program certified-module library file
    (:mod:`repro.core.library`) -- reuse before synthesis, publish
    after certification.  Both stores count their work in each row's
    metrics (``checkpoint.*``, ``library.*``), which
    :func:`repro.runner.report.aggregate_rows` sums.
    Returns the run summary; ``summary.rows`` holds **all** rows of
    the matrix, reused and new alike, for reporting.
    """
    start = time.perf_counter()
    jobs = expand_manifest(manifest, task_timeout=task_timeout)
    with ResultStore(store_path) as store:
        done = store.load() if resume else {}
        if retry_errors:
            done = {k: row for k, row in done.items()
                    if row.get("status") in STATUSES
                    and row.get("status") != "error"}
        if retry_timeouts:
            done = {k: row for k, row in done.items()
                    if row.get("status") != "timeout"}
        todo = [job for job in jobs if job.key not in done]
        if pool is None:
            pool = WorkerPool(workers=workers, task=analysis_task,
                              task_timeout=task_timeout
                              if task_timeout is not None
                              else manifest.get("task_timeout"))
        rows_by_key = {job.key: done[job.key] for job in jobs
                       if job.key in done}

        def on_outcome(outcome: TaskOutcome) -> None:
            row = outcome_row(outcome)
            rows_by_key[row.get("key")] = row
            store.append(row)
            if on_row is not None:
                on_row(row)

        payloads = [job.payload() for job in todo]
        if trace_dir is not None:
            for payload in payloads:
                payload["trace_dir"] = str(trace_dir)
        if checkpoint_dir is not None:
            for payload in payloads:
                payload["checkpoint_dir"] = str(checkpoint_dir)
        if module_library is not None:
            # Injected after job-key computation, like trace_dir and
            # checkpoint_dir: attaching a library must not change keys
            # or resume semantics -- it is an optimization, not an input.
            for payload in payloads:
                payload["module_library"] = str(module_library)
        pool.run(payloads, on_outcome=on_outcome)

    rows = [rows_by_key[job.key] for job in jobs if job.key in rows_by_key]
    by_status: dict[str, int] = {}
    for row in rows:
        by_status[row.get("status", "?")] = \
            by_status.get(row.get("status", "?"), 0) + 1
    return CorpusRun(manifest=manifest.get("name", "?"), total=len(jobs),
                     skipped=len(jobs) - len(todo), ran=len(todo),
                     by_status=by_status,
                     seconds=time.perf_counter() - start, rows=rows)
