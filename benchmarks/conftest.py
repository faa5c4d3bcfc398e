"""Shared fixtures for the evaluation benchmarks.

All experiment scales are configurable through environment variables so
the harness runs in minutes on a laptop while keeping the paper's
*shapes* (see EXPERIMENTS.md):

- ``REPRO_BENCH_TIMEOUT``   per-program analysis budget in seconds (default 5)
- ``REPRO_BENCH_RANDOM``    number of random SDBAs in the Fig. 4 corpus (default 30)
- ``REPRO_BENCH_OUT``       directory for ``BENCH_*.json`` result files
                            (default: current directory)
- ``REPRO_BENCH_WORKERS``   >1 dispatches suite sweeps through the
                            :mod:`repro.runner` worker pool (hard
                            per-program deadlines, crash isolation);
                            default 0 keeps the historical in-process path

Benches that track the perf trajectory call :func:`write_bench_json`,
which stamps the run configuration and environment -- including the
git commit, hostname, and a schema version -- next to the measurements
so ``BENCH_*.json`` files are alignable across commits by
``python -m repro trajectory``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.benchgen import program_suite, sdba_corpus
from repro.benchgen.scaled import (interleaved_counters, nested_loops,
                                   phase_chain, sequential_loops)
from repro.core.config import AnalysisConfig
from repro.runner.store import code_version

TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "5"))
N_RANDOM = int(os.environ.get("REPRO_BENCH_RANDOM", "30"))
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT", "."))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))

#: The BENCH_*.json envelope version (see repro.obs.trajectory, which
#: reads these files back; bump together).
SCHEMA_VERSION = 2


def _git_commit() -> str:
    """The commit to stamp into records: ``REPRO_CODE_VERSION`` (CI) or
    the checkout's HEAD; degrades to the package version outside git."""
    try:
        return code_version()
    except Exception:  # pragma: no cover - stamp must never sink a bench
        return "unknown"


def write_bench_json(name: str, payload: dict,
                     config: dict | None = None) -> Path:
    """Write a machine-readable ``BENCH_<name>.json`` result file.

    ``config`` adds entries to the record's configuration, which
    ``python -m repro trajectory`` aligns records by.
    """
    record = {
        "bench": name,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "host": platform.node() or "unknown",
        "schema_version": SCHEMA_VERSION,
        "config": {"timeout": TIMEOUT, "n_random": N_RANDOM, **(config or {})},
    }
    record.update(payload)
    BENCH_OUT.mkdir(parents=True, exist_ok=True)
    path = BENCH_OUT / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"  wrote {path}")
    return path


@pytest.fixture(scope="session")
def suite():
    """The program suite (the SV-Comp stand-in)."""
    return program_suite()


@pytest.fixture(scope="session")
def corpus():
    """The Figure 4 SDBA corpus: harvested from analysis runs + random."""
    return sdba_corpus(n_random=N_RANDOM)


#: family -> (generator, largest k used by bench_scaling); the chains the
#: kernel-cache and simulation-reduction benches replay.
LARGEST = {
    "interleaved": (interleaved_counters, 4),
    "sequential": (sequential_loops, 4),
    "phases": (phase_chain, 4),
    "nested": (nested_loops, 3),  # the largest configuration overall
}

#: Safety deadline of one chain harvest, far above what any needs (the
#: 60-round ``nested`` chain takes about 1.5 s on a 2-vCPU host).
HARVEST_SAFETY_S = 120.0


def harvest_chain(family: str):
    """One default-config analysis run of ``family``'s largest program.

    Returns (program GBA, certified module automata).  The run ends by
    verdict or by the round cap, not by ``REPRO_BENCH_TIMEOUT``, so the
    chain is the same on every host: interleaved 9 modules, sequential
    14, phases 4, nested 60.  A harvest that reaches the safety deadline
    fails the bench instead of replaying a truncated chain.
    """
    from repro.core.api import prove_termination
    from repro.program.cfg import build_cfg

    generator, k = LARGEST[family]
    program = generator(k).parse()
    result = prove_termination(program,
                               AnalysisConfig(timeout=HARVEST_SAFETY_S))
    if result.reason == "timeout":
        pytest.fail(f"{family} chain harvest hit its {HARVEST_SAFETY_S:.0f} s "
                    f"safety deadline after {len(result.modules)} modules")
    return build_cfg(program).to_gba(), [m.automaton for m in result.modules]


def analysis_config(**kwargs) -> AnalysisConfig:
    kwargs.setdefault("timeout", TIMEOUT)
    return AnalysisConfig(**kwargs)


CONFIGS = {
    "single-stage": lambda: AnalysisConfig.single_stage(timeout=TIMEOUT),
    "multi-stage": lambda: analysis_config(lazy_complement=False,
                                           subsumption=False),
    "multi+subsumption": lambda: analysis_config(lazy_complement=False,
                                                 subsumption=True),
    "multi+lazy": lambda: analysis_config(lazy_complement=True,
                                          subsumption=False),
    "multi+lazy+subsumption": lambda: analysis_config(lazy_complement=True,
                                                      subsumption=True),
}


def run_suite(programs, config, workers: int | None = None):
    """Analyze every program; returns (results, solved, unsolved).

    With ``workers`` > 1 (default: ``REPRO_BENCH_WORKERS``) programs
    are dispatched through the :mod:`repro.runner` worker pool --
    hard deadlines and crash isolation, at the price of results being
    reconstructed from the rows workers ship back (verdict and reason
    only).
    """
    workers = WORKERS if workers is None else workers
    if workers > 1:
        return _run_suite_pooled(programs, config, workers)
    from repro.core.api import prove_termination

    results = {}
    solved = unsolved = 0
    for bench in programs:
        result = prove_termination(bench.parse(), config)
        results[bench.name] = result
        if result.verdict.value == bench.expected:
            solved += 1
        else:
            unsolved += 1
    return results, solved, unsolved


def _run_suite_pooled(programs, config, workers: int):
    from repro.core.refinement import TerminationResult, Verdict
    from repro.runner.pool import WorkerPool, analysis_task

    payloads = [{"name": bench.name, "source": bench.source,
                 "expected": bench.expected, "config": config.to_dict(),
                 "timeout": config.timeout} for bench in programs]
    pool = WorkerPool(workers=workers, task=analysis_task,
                      task_timeout=config.timeout)
    outcomes = pool.run(payloads)
    results = {}
    solved = unsolved = 0
    for bench, outcome in zip(programs, outcomes):
        row = outcome.result if outcome.status == "ok" and outcome.result else {}
        verdict = Verdict(row.get("verdict", "unknown"))
        results[bench.name] = TerminationResult(
            verdict, reason=row.get("reason", outcome.status))
        if verdict.value == bench.expected:
            solved += 1
        else:
            unsolved += 1
    return results, solved, unsolved
