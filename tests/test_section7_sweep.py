"""``benchmarks/bench_section7.py`` renders Section 7 from the rows of
one runner sweep; its tallies must equal what direct analysis runs of
the same programs and configs report."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import bench_section7  # noqa: E402
from repro.benchgen.programs import suite_by_name  # noqa: E402
from repro.core.api import prove_termination  # noqa: E402
from repro.core.config import AnalysisConfig  # noqa: E402
from repro.runner.pool import WorkerPool  # noqa: E402

#: Quick deciders: NCSB work, several module stages, both verdicts.
PROGRAMS = ("sort", "inner_depends_outer", "dead_loop", "havoc_refill")
CONFIGS = [{"name": "multi-stage", "lazy_complement": False,
            "subsumption": False},
           {"name": "sequence-iii", "stages": "iii"}]
#: Far above what any of them needs, so no verdict rides on the clock.
BUDGET = 30.0


def test_sweep_tallies_equal_direct_runs(tmp_path):
    suite = suite_by_name()
    manifest = {"name": "tiny",
                "programs": [{"name": name, "source": suite[name].source,
                              "expected": suite[name].expected}
                             for name in PROGRAMS],
                "configs": CONFIGS}
    rows = bench_section7.sweep(manifest, tmp_path / "section7.jsonl",
                                task_timeout=BUDGET,
                                pool=WorkerPool(inprocess=True))
    assert len(rows) == len(PROGRAMS) * len(CONFIGS)

    direct = {}
    for entry in CONFIGS:
        config = AnalysisConfig.from_dict(entry).with_(timeout=BUDGET)
        results = [(suite[name], prove_termination(suite[name].parse(), config))
                   for name in PROGRAMS]
        direct[entry["name"]] = {
            "solved": sum(r.verdict.value == bench.expected
                          for bench, r in results),
            "ncsb": sum(r.stats.counter("difference.by_kind.ncsb-original")
                        + r.stats.counter("difference.by_kind.ncsb-lazy")
                        for _, r in results),
            "stages": Counter(m.stage for _, r in results for m in r.modules)}
    assert bench_section7.tally(rows) == direct
    assert direct["multi-stage"]["ncsb"] > 0
    assert direct["sequence-iii"]["stages"]["finite"] > 0
