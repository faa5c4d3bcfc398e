"""Cross-program module library: warm corpus pass vs cold synthesis.

The reuse value proposition in numbers: once the small members of a
scaled family have populated the shared library, a larger sibling's
counterexamples are answered by validated entries instead of fresh
ranking synthesis -- a library hit pays one acceptance check plus one
Definition 3.1 re-validation, a miss pays lasso analysis, Farkas/LP
synthesis, generalization, and certification.

Methodology: ``sequential_loops`` at k=2 and k=3 run cold and publish
into one library file; ``sequential_loops`` at k=4 then runs twice,
once without the library (the synthesis baseline) and once with it
(the warm pass), all through the same ``prove_termination`` entry
point.  Verdicts must agree, the warm pass must hit the library, and
-- the acceptance criterion -- it must invoke ranking synthesis at
least 30% less often than the baseline.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from conftest import TIMEOUT, write_bench_json

from repro.benchgen.scaled import sequential_loops
from repro.core.api import prove_termination
from repro.core.config import AnalysisConfig
from repro.core.library import ModuleLibrary

#: The library is populated by these family members...
COLD_KS = (2, 3)
#: ...and queried by this larger sibling.
WARM_K = 4


def timed_run(k: int, library: ModuleLibrary | None):
    program = sequential_loops(k).parse()
    start = time.perf_counter()
    result = prove_termination(program, AnalysisConfig(timeout=TIMEOUT * 4),
                               library=library)
    return time.perf_counter() - start, result


def syntheses(result) -> int:
    return result.stats.metrics.get("counters", {}).get(
        "ranking.syntheses", 0)


def test_module_library_warm_corpus_report():
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "modules.jsonl"
        for k in COLD_KS:  # populate: the "already analyzed" corpus
            _, cold = timed_run(k, ModuleLibrary(path))
            assert cold.verdict.value == "terminating"

        baseline_seconds, baseline = timed_run(WARM_K, None)
        warm_library = ModuleLibrary(path)
        warm_seconds, warm = timed_run(WARM_K, warm_library)

    assert warm.verdict == baseline.verdict
    assert warm.stats.counter("library.hits") >= 1
    assert warm_library.rejected == 0

    base_syn, warm_syn = syntheses(baseline), syntheses(warm)
    assert base_syn >= 1
    # the tentpole acceptance criterion: >= 30% fewer LP syntheses
    assert warm_syn <= 0.7 * base_syn, \
        f"warm pass made {warm_syn} syntheses vs baseline {base_syn} " \
        f"(needs >= 30% reduction)"

    reduction = 100.0 * (1.0 - warm_syn / base_syn)
    print(f"\n=== module library warm corpus "
          f"(sequential_loops k={COLD_KS} -> k={WARM_K}) ===")
    print(f"  baseline: {baseline_seconds:6.2f}s  {base_syn} syntheses, "
          f"{baseline.stats.iterations} rounds")
    print(f"  warm:     {warm_seconds:6.2f}s  {warm_syn} syntheses, "
          f"{warm.stats.counter('library.hits')} library hits")
    print(f"  synthesis reduction: {reduction:.0f}%")

    write_bench_json("module_library", {
        "family": "sequential_loops",
        "cold_ks": list(COLD_KS), "warm_k": WARM_K,
        "verdict": warm.verdict.value,
        "baseline_seconds": baseline_seconds,
        "warm_seconds": warm_seconds,
        "baseline_syntheses": base_syn,
        "warm_syntheses": warm_syn,
        "library_hits": warm.stats.counter("library.hits"),
        "library_misses": warm.stats.counter("library.misses"),
        "synthesis_reduction_pct": reduction,
    })
