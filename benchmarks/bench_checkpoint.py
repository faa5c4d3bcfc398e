"""Durable checkpoints: warm restart vs cold restart.

The recovery value proposition in numbers: an analysis interrupted
after its last refinement round should resume in a fraction of the
cold wall-clock, because every certified module is restored (and
re-validated) instead of re-derived -- restore pays one Definition 3.1
re-check plus one subtraction per module, while a cold round also pays
lasso search, ranking synthesis, and generalization.

Methodology: ``sequential_loops`` at a multi-round scale runs once
cold (populating the checkpoint) and once warm (restoring it), both
through the same ``prove_termination`` entry point.  Verdicts must
agree, the warm run must recompute zero rounds, and the warm
wall-clock must beat the cold one.
"""

from __future__ import annotations

import tempfile
import time

from conftest import TIMEOUT, write_bench_json

from repro.benchgen.scaled import sequential_loops
from repro.core.api import prove_termination
from repro.core.checkpoint import Checkpointer
from repro.core.config import AnalysisConfig

#: Multi-round but comfortably within the smoke timeout.
SCALE_K = 4


def checkpointed_run(program, directory: str, key: str):
    checkpoint = Checkpointer(directory, key, program=program.name)
    start = time.perf_counter()
    result = prove_termination(program, AnalysisConfig(timeout=TIMEOUT * 4),
                               checkpoint=checkpoint)
    return time.perf_counter() - start, result, checkpoint


def test_checkpoint_warm_restart_report():
    bench = sequential_loops(SCALE_K)
    program = bench.parse()
    with tempfile.TemporaryDirectory() as directory:
        cold_seconds, cold, _ = checkpointed_run(
            program, directory, "bench-warm-restart")
        warm_seconds, warm, cp_warm = checkpointed_run(
            program, directory, "bench-warm-restart")

    assert cold.verdict == warm.verdict
    assert cold.stats.counter("checkpoint.saves") == len(cold.modules)
    assert cp_warm.restored_rounds == len(cold.modules)
    assert warm.stats.iterations == 0  # zero recomputed rounds
    assert warm_seconds < cold_seconds, \
        f"warm restart ({warm_seconds:.2f}s) not faster than cold " \
        f"({cold_seconds:.2f}s)"

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(f"\n=== durable checkpoint warm restart "
          f"(sequential_loops k={SCALE_K}) ===")
    print(f"  cold: {cold_seconds:7.2f}s  "
          f"({cold.stats.iterations} rounds computed)")
    print(f"  warm: {warm_seconds:7.2f}s  "
          f"({cp_warm.restored_rounds} rounds restored, "
          f"{warm.stats.iterations} computed)")
    print(f"  speedup: {speedup:.1f}x")

    write_bench_json("checkpoint_warm_restart", {
        "family": "sequential_loops", "k": SCALE_K,
        "verdict": cold.verdict.value,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "rounds_cold": cold.stats.iterations,
        "rounds_restored": cp_warm.restored_rounds,
        "rounds_recomputed": warm.stats.iterations,
        "speedup": speedup,
    })
