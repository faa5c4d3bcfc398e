"""Counts do not depend on the hash seed.

Set iteration order over strings and nested tuples changes with
``PYTHONHASHSEED``.  Where such an order leaks into the exploration
order, it picks a different counterexample, and from then on rounds,
modules and solver counts diverge.  Each program here is analyzed in a
fresh interpreter under three seeds, and everything the run records
must match.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROGRAMS = ("gcd_like", "sort", "lex_pair", "warmup_then_down", "two_phase")

SEEDS = ("0", "1", "2018")

FINGERPRINT = """
import json, sys
from repro import AnalysisConfig, prove_termination_source
from repro.benchgen import suite_by_name
suite = suite_by_name()
out = {}
for name in sys.argv[1:]:
    result = prove_termination_source(
        suite[name].source, AnalysisConfig(timeout=300.0, max_refinements=10))
    stats = result.stats
    out[name] = {
        "verdict": result.verdict.value,
        "rounds": stats.iterations,
        "stages": [m.stage for m in result.modules],
        "words": [r.word for r in stats.rounds],
        "logic.fm.eliminations": stats.counter("logic.fm.eliminations"),
        "stages.rejected_on_word": stats.counter("stages.rejected_on_word"),
        "difference.explored_states":
            stats.counter("difference.explored_states"),
    }
print(json.dumps(out))
"""


def _fingerprints(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (str(SRC), env.get("PYTHONPATH")) if p])
    done = subprocess.run([sys.executable, "-c", FINGERPRINT, *PROGRAMS],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_runs_are_identical_under_every_hash_seed():
    runs = {seed: _fingerprints(seed) for seed in SEEDS}
    reference = runs[SEEDS[0]]
    assert set(reference) == set(PROGRAMS)
    for seed in SEEDS[1:]:
        for name in PROGRAMS:
            assert runs[seed][name] == reference[name], (
                f"{name}: PYTHONHASHSEED={seed} differs from "
                f"PYTHONHASHSEED={SEEDS[0]}")
