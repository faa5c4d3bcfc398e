"""Regenerate ``chains.json``: the termination-derived automata that the
``automata`` workload replays.

Each chain is one program's Büchi automaton followed by the certified
module automata its analysis subtracted, in order.  Harvesting runs the
full analysis (about 8 s), which is too slow to repeat in every set-up,
so the chains are committed as data.  States become integers and
statements become ``a<i>`` symbols, numbered in sorted order; the
difference operator never looks inside either.

Run from the repository root, with the hash seed the benchmark pins::

    PYTHONHASHSEED=2018 PYTHONPATH=src python3 benchmarks/e2e/harvest.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.benchgen.scaled import (interleaved_counters, nested_loops,
                                   sequential_loops)
from repro.core.api import prove_termination
from repro.core.config import AnalysisConfig
from repro.core.refinement import Verdict
from repro.program.cfg import build_cfg

HERE = Path(__file__).resolve().parent
PROGRAMS = (interleaved_counters(5), sequential_loops(5), nested_loops(2))


def encode(auto, symbols: dict) -> dict:
    """An explicit GBA as plain JSON over integer states."""
    order = {q: i for i, q in enumerate(
        sorted(auto.states, key=lambda s: (str(type(s)), str(s))))}
    edges = sorted([order[q], symbols[a], order[t]]
                   for (q, a), targets in auto.transitions.items()
                   for t in targets)
    return {"states": len(order),
            "alphabet": sorted(symbols[a] for a in auto.alphabet),
            "initial": sorted(order[q] for q in auto.initial_states()),
            "acc_sets": [sorted(order[q] for q in f) for f in auto.acc_sets],
            "edges": edges}


def harvest(bench) -> dict:
    program = bench.parse()
    result = prove_termination(program, AnalysisConfig())
    if result.verdict is not Verdict.TERMINATING:
        raise SystemExit(f"{bench.name}: expected a proof, got "
                         f"{result.verdict.value}")
    gba = build_cfg(program).to_gba()
    symbols = {a: i for i, a in enumerate(sorted(gba.alphabet, key=str))}
    if len({str(a) for a in symbols}) != len(symbols):
        raise SystemExit(f"{bench.name}: ambiguous statement names")
    return {"program": bench.name,
            "minuend": encode(gba, symbols),
            "modules": [encode(m.automaton, symbols) for m in result.modules]}


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "2018":
        print("set PYTHONHASHSEED=2018 (the benchmark's pinned hash seed)",
              file=sys.stderr)
        return 2
    data = {"hash_seed": 2018, "config": "AnalysisConfig()",
            "chains": [harvest(bench) for bench in PROGRAMS]}
    (HERE / "chains.json").write_text(json.dumps(data, separators=(",", ":"))
                                      + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
