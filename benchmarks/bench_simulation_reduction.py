"""Simulation-based reduction ablation: quotienting + coarse antichain.

Ablation for the reduction layer of the difference pipeline
(``difference(..., simulation_reduction=...)``): subtrahend modules are
quotiented by (part-respecting) direct-simulation equivalence before
complementation, and the ``ceil(emp)`` antichain order is coarsened by
a precomputed simulation on the prepared SDBA (Lemma 6.2).

Methodology: for each ``bench_scaling`` family at its largest
configuration, one default-config analysis run harvests the
certified-module chain (``conftest.harvest_chain``, shared with
``bench_kernel_cache``); the difference chain is then replayed
with the reduction on and off.  Two sweeps:

- **plain replay** -- the harvested modules as-is.  Module construction
  already merges equal-predicate states, so the quotient usually finds
  nothing here; this sweep is the no-regression guard (same per-step
  emptiness verdicts, never more explored product states).
- **overlap replay (headline)** -- each subtracted module is replaced
  by the disjoint union of ``k`` copies of itself.  This models the
  redundancy that accumulates when certified modules overlap (near-
  duplicate components proving the same descent); the quotient
  collapses the copies before complementation, so the reduced run
  must explore >= 15% fewer product states on at least one family.

Unlike the cache ablation the two modes explore *different* products
(that is the point), so agreement is checked on emptiness verdicts
only.  A final sweep checks verdict agreement on differences against
the Figure-4 random-SDBA corpus.
"""

from __future__ import annotations

import random
import time

from conftest import LARGEST, harvest_chain, write_bench_json

from repro.automata.difference import difference
from repro.automata.gba import GBA, ba

#: Copies per module in the overlap replay.
OVERLAP = 2

#: Required explored-product-state saving on the best family.
TARGET_SAVING = 0.15


def union_copies(auto: GBA, k: int) -> GBA:
    """Disjoint union of ``k`` copies of ``auto`` (same language, k-fold
    redundancy); stays semideterministic when ``auto`` is."""
    transitions = {}
    states, accepting, initial = [], [], []
    for i in range(k):
        states += [(i, q) for q in auto.states]
        accepting += [(i, q) for q in auto.accepting]
        initial += [(i, q) for q in auto.initial_states()]
        for (q, s), targets in auto.transitions.items():
            transitions[((i, q), s)] = {(i, t) for t in targets}
    return ba(auto.alphabet, transitions, initial, accepting, states=states)


def replay_chain(program_gba, modules, *, reduce: bool, overlap: int = 1):
    """Replay the difference chain; returns (seconds, verdicts, explored)."""
    start = time.perf_counter()
    current = program_gba
    verdicts = []
    explored = 0
    for module in modules:
        subtrahend = union_copies(module, overlap) if overlap > 1 else module
        result = difference(current, subtrahend, simulation_reduction=reduce)
        verdicts.append(result.is_empty)
        explored += result.stats.explored_states
        current = result.automaton
    return time.perf_counter() - start, verdicts, explored


def test_simulation_reduction_report():
    print(f"\n=== simulation reduction ablation "
          f"(default-config chains, overlap k={OVERLAP}) ===")
    savings = {}
    families = {}
    for family in LARGEST:
        program_gba, modules = harvest_chain(family)

        # plain replay: no-regression guard
        _, plain_on_v, plain_on = replay_chain(program_gba, modules,
                                               reduce=True)
        _, plain_off_v, plain_off = replay_chain(program_gba, modules,
                                                 reduce=False)
        assert plain_on_v == plain_off_v, family
        assert plain_on <= plain_off, family

        # overlap replay: the headline metric
        on_s, on_v, on_explored = replay_chain(program_gba, modules,
                                               reduce=True, overlap=OVERLAP)
        off_s, off_v, off_explored = replay_chain(program_gba, modules,
                                                  reduce=False, overlap=OVERLAP)
        assert on_v == off_v, family
        saving = (1.0 - on_explored / off_explored) if off_explored else 0.0
        savings[family] = saving
        families[family] = {"modules": len(modules),
                            "plain_explored_on": plain_on,
                            "plain_explored_off": plain_off,
                            "overlap_explored_on": on_explored,
                            "overlap_explored_off": off_explored,
                            "saving": saving,
                            "seconds_on": on_s,
                            "seconds_off": off_s}
        print(f"  {family:12s} ({len(modules):2d} modules): "
              f"plain {plain_on:6d} vs {plain_off:6d}  "
              f"overlap {on_explored:6d} vs {off_explored:6d}  "
              f"saving {saving*100:5.1f}%")
    best_family = max(savings, key=savings.get)
    best = savings[best_family]
    print(f"  best family: {best_family} ({best*100:.1f}% fewer "
          f"explored product states)")
    write_bench_json("simulation_reduction", {
        "overlap": OVERLAP,
        "families": families,
        "best_family": best_family,
        "best_saving": best,
        "target_saving": TARGET_SAVING,
    }, config={"chains": {family: data["modules"]
                          for family, data in families.items()}})
    assert best >= TARGET_SAVING, (
        f"expected >= {TARGET_SAVING:.0%} fewer explored product states on "
        f"some family, got {best:.1%} ({best_family})")


# -- Figure-4 corpus sweep ---------------------------------------------------------


def _corpus_pairs(corpus, count: int = 20):
    rng = random.Random(42)
    pairs = []
    for sdba in corpus[:count]:
        sigma = sorted(sdba.alphabet, key=str)
        states = list(range(4))
        transitions = {}
        for q in states:
            for s in sigma:
                targets = {t for t in states if rng.random() < 0.5}
                if targets:
                    transitions[(q, s)] = targets
        minuend = ba(sdba.alphabet, transitions, [0], states, states=states)
        pairs.append((minuend, sdba))
    return pairs


def test_simulation_reduction_corpus_agreement(corpus):
    pairs = _corpus_pairs(corpus)
    start = time.perf_counter()
    on = [difference(m, s, simulation_reduction=True).is_empty
          for m, s in pairs]
    mid = time.perf_counter()
    off = [difference(m, s, simulation_reduction=False).is_empty
           for m, s in pairs]
    end = time.perf_counter()
    assert on == off
    print(f"\n=== simulation reduction on the Fig. 4 corpus "
          f"({len(pairs)} differences) ===")
    print(f"  reduced: {(mid - start)*1000:8.1f}ms")
    print(f"  plain:   {(end - mid)*1000:8.1f}ms")
    write_bench_json("simulation_reduction_corpus", {
        "differences": len(pairs),
        "seconds_on": mid - start,
        "seconds_off": end - mid,
    })


# -- pytest-benchmark hooks --------------------------------------------------------


def test_simulation_reduction_on_benchmark(benchmark):
    program_gba, modules = harvest_chain("nested")
    benchmark.pedantic(replay_chain, args=(program_gba, modules),
                       kwargs={"reduce": True, "overlap": OVERLAP},
                       rounds=1, iterations=1)


def test_simulation_reduction_off_benchmark(benchmark):
    program_gba, modules = harvest_chain("nested")
    benchmark.pedantic(replay_chain, args=(program_gba, modules),
                       kwargs={"reduce": False, "overlap": OVERLAP},
                       rounds=1, iterations=1)
