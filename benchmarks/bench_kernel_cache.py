"""Kernel successor-index / memoization layer: cached vs uncached.

Ablation for the shared caching layer of the difference pipeline
(``difference(..., cache=...)``): cached, the product is a
``NumberedProduct`` that numbers each ``(state, macro-state)`` pair on
discovery and builds each id's sorted edge list once (one cache miss
per list built, one hit per re-read); uncached, Algorithm 1 explores
the plain ``ProductGBA`` over pairs, which it numbers on discovery
itself.  Either way Algorithm 1 and the subsumption antichain run over
ints, so the modes differ only in how the product's edges are built.
An implicit minuend is wrapped in a ``CachedImplicitGBA``, which the
product reads through ``successors``.

Methodology: for each ``bench_scaling`` family at its largest
configuration, one default-config analysis run harvests the
certified-module chain (``conftest.harvest_chain``: it ends by verdict
or by the round cap, so the chain does not depend on the host);
the difference chain is then *replayed* with caching on and off.  The
replay isolates the automata kernel from ranking synthesis, which is
what the layer accelerates.  Verdicts and ``useful_states`` counts must
be identical in both modes (caching is pure memoization).

A second sweep exercises the Figure-4 corpus: differences against the
random SDBA corpus, cached vs uncached.

Expected shape: >= 1.5x on the largest configuration (the nested
family), smaller wins on the shallow families whose differences are
tiny.  On the Fig. 4 corpus sweep (2-3 symbol alphabets) the cached
path wins by building each id's edge list once.

Measured on a 2-vCPU host with ``REPRO_BENCH_TIMEOUT=3`` and
``REPRO_BENCH_RANDOM=5``, six runs: the nested chain has 60 modules
and its headline was 0.93-1.26x, under the asserted 1.5x in every run
(0.20-0.23 s cached against 0.20-0.29 s uncached).  It was 1.20-1.63x
while only the cached path ran Algorithm 1 over ids, and the uncached
path has caught up since the first measurement (0.49 s cached against
1.75 s uncached, 3.6x): both modes now share the id loop, the
antichain's memo and the per-module direct simulation, and differ only
in the product.  The other families: interleaved 0.91-2.19x,
sequential 1.19-1.67x, phases 0.77-1.39x; the corpus sweep
0.07-0.09 s cached against 0.08-0.15 s uncached.  The record's
``config.chains`` holds each family's chain length, so ``python -m
repro trajectory`` only aligns runs that replayed chains of the same
length.  Each remainder's states are Algorithm 1's DFS numbers, so a
chain's products stay ``(int, MacroState)`` however long it is.  When remainders kept the product's nested pair names instead,
the same harvest gave a 56-module chain at 1.59 s cached and 13.2 s
uncached (8.3x): every uncached acceptance query hashed the whole nest.
"""

from __future__ import annotations

import random
import time

from conftest import LARGEST, harvest_chain, write_bench_json

from repro.automata.difference import difference
from repro.automata.gba import ba

HEADLINE_FAMILY = "nested"


def replay_chain(program_gba, modules, *, cache: bool):
    """Replay the difference chain; returns (seconds, per-step verdicts)."""
    start = time.perf_counter()
    current = program_gba
    verdicts = []
    for module in modules:
        result = difference(current, module, cache=cache)
        verdicts.append((result.is_empty, result.stats.useful_states))
        current = result.automaton
    return time.perf_counter() - start, verdicts


def timed_replay(program_gba, modules, *, cache: bool, rounds: int = 3):
    best, verdicts = replay_chain(program_gba, modules, cache=cache)
    for _ in range(rounds - 1):
        seconds, again = replay_chain(program_gba, modules, cache=cache)
        assert again == verdicts
        best = min(best, seconds)
    return best, verdicts


def test_kernel_cache_report():
    print("\n=== kernel cache ablation (default-config chains) ===")
    speedups = {}
    families = {}
    for family in LARGEST:
        program_gba, modules = harvest_chain(family)
        cached_s, cached_v = timed_replay(program_gba, modules, cache=True)
        plain_s, plain_v = timed_replay(program_gba, modules, cache=False)
        # pure memoization: identical emptiness verdicts and useful-state
        # counts at every step of the chain
        assert cached_v == plain_v, family
        speedups[family] = plain_s / cached_s if cached_s else float("inf")
        families[family] = {"modules": len(modules),
                            "cached_seconds": cached_s,
                            "uncached_seconds": plain_s,
                            "speedup": speedups[family]}
        print(f"  {family:12s} ({len(modules):2d} modules): "
              f"cached {cached_s*1000:8.1f}ms  uncached {plain_s*1000:8.1f}ms  "
              f"speedup {speedups[family]:5.2f}x")
    headline = speedups[HEADLINE_FAMILY]
    print(f"  headline ({HEADLINE_FAMILY}, largest config): {headline:.2f}x")
    write_bench_json("kernel_cache", {
        "families": families,
        "headline_family": HEADLINE_FAMILY,
        "headline_speedup": headline,
    }, config={"chains": {family: data["modules"]
                          for family, data in families.items()}})
    assert headline >= 1.5, (
        f"expected >= 1.5x on the largest configuration, got {headline:.2f}x")


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


def corpus_sweep(pairs, *, cache: bool):
    verdicts = []
    for minuend, sdba in pairs:
        result = difference(minuend, sdba, cache=cache)
        verdicts.append((result.is_empty, result.stats.useful_states))
    return verdicts


def test_kernel_cache_corpus_agreement(corpus):
    pairs = _corpus_pairs(corpus)
    start = time.perf_counter()
    cached = corpus_sweep(pairs, cache=True)
    mid = time.perf_counter()
    plain = corpus_sweep(pairs, cache=False)
    end = time.perf_counter()
    assert cached == plain
    print(f"\n=== kernel cache on the Fig. 4 corpus ({len(pairs)} differences) ===")
    print(f"  cached:   {(mid - start)*1000:8.1f}ms")
    print(f"  uncached: {(end - mid)*1000:8.1f}ms")
    write_bench_json("kernel_cache_corpus", {
        "differences": len(pairs),
        "cached_seconds": mid - start,
        "uncached_seconds": end - mid,
    })


# -- pytest-benchmark hooks --------------------------------------------------------


def test_kernel_cache_largest_cached_benchmark(benchmark):
    program_gba, modules = harvest_chain(HEADLINE_FAMILY)
    benchmark.pedantic(replay_chain, args=(program_gba, modules),
                       kwargs={"cache": True}, rounds=1, iterations=1)


def test_kernel_cache_largest_uncached_benchmark(benchmark):
    program_gba, modules = harvest_chain(HEADLINE_FAMILY)
    benchmark.pedantic(replay_chain, args=(program_gba, modules),
                       kwargs={"cache": False}, rounds=1, iterations=1)
