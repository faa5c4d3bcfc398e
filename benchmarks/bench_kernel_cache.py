"""Kernel successor-index / memoization layer: cached vs uncached.

Ablation for ``difference(..., cache=...)``, which selects the product
Algorithm 1 explores: cached, a ``NumberedProduct`` that numbers each
``(state, macro-state)`` pair on discovery and asks the minuend once
per state and symbol and the complement once per macro-state and
symbol -- the difference's only memo; uncached, the plain
``ProductGBA`` over pairs with no memo anywhere: it asks the minuend
and the complement once per product state and symbol, and Algorithm 1
numbers the pairs on discovery itself.  Either way Algorithm 1 and the
subsumption antichain run over ints, so the modes differ only in how
often each side is asked and how the product's edges are built.

Methodology: for each ``bench_scaling`` family at its largest
configuration, one default-config analysis run harvests the
certified-module chain (``conftest.harvest_chain``: it ends by verdict
or by the round cap, so the chain does not depend on the host);
the difference chain is then *replayed* with caching on and off.  The
replay isolates the automata kernel from ranking synthesis.  Verdicts
and ``useful_states`` counts must be identical in both modes (caching
is pure memoization).

A second sweep exercises the Figure-4 corpus: differences against the
random SDBA corpus, cached vs uncached.

Expected shape: on the chains the two modes take about the same time,
because both share Algorithm 1's id loop, the antichain's memo and the
per-module direct simulation; on the corpus sweep the uncached path,
which asks the complement once per product state and symbol, is about
twice as slow.  The headline (the nested family, 60 modules) asserts
only that the cached path is at least half as fast as the uncached
one, a guard against a step-change regression in the numbered product.
Measured on a 2-vCPU host with ``REPRO_BENCH_TIMEOUT=3`` and
``REPRO_BENCH_RANDOM=5``, 6 runs: 1.05-1.22x (median 1.18x; 0.14-0.23 s
cached against 0.16-0.28 s uncached); the corpus sweep took 42-56 ms
cached and 93-114 ms uncached.  While the complements kept successor
memos of their own, the uncached path reused them, and 24 runs read
0.80-1.67x.  The record's ``config.chains`` holds each family's chain
length, so ``python -m repro trajectory`` only aligns runs that
replayed chains of the same length.  Each remainder's states are
Algorithm 1's DFS numbers, so a chain's products stay
``(int, MacroState)`` however long it is.  When remainders kept the
product's nested pair names instead, the same harvest gave a 56-module
chain at 1.59 s cached and 13.2 s uncached (8.3x): every uncached
acceptance query hashed the whole nest.
"""

from __future__ import annotations

import random
import time

from conftest import LARGEST, harvest_chain, write_bench_json

from repro.automata.difference import difference
from repro.automata.gba import ba

HEADLINE_FAMILY = "nested"
#: Cached over uncached time on the headline family: the modes are at
#: parity, so this only catches a cached path gone twice as slow.
HEADLINE_FLOOR = 0.5


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
    assert headline >= HEADLINE_FLOOR, (
        f"expected >= {HEADLINE_FLOOR}x on the largest configuration, "
        f"got {headline:.2f}x")


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
