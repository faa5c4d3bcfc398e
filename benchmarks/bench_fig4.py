"""Figure 4 and the Section 7 averages table: complement sizes in
states (4a) and transitions (4b), and complementation time (4c).

Every corpus SDBA is complemented once per setting -- NCSB-Original,
NCSB-Lazy, and NCSB-Lazy + subsumption (Algorithm 1 over the
complement with the ``ceil(emp)`` antichain, which is how the
on-the-fly difference consumes it) -- by one ``remove_useless`` pass,
which yields the states and transitions it constructed and the time it
took.

Paper's expected shapes:

- 4a (averages 4,700 / 2,900 / 1,600): Lazy never has more states than
  Original (Proposition 5.2), and subsumption removes further states;
- 4b (averages 122,200 / 132,300 / 111,700): Lazy *usually* reduces
  transitions but, unlike states, is not guaranteed to; subsumption
  helps less on transitions than on states;
- 4c: Lazy is faster than Original in most cases, and subsumption often
  *costs* time (antichain upkeep) even though it saves states.
"""

from __future__ import annotations

import time

import pytest

from repro.automata.complement.ncsb import NCSBLazy, NCSBOriginal, subsumes_b
from repro.automata.difference import SubsumptionOracle
from repro.automata.emptiness import remove_useless

#: Setting -> (complement construction, subsumption relation or None).
SETTINGS = {"original": (NCSBOriginal, None), "lazy": (NCSBLazy, None),
            "lazy+sub": (NCSBLazy, subsumes_b)}


def measure(sdba, setting: str) -> tuple[int, int, float]:
    """(states, transitions, seconds) of complementing ``sdba``: Original
    and Lazy explore the full reachable macro-state space (the exact
    ``emp``); Lazy+Subsumption replaces ``emp`` by the ``ceil(emp)``
    antichain, which prunes exploration."""
    construction, relation = SETTINGS[setting]
    start = time.perf_counter()
    oracle = SubsumptionOracle(relation) if relation else None
    _, stats = remove_useless(construction(sdba), oracle=oracle)
    return (stats.explored_states, stats.explored_edges,
            time.perf_counter() - start)


@pytest.fixture(scope="module")
def passes(corpus) -> dict[str, list[tuple[int, int, float]]]:
    """Setting -> one measurement per corpus SDBA."""
    return {setting: [measure(sdba, setting) for sdba in corpus]
            for setting in SETTINGS}


def column(passes, setting: str, index: int) -> list:
    return [measurement[index] for measurement in passes[setting]]


def avg(xs) -> float:
    return sum(xs) / len(xs)


def test_fig4a_report(corpus, passes):
    """Prints the per-automaton scatter data and the averages row."""
    originals, lazies, subs = (column(passes, s, 0) for s in SETTINGS)
    print("\n=== Figure 4a: complement states per SDBA "
          "(Original vs Lazy vs Lazy+Subsumption) ===")
    print(f"{'idx':>4} {'|Q| in':>7} {'Original':>9} {'Lazy':>9} {'Lazy+Sub':>9}")
    wins = 0
    for k, (sdba, o, l, s) in enumerate(zip(corpus, originals, lazies, subs)):
        if k < 25:
            print(f"{k:>4} {len(sdba.states):>7} {o:>9} {l:>9} {s:>9}")
        wins += l < o
    if len(corpus) > 25:
        print(f"  ... ({len(corpus) - 25} more)")
    print(f"\naverages over {len(corpus)} SDBAs "
          f"(paper: 4,700 / 2,900 / 1,600 on its corpus):")
    print(f"  NCSB-Original:          {avg(originals):10.1f} states")
    print(f"  NCSB-Lazy:              {avg(lazies):10.1f} states")
    print(f"  NCSB-Lazy+Subsumption:  {avg(subs):10.1f} states")
    print(f"  strictly-smaller-under-Lazy: {wins}/{len(corpus)}")

    # Proposition 5.2 and the subsumption guarantee, asserted per automaton.
    for o, l, s in zip(originals, lazies, subs):
        assert l <= o, "Proposition 5.2 violated"
        assert s <= l, "subsumption must never add states"
    assert avg(lazies) <= avg(originals)
    assert avg(subs) <= avg(lazies)


def test_fig4b_report(passes):
    originals, lazies, subs = (column(passes, s, 1) for s in SETTINGS)
    above_diagonal = sum(l > o for o, l in zip(originals, lazies))
    print("\n=== Figure 4b: complement transitions per SDBA ===")
    print(f"averages over {len(originals)} SDBAs "
          f"(paper: 122,200 / 132,300 / 111,700):")
    print(f"  NCSB-Original:          {avg(originals):12.1f} transitions")
    print(f"  NCSB-Lazy:              {avg(lazies):12.1f} transitions")
    print(f"  NCSB-Lazy+Subsumption:  {avg(subs):12.1f} transitions")
    print(f"  Lazy above the diagonal (more transitions than Original): "
          f"{above_diagonal}/{len(originals)}")
    # The paper observes Lazy can increase transitions: no per-automaton
    # inequality is asserted here, only that subsumption never explores
    # more edges than plain Lazy.
    for l, s in zip(lazies, subs):
        assert s <= l


def test_fig4c_report(passes):
    originals, lazies, subs = (column(passes, s, 2) for s in SETTINGS)
    lazy_faster = sum(l <= o for o, l in zip(originals, lazies))
    sub_slower = sum(s > l for l, s in zip(lazies, subs))
    print("\n=== Figure 4c: complementation time [s] ===")
    print(f"  total NCSB-Original:         {sum(originals):8.3f}s "
          f"(avg {avg(originals)*1000:7.2f}ms)")
    print(f"  total NCSB-Lazy:             {sum(lazies):8.3f}s "
          f"(avg {avg(lazies)*1000:7.2f}ms)")
    print(f"  total NCSB-Lazy+Subsumption: {sum(subs):8.3f}s "
          f"(avg {avg(subs)*1000:7.2f}ms)")
    print(f"  Lazy at-least-as-fast as Original: {lazy_faster}/{len(originals)}")
    print(f"  Subsumption slower than plain Lazy: {sub_slower}/{len(originals)} "
          f"(the paper reports noticeable antichain overhead)")
