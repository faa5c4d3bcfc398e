"""Tests for the successor-index / memoization layer of the kernel.

Covers the CachedImplicitGBA wrapper, the lazily built GBA edge index,
the streaming of Algorithm 1's edges (bounded auxiliary memory), the
bitset-encoded subsumption antichain, and a corpus-level cross-check of
``difference`` under every (subsumption, cache) combination against the
naive materialized-product emptiness reference.
"""

from __future__ import annotations

import random

import pytest

from repro.automata.complement.dispatch import implicit_complement
from repro.automata.complement.ncsb import (MacroEncoder, MacroState,
                                            subsumes, subsumes_b)
from repro.automata.difference import SubsumptionOracle, difference
from repro.automata.emptiness import (find_accepting_lasso, is_empty_naive,
                                      remove_useless)
from repro.automata.gba import CachedImplicitGBA, GBA, ba, materialize
from repro.automata.ops import ProductGBA
from repro.automata.words import accepts
from repro.benchgen.sdba_corpus import random_sdba
from tests.shapes import isomorphic


def random_minuend(seed: int, alphabet, n: int = 4) -> GBA:
    """A random all-accepting BA over the given alphabet."""
    rng = random.Random(seed)
    sigma = sorted(alphabet)
    states = list(range(n))
    transitions = {}
    for q in states:
        for s in sigma:
            targets = {t for t in states if rng.random() < 0.5}
            if targets:
                transitions[(q, s)] = targets
    return ba(alphabet, transitions, [0], states, states=states)


# -- CachedImplicitGBA -----------------------------------------------------------


def test_cached_wrapper_is_equivalent_and_counts_hits():
    sdba = random_sdba(7)
    comp, _ = implicit_complement(sdba)
    cached = CachedImplicitGBA(comp)
    assert cached.alphabet == comp.alphabet
    assert cached.acceptance_count == comp.acceptance_count
    assert tuple(cached.initial_states()) == tuple(comp.initial_states())
    state = next(iter(comp.initial_states()))
    symbol = sorted(cached.alphabet, key=str)[0]
    first = cached.successors(state, symbol)
    assert cached.cache_misses == 1 and cached.cache_hits == 0
    again = cached.successors(state, symbol)
    assert again is first  # served from the cache, not recomputed
    assert cached.cache_hits == 1
    assert set(first) == set(comp.successors(state, symbol))
    assert cached.accepting_sets_of(state) == frozenset(
        comp.accepting_sets_of(state))


def test_cached_wrapper_edge_index_is_sorted_and_complete():
    sdba = random_sdba(11)
    comp, _ = implicit_complement(sdba)
    cached = CachedImplicitGBA(comp)
    state = next(iter(cached.initial_states()))
    edges = cached.edges_from(state)
    assert cached.cache_misses == 1 and cached.cache_hits == 0
    assert edges is cached.edges_from(state)  # interned
    assert cached.cache_misses == 1 and cached.cache_hits == 1
    # built from the wrapped automaton: the per-(state, symbol) memo of
    # successors() stays empty
    assert cached._succ == {}
    symbols = [str(symbol) for symbol, _ in edges]
    assert symbols == sorted(symbols)
    expected = {(symbol, target)
                for symbol in comp.alphabet
                for target in comp.successors(state, symbol)}
    assert set(edges) == expected
    assert edges == tuple((symbol, target)
                          for symbol in sorted(comp.alphabet, key=str)
                          for target in comp.successors(state, symbol))
    for target in {target for _, target in edges}:
        cached.edges_from(target)
    assert cached.cache_misses == 1 + len({target for _, target in edges}
                                          - {state})
    assert cached._succ == {}


def test_gba_edge_index_matches_transitions():
    auto = random_minuend(3, frozenset(("a", "b")))
    for state in auto.states:
        edges = auto.edges_from(state)
        assert edges is auto.edges_from(state)  # built once, interned
        expected = {(symbol, target)
                    for symbol in auto.alphabet
                    for target in auto.successors(state, symbol)}
        assert set(edges) == expected
        symbols = [str(symbol) for symbol, _ in edges]
        assert symbols == sorted(symbols)
        assert auto.post(state) == {t for _, t in edges}


def test_gba_transitions_view_is_read_only():
    auto = random_minuend(4, frozenset(("a", "b")))
    with pytest.raises(TypeError):
        auto.transitions[("x", "a")] = frozenset({"y"})


# -- Algorithm 1 edge streaming ----------------------------------------------------


def test_remove_useless_classifies_every_explored_state():
    # useful + useless must sum to explored, independent of the oracle
    # representation (the antichain keeps only maximal entries).
    minuend = random_minuend(5, frozenset(f"s{i}" for i in range(3)))
    sdba = random_sdba(5)
    result = difference(minuend, sdba, subsumption=True)
    stats = result.stats
    assert stats.useful_states + stats.useless_states == stats.explored_states
    no_sub = difference(minuend, sdba, subsumption=False)
    assert (no_sub.stats.useful_states + no_sub.stats.useless_states
            == no_sub.stats.explored_states)


def test_peak_pending_edges_does_not_scale_with_useless_edges():
    # K useless chains of length M hang off the root next to one useful
    # loop.  The old edges_seen list grew to ~K*M edges; the streaming
    # index drops each chain as soon as it is classified, so the peak
    # stays proportional to a single chain plus the root's fanout.
    k_chains, m_len = 40, 50
    transitions = {("root", "a"): {"loop"} | {f"c{i}_0" for i in range(k_chains)},
                   ("loop", "a"): {"loop"}}
    for i in range(k_chains):
        for j in range(m_len - 1):
            transitions[(f"c{i}_{j}", "a")] = {f"c{i}_{j+1}"}
    auto = ba({"a"}, transitions, ["root"], ["loop"])
    useful, stats = remove_useless(auto)
    # the useful part, up to renaming: root -a-> loop -a-> loop
    assert isomorphic(useful, ba({"a"}, {("root", "a"): {"loop"},
                                         ("loop", "a"): {"loop"}},
                                 ["root"], ["loop"]))
    assert stats.explored_edges >= k_chains * (m_len - 1)
    # peak auxiliary memory must not scale with the useless bulk
    assert stats.peak_pending_edges <= m_len + k_chains + 4
    assert stats.peak_pending_edges < stats.explored_edges / 10
    assert stats.retained_edges == 2  # root->loop, loop->loop


def test_retained_edges_match_result_automaton():
    minuend = random_minuend(9, frozenset(f"s{i}" for i in range(3)))
    sdba = random_sdba(9)
    result = difference(minuend, sdba)
    assert result.stats.retained_edges == result.automaton.num_transitions()


# -- bitset subsumption oracle ----------------------------------------------------


def _random_macro(rng: random.Random, universe) -> MacroState:
    def pick():
        return frozenset(q for q in universe if rng.random() < 0.4)
    n, c, s = pick(), pick(), pick()
    return MacroState(n, c, s, frozenset(b for b in c if rng.random() < 0.5))


class _RelationAntichain:
    """The antichain of Eq. 10 computed with ``relation`` on frozensets."""

    def __init__(self, relation):
        self.relation = relation
        self.groups = {}

    @staticmethod
    def split(state):
        return (None, state) if isinstance(state, MacroState) else state

    def add(self, state):
        key, macro = self.split(state)
        group = self.groups.setdefault(key, [])
        if any(self.relation(macro, kept) for kept in group):
            return
        self.groups[key] = [kept for kept in group
                            if not self.relation(kept, macro)] + [macro]

    def contains(self, state):
        key, macro = self.split(state)
        return any(self.relation(macro, kept)
                   for kept in self.groups.get(key, ()))

    def __len__(self):
        return sum(len(group) for group in self.groups.values())


@pytest.mark.parametrize("relation", [subsumes, subsumes_b])
def test_bitset_oracle_agrees_with_generic_path(relation):
    universe = [f"q{i}" for i in range(8)]
    rng = random.Random(2018)
    fast = SubsumptionOracle(relation)
    slow = _RelationAntichain(relation)
    macros = [_random_macro(rng, universe) for _ in range(120)]
    keys = ["qa", "qb", None]
    for i, macro in enumerate(macros):
        key = keys[i % len(keys)]
        state = macro if key is None else (key, macro)
        if i % 3 == 0:
            fast.add(state)
            slow.add(state)
        assert fast.contains(state) == slow.contains(state), str(macro)
        assert len(fast) == len(slow)


class _PairwiseOracle(SubsumptionOracle):
    """The oracle with its one-loop scan replaced by the pairwise one."""

    def _covered(self, entry, group):
        return any(self._subsumed(entry, existing) for existing in group)


@pytest.mark.parametrize("coarsened", [False, True])
@pytest.mark.parametrize("relation", [subsumes, subsumes_b])
def test_one_loop_antichain_scan_matches_pairwise_scan(relation, coarsened):
    universe = [f"q{i}" for i in range(8)]
    rng = random.Random(1405)
    simulation = None
    if coarsened:
        simulation = {(q, q) for q in universe}
        simulation |= {(rng.choice(universe), rng.choice(universe))
                       for _ in range(12)}
    scanned = SubsumptionOracle(relation, simulation=simulation)
    reference = _PairwiseOracle(relation, simulation=simulation)
    assert (scanned._down is not None) == coarsened
    for i in range(400):
        state = ("qa" if i % 2 else "qb", _random_macro(rng, universe))
        if i % 4 == 0:
            scanned.add(state)
            reference.add(state)
            assert scanned._groups == reference._groups
        assert scanned.contains(state) == reference.contains(state)
        assert scanned.prefilter_skips == reference.prefilter_skips
        assert scanned.sim_subsumption_hits == reference.sim_subsumption_hits
    assert scanned.prefilter_skips > 0
    assert (scanned.sim_subsumption_hits > 0) == coarsened


def test_macro_encoder_interns_and_encodes_supersets():
    enc = MacroEncoder()
    small = MacroState(frozenset({"a", "b"}), frozenset({"c"}),
                       frozenset(), frozenset())
    big = MacroState(frozenset({"a"}), frozenset({"c"}),
                     frozenset(), frozenset())
    e_small, e_big = enc.encode(small), enc.encode(big)
    assert enc.encode(small) is e_small  # interned
    # small.n >= big.n  <=>  small bits cover big bits
    assert e_small[0] & e_big[0] == e_big[0]
    assert e_small[4] == 2 and e_big[4] == 1  # component sizes carried along


def test_oracle_prefilter_counts_skips():
    oracle = SubsumptionOracle(subsumes)
    big = MacroState(frozenset({"a", "b", "c"}), frozenset(), frozenset(),
                     frozenset())
    tiny = MacroState(frozenset({"a"}), frozenset(), frozenset(), frozenset())
    oracle.add(("qa", big))
    assert not oracle.contains(("qa", tiny))  # |tiny.n| < |big.n|: prefiltered
    assert oracle.prefilter_skips >= 1


# -- corpus-level cross-check (the satellite property test) -----------------------


@pytest.mark.parametrize("seed", range(8))
def test_difference_configurations_agree_with_naive_reference(seed):
    """difference(subsumption=T/F, cache=T/F) vs is_empty_naive on the
    materialized product, plus accepted-word agreement, over the random
    SDBA corpus generators."""
    subtrahend = random_sdba(seed, n_nondet=3, n_det=4)
    minuend = random_minuend(seed + 1000, subtrahend.alphabet)

    results = {
        (subsumption, cache): difference(minuend, subtrahend,
                                         subsumption=subsumption, cache=cache)
        for subsumption in (True, False)
        for cache in (True, False)
    }

    # naive reference: materialize the whole product, Tarjan-based check
    comp, _ = implicit_complement(subtrahend, minuend.alphabet)
    product = materialize(ProductGBA(minuend, comp))
    naive_empty = is_empty_naive(product)

    for config, result in results.items():
        assert result.is_empty == naive_empty, config
        if not result.is_empty:
            witness = find_accepting_lasso(result.automaton)
            assert witness is not None, config
            assert accepts(minuend, witness), config
            assert not accepts(subtrahend, witness), config

    # cache on/off is pure memoization: identical automata and counters
    for subsumption in (True, False):
        on, off = results[(subsumption, True)], results[(subsumption, False)]
        assert on.automaton.states == off.automaton.states
        assert dict(on.automaton.transitions) == dict(off.automaton.transitions)
        assert on.stats.useful_states == off.stats.useful_states
        assert on.stats.useless_states == off.stats.useless_states
        assert on.stats.explored_states == off.stats.explored_states
    # caching actually engaged on the cached runs
    assert results[(True, True)].stats.cache_misses > 0
