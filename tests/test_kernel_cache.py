"""Tests for the successor-index / memoization layer of the kernel.

Covers the lazily built GBA edge index, the numbered product (over
explicit and implicit minuends), the streaming of Algorithm 1's edges
(bounded auxiliary memory), the bitset-encoded subsumption antichain,
and a corpus-level cross-check of ``difference`` under every (subsumption,
cache) combination against the naive materialized-product emptiness
reference.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.automata.complement.dispatch import (ComplementKind,
                                                implicit_complement)
from repro.automata.complement.ncsb import MacroState, subsumes, subsumes_b
from repro.automata.difference import SubsumptionOracle, difference
from repro.automata.emptiness import (RemovalStats, find_accepting_lasso,
                                      is_empty_naive, remove_useless)
from repro.automata.gba import GBA, ba, materialize
from repro.automata.ops import NumberedProduct, ProductGBA
from repro.automata.words import accepts
from repro.benchgen.sdba_corpus import random_sdba
from repro.obs.metrics import MetricsRegistry, use_registry
from tests.shapes import isomorphic

#: The module behind the package attribute ``repro.automata.difference``,
#: which is the function.
DIFFERENCE = importlib.import_module("repro.automata.difference")


@pytest.fixture
def edge_asks(monkeypatch) -> Counter:
    """Counts the ``NumberedProduct.edges_from`` calls per (product, id)."""
    asks = Counter()
    edges_from = NumberedProduct.edges_from

    def counted(self, state):
        asks[id(self), state] += 1
        return edges_from(self, state)

    monkeypatch.setattr(NumberedProduct, "edges_from", counted)
    return asks


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
    """Random components over ``universe``, bit ``i`` standing for
    ``universe[i]``."""
    def pick():
        return sum(1 << i for i in range(len(universe)) if rng.random() < 0.4)
    n, c, s = pick(), pick(), pick()
    return MacroState(n, c, s, sum(1 << i for i in range(c.bit_length())
                                   if c >> i & 1 and rng.random() < 0.5))


class _RelationAntichain:
    """The antichain of Eq. 10 computed with ``relation`` pairwise."""

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
    # One oracle holds one shape of state: (qA, macro) pairs, or bare
    # macro-states (grouped under None).
    universe = [f"q{i}" for i in range(8)]
    rng = random.Random(2018)
    macros = [_random_macro(rng, universe) for _ in range(120)]
    for keys in (["qa", "qb"], [None]):
        fast = SubsumptionOracle(relation)
        slow = _RelationAntichain(relation)
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
    # the oracle reads only the bit order off the complement
    numbering = SimpleNamespace(order=tuple(universe))
    scanned = SubsumptionOracle(relation, simulation=simulation,
                                complement=numbering)
    reference = _PairwiseOracle(relation, simulation=simulation,
                                complement=numbering)
    assert (scanned._down is not None) == coarsened
    # Both oracles remember answers alike, so they scan at the same
    # queries and their scan counts match.
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


def test_oracle_prefilter_counts_skips():
    oracle = SubsumptionOracle(subsumes)
    big = MacroState(0b111, 0, 0, 0)  # N = {a, b, c}
    tiny = MacroState(0b001, 0, 0, 0)  # N = {a}
    oracle.add(("qa", big))
    assert not oracle.contains(("qa", tiny))  # |tiny.n| < |big.n|: prefiltered
    assert oracle.prefilter_skips >= 1


# -- corpus-level cross-check (the satellite property test) -----------------------


@pytest.mark.parametrize("seed", range(8))
def test_difference_configurations_agree_with_naive_reference(seed,
                                                              monkeypatch):
    """difference(subsumption=T/F, cache=T/F) vs is_empty_naive on the
    materialized product, plus accepted-word agreement, over the random
    SDBA corpus generators."""
    subtrahend = random_sdba(seed, n_nondet=3, n_det=4)
    minuend = random_minuend(seed + 1000, subtrahend.alphabet)
    explored = []
    remove = DIFFERENCE.remove_useless

    def recorded(product, **kwargs):
        explored.append(type(product))
        return remove(product, **kwargs)

    monkeypatch.setattr(DIFFERENCE, "remove_useless", recorded)
    results, products = {}, {}
    for subsumption in (True, False):
        for cache in (True, False):
            explored.clear()
            results[subsumption, cache] = difference(
                minuend, subtrahend, subsumption=subsumption, cache=cache)
            products[subsumption, cache] = explored[:]

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

    # cache on/off is pure memoization: identical automata and counters,
    # the antichain's scan counts among them (both paths ask it by id,
    # and its memo skips the same scans)
    for subsumption in (True, False):
        on, off = results[(subsumption, True)], results[(subsumption, False)]
        assert on.automaton.states == off.automaton.states
        assert dict(on.automaton.transitions) == dict(off.automaton.transitions)
        assert on.stats.useful_states == off.stats.useful_states
        assert on.stats.useless_states == off.stats.useless_states
        assert on.stats.explored_states == off.stats.explored_states
        assert on.stats.explored_edges == off.stats.explored_edges
        assert on.stats.subsumption_hits == off.stats.subsumption_hits
        assert on.stats.prefilter_skips == off.stats.prefilter_skips
        assert (on.stats.sim_subsumption_hits
                == off.stats.sim_subsumption_hits)
    # the cached runs explored the numbered product, the others the
    # plain pair product
    for (subsumption, cache), kinds in products.items():
        assert kinds == [NumberedProduct if cache else ProductGBA], \
            (subsumption, cache)


def test_many_initial_states_keep_the_plain_root_order(edge_asks):
    """Twelve initial states 12..23, each on its own cycle of a distinct
    length: the roots' order fixes every DFS number.  Product ids
    0..11 sorted by their own ``repr`` would run 0, 1, 10, 11, 2, ...;
    the numbered product must start from its pairs' ``repr`` order."""
    subtrahend = random_sdba(3)
    sigma = subtrahend.alphabet
    transitions = {}
    for root in range(12, 24):
        cycle = [root] + [(root, i) for i in range(root - 11)]
        for source, target in zip(cycle, cycle[1:] + cycle[:1]):
            for symbol in sigma:
                transitions[(source, symbol)] = {target}
    minuend = ba(sigma, transitions, range(12, 24),
                 {q for q, _ in transitions})
    assert len(minuend.initial_states()) == 12
    on = difference(minuend, subtrahend, cache=True)
    built = sum(edge_asks.values())
    assert built == len(edge_asks) == on.stats.explored_states
    off = difference(minuend, subtrahend, cache=False)
    assert sum(edge_asks.values()) == built
    assert on.automaton.states == off.automaton.states
    assert dict(on.automaton.transitions) == dict(off.automaton.transitions)
    assert on.automaton.initial_states() == off.automaton.initial_states()
    for field in fields(RemovalStats):
        assert (getattr(on.stats, field.name)
                == getattr(off.stats, field.name)), field.name


def _implicit_minuend(shape: str, seed: int, alphabet):
    """An implicit minuend over ``alphabet``: a pair product of two
    random BAs (two acceptance sets), or a bare NCSB complement."""
    if shape == "product":
        return ProductGBA(random_minuend(seed, alphabet),
                          random_minuend(seed + 1, alphabet, n=3))
    comp, _ = implicit_complement(random_sdba(seed + 2000, n_nondet=2,
                                              n_det=3), alphabet)
    return comp


@pytest.mark.parametrize("shape", ["product", "ncsb"])
@pytest.mark.parametrize("seed", range(4))
def test_implicit_minuend_gives_the_same_result_cached_or_not(shape, seed,
                                                             edge_asks):
    subtrahend = random_sdba(seed, n_nondet=3, n_det=4)
    minuend = _implicit_minuend(shape, seed, subtrahend.alphabet)
    assert not isinstance(minuend, GBA)
    for subsumption in (True, False):
        edge_asks.clear()
        on = difference(minuend, subtrahend, subsumption=subsumption,
                        cache=True)
        # the numbered product is asked for each explored id's edges
        # exactly once
        assert (sum(edge_asks.values()) == len(edge_asks)
                == on.stats.explored_states > 0)
        edge_asks.clear()
        off = difference(minuend, subtrahend, subsumption=subsumption,
                         cache=False)
        assert not edge_asks
        assert on.automaton.states == off.automaton.states
        assert dict(on.automaton.transitions) == dict(off.automaton.transitions)
        assert on.automaton.initial_states() == off.automaton.initial_states()
        assert on.automaton.acc_sets == off.automaton.acc_sets
        for name in ("explored_states", "explored_edges", "useful_states",
                     "useless_states", "subsumption_hits"):
            assert (getattr(on.stats, name)
                    == getattr(off.stats, name)), (subsumption, name)


# -- numbered product ------------------------------------------------------------


def test_numbered_product_mirrors_the_pair_product():
    subtrahend = random_sdba(4)
    minuend = random_minuend(4, subtrahend.alphabet)
    comp, _ = implicit_complement(subtrahend, minuend.alphabet)
    plain = ProductGBA(minuend, comp)
    numbered = NumberedProduct(minuend, comp)
    assert numbered.acceptance_count == plain.acceptance_count
    assert [numbered.pairs[i] for i in numbered.initial_states()] \
        == plain.initial_states()
    frontier = list(numbered.initial_states())
    seen = set(frontier)
    first = {}
    while frontier:
        state = frontier.pop()
        pair = numbered.pairs[state]
        edges = first[state] = numbered.edges_from(state)
        assert [(symbol, numbered.pairs[target]) for symbol, target in edges] \
            == [(symbol, target)
                for symbol in sorted(plain.alphabet, key=str)
                for target in plain.successors(pair, symbol)]
        assert numbered.accepting_sets_of(state) \
            == plain.accepting_sets_of(pair)
        for symbol in plain.alphabet:
            assert [numbered.pairs[target]
                    for target in numbered.successors(state, symbol)] \
                == plain.successors(pair, symbol)
        for _, target in edges:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    # the ids are dense, and asking again gives equal edge lists over
    # the same ids, numbering nothing new
    assert len(seen) == len(numbered.pairs)
    pairs = [numbered.pairs[i] for i in range(len(numbered.pairs))]
    for state, edges in first.items():
        assert numbered.edges_from(state) == edges
    assert [numbered.pairs[i] for i in range(len(numbered.pairs))] == pairs


class CountedComplement:
    """An implicit automaton that counts the ``successors`` questions
    asked of the one it wraps, per (state, symbol), and the states its
    answers held.  Any other attribute is the wrapped one's."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = Counter()
        self.answered = 0
        self.alphabet = inner.alphabet
        self.acceptance_count = inner.acceptance_count

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def initial_states(self):
        return self.inner.initial_states()

    def accepting_sets_of(self, state):
        return self.inner.accepting_sets_of(state)

    def successors(self, state, symbol):
        self.asked[state, symbol] += 1
        out = self.inner.successors(state, symbol)
        self.answered += len(out)
        return out


@pytest.mark.parametrize("seed, kind", [
    pytest.param(seed, kind,
                 id=str(seed) if kind is None else f"{seed}-{kind.value}")
    for kind in (None, ComplementKind.RANK, ComplementKind.MODULAR)
    for seed in range(4)])
def test_numbered_product_asks_the_complement_once_per_row(seed, kind,
                                                           monkeypatch):
    # None lets the dispatch pick NCSB; the rank-based and modular
    # complements are explored whole only on small subtrahends.
    if kind is None:
        subtrahend = random_sdba(seed)
        minuend = random_minuend(seed, subtrahend.alphabet, n=5)
    else:
        subtrahend = random_sdba(seed, n_nondet=2, n_det=2)
        minuend = random_minuend(seed, subtrahend.alphabet, n=3)
    comp, used = implicit_complement(subtrahend, minuend.alphabet, kind=kind)
    assert used is (kind or ComplementKind.SDBA_LAZY)
    counted = CountedComplement(comp)
    numbered = NumberedProduct(minuend, counted)
    frontier = list(numbered.initial_states())
    seen = set(frontier)
    product_rows = 0  # (id, symbol) pairs with a left successor
    while frontier:
        state = frontier.pop()
        p = numbered.pairs[state][0]
        product_rows += sum(1 for symbol in minuend.alphabet
                            if minuend.successors(p, symbol))
        for _, target in numbered.edges_from(state):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    assert max(counted.asked.values()) == 1
    # left states share the complement states' rows
    assert len(counted.asked) < product_rows

    # Through ``difference``, the complement's own tallies reach the
    # registry once per call, as the rows asked and the states answered.
    asked = []

    def wrapped(*args, **kwargs):
        comp, used = implicit_complement(*args, **kwargs)
        asked.append(CountedComplement(comp))
        return asked[-1], used

    monkeypatch.setattr(DIFFERENCE, "implicit_complement", wrapped)
    registry = MetricsRegistry()
    with use_registry(registry):
        difference(minuend, subtrahend, kind=kind)
    (counted,) = asked
    assert max(counted.asked.values()) == 1
    counters = registry.snapshot()["counters"]
    tallied = {name: value for name, value in counters.items()
               if name.startswith("complement.")
               and name.endswith((".expansions", ".macrostates"))}
    name = f"complement.{counted.inner.KIND}"
    assert tallied == {f"{name}.expansions": len(counted.asked),
                       f"{name}.macrostates": counted.answered}


@pytest.mark.parametrize("relation", [subsumes, subsumes_b])
def test_oracle_over_product_ids_matches_oracle_over_pairs(relation):
    universe = [f"q{i}" for i in range(8)]
    rng = random.Random(1110)
    pairs = [(rng.choice(["qa", "qb"]), _random_macro(rng, universe))
             for _ in range(150)]
    # One oracle asked by id through Algorithm 1's view, one by pair;
    # both remember answers per id, so they scan alike.
    numbered = SubsumptionOracle(relation)
    contains, add = numbered.bind(pairs)
    plain = SubsumptionOracle(relation)
    for i in range(300):
        state = rng.randrange(len(pairs))
        if i % 3 == 0:
            add(state)
            plain.add(pairs[state])
        assert contains(state) == plain.contains(pairs[state])
        assert len(numbered) == len(plain)
    assert numbered._groups == plain._groups
    assert numbered.prefilter_skips == plain.prefilter_skips


def test_gba_accepting_sets_of_returns_shared_sets():
    auto = GBA({"a"}, {("p", "a"): {"q"}, ("q", "a"): {"p", "r"},
                       ("r", "a"): {"r"}},
               ["p"], [["p", "q"], ["q", "r"], ["q"]])
    assert auto.accepting_sets_of("q") == {0, 1, 2}
    assert auto.accepting_sets_of("q") is auto.accepting_sets_of("q")
    assert auto.accepting_sets_of("x") == frozenset()
