"""Tests for Algorithm 1 (remove_useless) and lasso extraction.

The modified Gaiser--Schwoon algorithm is cross-checked against a naive
Tarjan-based reference on random GBAs (hypothesis), and the one Tarjan
SCC search (behind ``accepts`` and ``find_accepting_lasso``) against a
reachability-closure oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.emptiness import (EmptyOracle, ExplorationLimit,
                                      find_accepting_lasso, is_empty,
                                      is_empty_naive, remove_useless)
from repro.automata.gba import GBA, ba
from repro.automata.words import UPWord, accepts
from tests.shapes import isomorphic

SIGMA = ("a", "b")


def test_empty_automaton():
    auto = ba(set(SIGMA), {("q", "a"): {"r"}}, ["q"], [])  # BA, empty F
    useful, stats = remove_useless(auto)
    assert not useful.initial_states()
    assert is_empty(auto)
    assert stats.useless_states == 2


def test_nonempty_keeps_only_useful():
    auto = ba(set(SIGMA),
              {("q", "a"): {"acc", "dead"},
               ("acc", "a"): {"acc"},
               ("dead", "b"): {"dead2"}},
              ["q"], ["acc"])
    useful, stats = remove_useless(auto)
    # the useful part, up to renaming: q -a-> acc -a-> acc
    assert isomorphic(useful, ba(set(SIGMA),
                                 {("q", "a"): {"acc"}, ("acc", "a"): {"acc"}},
                                 ["q"], ["acc"]))
    assert stats.useful_states == 2
    assert stats.useless_states == 2
    assert not is_empty(auto)


def test_language_preserved():
    auto = ba(set(SIGMA),
              {("q", "a"): {"acc"}, ("q", "b"): {"dead"},
               ("acc", "a"): {"acc"}, ("acc", "b"): {"dead"},
               ("dead", "a"): {"dead"}},
              ["q"], ["acc"])
    useful, _ = remove_useless(auto)
    for word in [UPWord((), ("a",)), UPWord((), ("b",)),
                 UPWord(("a", "a"), ("a",)), UPWord(("b",), ("a",))]:
        assert accepts(useful, word) == accepts(auto, word), str(word)


def test_generalized_conditions_must_all_recur():
    # SCC covering only one of two conditions is useless.
    auto = GBA(set(SIGMA),
               {("q", "a"): {"q"}, ("q", "b"): {"r"},
                ("r", "a"): {"r"}},
               ["q"], [["q"], ["r"]])
    assert is_empty(auto)
    # joined SCC covering both is useful
    auto2 = GBA(set(SIGMA),
                {("q", "a"): {"r"}, ("r", "b"): {"q"}},
                ["q"], [["q"], ["r"]])
    assert not is_empty(auto2)


def test_state_limit():
    auto = ba(set(SIGMA),
              {(i, "a"): {i + 1} for i in range(100)} | {(100, "a"): {100}},
              [0], [100])
    with pytest.raises(ExplorationLimit):
        remove_useless(auto, state_limit=10)


def test_oracle_prepopulated():
    auto = ba(set(SIGMA),
              {("q", "a"): {"acc"}, ("acc", "a"): {"acc"}},
              ["q"], ["acc"])
    oracle = EmptyOracle()
    oracle.add("acc")  # pretend acc is known-empty
    useful, stats = remove_useless(auto, oracle=oracle)
    # the oracle verdict is trusted: acc skipped, q has no other path
    assert not useful.initial_states()
    assert stats.subsumption_hits >= 1


def test_explored_edges_counts_every_edge():
    # q -a-> q, q -b-> r, r -a-> r: every edge is explored once, the
    # useless r's self-loop included.
    auto = ba(set(SIGMA), {("q", "a"): {"q"}, ("q", "b"): {"r"},
                           ("r", "a"): {"r"}}, ["q"], ["q"])
    useful, stats = remove_useless(auto)
    assert stats.explored_edges == 3
    assert stats.retained_edges == useful.num_transitions() == 1


def test_deep_chain_no_recursion_error():
    n = 50_000
    transitions = {(i, "a"): {i + 1} for i in range(n)}
    transitions[(n, "a")] = {n}
    auto = ba({"a"}, transitions, [0], [n])
    useful, _ = remove_useless(auto)
    assert len(useful.states) == n + 1


# -- lasso extraction ---------------------------------------------------------------

def test_find_accepting_lasso_none_when_empty():
    auto = ba(set(SIGMA), {("q", "a"): {"q"}}, ["q"], [])
    assert find_accepting_lasso(auto) is None


def test_find_accepting_lasso_word_is_accepted():
    auto = ba(set(SIGMA),
              {("q", "b"): {"q"}, ("q", "a"): {"acc"},
               ("acc", "a"): {"acc"}, ("acc", "b"): {"q"}},
              ["q"], ["acc"])
    word = find_accepting_lasso(auto)
    assert word is not None
    assert accepts(auto, word)


def test_find_accepting_lasso_generalized():
    auto = GBA(set(SIGMA),
               {("q", "a"): {"r"}, ("r", "b"): {"q"}},
               ["q"], [["q"], ["r"]])
    word = find_accepting_lasso(auto)
    assert word is not None
    assert accepts(auto, word)
    assert len(word.period) >= 2  # must visit both conditions


def test_find_accepting_lasso_self_loop():
    auto = ba(set(SIGMA), {("q", "a"): {"q"}}, ["q"], ["q"])
    word = find_accepting_lasso(auto)
    assert word == UPWord((), ("a",))


# -- randomized cross-check -----------------------------------------------------------

@st.composite
def random_gbas(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 2))
    states = list(range(n))
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if draw(st.booleans())}
            if targets:
                transitions[(q, s)] = targets
    acc_sets = [[q for q in states if draw(st.booleans())] for _ in range(k)]
    return GBA(set(SIGMA), transitions, [0], acc_sets, states=states)


@settings(max_examples=120, deadline=None)
@given(random_gbas())
def test_algorithm1_agrees_with_naive(auto):
    assert is_empty(auto) == is_empty_naive(auto)


@settings(max_examples=120, deadline=None)
@given(random_gbas())
def test_useful_states_have_nonempty_language(auto):
    useful, _ = remove_useless(auto)
    # Result states are DFS numbers, not input states.  Each has a
    # nonempty language in the result; the result is a sub-automaton of
    # the input, so the state it names is nonempty in the input too.
    for q in useful.states:
        from_q = GBA(useful.alphabet, useful.transitions, [q],
                     useful.acc_sets, states=useful.states)
        assert not is_empty_naive(from_q), f"state {q}"
    assert len(useful.states) <= _reachable_nonempty(auto)


@settings(max_examples=80, deadline=None)
@given(random_gbas())
def test_useless_states_have_empty_language(auto):
    useful, _ = remove_useless(auto)
    # Every reachable input state left out is empty: the result keeps
    # exactly as many states as the naive reference finds reachable and
    # nonempty, and each one it keeps is nonempty.
    assert len(useful.states) == _reachable_nonempty(auto)
    assert all(not is_empty_naive(GBA(useful.alphabet, useful.transitions,
                                      [q], useful.acc_sets,
                                      states=useful.states))
               for q in useful.states)


def _reachable_nonempty(auto: GBA) -> int:
    """Reachable states of ``auto`` with a nonempty language, counted
    with the naive reference."""
    reachable = set()
    stack = list(auto.initial_states())
    while stack:
        q = stack.pop()
        if q in reachable:
            continue
        reachable.add(q)
        stack.extend(auto.post(q))
    return sum(1 for q in reachable
               if not is_empty_naive(GBA(auto.alphabet, auto.transitions, [q],
                                         auto.acc_sets, states=auto.states)))


@settings(max_examples=80, deadline=None)
@given(random_gbas())
def test_extracted_lasso_is_accepted(auto):
    word = find_accepting_lasso(auto)
    if word is None:
        assert is_empty_naive(auto)
    else:
        assert accepts(auto, word)


# -- the one SCC search, against a reachability-closure oracle ----------------------


def _seeded_gba(seed: int, k: int) -> GBA:
    rng = random.Random(seed)
    states = list(range(rng.randint(1, 6)))
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if rng.random() < 0.35}
            if targets:
                transitions[(q, s)] = targets
    acc_sets = [[q for q in states if rng.random() < 0.4] for _ in range(k)]
    initial = rng.sample(states, rng.randint(1, min(2, len(states))))
    return GBA(set(SIGMA), transitions, initial, acc_sets, states=states)


def _accepts_by_closure(auto: GBA, word: UPWord) -> bool:
    """``u v^w`` is accepted iff some reachable node ``v`` of the
    ``(position, state)`` lasso product reaches itself, and every
    acceptance set has a state on a node that ``v`` reaches and that
    reaches ``v`` back."""
    end = len(word.prefix) + len(word.period)

    def post(node):
        pos, q = node
        nxt = pos + 1 if pos + 1 < end else len(word.prefix)
        return {(nxt, t) for t in auto.successors(q, word.at(pos))}

    def reach_plus(sources):
        seen, todo = set(), [t for s in sources for t in post(s)]
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(post(node))
        return seen

    initial = {(0, q) for q in auto.initial_states()}
    closure = {node: reach_plus([node])
               for node in initial | reach_plus(initial)}
    for node, forward in closure.items():
        if node not in forward:
            continue
        cycle = {other for other in forward if node in closure[other]}
        if all(any(j in auto.accepting_sets_of(q) for _, q in cycle)
               for j in range(auto.acceptance_count)):
            return True
    return False


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_scc_search_agrees_with_reachability_closure(k):
    rng = random.Random(2018 + k)
    for seed in range(60):
        auto = _seeded_gba(seed * 7 + k, k)
        sample = [UPWord(tuple(rng.choice(SIGMA)
                               for _ in range(rng.randint(0, 3))),
                         tuple(rng.choice(SIGMA)
                               for _ in range(rng.randint(1, 3))))
                  for _ in range(25)]
        for word in sample:
            assert accepts(auto, word) == _accepts_by_closure(auto, word), (
                seed, str(word))
        lasso = find_accepting_lasso(auto)
        if lasso is None:
            assert not any(_accepts_by_closure(auto, w) for w in sample), seed
        else:
            assert accepts(auto, lasso), (seed, str(lasso))
            assert _accepts_by_closure(auto, lasso), (seed, str(lasso))


# -- cooperative deadline on edge-heavy frontiers ----------------------------------

def fan_out_gba(symbols: int) -> GBA:
    """One pushed state, ``symbols`` explored self-loop edges."""
    alphabet = {f"s{i}" for i in range(symbols)}
    transitions = {("root", s): {"root"} for s in alphabet}
    return ba(alphabet, transitions, ["root"], ["root"], states={"root"})


def test_deadline_polled_on_explored_edges():
    import time

    from repro.automata.emptiness import ExplorationTimeout

    # With a single state the pushed-state poll never fires; the edge
    # poll must catch the expired deadline anyway.
    auto = fan_out_gba(2000)
    with pytest.raises(ExplorationTimeout):
        remove_useless(auto, deadline=time.perf_counter() - 1.0)


def test_fan_out_gba_completes_without_deadline():
    auto = fan_out_gba(2000)
    useful, stats = remove_useless(auto)
    assert useful.states
    assert stats.explored_edges == 2000


# -- lasso-search invariants survive `python -O` --------------------------------


class _InconsistentGBA(GBA):
    """A deliberately broken ImplicitGBA: ``post`` sees the real edges
    (so the SCC sweep finds the accepting SCC) but ``edges_from``
    claims there are none (so path extraction cannot reach it)."""

    def edges_from(self, state):
        return ()


def test_inconsistent_views_raise_search_invariant_error():
    from repro.automata.emptiness import SearchInvariantError
    auto = _InconsistentGBA(set(SIGMA),
                            {("q0", "a"): {"q1"}, ("q1", "a"): {"q1"}},
                            ["q0"], [["q1"]])
    # Formerly a bare `assert`, which `python -O` strips -- the None
    # entry state would then flow into period extension and corrupt
    # the witness word instead of failing loudly.
    with pytest.raises(SearchInvariantError) as err:
        find_accepting_lasso(auto)
    assert "unreachable" in str(err.value)


def test_inconsistent_views_raise_on_cycle_closing():
    from repro.automata.emptiness import SearchInvariantError
    # The initial state *is* the accepting SCC, so the stem is empty
    # and the failure moves to the period-closing search.
    auto = _InconsistentGBA(set(SIGMA), {("q0", "a"): {"q0"}},
                            ["q0"], [["q0"]])
    with pytest.raises(SearchInvariantError) as err:
        find_accepting_lasso(auto)
    assert "close the period" in str(err.value)


def test_search_invariant_error_is_not_a_verdict_path():
    from repro.automata.emptiness import SearchInvariantError
    from repro.core.budget import ReproError
    # An internal bug must surface as an error row, never be caught by
    # the budget/degradation machinery as if it were resource pressure.
    assert not issubclass(SearchInvariantError, ReproError)
    assert issubclass(SearchInvariantError, RuntimeError)
