"""Tests for early simulations (Section 6.1) and simulation reduction.

The headline checks mirror the paper's claims:

- Proposition 6.1: ``early  <=  early+1  <=  language inclusion``,
- Lemma 6.2: on NCSB-Original complements, ``subsumes`` is an early+1
  simulation and ``subsumes_b`` an early simulation.

The engine computes only direct simulation; the early relations are
computed here by :func:`naive_simulation_pairs`, a chaotic-iteration
fixpoint over the monitored product game of Eqs. 11 and 12.
"""

import random

import pytest

from repro.automata.complement.ncsb import (MacroState, NCSBOriginal,
                                            prepare_sdba, subsumes,
                                            subsumes_b)
from repro.automata.gba import ba, materialize
from repro.automata.simulation import direct_simulation, quotient
from repro.automata.words import UPWord, accepts

SIGMA = ("a", "b")


def random_ba(seed: int, n: int = 4):
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n)]
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if rng.random() < 0.45}
            if targets:
                transitions[(q, s)] = targets
    accepting = [q for q in states if rng.random() < 0.4] or [states[-1]]
    return ba(set(SIGMA), transitions, [states[0]], accepting, states=states)


def words(count: int, seed: int):
    rng = random.Random(seed)
    return [UPWord(tuple(rng.choice(SIGMA) for _ in range(rng.randint(0, 3))),
                   tuple(rng.choice(SIGMA) for _ in range(rng.randint(1, 3))))
            for _ in range(count)]


# -- the early simulations, by chaotic iteration ----------------------------------
#
# ``pi_p`` is early+1 simulated by ``pi_r`` (Eq. 12) iff between every
# two accepting visits of ``pi_p`` (positions ``i < j``), ``pi_r`` visits
# an accepting state at some ``k`` with ``i < k <= j``; it is early
# simulated (Eq. 11) iff additionally ``pi_r``'s first accepting visit
# comes no later than ``pi_p``'s (the ``i = -1`` case).  Both are safety
# conditions on the product play: a game node is ``(p, r, owing)``,
# where ``owing`` records that Spoiler has visited F since Duplicator's
# last F-visit, and Spoiler visiting F again while still owing (without
# Duplicator serving at the same step) loses.  ``initial_owing``
# selects the relation: ``True`` gives early, ``False`` early+1.

def _violates(owing, p_acc, r_acc):
    """Spoiler closes an owed window without Duplicator serving it."""
    return owing and p_acc and not r_acc


def _step(owing, p_acc, r_acc):
    """Monitor update after a joint move to ``(p, r)`` (no violation)."""
    if r_acc:
        owing = False
    if p_acc:
        owing = True
    return owing


def naive_simulation_pairs(auto, initial_owing):
    accepting = auto.accepting
    states = sorted(auto.states, key=repr)
    alive = {(p, r, o) for p in states for r in states for o in (False, True)}
    changed = True
    while changed:
        changed = False
        for node in list(alive):
            p, r, owing = node
            for symbol in auto.alphabet:
                p_moves = auto.successors(p, symbol)
                if not p_moves:
                    continue
                r_moves = auto.successors(r, symbol)
                for p2 in p_moves:
                    p_acc = p2 in accepting
                    if not any(not _violates(owing, p_acc, r2 in accepting)
                               and (p2, r2,
                                    _step(owing, p_acc, r2 in accepting)) in alive
                               for r2 in r_moves):
                        alive.discard(node)
                        changed = True
                        break
                if node not in alive:
                    break
    result = set()
    for p in states:
        for r in states:
            p_acc, r_acc = p in accepting, r in accepting
            if _violates(initial_owing, p_acc, r_acc):
                continue
            if (p, r, _step(initial_owing, p_acc, r_acc)) in alive:
                result.add((p, r))
    return result


# -- basic sanity -----------------------------------------------------------------

def test_simulations_are_reflexive():
    auto = random_ba(1)
    for relation in (naive_simulation_pairs(auto, True),
                     naive_simulation_pairs(auto, False),
                     direct_simulation(auto)):
        for q in auto.states:
            assert (q, q) in relation


def test_identical_twin_states_simulate_each_other():
    auto = ba(set(SIGMA),
              {("p", "a"): {"p"}, ("q", "a"): {"q"}},
              ["p"], ["p", "q"], states={"p", "q"})
    sim = naive_simulation_pairs(auto, True)
    assert ("p", "q") in sim and ("q", "p") in sim


def test_accepting_needs_accepting_counterpart_for_early():
    # p is accepting at position 0; r never accepts: early fails, early+1
    # holds when p never accepts AGAIN (single F-visit has no (i, j) pair).
    auto = ba(set(SIGMA),
              {("p", "a"): {"sink"}, ("r", "a"): {"sink"},
               ("sink", "a"): {"sink"}},
              ["p"], ["p"], states={"p", "r", "sink"})
    early = naive_simulation_pairs(auto, True)
    plus = naive_simulation_pairs(auto, False)
    assert ("p", "r") not in early
    assert ("p", "r") in plus


def test_requires_acceptance_in_every_window():
    # p accepts on every step; r accepts only every second step: the
    # window between some consecutive p-visits contains no r-visit, so
    # even early+1 fails.
    auto = ba(set(SIGMA),
              {("p", "a"): {"p"},
               ("r0", "a"): {"r1"}, ("r1", "a"): {"r0"}},
              ["p"], ["p", "r1"], states={"p", "r0", "r1"})
    plus = naive_simulation_pairs(auto, False)
    assert ("p", "r0") not in plus
    # conversely p (accepting every step) serves every window of r0
    assert ("r0", "p") in plus
    # and r stuck in a non-accepting loop fails as well
    auto2 = ba(set(SIGMA),
               {("p", "a"): {"p"}, ("r", "a"): {"r"}},
               ["p"], ["p"], states={"p", "r"})
    assert ("p", "r") not in naive_simulation_pairs(auto2, False)


# -- Proposition 6.1 ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_proposition_6_1_chain(seed):
    auto = random_ba(seed)
    early = naive_simulation_pairs(auto, True)
    plus = naive_simulation_pairs(auto, False)
    assert early <= plus, "early must be contained in early+1"
    # early+1 under-approximates language inclusion (word sampling)
    sample = words(60, seed + 500)
    for p, r in plus:
        lang_p = ba(auto.alphabet, auto.transitions, [p], auto.accepting,
                    states=auto.states)
        lang_r = ba(auto.alphabet, auto.transitions, [r], auto.accepting,
                    states=auto.states)
        for word in sample:
            if accepts(lang_p, word):
                assert accepts(lang_r, word), (p, r, str(word))


@pytest.mark.parametrize("seed", range(8))
def test_direct_simulation_within_early(seed):
    auto = random_ba(seed)
    direct = direct_simulation(auto)
    early = naive_simulation_pairs(auto, True)
    assert direct <= early


# -- Lemma 6.2 -----------------------------------------------------------------------

def random_sdba(seed: int):
    rng = random.Random(seed)
    q1 = ["n0", "n1"]
    q2 = ["d0", "d1", "d2"]
    accepting = [q for q in q2 if rng.random() < 0.6] or [q2[0]]
    transitions = {}
    for q in q1:
        for s in SIGMA:
            targets = {t for t in q1 if rng.random() < 0.5}
            if rng.random() < 0.5:
                targets.add(rng.choice(q2))
            if targets:
                transitions[(q, s)] = targets
    for q in q2:
        for s in SIGMA:
            transitions[(q, s)] = {rng.choice(q2)}
    return prepare_sdba(ba(set(SIGMA), transitions, ["n0"], accepting,
                           states=q1 + q2))


@pytest.mark.parametrize("seed", range(6))
def test_lemma_6_2_on_ncsb_original(seed):
    complement = materialize(NCSBOriginal(random_sdba(seed)))
    early = naive_simulation_pairs(complement, True)
    plus = naive_simulation_pairs(complement, False)
    macro_states = [q for q in complement.states if isinstance(q, MacroState)]
    for p in macro_states:
        for r in macro_states:
            if subsumes(p, r):
                assert (p, r) in plus, f"Lemma 6.2 (14) fails: {p} vs {r}"
            if subsumes_b(p, r):
                assert (p, r) in early, f"Lemma 6.2 (15) fails: {p} vs {r}"


# -- quotient reduction ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_quotient_preserves_language(seed):
    auto = random_ba(seed, n=5)
    reduced = quotient(auto)
    assert len(reduced.states) <= len(auto.states)
    for word in words(80, seed + 900):
        assert accepts(reduced, word) == accepts(auto, word), str(word)


def test_quotient_merges_twins():
    auto = ba(set(SIGMA),
              {("i", "a"): {"p", "q"},
               ("p", "a"): {"p"}, ("q", "a"): {"q"}},
              ["i"], ["p", "q"], states={"i", "p", "q"})
    reduced = quotient(auto)
    assert len(reduced.states) == 2


# -- the worklist solver vs. naive chaotic iteration --------------------------------
#
# The production solver is a worklist/counter implementation
# (Henzinger--Henzinger--Kopke style); this reference is the original
# chaotic-iteration fixpoint, kept here as an executable spec.

def naive_direct_simulation(auto):
    accepting = auto.accepting
    states = sorted(auto.states, key=repr)
    related = {(p, r) for p in states for r in states
               if (p not in accepting) or (r in accepting)}
    changed = True
    while changed:
        changed = False
        for pair in list(related):
            p, r = pair
            for symbol in auto.alphabet:
                for p2 in auto.successors(p, symbol):
                    if not any((p2, r2) in related
                               for r2 in auto.successors(r, symbol)):
                        related.discard(pair)
                        changed = True
                        break
                if pair not in related:
                    break
    return related


@pytest.mark.parametrize("seed", range(15))
def test_worklist_solvers_match_naive_fixpoints(seed):
    auto = random_ba(seed * 31 + 7, n=4 + seed % 3)
    assert direct_simulation(auto) == naive_direct_simulation(auto)


# -- part-respecting variant and SDBA quotients ------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_part_respecting_simulation_is_a_restriction(seed):
    auto = random_sdba(seed)
    from repro.automata.classify import sdba_parts
    parts = sdba_parts(auto)
    assert parts is not None
    restricted = direct_simulation(auto, parts=parts)
    full = direct_simulation(auto)
    assert restricted <= full
    part_of = {q: i for i, block in enumerate(parts) for q in block}
    for p, r in restricted:
        assert part_of[p] == part_of[r]


@pytest.mark.parametrize("seed", range(8))
def test_part_respecting_quotient_keeps_sdba(seed):
    from repro.automata.classify import is_semideterministic, sdba_parts
    auto = random_sdba(seed + 100)
    reduced = quotient(auto, parts=sdba_parts(auto))
    assert is_semideterministic(reduced)
    for word in words(60, seed + 1300):
        assert accepts(reduced, word) == accepts(auto, word), str(word)


def test_quotient_reuses_precomputed_relation():
    auto = random_ba(3, n=5)
    related = direct_simulation(auto)
    assert quotient(auto, related=related).states == quotient(auto).states


# -- budget integration ------------------------------------------------------------

def test_simulation_cap_blows_as_plain_resource_exhausted():
    from repro.core.budget import (Budget, DeadlineExceeded,
                                   ResourceExhausted, use_budget)
    auto = random_ba(0, n=6)
    with use_budget(Budget(simulation_cap=10)):
        with pytest.raises(ResourceExhausted) as info:
            direct_simulation(auto)
        assert info.value.resource == "simulation"
        assert not isinstance(info.value, DeadlineExceeded)
    # without a budget the same solve succeeds
    assert direct_simulation(auto)


def test_simulation_pairs_metric_counts_solver_work():
    from repro.obs.metrics import MetricsRegistry, use_registry
    auto = random_ba(1, n=4)
    with use_registry(MetricsRegistry()) as registry:
        direct_simulation(auto)
        counters = registry.snapshot()["counters"]
    n = len(auto.states)
    assert counters["simulation.pairs"] == n * n
