"""Tests for the simulation-based reduction layer of the difference
pipeline: subtrahend quotienting, the simulation-coarsened subsumption
antichain, and the ``AnalysisConfig.simulation_reduction`` flag.

The soundness claims under test:

- quotienting by (part-respecting) direct-simulation equivalence is
  language-preserving, so ``difference()`` verdicts cannot change;
- the coarsened antichain order still under-approximates language
  inclusion of complement macro-states (the Lemma 6.2 argument with
  components compared modulo simulation): NCSB-Original coarsens N and
  S but keeps C raw, NCSB-Lazy coarsens N, C and S but keeps B raw.
"""

import random

import pytest

from repro.automata.classify import is_semideterministic
from repro.automata.complement.dispatch import ComplementKind
from repro.automata.complement.ncsb import (MacroState, NCSBLazy,
                                            NCSBOriginal, prepare_sdba,
                                            subsumes, subsumes_b)
from repro.automata.difference import (SubsumptionOracle,
                                       _reduced_subtrahend, difference)
from repro.automata.gba import ba, materialize
from repro.automata.simulation import direct_simulation
from repro.automata.words import UPWord, accepts
from repro.obs.metrics import MetricsRegistry, use_registry

SIGMA = ("a", "b")


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
    return ba(set(SIGMA), transitions, ["n0"], accepting, states=q1 + q2)


def random_minuend(seed: int, n: int = 4):
    rng = random.Random(seed)
    states = list(range(n))
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if rng.random() < 0.5}
            if targets:
                transitions[(q, s)] = targets
    return ba(set(SIGMA), transitions, [0], states, states=states)


def words(count: int, seed: int):
    rng = random.Random(seed)
    return [UPWord(tuple(rng.choice(SIGMA) for _ in range(rng.randint(0, 3))),
                   tuple(rng.choice(SIGMA) for _ in range(rng.randint(1, 3))))
            for _ in range(count)]


# -- coarsened antichain soundness -------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("construction,relation", [
    (NCSBOriginal, subsumes), (NCSBLazy, subsumes_b)])
def test_coarse_subsumption_underapproximates_language_inclusion(
        seed, construction, relation):
    comp = construction(prepare_sdba(random_sdba(seed)))
    simulation = direct_simulation(comp.sdba, parts=comp.parts)
    oracle = SubsumptionOracle(relation, simulation=simulation)
    complement = materialize(comp)
    macro_states = [q for q in complement.states if isinstance(q, MacroState)]
    sample = words(60, seed + 400)
    checked = 0
    for small in macro_states:
        small_entry = oracle._entry(small)
        lang_small = ba(complement.alphabet, complement.transitions, [small],
                        complement.accepting, states=complement.states)
        for big in macro_states:
            if not oracle._subsumed(small_entry, oracle._entry(big)):
                continue
            checked += 1
            lang_big = ba(complement.alphabet, complement.transitions, [big],
                          complement.accepting, states=complement.states)
            for word in sample:
                if accepts(lang_small, word):
                    assert accepts(lang_big, word), (small, big, str(word))
    assert checked, "coarse order should relate at least the identical pairs"


@pytest.mark.parametrize("seed", range(6))
def test_coarse_order_extends_the_raw_order(seed):
    comp = NCSBLazy(prepare_sdba(random_sdba(seed + 50)))
    simulation = direct_simulation(comp.sdba, parts=comp.parts)
    coarse = SubsumptionOracle(subsumes_b, simulation=simulation)
    raw = SubsumptionOracle(subsumes_b)
    complement = materialize(comp)
    macro_states = [q for q in complement.states if isinstance(q, MacroState)]
    for small in macro_states:
        for big in macro_states:
            if raw._subsumed(raw._entry(small), raw._entry(big)):
                assert coarse._subsumed(coarse._entry(small),
                                        coarse._entry(big)), (small, big)


def test_trivial_simulation_falls_back_to_raw_path():
    identity = {("d0", "d0"), ("d1", "d1")}
    oracle = SubsumptionOracle(subsumes_b, simulation=identity)
    assert oracle._down is None


def test_oracle_rejects_custom_relation():
    with pytest.raises(ValueError):
        SubsumptionOracle(lambda small, big: False,
                          simulation={("d0", "d1")})


# -- subtrahend quotienting --------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_reduced_subtrahend_keeps_class_and_language(seed):
    sdba = random_sdba(seed + 200)
    reduced = _reduced_subtrahend(sdba, None)
    assert len(reduced.states) <= len(sdba.states)
    assert is_semideterministic(reduced)
    for word in words(60, seed + 2100):
        assert accepts(reduced, word) == accepts(sdba, word), str(word)


def test_reduced_subtrahend_respects_pinned_kind():
    sdba = random_sdba(3)
    reduced = _reduced_subtrahend(sdba, ComplementKind.SDBA_LAZY)
    assert is_semideterministic(reduced)


def test_twin_states_are_quotiented_with_metrics():
    # two accepting twin loops: the quotient must merge them
    subtrahend = ba(set(SIGMA),
                    {("i", "a"): {"p", "q"},
                     ("p", "a"): {"p"}, ("q", "a"): {"q"},
                     ("p", "b"): {"p"}, ("q", "b"): {"q"}},
                    ["i"], ["p", "q"], states={"i", "p", "q"})
    minuend = random_minuend(7)
    with use_registry(MetricsRegistry()) as registry:
        difference(minuend, subtrahend, simulation_reduction=True)
        counters = registry.snapshot()["counters"]
    assert counters.get("reduction.quotients", 0) >= 1
    assert counters.get("reduction.states_removed", 0) >= 1


# -- flag equivalence --------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("lazy", [True, False])
def test_difference_verdict_independent_of_reduction(seed, lazy):
    minuend = random_minuend(seed)
    subtrahend = random_sdba(seed + 500)
    on = difference(minuend, subtrahend, lazy=lazy, simulation_reduction=True)
    off = difference(minuend, subtrahend, lazy=lazy, simulation_reduction=False)
    assert on.is_empty == off.is_empty
    sample = words(40, seed + 3000)
    for word in sample:
        assert (accepts(on.automaton, word)
                == accepts(off.automaton, word)), str(word)


def test_reduction_never_explores_more_when_quotienting():
    # With a genuinely reducible subtrahend, the reduced complement runs
    # on fewer SDBA states, so exploration must not grow.
    subtrahend = ba(set(SIGMA),
                    {("i", "a"): {"p", "q"}, ("i", "b"): {"p"},
                     ("p", "a"): {"p"}, ("q", "a"): {"q"},
                     ("p", "b"): {"p"}, ("q", "b"): {"q"}},
                    ["i"], ["p", "q"], states={"i", "p", "q"})
    minuend = random_minuend(11, n=5)
    on = difference(minuend, subtrahend, simulation_reduction=True)
    off = difference(minuend, subtrahend, simulation_reduction=False)
    assert on.is_empty == off.is_empty
    assert on.stats.explored_states <= off.stats.explored_states


# -- end-to-end over programs ------------------------------------------------------

def test_analysis_verdicts_independent_of_reduction():
    from repro import AnalysisConfig, prove_termination_source
    programs = [
        """
program count_down(x):
    while x > 0:
        x := x - 1
""",
        """
program sort(i, j):
    while i > 0:
        j := 1
        while j < i:
            j := j + 1
        i := i - 1
""",
        """
program count_up(x):
    while x > 0:
        x := x + 1
""",
    ]
    for source in programs:
        on = prove_termination_source(
            source, AnalysisConfig(timeout=30.0, simulation_reduction=True))
        off = prove_termination_source(
            source, AnalysisConfig(timeout=30.0, simulation_reduction=False))
        assert on.verdict == off.verdict, source
