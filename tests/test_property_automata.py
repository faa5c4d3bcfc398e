"""Hypothesis property tests for the automata algorithms.

Complement correctness, Proposition 5.2 and difference semantics are
checked against word-sampling oracles on
hypothesis-generated automata (which shrink to minimal counterexamples
on failure, unlike the seeded generators elsewhere in the suite).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.complement.ncsb import NCSBLazy, NCSBOriginal, prepare_sdba
from repro.automata.difference import difference
from repro.automata.emptiness import remove_useless
from repro.automata.gba import GBA, ba, materialize
from repro.automata.ops import complete
from repro.automata.words import UPWord, accepts

SIGMA = ("a", "b")


@st.composite
def up_words(draw):
    prefix = tuple(draw(st.lists(st.sampled_from(SIGMA), max_size=4)))
    period = tuple(draw(st.lists(st.sampled_from(SIGMA), min_size=1,
                                 max_size=3)))
    return UPWord(prefix, period)


@st.composite
def sdbas(draw):
    """A small normalized SDBA: nondeterministic part {n0, n1},
    deterministic part {d0, d1, d2}."""
    q1 = ["n0", "n1"]
    q2 = ["d0", "d1", "d2"]
    accepting = [q for q in q2 if draw(st.booleans())] or ["d0"]
    transitions: dict = {}
    for q in q1:
        for s in SIGMA:
            targets = {t for t in q1 if draw(st.booleans())}
            if draw(st.booleans()):
                targets.add(draw(st.sampled_from(q2)))
            if targets:
                transitions[(q, s)] = targets
    for q in q2:
        for s in SIGMA:
            transitions[(q, s)] = {draw(st.sampled_from(q2))}
    raw = ba(set(SIGMA), transitions, ["n0"], accepting, states=q1 + q2)
    return prepare_sdba(raw)


@st.composite
def small_gbas(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2))
    states = list(range(n))
    transitions: dict = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if draw(st.booleans())}
            if targets:
                transitions[(q, s)] = targets
    acc = [[q for q in states if draw(st.booleans())] for _ in range(k)]
    return GBA(set(SIGMA), transitions, [0], acc, states=states)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sdbas(), st.lists(up_words(), min_size=5, max_size=15))
def test_ncsb_complements_partition_omega_words(sdba, words):
    original = materialize(NCSBOriginal(sdba))
    lazy = materialize(NCSBLazy(sdba))
    for word in words:
        inside = accepts(sdba, word)
        assert accepts(original, word) != inside
        assert accepts(lazy, word) != inside


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sdbas())
def test_proposition_5_2(sdba):
    original = materialize(NCSBOriginal(sdba))
    lazy = materialize(NCSBLazy(sdba))
    assert len(lazy.states) <= len(original.states)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sdbas(), sdbas(), st.lists(up_words(), min_size=5, max_size=12))
def test_difference_semantics(minuend_sdba, subtrahend, words):
    # any BA works as a minuend; view the first SDBA as all-accepting
    minuend = ba(minuend_sdba.alphabet, minuend_sdba.transitions,
                 minuend_sdba.initial_states(), minuend_sdba.states,
                 states=minuend_sdba.states)
    result = difference(minuend, subtrahend)
    for word in words:
        expected = accepts(minuend, word) and not accepts(subtrahend, word)
        assert accepts(result.automaton, word) == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sdbas(), sdbas())
def test_subsumption_toggle_preserves_language_emptiness(a, b):
    minuend = ba(a.alphabet, a.transitions, a.initial_states(), a.states,
                 states=a.states)
    with_sub = difference(minuend, b, subsumption=True)
    without = difference(minuend, b, subsumption=False)
    assert with_sub.is_empty == without.is_empty
    assert with_sub.stats.explored_states <= without.stats.explored_states


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_gbas(), st.lists(up_words(), min_size=5, max_size=12))
def test_remove_useless_preserves_language(gba, words):
    useful, _ = remove_useless(gba)
    for word in words:
        assert accepts(useful, word) == accepts(gba, word)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_gbas(), st.lists(up_words(), min_size=3, max_size=8))
def test_completion_preserves_language(gba, words):
    full = complete(gba)
    for word in words:
        assert accepts(full, word) == accepts(gba, word)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(up_words())
def test_canonical_word_same_omega_word(word):
    canon = word.canonical()
    # pointwise equal symbol streams
    for i in range(12):
        assert canon.at(i) == word.at(i)
    assert canon == word
