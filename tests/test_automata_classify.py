"""Tests for BA classification and SDBA normalization."""

import pytest

from repro.automata.classify import (is_complete, is_deterministic,
                                     is_finite_trace, is_normalized_sdba,
                                     is_semideterministic, normalize_sdba,
                                     sdba_parts)
from repro.automata.gba import GBA, ba
from repro.automata.words import UPWord, accepts
import random

SIGMA = frozenset({"a", "b"})


def test_is_complete():
    full = ba(SIGMA, {("q", "a"): {"q"}, ("q", "b"): {"q"}}, ["q"], ["q"])
    assert is_complete(full)
    partial = ba(SIGMA, {("q", "a"): {"q"}}, ["q"], ["q"])
    assert not is_complete(partial)


def test_is_deterministic():
    det = ba(SIGMA, {("q", "a"): {"q"}}, ["q"], ["q"])
    assert is_deterministic(det)
    nondet = ba(SIGMA, {("q", "a"): {"q", "r"}, ("r", "a"): {"r"}},
                ["q"], ["q"])
    assert not is_deterministic(nondet)
    two_init = ba(SIGMA, {("q", "a"): {"q"}, ("r", "a"): {"r"}},
                  ["q", "r"], ["q"])
    assert not is_deterministic(two_init)


def test_is_finite_trace():
    ft = ba(SIGMA,
            {("0", "a"): {"1"}, ("1", "b"): {"acc"},
             ("acc", "a"): {"acc"}, ("acc", "b"): {"acc"}},
            ["0"], ["acc"])
    assert is_finite_trace(ft)
    # accepting sink missing a self-loop symbol: not finite-trace
    partial_sink = ba(SIGMA, {("0", "a"): {"acc"}, ("acc", "a"): {"acc"}},
                      ["0"], ["acc"])
    assert not is_finite_trace(partial_sink)
    # branching chain: not finite-trace
    branchy = ba(SIGMA,
                 {("0", "a"): {"acc"}, ("0", "b"): {"acc"},
                  ("acc", "a"): {"acc"}, ("acc", "b"): {"acc"}},
                 ["0"], ["acc"])
    assert not is_finite_trace(branchy)
    # an accepting chain head that loops back on itself: not finite-trace
    loopy = ba(SIGMA, {("0", "a"): {"0"}}, ["0"], ["0"])
    assert not is_finite_trace(loopy)


def sdba_example():
    return ba(SIGMA,
              {("n", "a"): {"n", "f"}, ("n", "b"): {"n"},
               ("f", "a"): {"f"}, ("f", "b"): {"d"},
               ("d", "a"): {"d"}, ("d", "b"): {"d"}},
              ["n"], ["f"])


def test_sdba_parts():
    parts = sdba_parts(sdba_example())
    assert parts is not None
    q1, q2 = parts
    assert q1 == {"n"}
    assert q2 == {"f", "d"}


def test_sdba_parts_rejects_nondeterministic_q2():
    auto = ba(SIGMA,
              {("f", "a"): {"f", "g"}, ("g", "a"): {"g"}},
              ["f"], ["f"])
    assert sdba_parts(auto) is None
    assert not is_semideterministic(auto)


def test_dba_is_sdba():
    det = ba(SIGMA, {("q", "a"): {"q"}, ("q", "b"): {"q"}}, ["q"], ["q"])
    assert is_semideterministic(det)


def test_is_normalized():
    assert is_normalized_sdba(sdba_example())
    # entry into Q2 at a non-accepting state
    bad = ba(SIGMA,
             {("n", "a"): {"n", "d"},
              ("d", "a"): {"f"}, ("d", "b"): {"d"},
              ("f", "a"): {"f"}, ("f", "b"): {"d"}},
             ["n"], ["f"])
    assert is_semideterministic(bad)
    assert not is_normalized_sdba(bad)


def test_normalize_preserves_language():
    bad = ba(SIGMA,
             {("n", "a"): {"n", "d"}, ("n", "b"): {"n"},
              ("d", "a"): {"f"}, ("d", "b"): {"d"},
              ("f", "a"): {"f"}, ("f", "b"): {"d"}},
             ["n"], ["f"])
    fixed = normalize_sdba(bad)
    assert is_normalized_sdba(fixed)
    rng = random.Random(5)
    for _ in range(150):
        prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        period = tuple(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        word = UPWord(prefix, period)
        assert accepts(bad, word) == accepts(fixed, word), str(word)


def test_normalize_noop_when_already_normalized():
    auto = sdba_example()
    assert normalize_sdba(auto) is auto


def test_normalize_handles_initial_q2_state():
    auto = ba(SIGMA,
              {("d", "a"): {"f"}, ("d", "b"): {"d"},
               ("f", "a"): {"f"}, ("f", "b"): {"d"}},
              ["d"], ["f"])
    fixed = normalize_sdba(auto)
    assert is_normalized_sdba(fixed)
    rng = random.Random(6)
    for _ in range(100):
        word = UPWord(tuple(rng.choice("ab") for _ in range(rng.randint(0, 3))),
                      tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))))
        assert accepts(auto, word) == accepts(fixed, word)


def test_normalize_rejects_general_ba():
    general = ba(SIGMA, {("f", "a"): {"f", "g"}, ("g", "a"): {"g"}},
                 ["f"], ["f"])
    with pytest.raises(ValueError):
        normalize_sdba(general)


def _raw_sdba(seed):
    """A random SDBA, possibly incomplete and unnormalized, with an
    initial state in Q1 or Q2."""
    rng = random.Random(seed)
    q1 = [f"n{i}" for i in range(3)]
    q2 = [f"d{i}" for i in range(4)]
    accepting = [q for q in q2 if rng.random() < 0.5] or [q2[0]]
    transitions = {}
    for q in q1:
        for s in SIGMA:
            targets = {t for t in q1 if rng.random() < 0.4}
            if rng.random() < 0.5:
                targets.add(rng.choice(q2))
            if targets:
                transitions[(q, s)] = targets
    for q in q2:
        for s in SIGMA:
            if rng.random() < 0.8:
                transitions[(q, s)] = {rng.choice(q2)}
    return ba(SIGMA, transitions, [rng.choice(q1 + q2)], accepting,
              states=q1 + q2)


def test_carried_sdba_parts_equal_a_fresh_search():
    # complete, normalize_sdba and quotient hand their output the split
    # that follows from their input's; it must be the one a search of
    # the output finds.
    from repro.automata.classify import _sdba_parts
    from repro.automata.ops import complete
    from repro.automata.simulation import direct_simulation, quotient

    def carried(auto):
        known = auto.known(_sdba_parts)
        assert known is not None
        assert known == _sdba_parts(auto)

    seen = {"sink in Q1": 0, "sink in Q2": 0, "duplicates": 0,
            "quotient": 0}
    for seed in range(60):
        auto = _raw_sdba(seed)
        assert sdba_parts(auto) is not None
        for sigma in (SIGMA, SIGMA | {"c"}):
            completed = complete(auto, sigma)
            carried(completed)
            if completed.states != auto.states:
                q2 = sdba_parts(completed)[1]
                seen["sink in Q2" if q2 - auto.states else "sink in Q1"] += 1
        normalized = normalize_sdba(completed)
        carried(normalized)
        seen["duplicates"] += normalized is not completed
        related = direct_simulation(normalized, parts=sdba_parts(normalized))
        reduced = quotient(normalized, related=related)
        if reduced is not normalized:
            carried(reduced)
            seen["quotient"] += 1
    assert all(seen.values()), seen

    # A simulation that ignores the split may merge a Q1 state into a
    # Q2 class; then nothing is carried.
    mixed = ba(SIGMA, {("n", "a"): {"n"}, ("n", "b"): {"n"},
                       ("f", "a"): {"d"}, ("f", "b"): {"f"},
                       ("d", "a"): {"d"}, ("d", "b"): {"d"}},
               ["n", "f"], ["f"])
    assert sdba_parts(mixed) == ({"n"}, {"f", "d"})
    merged = quotient(mixed, related=direct_simulation(mixed))
    assert len(merged.states) == 2
    assert merged.known(_sdba_parts) is None
