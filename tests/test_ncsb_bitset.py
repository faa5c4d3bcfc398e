"""The bitset NCSB constructions against the ``frozenset`` reference.

``tests/ncsb_reference.py`` keeps the textbook NCSB-Original/Lazy
successor functions over ``frozenset`` components.  For every reachable
macro-state and symbol, under both variants, the production successor
list must ``decode`` to exactly the reference's list, in the same order
(the order fixes the exploration order, and with it every count of the
difference).  On decoded pairs, the mask subsumption tests must agree
with the set definitions of Eqs. 4 and 5.
"""

from __future__ import annotations

import random

import pytest

from repro.automata.classify import normalize_sdba, sdba_parts
from repro.automata.complement.ncsb import (MacroState, NCSBLazy,
                                            NCSBOriginal, prepare_sdba,
                                            subsumes, subsumes_b)
from repro.automata.difference import SubsumptionOracle
from repro.automata.gba import ba
from repro.automata.ops import SINK
from repro.automata.simulation import direct_simulation
from repro.benchgen.sdba_corpus import random_sdba
from tests import ncsb_reference as ref
from tests.test_complementation import random_sdba_raw

PAIRS = ((NCSBOriginal, ref.RefNCSBOriginal), (NCSBLazy, ref.RefNCSBLazy))


def _with_entry_duplicate(seed: int):
    """An SDBA whose normalization adds a ``(q, "entry")`` duplicate."""
    rng = random.Random(seed)
    sigma = ("a", "b")
    transitions = {("n0", a): {"n0", "d0"} for a in sigma}
    for q in ("d0", "d1", "d2"):
        for a in sigma:
            transitions[(q, a)] = {rng.choice(("d0", "d1", "d2"))}
    auto = ba(set(sigma), transitions, ["n0"], ["d2"],
              states=["n0", "d0", "d1", "d2"])
    return prepare_sdba(auto)


def _sdbas():
    out = []
    for seed in range(12):
        out.append((f"raw{seed}", prepare_sdba(random_sdba_raw(seed))))
    for seed in range(6):
        out.append((f"corpus{seed}", random_sdba(seed, n_nondet=3, n_det=4)))
    for seed in range(4):
        out.append((f"entry{seed}", _with_entry_duplicate(seed)))
    return out


SDBAS = _sdbas()


def test_the_fixtures_cover_entry_duplicates_and_sinks():
    states = set().union(*(auto.states for _, auto in SDBAS))
    assert any(isinstance(q, tuple) and q[1:] == ("entry",) for q in states)
    assert SINK in states


def _reachable_pairs(fast, slow, limit=400):
    """Walk both constructions in lockstep from their initial states,
    asserting equal decoded successor lists; return the reached pairs
    ``(mask macro-state, reference macro-state)``."""
    (start,), (ref_start,) = fast.initial_states(), slow.initial_states()
    assert fast.decode(start) == tuple(ref_start)
    seen = {start: ref_start}
    queue = [start]
    symbols = sorted(fast.alphabet, key=str)
    while queue and len(seen) < limit:
        macro = queue.pop()
        for symbol in symbols:
            got = fast.successors(macro, symbol)
            expected = slow.successors(seen[macro], symbol)
            assert [fast.decode(m) for m in got] == [tuple(m) for m in expected], (
                fast.decode(macro), symbol)
            for target, ref_target in zip(got, expected):
                if target not in seen:
                    seen[target] = ref_target
                    queue.append(target)
    return list(seen.items())


@pytest.mark.parametrize("name,sdba", SDBAS, ids=[name for name, _ in SDBAS])
def test_bitset_successors_decode_to_the_reference(name, sdba):
    for fast_cls, slow_cls in PAIRS:
        fast = fast_cls(sdba)
        for macro, _ in _reachable_pairs(fast, slow_cls(sdba)):
            assert isinstance(macro, MacroState)
            assert all(isinstance(component, int) for component in macro)


@pytest.mark.parametrize("name,sdba", SDBAS[::3], ids=[n for n, _ in SDBAS[::3]])
def test_mask_subsumption_matches_the_set_definitions(name, sdba):
    for fast_cls, slow_cls in PAIRS:
        pairs = _reachable_pairs(fast_cls(sdba), slow_cls(sdba), limit=60)
        for small, ref_small in pairs:
            for big, ref_big in pairs:
                assert subsumes(small, big) == ref.subsumes(ref_small, ref_big)
                assert subsumes_b(small, big) == ref.subsumes_b(ref_small, ref_big)


def test_bits_follow_repr_order():
    sdba = SDBAS[0][1]
    comp = NCSBLazy(sdba)
    assert comp.order == tuple(sorted(sdba.states, key=repr))
    for i, q in enumerate(comp.order):
        assert comp.mask([q]) == 1 << i
    q1, q2 = sdba_parts(sdba)
    assert comp.decode(MacroState(comp.mask(q1), comp.mask(q2), 0, 0)) == (
        q1, q2, frozenset(), frozenset())


def test_mask_subsumption_is_inclusion_not_numeric_order():
    # 0b100 > 0b011 numerically, yet neither includes the other.
    small, big = MacroState(0b100, 0, 0, 0), MacroState(0b011, 0, 0, 0)
    assert not subsumes(small, big) and not subsumes(big, small)
    assert subsumes(MacroState(0b111, 0, 0, 0), big)
    assert not subsumes_b(MacroState(0, 0b1, 0, 0b1), MacroState(0, 0b1, 0, 0b10))


@pytest.mark.parametrize("name,sdba", SDBAS[::4], ids=[n for n, _ in SDBAS[::4]])
def test_coarsened_order_keeps_b_raw(name, sdba):
    """Under ``subsumes_b`` the coarsened order compares N, C and S modulo
    the simulation, and B as a raw superset: a macro-state whose B is
    only covered through the simulation is not subsumed."""
    comp = NCSBLazy(sdba)
    simulation = direct_simulation(comp.sdba, parts=comp.parts)
    strict = [(q, r) for q, r in simulation if q != r]
    if not strict:
        pytest.skip("trivial simulation")
    oracle = SubsumptionOracle(subsumes_b, simulation=simulation,
                               complement=comp)
    for i, (q, r) in enumerate(strict):
        bq, br = comp.mask([q]), comp.mask([r])
        # r simulates q: {r} covers {q} on N, C and S ...
        small, big = MacroState(br, br, 0, 0), MacroState(bq, bq, 0, 0)
        assert oracle._subsumed(oracle._entry(small), oracle._entry(big))
        oracle.add((2 * i, big))
        assert oracle.contains((2 * i, small))
        # ... but never on B.
        small, big = MacroState(0, br | bq, 0, br), MacroState(0, bq, 0, bq)
        assert not oracle._subsumed(oracle._entry(small), oracle._entry(big))
        oracle.add((2 * i + 1, big))
        assert not oracle.contains((2 * i + 1, small))


def test_constructor_rejects_unprepared_input():
    raw = random_sdba_raw(3)
    with pytest.raises(ValueError, match="complete"):
        NCSBLazy(raw)
    unnormalized = ba({"a"}, {("n", "a"): {"n", "d"}, ("d", "a"): {"e"},
                              ("e", "a"): {"d"}},
                      ["n"], ["e"], states=["n", "d", "e"])
    with pytest.raises(ValueError, match="normalized"):
        NCSBOriginal(unnormalized)
    NCSBOriginal(normalize_sdba(unnormalized))
    nondet = ba({"a"}, {("d", "a"): {"d", "e"}, ("e", "a"): {"d"}},
                ["d"], ["d"], states=["d", "e"])
    with pytest.raises(ValueError, match="normalized"):
        NCSBLazy(nondet)
