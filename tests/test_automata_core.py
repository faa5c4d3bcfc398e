"""Tests for GBA structures, basic operations, and UP words."""

import pytest

from repro.automata.gba import GBA, StateLimitExceeded, ba, materialize
from repro.automata.ops import SINK, ProductGBA, complete, union
from repro.automata.words import UPWord, accepts

SIGMA = frozenset({"a", "b"})


def simple_ba(accepting=("q1",)):
    return ba(SIGMA,
              {("q0", "a"): {"q1"}, ("q0", "b"): {"q0"},
               ("q1", "a"): {"q1"}, ("q1", "b"): {"q0"}},
              ["q0"], accepting)


# -- GBA basics -----------------------------------------------------------------

def test_gba_accessors():
    auto = simple_ba()
    assert auto.states == {"q0", "q1"}
    assert auto.alphabet == SIGMA
    assert auto.successors("q0", "a") == {"q1"}
    assert auto.successors("q0", "zzz") == frozenset()
    assert auto.post("q0") == {"q0", "q1"}
    assert auto.is_ba()
    assert auto.accepting == {"q1"}
    assert auto.acceptance_count == 1
    assert auto.accepting_sets_of("q1") == {0}
    assert auto.accepting_sets_of("q0") == frozenset()
    assert auto.num_transitions() == 4


def test_gba_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        GBA(SIGMA, {("q0", "c"): {"q0"}}, ["q0"], [])


def test_gba_rejects_foreign_accepting():
    with pytest.raises(ValueError):
        ba(SIGMA, {("q0", "a"): {"q0"}}, ["q0"], ["ghost"])


def test_gba_initial_states_are_states():
    # Initial states are implicitly part of the state set.
    auto = ba(SIGMA, {("q0", "a"): {"q0"}}, ["fresh"], ["q0"])
    assert "fresh" in auto.states


def test_accepting_requires_single_set():
    auto = GBA(SIGMA, {("q0", "a"): {"q0"}}, ["q0"], [["q0"], ["q0"]])
    with pytest.raises(ValueError):
        _ = auto.accepting


def test_map_states():
    auto = simple_ba()
    mapped = auto.map_states(lambda q: q.upper())
    assert mapped.states == {"Q0", "Q1"}
    assert mapped.successors("Q0", "a") == {"Q1"}


def test_materialize_equals_explicit():
    auto = simple_ba()
    again = materialize(auto)
    assert again.states == auto.states
    assert again.num_transitions() == auto.num_transitions()
    assert again.acc_sets == auto.acc_sets


def test_materialize_limit():
    auto = simple_ba()
    with pytest.raises(StateLimitExceeded):
        materialize(auto, limit=1)


# -- words ------------------------------------------------------------------------

def test_upword_rejects_empty_period():
    with pytest.raises(ValueError):
        UPWord((), ())


def test_upword_at_and_unroll():
    w = UPWord(("a",), ("b", "a"))
    assert [w.at(i) for i in range(6)] == ["a", "b", "a", "b", "a", "b"]
    u = w.unroll_once()
    assert u.prefix == ("a", "b", "a")
    assert [u.at(i) for i in range(6)] == [w.at(i) for i in range(6)]


def test_upword_canonical_equality():
    assert UPWord((), ("a", "b")) == UPWord(("a",), ("b", "a"))
    assert UPWord((), ("a", "a")) == UPWord((), ("a",))
    assert UPWord((), ("a", "b")) != UPWord((), ("b", "a", "b", "a"))
    assert hash(UPWord((), ("a", "b"))) == hash(UPWord(("a",), ("b", "a")))


def test_accepts_simple():
    auto = simple_ba()  # accepting iff infinitely many a-transitions used
    assert accepts(auto, UPWord((), ("a",)))
    assert accepts(auto, UPWord((), ("a", "b")))
    assert not accepts(auto, UPWord((), ("b",)))
    assert accepts(auto, UPWord(("b", "b", "b"), ("a",)))
    assert not accepts(auto, UPWord(("a", "a"), ("b",)))


def test_accepts_generalized():
    # Two conditions: states x and y must both recur.
    auto = GBA(SIGMA,
               {("x", "a"): {"y"}, ("y", "b"): {"x"}, ("y", "a"): {"y"},
                ("x", "b"): {"x"}},
               ["x"], [["x"], ["y"]])
    assert accepts(auto, UPWord((), ("a", "b")))
    assert not accepts(auto, UPWord((), ("a",)))   # stays in y
    assert not accepts(auto, UPWord((), ("b",)))   # stays in x


def test_accepts_k_zero_means_any_infinite_run():
    auto = GBA(SIGMA, {("q", "a"): {"q"}}, ["q"], [])
    assert accepts(auto, UPWord((), ("a",)))
    assert not accepts(auto, UPWord((), ("b",)))  # the run dies


# -- operations --------------------------------------------------------------------

def test_complete_adds_sink():
    auto = ba(SIGMA, {("q0", "a"): {"q0"}}, ["q0"], ["q0"])
    full = complete(auto)
    assert SINK in full.states
    assert full.successors("q0", "b") == {SINK}
    assert full.successors(SINK, "a") == {SINK}
    # language preserved
    assert accepts(full, UPWord((), ("a",)))
    assert not accepts(full, UPWord((), ("b",)))


def test_complete_extends_alphabet():
    auto = ba({"a"}, {("q0", "a"): {"q0"}}, ["q0"], ["q0"])
    full = complete(auto, {"a", "b", "c"})
    assert full.alphabet == {"a", "b", "c"}
    assert full.successors("q0", "c") == {SINK}


def test_complete_noop_when_already_complete():
    auto = simple_ba()
    full = complete(auto)
    # language/structure unchanged, but a defensive copy is returned so
    # callers mutating the "completed" automaton cannot corrupt the input
    assert full is not auto
    assert full.states == auto.states
    assert full.alphabet == auto.alphabet
    assert dict(full.transitions) == dict(auto.transitions)
    assert full.acc_sets == auto.acc_sets


def test_complete_rejects_shrinking_alphabet():
    with pytest.raises(ValueError):
        complete(simple_ba(), {"a"})


def test_union_language():
    only_a = ba(SIGMA, {("p", "a"): {"p"}}, ["p"], ["p"])
    only_b = ba(SIGMA, {("r", "b"): {"r"}}, ["r"], ["r"])
    both = union(only_a, only_b)
    assert accepts(both, UPWord((), ("a",)))
    assert accepts(both, UPWord((), ("b",)))
    assert not accepts(both, UPWord((), ("a", "b")))


def test_union_leaves_operands_untouched():
    only_a = ba(SIGMA, {("p", "a"): {"p"}}, ["p"], ["p"])
    only_b = ba(SIGMA, {("r", "b"): {"r"}}, ["r"], ["r"])
    before_a = dict(only_a.transitions)
    before_b = dict(only_b.transitions)
    union(only_a, only_b)
    # regression: union used to extend the left operand's transition map
    assert dict(only_a.transitions) == before_a
    assert dict(only_b.transitions) == before_b
    assert only_a.num_transitions() == 1
    assert not accepts(only_a, UPWord((), ("b",)))


def test_prepare_sdba_returns_defensive_copy():
    from repro.automata.complement.ncsb import prepare_sdba
    # already complete + normalized: nothing to do, but the result must
    # still be a fresh object (mutating callers would corrupt the input)
    auto = ba(SIGMA, {("d0", "a"): {"d0"}, ("d0", "b"): {"d1"},
                      ("d1", "a"): {"d1"}, ("d1", "b"): {"d1"}},
              ["d0"], ["d1"])
    prepared = prepare_sdba(auto)
    assert prepared is not auto
    assert complete(auto) is not auto
    assert dict(prepared.transitions) == dict(auto.transitions)


def test_union_requires_same_acceptance_count():
    one = simple_ba()
    two = GBA(SIGMA, {("q", "a"): {"q"}}, ["q"], [["q"], ["q"]])
    with pytest.raises(ValueError):
        union(one, two)


def test_intersection_language():
    inf_a = simple_ba()  # infinitely many 'a'
    # infinitely many 'b' (symmetric)
    inf_b = ba(SIGMA,
               {("p0", "b"): {"p1"}, ("p0", "a"): {"p0"},
                ("p1", "b"): {"p1"}, ("p1", "a"): {"p0"}},
               ["p0"], ["p1"])
    both = materialize(ProductGBA(inf_a, inf_b))
    assert both.acceptance_count == 2
    assert accepts(both, UPWord((), ("a", "b")))
    assert not accepts(both, UPWord((), ("a",)))
    assert not accepts(both, UPWord((), ("b",)))


def test_product_requires_same_alphabet():
    other = ba({"a"}, {("q", "a"): {"q"}}, ["q"], ["q"])
    with pytest.raises(ValueError):
        ProductGBA(simple_ba(), other)
