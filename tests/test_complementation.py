"""Correctness tests for all four complementation procedures.

The gold standard throughout: for sampled ultimately periodic words,
``w in L(A)  xor  w in L(complement(A))`` must hold (UP words suffice
to distinguish omega-regular languages).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.classify import is_semideterministic
from repro.automata.complement import (ComplementKind, classify_kind,
                                       complement)
from repro.automata.complement.dba import complement_dba
from repro.automata.complement.finite_trace import (complement_finite_trace,
                                                    finite_trace_word)
from repro.automata.complement.ncsb import (MacroState, NCSBLazy,
                                            NCSBOriginal, prepare_sdba,
                                            subsumes, subsumes_b)
from repro.automata.complement.rank_based import RankComplement
from repro.automata.gba import ba, materialize
from repro.automata.ops import complete
from repro.automata.words import UPWord, accepts

SIGMA = ("a", "b")


def words(count: int, seed: int, symbols=SIGMA):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        prefix = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
        period = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4)))
        out.append(UPWord(prefix, period))
    return out


def assert_complement(auto, comp, sample, name=""):
    for word in sample:
        assert accepts(auto, word) != accepts(comp, word), f"{name}: {word}"


# -- finite-trace -------------------------------------------------------------------

def test_finite_trace_word_extraction():
    ft = ba(set(SIGMA),
            {("0", "a"): {"1"}, ("1", "b"): {"acc"},
             ("acc", "a"): {"acc"}, ("acc", "b"): {"acc"}},
            ["0"], ["acc"])
    assert finite_trace_word(ft) == ["a", "b"]


def test_finite_trace_complement():
    ft = ba(set(SIGMA),
            {("0", "a"): {"1"}, ("1", "b"): {"acc"},
             ("acc", "a"): {"acc"}, ("acc", "b"): {"acc"}},
            ["0"], ["acc"])
    comp = complement_finite_trace(ft)
    assert_complement(ft, comp, words(200, 1), "finite-trace")
    # complement size is linear in |w|
    assert len(comp.states) <= len(ft.states) + 2


def test_finite_trace_complement_of_sigma_omega():
    # w empty: L = Sigma^w, complement empty.
    every = ba(set(SIGMA),
               {("acc", "a"): {"acc"}, ("acc", "b"): {"acc"}},
               ["acc"], ["acc"])
    comp = complement_finite_trace(every)
    for word in words(50, 2):
        assert not accepts(comp, word)


def test_finite_trace_rejects_other_shapes():
    not_ft = ba(set(SIGMA), {("q", "a"): {"q"}}, ["q"], ["q"])
    with pytest.raises(ValueError):
        complement_finite_trace(not_ft)


# -- DBA ------------------------------------------------------------------------------

def test_dba_complement():
    # infinitely many a's
    dba = ba(set(SIGMA),
             {("p", "a"): {"q"}, ("p", "b"): {"p"},
              ("q", "a"): {"q"}, ("q", "b"): {"p"}},
             ["p"], ["q"])
    comp = complement_dba(dba)
    assert_complement(dba, comp, words(200, 3), "dba")
    assert len(comp.states) <= 2 * len(dba.states)


def test_dba_complement_requires_determinism_and_completeness():
    nondet = ba(set(SIGMA), {("q", "a"): {"q", "r"}, ("r", "a"): {"r"}},
                ["q"], ["q"])
    with pytest.raises(ValueError):
        complement_dba(complete(nondet))
    incomplete = ba(set(SIGMA), {("q", "a"): {"q"}}, ["q"], ["q"])
    with pytest.raises(ValueError):
        complement_dba(incomplete)


# -- NCSB -----------------------------------------------------------------------------

def random_sdba_raw(seed: int, n1: int = 3, n2: int = 4):
    """A random (possibly incomplete, unnormalized) SDBA."""
    rng = random.Random(seed)
    q1 = [f"n{i}" for i in range(n1)]
    q2 = [f"d{i}" for i in range(n2)]
    accepting = [q for q in q2 if rng.random() < 0.5] or [q2[0]]
    transitions = {}
    for q in q1:
        for s in SIGMA:
            targets = {t for t in q1 if rng.random() < 0.4}
            if rng.random() < 0.4:
                targets.add(rng.choice(q2))
            if targets:
                transitions[(q, s)] = targets
    for q in q2:
        for s in SIGMA:
            if rng.random() < 0.9:
                transitions[(q, s)] = {rng.choice(q2)}
    return ba(set(SIGMA), transitions, [q1[0]], accepting,
              states=q1 + q2)


@pytest.mark.parametrize("seed", range(25))
def test_ncsb_both_variants_correct(seed):
    auto = random_sdba_raw(seed)
    assert is_semideterministic(auto)
    prepared = prepare_sdba(auto)
    original = materialize(NCSBOriginal(prepared))
    lazy = materialize(NCSBLazy(prepared))
    sample = words(120, seed + 1000)
    assert_complement(prepared, original, sample, f"ncsb-orig[{seed}]")
    assert_complement(prepared, lazy, sample, f"ncsb-lazy[{seed}]")
    # the prepared SDBA still accepts the same words as the raw one
    for word in sample[:40]:
        assert accepts(auto, word) == accepts(prepared, word)


@pytest.mark.parametrize("seed", range(25))
def test_proposition_5_2_lazy_never_larger(seed):
    prepared = prepare_sdba(random_sdba_raw(seed))
    original = materialize(NCSBOriginal(prepared))
    lazy = materialize(NCSBLazy(prepared))
    assert len(lazy.states) <= len(original.states)


def test_ncsb_macro_state_invariants():
    prepared = prepare_sdba(random_sdba_raw(7))
    for construction in (NCSBOriginal(prepared), NCSBLazy(prepared)):
        explored = materialize(construction)
        accepting = explored.accepting
        f = construction.mask(prepared.accepting)
        for macro in explored.states:
            assert isinstance(macro, MacroState)
            assert macro.b & macro.c == macro.b, "B must be a subset of C"
            assert not (macro.s & f), "S avoids F"
            assert (macro in accepting) == (not macro.b)
            n, c, s, b = construction.decode(macro)
            assert b <= c and not (s & prepared.accepting)


def test_ncsb_requires_prepared_input():
    raw = random_sdba_raw(3)
    with pytest.raises(ValueError):
        NCSBOriginal(raw)  # not complete


# -- subsumption relations --------------------------------------------------------------

#: name -> bit of the hand-built macro-states below
_BITS = {name: 1 << i for i, name in enumerate(
    ("q0", "q1", "q2", "q3", "q4", "x", "y", "c1", "c2", "s1", "nope"))}


def _macro(n=(), c=(), s=(), b=()):
    def mask(names):
        return sum(_BITS[q] for q in set(names))
    return MacroState(mask(n), mask(c), mask(s), mask(b))


def _fmt(components) -> str:
    """``({..},{..},{..},{..})`` with each component's names sorted."""
    return "(" + ",".join("{" + ",".join(sorted(map(str, xs))) + "}"
                          for xs in components) + ")"


def test_macro_state_hashes_and_prints_as_its_field_tuple():
    # Dict lookups of product states hash the macro-state; the
    # initial-state sort follows the repr.  Both must be those of the
    # (n, c, s, b) tuple of ints.
    macro = _macro(n={"q1"}, c={"q2", "q3"}, s={"q4"}, b={"q2"})
    assert MacroState.__hash__ is tuple.__hash__
    assert MacroState.__eq__ is tuple.__eq__
    assert MacroState._fields == ("n", "c", "s", "b")
    assert hash(macro) == hash((macro.n, macro.c, macro.s, macro.b))
    assert repr(macro) == "MacroState(n=2, c=12, s=16, b=4)"
    assert repr(_macro()) == "MacroState(n=0, c=0, s=0, b=0)"
    assert not macro.is_accepting()
    accepting = macro._replace(b=0)
    assert accepting.is_accepting()
    # decoding goes through the construction that numbers the states
    construction = NCSBLazy(prepare_sdba(random_sdba_raw(7)))
    (initial,) = construction.initial_states()
    assert _fmt(construction.decode(initial)) == "({n0},{},{},{})"
    names = construction.order
    assert _fmt(construction.decode(MacroState(1, 2, 4, 2))) == (
        f"({{{names[0]}}},{{{names[1]}}},{{{names[2]}}},{{{names[1]}}})")


def test_subsumes_is_componentwise_superset():
    small = _macro(n={"x", "y"}, c={"c1", "c2"}, s={"s1"}, b={"c1"})
    big = _macro(n={"x"}, c={"c1"}, s=set(), b=set())
    assert subsumes(small, big)
    assert subsumes_b(small, big)
    assert not subsumes(big, small)
    # B component only matters for subsumes_b
    small_b = _macro(c={"c1"}, b={"c1"})
    big_b = _macro(c={"c1"}, b={"c1", "nope"})
    assert not subsumes_b(small_b, big_b)


@pytest.mark.parametrize("seed", range(10))
def test_subsumption_underapproximates_language_inclusion(seed):
    """p <= r implies L(p) included in L(r), checked by word sampling."""
    prepared = prepare_sdba(random_sdba_raw(seed))
    for ctor, relation in ((NCSBOriginal, subsumes), (NCSBLazy, subsumes_b)):
        construction = ctor(prepared)
        explored = materialize(construction)
        states = sorted(explored.states,
                        key=lambda m: _fmt(construction.decode(m)))[:14]
        sample = words(40, seed + 50)
        for p in states:
            for r in states:
                if p is r or not relation(p, r):
                    continue
                lang_p = ba(explored.alphabet, explored.transitions, [p],
                            explored.accepting, states=explored.states)
                lang_r = ba(explored.alphabet, explored.transitions, [r],
                            explored.accepting, states=explored.states)
                for word in sample:
                    if accepts(lang_p, word):
                        assert accepts(lang_r, word), (
                            f"{p} <= {r} but {word} only in the smaller")


# -- rank-based ---------------------------------------------------------------------------

def random_general_ba(seed: int, n: int = 3):
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n)]
    transitions = {}
    for q in states:
        for s in SIGMA:
            targets = {t for t in states if rng.random() < 0.5}
            if targets:
                transitions[(q, s)] = targets
    accepting = [q for q in states if rng.random() < 0.4] or [states[-1]]
    return complete(ba(set(SIGMA), transitions, [states[0]], accepting,
                       states=states))


@pytest.mark.parametrize("seed", range(12))
def test_rank_based_complement_correct(seed):
    auto = random_general_ba(seed)
    comp = materialize(RankComplement(auto))
    assert_complement(auto, comp, words(80, seed + 2000), f"rank[{seed}]")


def test_rank_based_all_accepting_has_empty_complement():
    auto = complete(ba(set(SIGMA),
                       {("q", "a"): {"q"}, ("q", "b"): {"q"}},
                       ["q"], ["q"]))
    comp = materialize(RankComplement(auto))
    for word in words(40, 9):
        assert not accepts(comp, word)


# -- dispatch ---------------------------------------------------------------------------

def test_classify_kind():
    ft = ba(set(SIGMA),
            {("0", "a"): {"acc"}, ("acc", "a"): {"acc"}, ("acc", "b"): {"acc"}},
            ["0"], ["acc"])
    assert classify_kind(ft) is ComplementKind.FINITE_TRACE
    det = ba(set(SIGMA), {("q", "a"): {"q"}}, ["q"], ["q"])
    assert classify_kind(det) is ComplementKind.DBA
    sdba = random_sdba_raw(0)
    assert classify_kind(sdba) is ComplementKind.SDBA_LAZY
    general = ba(set(SIGMA), {("f", "a"): {"f", "g"}, ("g", "a"): {"g"}},
                 ["f"], ["f"])
    assert classify_kind(general) is ComplementKind.RANK


@pytest.mark.parametrize("seed", range(6))
def test_dispatch_complement_over_larger_alphabet(seed):
    auto = random_sdba_raw(seed)
    big_sigma = set(SIGMA) | {"c"}
    comp, kind = complement(auto, big_sigma)
    assert kind in (ComplementKind.SDBA_LAZY,)
    for word in words(100, seed + 300, symbols=tuple(big_sigma)):
        # words using 'c' are never in L(auto) hence always in the complement
        assert accepts(comp, word) != accepts(complete(auto, big_sigma), word)
