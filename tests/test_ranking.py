"""Tests for the lasso substrate and ranking synthesis."""

from fractions import Fraction

import pytest

from repro.logic import fourier_motzkin as fm
from repro.logic.atoms import atom_eq, atom_ge, atom_gt, atom_le, atom_lt
from repro.logic.linconj import TRUE, conj
from repro.logic.memo import use_memo
from repro.logic.terms import var
from repro.automata.words import UPWord
from repro.program.statements import Assign, Assume, Havoc
from repro.ranking.lasso import Lasso, primed
from repro.ranking.nontermination import find_nontermination_witness
from repro import faults
from repro.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.ranking.synthesis import (ProofKind, prove_lasso,
                                     synthesize_ranking)

x, y, n = var("x"), var("y"), var("n")

GUARD_X = Assume(conj(atom_gt(x, 0)), "x>0")
DEC_X = Assign("x", x - 1)
INC_X = Assign("x", x + 1)


# -- lasso structure -------------------------------------------------------------

def test_lasso_requires_nonempty_loop():
    with pytest.raises(ValueError):
        Lasso([GUARD_X], [])


def test_lasso_from_word_unrolls_empty_stem():
    word = UPWord((), (GUARD_X, DEC_X))
    lasso = Lasso.from_word(word)
    assert lasso.stem == (GUARD_X, DEC_X)
    assert lasso.loop == (GUARD_X, DEC_X)
    assert lasso.word() == word  # same omega-word


def test_lasso_from_word_reduces_period_to_primitive_root():
    word = UPWord((GUARD_X,), (DEC_X, GUARD_X, DEC_X, GUARD_X))
    lasso = Lasso.from_word(word)
    assert len(lasso.loop) == 2
    assert lasso.word() == word


def test_stem_posts_and_infeasibility():
    lasso = Lasso([Assign("x", var("x") * 0), GUARD_X], [DEC_X])
    # x := 0 then assume x > 0: infeasible at position 2
    assert lasso.stem_infeasible_at() == 2
    feasible = Lasso([GUARD_X], [DEC_X])
    assert feasible.stem_infeasible_at() is None
    posts = feasible.stem_posts()
    assert not posts[0].atoms
    assert posts[1].entails_atom(atom_gt(x, 0))


def test_loop_relation_translation():
    lasso = Lasso([], [GUARD_X, DEC_X]) if False else Lasso([GUARD_X], [GUARD_X, DEC_X])
    rel = lasso.loop_relation()
    # relation: x > 0 and x' = x - 1
    assert rel.rel.entails_atom(atom_ge(x, 1))
    assert rel.rel.entails_atom(atom_eq(var(primed("x")), x - 1))
    assert not rel.is_infeasible()


def test_loop_relation_havoc_unconstrains():
    lasso = Lasso([GUARD_X], [GUARD_X, Havoc("x")])
    rel = lasso.loop_relation()
    assert rel.rel.entails_atom(atom_ge(x, 1))
    assert not rel.rel.entails_atom(atom_eq(var(primed("x")), x))
    # post of x>5 is unconstrained in x
    post = rel.post_of(conj(atom_gt(x, 5)))
    assert post.is_sat()
    assert not post.entails_atom(atom_gt(x, 0))


def test_loop_relation_sequencing():
    # y := x; x := y + 1 composes to x' = x + 1
    lasso = Lasso([GUARD_X], [Assign("y", x), Assign("x", y + 1)])
    rel = lasso.loop_relation()
    assert rel.rel.entails_atom(atom_eq(var(primed("x")), x + 1))
    assert rel.rel.entails_atom(atom_eq(var(primed("y")), x))


def test_inductive_invariant():
    # stem: x := 10; loop: x := x - 1 under x > 0.
    lasso = Lasso([Assign("x", var("zero") * 0 + 10)], [GUARD_X, DEC_X])
    inv = lasso.inductive_invariant()
    # x = 10 is not inductive, but x <= 10 is.
    assert inv.entails_atom(atom_le(x, 10))
    assert not inv.entails_atom(atom_eq(x, 10))
    # and it must be implied by the stem
    assert lasso.stem_post().entails(inv)
    # and preserved by the loop
    post = lasso.loop_relation().post_of(inv)
    assert post.entails(inv)


# -- ranking synthesis ----------------------------------------------------------------

def test_ranking_simple_countdown():
    lasso = Lasso([GUARD_X], [GUARD_X, DEC_X])
    f = synthesize_ranking(lasso.loop_relation())
    assert f is not None
    # the candidate heuristic should pick f = x itself
    assert f.expr == x


def test_ranking_difference():
    guard = Assume(conj(atom_lt(x, n)), "x<n")
    lasso = Lasso([guard], [guard, INC_X])
    f = synthesize_ranking(lasso.loop_relation())
    assert f is not None
    assert f.expr == n - x


def test_ranking_needs_lp_offset():
    # while x >= -5: x := x - 1 -- bounded by -5, so f = x + C with C >= 6;
    # no bare variable or difference works: exercises the Farkas LP.
    guard = Assume(conj(atom_ge(x, -5)), "x>=-5")
    lasso = Lasso([guard], [guard, DEC_X])
    f = synthesize_ranking(lasso.loop_relation())
    assert f is not None
    assert f.expr.coeff("x") > 0


def test_ranking_none_for_nonterminating():
    lasso = Lasso([GUARD_X], [GUARD_X, INC_X])
    assert synthesize_ranking(lasso.loop_relation()) is None


def test_ranking_with_invariant():
    # loop: x := x + y, terminating only because the stem pins y = -1.
    lasso = Lasso([Assign("y", var("zero") * 0 - 1), GUARD_X],
                  [GUARD_X, Assign("x", x + y)])
    relation = lasso.loop_relation()
    assert synthesize_ranking(relation) is None
    inv = lasso.inductive_invariant()
    f = synthesize_ranking(relation, inv)
    assert f is not None


# -- the prover -------------------------------------------------------------------------

def test_prove_stem_infeasible():
    lasso = Lasso([Assign("x", var("zero") * 0), GUARD_X], [DEC_X])
    proof = prove_lasso(lasso)
    assert proof.kind is ProofKind.STEM_INFEASIBLE
    assert proof.infeasible_at == 2
    assert proof.is_terminating


def test_prove_ranked():
    lasso = Lasso([GUARD_X], [GUARD_X, DEC_X])
    proof = prove_lasso(lasso)
    assert proof.kind is ProofKind.RANKED
    assert not proof.needs_invariant


def test_prove_loop_infeasible_reclassified_as_stem():
    # stem establishes x = 0; the (unrankable, increasing) loop requires
    # x > 0, so it is infeasible under the inductive invariant x <= 0.
    lasso = Lasso([Assign("x", var("zero") * 0)], [GUARD_X, INC_X])
    proof = prove_lasso(lasso)
    assert proof.kind is ProofKind.STEM_INFEASIBLE
    # the lasso was unrolled: the loop moved into the stem
    assert len(proof.lasso.stem) == 3
    assert proof.lasso.word() == lasso.word()


def test_prove_nonterminating_monotone_drift():
    lasso = Lasso([GUARD_X], [GUARD_X, INC_X])
    proof = prove_lasso(lasso)
    assert proof.kind is ProofKind.NONTERMINATING
    assert proof.witness is not None
    assert proof.witness.kind == "monotone-drift"
    assert not proof.is_terminating


def test_prove_nonterminating_fixed_point():
    keep = Assign("y", y + 1)
    lasso = Lasso([GUARD_X], [GUARD_X, Assign("x", x)])
    proof = prove_lasso(lasso)
    assert proof.kind is ProofKind.NONTERMINATING


def test_prove_unknown_for_multiphase():
    # x := x + y; y := y - 1 needs a multiphase argument.
    lasso = Lasso([GUARD_X], [GUARD_X, Assign("x", x + y), Assign("y", y - 1)])
    proof = prove_lasso(lasso)
    assert proof.kind is ProofKind.UNKNOWN


def test_prove_respects_nontermination_flag():
    lasso = Lasso([GUARD_X], [GUARD_X, INC_X])
    proof = prove_lasso(lasso, check_nontermination=False)
    assert proof.kind is ProofKind.UNKNOWN


# -- nontermination details ----------------------------------------------------------------

def test_witness_is_integral_and_satisfies_guard():
    lasso = Lasso([GUARD_X], [GUARD_X, INC_X])
    witness = find_nontermination_witness(lasso, lasso.loop_relation(),
                                          TRUE)
    assert witness is not None
    assert all(v.denominator == 1 for v in witness.state.values())
    assert witness.state["x"] >= 1


def test_no_witness_for_terminating_loop():
    lasso = Lasso([GUARD_X], [GUARD_X, DEC_X])
    witness = find_nontermination_witness(lasso, lasso.loop_relation(),
                                          TRUE)
    assert witness is None


def test_fractional_fixed_point_rejected():
    # x := 1 - 2x has the rational fixed point x = 1/3 only.
    lasso = Lasso([GUARD_X], [GUARD_X, Assign("x", -2 * x + 1)])
    witness = find_nontermination_witness(lasso, lasso.loop_relation(),
                                          TRUE)
    assert witness is None


# -- the per-run Farkas-LP memo ----------------------------------------------------


def _lp_relation():
    # the relation of test_ranking_needs_lp_offset: only the LP ranks it
    guard = Assume(conj(atom_ge(x, -5)), "x>=-5")
    return Lasso([guard], [guard, DEC_X]).loop_relation()


def _synthesize_twice(relation):
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        first = synthesize_ranking(relation)
        second = synthesize_ranking(relation)
    return first, second, registry.snapshot()["counters"]


def _lp_keys(memo):
    """The Farkas questions among the memo's keys; the one memo also
    holds the FM questions the candidate checks ask."""
    return [key for key in memo if key[0] == "lp"]


def test_lp_memo_hit_returns_the_first_ranking():
    honest = synthesize_ranking(_lp_relation())
    with use_memo() as memo:
        first, second, counters = _synthesize_twice(_lp_relation())
        assert len(_lp_keys(memo)) == 1
    assert first == second == honest
    assert counters["ranking.syntheses"] == 2
    assert counters["ranking.lp_syntheses"] == 2
    assert counters["ranking.lp_memo_hits"] == 1
    assert counters["logic.lp.solves"] == 1


def test_lp_memo_is_off_outside_its_scope():
    from repro.logic import memo
    assert memo._MEMO is None
    first, second, counters = _synthesize_twice(_lp_relation())
    assert first == second
    assert "ranking.lp_memo_hits" not in counters
    assert counters["logic.lp.solves"] == 2


def test_lp_memo_is_bypassed_under_a_fault_plan():
    with use_memo() as memo, faults.use_plan(FaultPlan(seed=1)):
        first, second, counters = _synthesize_twice(_lp_relation())
        assert _lp_keys(memo) == []
    assert first == second
    assert "ranking.lp_memo_hits" not in counters
    assert counters["logic.lp.solves"] == 2


def test_lp_memo_never_stores_a_raising_question(monkeypatch):
    from repro.logic.lp import LinearProgram

    def fail(self):
        raise RuntimeError("deadline")

    with use_memo() as memo:
        monkeypatch.setattr(LinearProgram, "check_feasible", fail)
        with pytest.raises(RuntimeError):
            synthesize_ranking(_lp_relation())
        monkeypatch.undo()
        assert _lp_keys(memo) == []
        assert synthesize_ranking(_lp_relation()) is not None
        assert len(_lp_keys(memo)) == 1


def test_fm_and_farkas_questions_of_one_shape_get_separate_answers():
    # an FM query (atoms, names) and a Farkas query (atoms, variables)
    # have the same shape; only the kind in the key keeps them apart
    relation = _lp_relation()
    atoms = relation.rel.and_(TRUE).atoms
    names = tuple(relation.variables)
    projection = fm.eliminate(atoms, names)
    ranking = synthesize_ranking(relation)
    assert projection is not None and ranking is not None
    with use_memo() as memo:
        assert fm.eliminate(atoms, names) == projection
        assert synthesize_ranking(relation) == ranking
        assert ("fm", atoms, names) in memo and ("lp", atoms, names) in memo
    with use_memo():
        assert synthesize_ranking(relation) == ranking
        assert fm.eliminate(atoms, names) == projection
