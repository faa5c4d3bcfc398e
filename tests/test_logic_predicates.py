"""Tests for the two-case (oldrnk) rank-certificate predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import atom_eq, atom_ge, atom_gt, atom_le, atom_lt
from repro.logic.linconj import TRUE, LinConj, conj
from repro.logic.predicates import (OLDRNK, PRED_FALSE, PRED_TRUE, Pred,
                                    dnf_entails)
from repro.logic.terms import var
from repro.ranking.certificate import rank_decrease_pred

i, j = var("i"), var("j")
rank = i - j


def test_constructors():
    p = Pred.of_inf()
    assert p.inf_disjuncts == (TRUE,)
    assert p.fin_disjuncts == ()
    assert p.is_sat()
    assert PRED_FALSE.is_unsat()
    assert PRED_TRUE.is_sat()


def test_inf_case_must_not_mention_oldrnk():
    with pytest.raises(ValueError):
        Pred((conj(atom_le(var(OLDRNK), 0)),), ())


def test_rank_decreased_shape():
    p = rank_decrease_pred(rank)
    # infinite case: vacuously true; finite case: i - j < oldrnk
    assert p.inf_disjuncts == (TRUE,)
    (fin,) = p.fin_disjuncts
    assert fin.entails_atom(atom_lt(rank, var(OLDRNK)))


def test_and_prunes_unsat():
    p = Pred.of_inf(conj(atom_gt(i, 0)))
    q = Pred.of_inf(conj(atom_lt(i, 0)))
    assert p.and_(q).is_unsat()


def test_and_cross_case():
    p = Pred.of_inf()
    q = Pred((), (TRUE,))
    assert p.and_(q).is_unsat()          # oldrnk cannot be both oo and finite


def test_entails_per_case():
    strong = Pred.of_inf(conj(atom_eq(i, 3)))
    weak = Pred.of_inf(conj(atom_gt(i, 0)))
    assert strong.entails(weak)
    assert not weak.entails(strong)
    # Inf-case never entails a fin-only predicate.
    assert not strong.entails(Pred((), (TRUE,)))
    # Bottom entails everything; everything entails top.
    assert PRED_FALSE.entails(strong)
    assert strong.entails(PRED_TRUE)


def test_entails_with_disjunction_rhs():
    lhs = Pred.of_inf(conj(atom_ge(i, 0), atom_le(i, 5)))
    rhs = Pred((conj(atom_le(i, 2)), conj(atom_ge(i, 2))), ())
    assert lhs.entails(rhs)  # needs genuine case split at i = 2


def test_dnf_entails_exact_split():
    lhs = [conj(atom_ge(i, 0))]
    rhs = [conj(atom_le(i, 10)), conj(atom_ge(i, 5))]
    assert dnf_entails(lhs, rhs)
    assert not dnf_entails(lhs, [conj(atom_le(i, 10))])


def test_assign_oldrnk_moves_everything_to_fin():
    p = Pred((conj(atom_gt(i, 0)),),
             (conj(atom_gt(i, 0), atom_lt(rank, var(OLDRNK))),))
    q = p.assign_oldrnk(rank)
    assert q.inf_disjuncts == ()
    assert q.is_sat()
    for d in q.fin_disjuncts:
        assert d.entails_atom(atom_eq(var(OLDRNK), rank))


def test_assign_oldrnk_forgets_old_value():
    # Old constraint oldrnk = 7 must not survive the update.
    p = Pred((), (conj(atom_eq(var(OLDRNK), 7), atom_eq(i, 1)),))
    q = p.assign_oldrnk(i + 100)
    (d,) = q.fin_disjuncts
    assert d.entails_atom(atom_eq(var(OLDRNK), 101))


def test_mentions_oldrnk():
    assert Pred.of_inf().mentions_oldrnk()
    assert rank_decrease_pred(rank).mentions_oldrnk()
    assert not PRED_TRUE.mentions_oldrnk()
    assert not Pred((conj(atom_gt(i, 0)),), (conj(atom_gt(i, 0)),)).mentions_oldrnk()


def test_map_cases():
    p = Pred((conj(atom_eq(i, 1)),), (conj(atom_eq(i, 1)),))
    q = p.map_cases(lambda d: d.substitute({"i": j}))
    assert all("j" in d.variables() for d in q.inf_disjuncts + q.fin_disjuncts)


def test_str_smoke():
    assert "oldrnk" in str(rank_decrease_pred(rank))
    assert str(PRED_FALSE) == "false"


@st.composite
def small_preds(draw):
    def small_conj():
        n = draw(st.integers(0, 2))
        atoms = []
        for _ in range(n):
            c = draw(st.integers(-2, 2))
            d = draw(st.integers(-3, 3))
            atoms.append(atom_le(c * i + d * j, draw(st.integers(-2, 2))))
        return LinConj(atoms)

    inf = tuple(small_conj() for _ in range(draw(st.integers(0, 2))))
    fin = tuple(small_conj() for _ in range(draw(st.integers(0, 2))))
    return Pred(inf, fin)


@settings(max_examples=50, deadline=None)
@given(small_preds(), small_preds())
def test_and_is_stronger_than_both(p, q):
    both = p.and_(q)
    assert both.entails(p)
    assert both.entails(q)


@settings(max_examples=50, deadline=None)
@given(small_preds())
def test_entails_reflexive(p):
    assert p.entails(p)
