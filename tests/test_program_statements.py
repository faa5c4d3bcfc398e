"""Tests for atomic statements: relational semantics and postconditions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import (Atom, Rel, atom_eq, atom_ge, atom_gt, atom_le,
                               atom_lt)
from repro.logic.linconj import TRUE, LinConj, conj
from repro.logic.memo import use_memo
from repro.logic.predicates import OLDRNK, Pred
from repro.logic.terms import LinTerm, var
from repro.obs import metrics as obs_metrics
from repro.program.statements import (Assign, Assume, Havoc,
                                      NondeterminismError, hoare_valid)

x, y = var("x"), var("y")


def test_assume_execute():
    stmt = Assume(conj(atom_gt(x, 0)), "x>0")
    assert stmt.execute({"x": Fraction(1)}) == {"x": Fraction(1)}
    assert stmt.execute({"x": Fraction(0)}) is None
    assert stmt.text == "x>0"
    assert str(stmt) == "x>0"


def test_assume_sp_is_conjunction():
    stmt = Assume(conj(atom_gt(x, 0)))
    post = stmt.sp_conj(conj(atom_lt(x, 5)))
    assert post.entails_atom(atom_gt(x, 0))
    assert post.entails_atom(atom_lt(x, 5))


def test_assign_execute():
    stmt = Assign("x", x + y)
    out = stmt.execute({"x": Fraction(1), "y": Fraction(2)})
    assert out == {"x": Fraction(3), "y": Fraction(2)}


def test_assign_sp_exact():
    stmt = Assign("x", x + 1)
    post = stmt.sp_conj(conj(atom_eq(x, 5)))
    assert post.entails_atom(atom_eq(x, 6))
    assert not post.entails_atom(atom_eq(x, 5))


def test_assign_sp_self_reference():
    # x := x - y from {x = 7, y = 2} -> {x = 5, y = 2}
    stmt = Assign("x", x - y)
    post = stmt.sp_conj(conj(atom_eq(x, 7), atom_eq(y, 2)))
    assert post.entails_atom(atom_eq(x, 5))
    assert post.entails_atom(atom_eq(y, 2))


def test_assign_sp_loses_old_value_only():
    stmt = Assign("x", var("c") * 1)
    post = stmt.sp_conj(conj(atom_ge(x, 100), atom_le(var("c"), 3)))
    assert post.entails_atom(atom_le(x, 3))
    assert not post.entails_atom(atom_ge(x, 100))


def test_havoc_sp_projects():
    stmt = Havoc("x")
    post = stmt.sp_conj(conj(atom_eq(x, 5), atom_eq(y, 2)))
    assert post.entails_atom(atom_eq(y, 2))
    assert not post.entails_atom(atom_eq(x, 5))


def test_havoc_execute_needs_chooser():
    stmt = Havoc("x")
    with pytest.raises(NondeterminismError):
        stmt.execute({"x": Fraction(0)})
    out = stmt.execute_with({"x": Fraction(0)}, 9)
    assert out["x"] == 9


def test_statement_value_identity():
    assert Assign("x", x + 1) == Assign("x", 1 + x)
    assert Assume(conj(atom_gt(x, 0)), "g") == Assume(conj(atom_gt(x, 0)), "g")
    assert Assume(conj(atom_gt(x, 0)), "g") != Assume(conj(atom_gt(x, 0)), "h")
    assert len({Assign("x", x + 1), Assign("x", x + 1)}) == 1


def test_reserved_oldrnk_protected():
    with pytest.raises(ValueError):
        Assign(OLDRNK, x)
    with pytest.raises(ValueError):
        Havoc(OLDRNK)


def test_sp_pred_keeps_oldrnk_case_split():
    stmt = Assign("x", x + 1)
    pre = Pred((TRUE,), (conj(atom_lt(x, var(OLDRNK))),))  # x < oldrnk
    post = stmt.sp_pred(pre)
    # the oldrnk-infinite case survives program statements
    assert post.inf_disjuncts
    assert post.fin_disjuncts
    (fin,) = post.fin_disjuncts
    assert fin.entails_atom(atom_lt(x - 1, var(OLDRNK)))


def test_hoare_valid_basic():
    stmt = Assign("x", x - 1)
    pre = Pred.of_inf(conj(atom_ge(x, 1)))
    post = Pred.of_inf(conj(atom_ge(x, 0)))
    assert hoare_valid(pre, stmt, post)
    assert not hoare_valid(post, stmt, pre)


def test_hoare_valid_with_oldrnk_update():
    # {x < oldrnk} oldrnk := x; x := x - 1 {x < oldrnk}: after the update
    # oldrnk = old x, then x decreases, so x < oldrnk again.
    stmt = Assign("x", x - 1)
    pred = Pred((TRUE,), (conj(atom_lt(x, var(OLDRNK))),))
    assert hoare_valid(pred, stmt, pred, oldrnk_update=x)
    # without the update the triple fails on the finite case
    grow = Assign("x", x + 1)
    assert not hoare_valid(pred, grow, pred, oldrnk_update=None)


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-3, 3))
def test_sp_agrees_with_execution(x0, y0, k):
    """Concrete runs land inside the strongest postcondition."""
    statements = [
        Assume(conj(atom_ge(x, -8), atom_le(x, 8))),
        Assign("x", x + k),
        Assign("y", x - y),
        Assume(conj(atom_le(y, 20))),
    ]
    valuation = {"x": Fraction(x0), "y": Fraction(y0)}
    pre = conj(atom_eq(x, x0), atom_eq(y, y0))
    post = pre
    for stmt in statements:
        result = stmt.execute(valuation)
        post = stmt.sp_conj(post)
        if result is None:
            assert post.is_unsat() or not post.evaluate(valuation)
            return
        valuation = result
    assert post.evaluate(valuation), "execution escaped the postcondition"


# -- the per-run postcondition and Hoare-triple memo ---------------------------

_coeff = st.integers(-2, 2)


def _terms(names):
    return st.builds(lambda cs, k: LinTerm(dict(zip(names, cs)), k),
                     st.tuples(*[_coeff] * len(names)), st.integers(-3, 3))


def _conjs(names):
    # equalities are common: which one FM pivots on depends on atom order
    atom = st.builds(Atom, _terms(names), st.sampled_from(list(Rel)))
    return st.lists(atom, max_size=3).map(LinConj)


_preds = st.builds(lambda inf, fin: Pred(tuple(inf), tuple(fin)),
                   st.lists(_conjs(("x", "y")), max_size=2),
                   st.lists(_conjs(("x", "y", OLDRNK)), max_size=2))
_statements = st.one_of(
    st.builds(Assume, _conjs(("x", "y"))),
    st.builds(Assign, st.sampled_from(("x", "y")), _terms(("x", "y"))),
    st.builds(Havoc, st.sampled_from(("x", "y"))))
_queries = st.tuples(_preds, _statements, _preds,
                     st.one_of(st.none(), _terms(("x", "y"))))


def _reversed(pred: Pred) -> Pred:
    """The same predicate with every disjunct's atoms in reverse order."""
    return Pred(tuple(LinConj(d.atoms[::-1]) for d in pred.inf_disjuncts),
                tuple(LinConj(d.atoms[::-1]) for d in pred.fin_disjuncts))


def _shape(pred: Pred) -> tuple:
    return (tuple(d.atoms for d in pred.inf_disjuncts),
            tuple(d.atoms for d in pred.fin_disjuncts))


def _ask_all(pre, stmt, post, update):
    """The three memoized questions on one generated triple."""
    first = (pre.inf_disjuncts + pre.fin_disjuncts + (TRUE,))[0]
    return (hoare_valid(pre, stmt, post, oldrnk_update=update),
            stmt.sp_pred(pre, update), stmt.sp_conj(first))


@settings(max_examples=150, deadline=None)
@given(st.lists(_queries, min_size=1, max_size=4))
def test_memo_answers_exactly_as_the_uncached_checks(queries):
    # a reordered precondition equals the original as a value, but FM's
    # output form depends on the order: the memo must not mix them up
    queries = queries + [(_reversed(pre), stmt, post, update)
                         for pre, stmt, post, update in queries]
    honest = [_ask_all(*query) for query in queries]
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry), use_memo() as memo:
        answers = [_ask_all(*query) for query in queries]
        again = [_ask_all(*query) for query in queries]
        assert memo
    for (valid, post, post_conj), got, hit in zip(honest, answers, again):
        assert got[0] == valid
        assert _shape(got[1]) == _shape(post)
        assert got[2].atoms == post_conj.atoms
        # a hit returns the first answer itself
        assert hit[0] == got[0] and hit[1] is got[1] and hit[2] is got[2]
    counters = registry.snapshot()["counters"]
    assert counters["logic.hoare.memo_hits"] >= len(queries)
    assert counters["logic.sp.memo_hits"] >= 2 * len(queries)


def test_memo_scope_nests_and_restores():
    from repro.logic import memo
    assert memo._MEMO is None
    with use_memo() as outer:
        with use_memo() as inner:
            assert memo._MEMO is inner and inner is not outer
        assert memo._MEMO is outer
    assert memo._MEMO is None


def test_a_raising_check_is_never_stored(monkeypatch):
    stmt = Assign("x", x - 1)
    pre = Pred.of_inf(conj(atom_ge(x, 1)))

    def fail(self, other):
        raise RuntimeError("budget")

    with use_memo() as memo:
        monkeypatch.setattr(Pred, "entails", fail)
        with pytest.raises(RuntimeError):
            hoare_valid(pre, stmt, pre)
        monkeypatch.undo()
        # the postcondition returned and is kept; the triple is not
        assert [key[0] for key in memo].count("hoare") == 0
        assert any(key[0] == "sp-pred" for key in memo)
        assert hoare_valid(pre, stmt, pre) is False
        assert [key[0] for key in memo].count("hoare") == 1
