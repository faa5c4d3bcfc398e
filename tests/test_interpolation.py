"""Tests for Farkas refutations and sequence interpolants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.atoms import atom_eq, atom_ge, atom_gt, atom_le, atom_lt
from repro.logic.interpolation import farkas_refutation, sequence_interpolants
from repro.logic.linconj import LinConj, conj
from repro.logic.terms import var

x, y, z = var("x"), var("y"), var("z")


def test_refutation_exists_for_simple_contradiction():
    groups = [[atom_ge(x, 5)], [atom_le(x, 2)]]
    certificate = farkas_refutation(groups)
    assert certificate is not None
    assert all(lam >= 0 for lams in certificate for lam in lams)


def test_no_refutation_for_satisfiable():
    groups = [[atom_ge(x, 0)], [atom_le(x, 10)]]
    assert farkas_refutation(groups) is None
    assert sequence_interpolants(groups) is None


def test_interpolant_chain_shape():
    groups = [[atom_ge(x, 5)], [atom_eq(y, x)], [atom_le(y, 2)]]
    chain = sequence_interpolants(groups)
    assert chain is not None
    assert len(chain) == 4
    assert not chain[0].atoms
    assert chain[-1].is_unsat()


def test_interpolants_are_inductive():
    """I_k and A_{k+1} entail I_{k+1} for the whole chain."""
    groups = [[atom_ge(x, 5)], [atom_eq(y, x)], [atom_ge(z, y)],
              [atom_lt(z, 3)]]
    chain = sequence_interpolants(groups)
    assert chain is not None
    for k, group in enumerate(groups):
        premise = chain[k].and_(LinConj(group))
        assert premise.entails(chain[k + 1]), k


def test_interpolants_over_shared_variables_only():
    # x is local to the prefix; the cut formula must not mention it.
    groups = [[atom_ge(x, 5), atom_eq(y, x)], [atom_le(y, 2)]]
    chain = sequence_interpolants(groups)
    assert chain is not None
    assert "x" not in chain[1].variables()
    assert chain[1].entails_atom(atom_ge(y, 5))


def test_interpolants_drop_irrelevant_facts():
    # z = 99 plays no role in the contradiction.
    groups = [[atom_eq(z, 99), atom_ge(x, 5)], [atom_le(x, 2)]]
    chain = sequence_interpolants(groups)
    assert chain is not None
    assert "z" not in chain[1].variables()


def test_interpolants_with_equalities():
    groups = [[atom_eq(x, 1)], [atom_eq(y, x + 1)], [atom_eq(y, 5)]]
    chain = sequence_interpolants(groups)
    assert chain is not None
    assert chain[-1].is_unsat()


def test_integer_tightening_contradiction():
    # 0 < x < 1 is integer-infeasible; tightening exposes it to Farkas.
    groups = [[atom_gt(x, 0)], [atom_lt(x, 1)]]
    chain = sequence_interpolants(groups)
    assert chain is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))
def test_random_window_contradictions(low, high, steps):
    """x >= low, then x decreases per step, finally x > high'."""
    groups = [[atom_le(x, low)]]
    for _ in range(steps):
        groups.append([atom_ge(x, high + 1)])
    chain = sequence_interpolants(groups)
    if low <= high:  # contradiction exists
        assert chain is not None
        for k, group in enumerate(groups):
            assert chain[k].and_(LinConj(group)).entails(chain[k + 1])
    else:
        assert chain is None


# -- the stem-interpolant integration --------------------------------------------

def test_stem_interpolants_on_lasso():
    from repro.program.statements import Assign, Assume
    from repro.ranking.lasso import Lasso

    t = var("t")
    stem = [Assign("t", var("o") * 0 + 1),
            Assume(conj(atom_gt(x, 0)), "x>0"),
            Assume(conj(atom_eq(t, 0)), "t==0")]
    lasso = Lasso(stem, [Assign("x", x - 1)])
    chain = lasso.stem_interpolants()
    assert chain is not None
    assert not chain[0].atoms
    assert chain[-1].is_unsat()
    # the middle interpolants talk about t only (x > 0 is irrelevant)
    assert chain[2].variables() <= {"t"}


def test_stem_interpolants_none_for_feasible():
    from repro.program.statements import Assign, Assume
    from repro.ranking.lasso import Lasso

    lasso = Lasso([Assume(conj(atom_gt(x, 0)), "x>0")], [Assign("x", x - 1)])
    assert lasso.stem_interpolants() is None


def test_interpolant_certificate_validates():
    from repro.program.statements import Assign, Assume
    from repro.core.module import validate_module
    from repro.core.stages import build_lasso_module
    from repro.ranking.certificate import build_certificate
    from repro.ranking.lasso import Lasso
    from repro.ranking.synthesis import prove_lasso

    t = var("t")
    stem = [Assign("t", var("o") * 0 + 1),
            Assume(conj(atom_gt(x, 0)), "x>0"),
            Assume(conj(atom_eq(t, 0)), "t==0")]
    lasso = Lasso(stem, [Assign("x", x - 1)])
    proof = prove_lasso(lasso)
    cert = build_certificate(proof, interpolate=True)
    assert validate_module(build_lasso_module(proof, cert)) == []
