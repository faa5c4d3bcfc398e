"""Tests for atoms, conjunctions and the Fourier--Motzkin engine.

The decision procedure is cross-checked against brute-force enumeration
over a small integer grid (hypothesis generates random conjunctions).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.budget import Budget, ResourceExhausted, use_budget
from repro.logic import fourier_motzkin as fm
from repro.logic.atoms import (Atom, Rel, atom_eq, atom_ge, atom_gt, atom_le,
                               atom_lt, negate_atom)
from repro.logic.fourier_motzkin import eliminate, find_model, satisfiable
from repro.logic import memo as solver_memo
from repro.logic.linconj import FALSE, TRUE, LinConj, conj
from repro.logic.terms import term, var
from repro.obs import metrics as obs_metrics
from tests import fm_reference

x, y, z = var("x"), var("y"), var("z")


# -- atoms -------------------------------------------------------------------

def test_atom_normalization():
    a = atom_le(x + 1, y)
    assert a.rel is Rel.LE
    assert a.term == x - y + 1


def test_atom_trivial():
    assert atom_le(0, 1).is_trivially_true()
    assert atom_lt(1, 0).term.is_constant()
    assert not atom_lt(1, 0).is_trivially_true()
    assert atom_eq(term({}, 2), 2).is_trivially_true()
    assert not atom_le(x, 0).is_trivially_true()


def test_atom_negate():
    a = atom_le(x, 0)
    n = a.negate()
    assert n.rel is Rel.LT and n.term == -x
    with pytest.raises(ValueError):
        atom_eq(x, 0).negate()
    branches = negate_atom(atom_eq(x, 0))
    assert len(branches) == 2


def test_atom_evaluate():
    assert atom_lt(x, y).evaluate({"x": 1, "y": 2})
    assert not atom_lt(x, y).evaluate({"x": 2, "y": 2})
    assert atom_le(x, y).evaluate({"x": 2, "y": 2})


def test_integral_tightening():
    a = atom_lt(x, 3).tighten_integral()       # x < 3  ->  x <= 2
    assert a.rel is Rel.LE and a.term == x - 2
    b = atom_le(x, Fraction(5, 2)).tighten_integral()  # x <= 5/2 -> x <= 2
    assert b.term == x - 2
    # fractional coefficients are scaled first: x/2 < 1 == x < 2 -> x <= 1
    c = atom_lt(Fraction(1, 2) * x, 1).tighten_integral()
    assert c.rel is Rel.LE and c.term == x - 1
    # scaled gcd reduction: 2x <= 5 -> x <= 5/2 -> x <= 2
    d = atom_le(2 * x, 5).tighten_integral()
    assert d.term == x - 2
    # integral equality with fractional constant is unsatisfiable
    e = atom_eq(2 * x, 5).tighten_integral()
    assert e.term.is_constant() and not e.is_trivially_true()


def test_tightening_never_rounds_oldrnk():
    # oldrnk is rational-valued (it stores ranking values like y/6+5/6),
    # so atoms mentioning it are scaled but never rounded; rounding used
    # to turn the satisfiable certificate below into "unsat" and create
    # unsound accepting states in the powerset modules.
    r = var("oldrnk")
    a = atom_eq(2 * r, 5).tighten_integral()
    assert not a.term.is_constant()
    b = atom_le(r, Fraction(5, 3)).tighten_integral()
    assert b.evaluate({"oldrnk": Fraction(5, 3)})
    c = atom_lt(r, Fraction(5, 3)).tighten_integral()
    assert c.rel is Rel.LT
    assert c.evaluate({"oldrnk": Fraction(3, 2)})
    # the concrete conjunction from the soundness regression:
    # 6*oldrnk - y - 5 = 0  &  3 <= y <= 5   (sat at y=5, oldrnk=5/3)
    atoms = [atom_eq(6 * r - y, 5), atom_ge(y, 3), atom_le(y, 5)]
    assert satisfiable(atoms)
    model = find_model(atoms)
    assert model is not None and 6 * model["oldrnk"] - model["y"] == 5


# -- conjunctions --------------------------------------------------------------

def test_conj_basics():
    c = conj(atom_gt(x, 0), atom_lt(x, 5))
    assert c.is_sat()
    assert c.entails_atom(atom_le(x, 10))
    assert not c.entails_atom(atom_le(x, 3))
    assert TRUE.is_sat() and not TRUE.atoms
    assert FALSE.is_unsat()


def test_conj_dedupes_and_drops_trivial():
    c = conj(atom_le(x, 1), atom_le(x, 1), atom_le(0, 5))
    assert len(c.atoms) == 1


def test_strict_cycle_unsat():
    assert conj(atom_lt(x, y), atom_lt(y, x)).is_unsat()
    assert conj(atom_le(x, y), atom_le(y, x), atom_eq(x, y)).is_sat()


def test_equality_pivoting():
    c = conj(atom_eq(x, y + 1), atom_eq(y, 4), atom_le(x, 5))
    assert c.is_sat()
    assert c.entails_atom(atom_eq(x, 5))
    d = c.and_(atom_le(x, 4))
    assert d.is_unsat()


def test_integer_tightening_gives_int_unsat():
    # 0 < x < 1 has no integer solution; tightening finds the conflict.
    c = conj(atom_gt(x, 0), atom_lt(x, 1))
    assert c.is_unsat()


def test_projection():
    c = conj(atom_le(x, y), atom_le(y, z))
    p = c.project_away(["y"])
    assert p.entails_atom(atom_le(x, z))
    assert not p.entails_atom(atom_le(z, x))
    assert "y" not in p.variables()


def test_projection_of_unsat_is_false():
    c = conj(atom_lt(x, y), atom_lt(y, x))
    assert c.project_away(["y"]).is_unsat()


def test_entails_conjunction():
    c = conj(atom_eq(x, 2), atom_eq(y, 3))
    assert c.entails(conj(atom_le(x, y), atom_ge(x + y, 5)))
    assert not c.entails(conj(atom_le(y, x)))


def test_unsat_entails_everything():
    assert FALSE.entails(conj(atom_eq(x, 99)))


def test_equivalent():
    a = conj(atom_le(x, 3), atom_le(3, x))
    b = conj(atom_eq(x, 3))
    assert a.equivalent(b)


def test_find_model_prefers_integers():
    m = conj(atom_gt(x, Fraction(1, 2)), atom_lt(x, 10)).find_model()
    assert m is not None and m["x"].denominator == 1


def test_find_model_prefer_hint():
    for hint in (Fraction(42), 42):
        m = conj(atom_ge(x, 0), atom_le(x, 100)).find_model(prefer={"x": hint})
        # an int hint comes back a Fraction, like every model value
        assert m == {"x": 42} and type(m["x"]) is Fraction


def test_pick_value_midpoint_of_int_bounds_is_exact():
    # int bounds must not make ``(lower + upper) / 2`` a float
    value = fm._pick_value(0, True, 1, True)
    assert value == Fraction(1, 2) and type(value) is Fraction


def test_find_model_bounds_from_int_rows_stay_exact():
    r = var("oldrnk")
    # bound -(-1) / 2 from int row entries
    m = find_model([atom_eq(2 * r, 1)])
    assert m == {"oldrnk": Fraction(1, 2)} and type(m["oldrnk"]) is Fraction
    # no integer in (1/3, 2/3): the midpoint of two Fraction bounds
    m = find_model([atom_gt(3 * r, 1), atom_lt(3 * r, 2)])
    assert m == {"oldrnk": Fraction(1, 2)} and type(m["oldrnk"]) is Fraction


def test_find_model_none_when_unsat():
    assert conj(atom_lt(x, x)).find_model() is None


def test_substitute_and_rename():
    c = conj(atom_le(x, y))
    assert c.substitute({"x": y}).is_sat()
    r = c.rename({"x": "a", "y": "b"})
    assert r.variables() == {"a", "b"}


def test_eliminate_equalities_only():
    atoms = [atom_eq(x, y), atom_eq(y, z), atom_lt(z, 0)]
    remaining = eliminate(atoms, ["x", "y"])
    assert remaining is not None
    assert satisfiable(remaining)


# -- brute-force cross-check ----------------------------------------------------

GRID = range(-3, 4)


def brute_force_sat(atoms, names):
    """Enumerate the integer grid; True iff some point satisfies all atoms."""
    names = sorted(names)

    def rec(i, valuation):
        if i == len(names):
            return all(a.evaluate(valuation) for a in atoms)
        return any(rec(i + 1, {**valuation, names[i]: v}) for v in GRID)

    return rec(0, {})


@st.composite
def small_atoms(draw):
    names = ["x", "y"]
    coeffs = {n: draw(st.integers(-2, 2)) for n in names}
    constant = draw(st.integers(-3, 3))
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]))
    return Atom(term(coeffs, constant), rel)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=4))
def test_sat_agrees_with_bruteforce_on_integer_grid(atoms):
    names = {n for a in atoms for n in a.variables()}
    fm_sat = satisfiable(atoms)
    grid_sat = brute_force_sat(atoms, names)
    # FM satisfiability (rows tightened over the integers) over-approximates
    # integer-grid satisfiability.
    if grid_sat:
        assert fm_sat, f"grid-sat but FM-unsat: {[str(a) for a in atoms]}"
    if not fm_sat:
        assert not grid_sat


@settings(max_examples=200, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=4))
def test_find_model_satisfies_input(atoms):
    model = find_model(atoms)
    if model is not None:
        full = {n: model.get(n, Fraction(0))
                for a in atoms for n in a.variables()}
        assert all(a.evaluate(full) for a in atoms)
    else:
        assert not satisfiable(atoms)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=3), small_atoms())
def test_entailment_respected_by_models(atoms, goal):
    c = LinConj(atoms)
    if c.entails_atom(goal):
        model = c.find_model()
        # entailment is decided with integer tightening, so only integer
        # models are bound by it (a fractional model may escape a goal
        # that holds for every *integer* solution)
        if model is not None and all(v.denominator == 1 for v in model.values()):
            full = {n: model.get(n, Fraction(0))
                    for n in goal.variables() | c.variables()}
            assert goal.evaluate(full)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_atoms(), min_size=1, max_size=3))
def test_projection_preserves_satisfiability(atoms):
    c = LinConj(atoms)
    p = c.project_away(["x"])
    assert p.is_sat() == c.is_sat()


# -- per-run memo ----------------------------------------------------------------

MEMO_VARS = ["x", "y", "oldrnk"]


@st.composite
def memo_atoms(draw):
    """Atoms over two integer variables and the rational ``oldrnk``."""
    coeffs = {n: draw(st.integers(-2, 2)) for n in MEMO_VARS}
    constant = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]))
    return Atom(term(coeffs, constant), rel)


@st.composite
def elimination_orders(draw):
    order = draw(st.permutations(MEMO_VARS))
    return order[:draw(st.integers(0, len(order)))]


@settings(max_examples=200, deadline=None)
@given(st.lists(memo_atoms(), min_size=1, max_size=5), elimination_orders())
def test_memo_answers_exactly_as_the_uncached_solver(atoms, order):
    assert solver_memo._MEMO is None
    reference = eliminate(atoms, order)
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry), solver_memo.use_memo() as memo:
        # same atoms in the same order (or UNSAT) on every call, and what
        # a caller does to a returned list never reaches the memo
        first = eliminate(atoms, order)
        assert first == reference
        if first is not None:
            first.reverse()
            first.append(atom_le(x, 0))
        second = eliminate(atoms, order)
        assert second == reference
        if second is not None:
            second.clear()
        assert eliminate(atoms, order) == reference
    assert solver_memo._MEMO is None
    assert len(memo) == 1
    counters = registry.snapshot()["counters"]
    assert counters["logic.fm.eliminations"] == 1
    assert counters["logic.fm.memo_hits"] == 2


def test_memo_key_keeps_atom_and_elimination_order():
    atoms = [atom_le(x, y), atom_le(y, 3), atom_ge(x, z)]
    with solver_memo.use_memo() as memo:
        eliminate(atoms, ["y", "x"])
        eliminate(list(reversed(atoms)), ["y", "x"])
        eliminate(atoms, ["x", "y"])
    assert len(memo) == 3


def test_memo_never_stores_a_query_over_the_fm_cap():
    atoms = [atom_le(x, y), atom_le(y, 3), atom_ge(x, 0)]
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry), solver_memo.use_memo() as memo:
        with use_budget(Budget(fm_constraint_cap=2)):
            for _ in range(2):
                with pytest.raises(ResourceExhausted) as info:
                    eliminate(atoms, ["x", "y"])
                assert info.value.resource == "fm-constraints"
                assert memo == {}
        # the same query without the cap is computed, not replayed
        assert eliminate(atoms, ["x", "y"]) is not None
    counters = registry.snapshot()["counters"]
    assert counters["logic.fm.eliminations"] == 3
    assert "logic.fm.memo_hits" not in counters


def test_memo_scopes_nest_and_restore():
    assert solver_memo._MEMO is None
    with solver_memo.use_memo() as outer:
        satisfiable([atom_le(x, 1)])
        with solver_memo.use_memo() as inner:
            assert solver_memo._MEMO is inner and inner == {}
        assert solver_memo._MEMO is outer and len(outer) == 1
    assert solver_memo._MEMO is None


# -- integer-row kernel against the Fraction oracle ------------------------------
#
# ``tests/fm_reference.py`` keeps the textbook elimination on Fraction
# atoms.  The row kernel must give exactly its answers: the same atoms
# in the same order, the same models, the same budget raises.

ORACLE_VARS = ["x", "y", "z", "oldrnk"]
COEFFS = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def oracle_atoms(draw):
    """Atoms with integer or fractional coefficients, over up to three
    of the integer variables and the rational ``oldrnk``."""
    names = draw(st.lists(st.sampled_from(ORACLE_VARS), max_size=3, unique=True))
    coeffs = {n: draw(COEFFS) for n in names}
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ]))
    return Atom(term(coeffs, draw(COEFFS)), rel)


#: Elimination orders may repeat a name or name one no atom mentions.
ORDERS = st.lists(st.sampled_from(ORACLE_VARS + ["absent"]), max_size=5)
CONJUNCTIONS = st.lists(oracle_atoms(), min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(CONJUNCTIONS, ORDERS)
def test_row_kernel_eliminates_exactly_as_the_fraction_oracle(atoms, order):
    assert eliminate(atoms, order) == fm_reference.eliminate(atoms, order)


@settings(max_examples=300, deadline=None)
@given(CONJUNCTIONS, st.dictionaries(st.sampled_from(ORACLE_VARS), COEFFS,
                                     max_size=2))
def test_row_kernel_models_match_the_fraction_oracle(atoms, prefer):
    for hint in (None, prefer):
        model = find_model(atoms, prefer=hint)
        expected = fm_reference.find_model(atoms, prefer=hint)
        assert model == expected
        assert model is None or list(model) == list(expected)


def _fm_outcome(solver, atoms, order, cap):
    with use_budget(Budget(fm_constraint_cap=cap)):
        try:
            return solver(atoms, order)
        except ResourceExhausted as exc:
            assert exc.resource == "fm-constraints"
            return "raised"


@settings(max_examples=200, deadline=None)
@given(CONJUNCTIONS, ORDERS)
def test_row_kernel_hits_the_fm_cap_exactly_when_the_oracle_does(atoms, order):
    for cap in range(8):
        assert (_fm_outcome(eliminate, atoms, order, cap)
                == _fm_outcome(fm_reference.eliminate, atoms, order, cap))


def test_fm_cap_is_charged_for_names_no_atom_mentions():
    atoms = [atom_le(x, 1), atom_le(y, 2), atom_le(x + y, 5)]
    for order in (["absent"], ["y", "absent"], ["x", "x"]):
        for cap in range(4):
            outcome = _fm_outcome(eliminate, atoms, order, cap)
            assert outcome == _fm_outcome(fm_reference.eliminate, atoms,
                                          order, cap)
    assert _fm_outcome(eliminate, atoms, ["absent"], 2) == "raised"


def test_oldrnk_rows_are_scaled_never_rounded():
    r = var("oldrnk")
    # the soundness regression: sat only at the fractional oldrnk = (y + 5) / 6
    atoms = [atom_eq(6 * r - y, 5), atom_ge(y, 3), atom_le(y, 5)]
    assert eliminate(atoms, ["oldrnk", "y"]) == []
    model = find_model(atoms)
    assert model == fm_reference.find_model(atoms)
    assert 6 * model["oldrnk"] - model["y"] == 5
    # a row that keeps oldrnk comes back scaled, its constant unrounded
    kept = eliminate([atom_lt(2 * r, 5), atom_le(x, r)], ["x"])
    assert kept == [Atom(r - Fraction(5, 2), Rel.LT)]


def test_rows_whose_oldrnk_cancels_are_rounded():
    r = var("oldrnk")
    # pivot: 2*oldrnk = x turns 2*oldrnk - 3y + 1 < 0 into x - 3y + 1 < 0,
    # an integral row, tightened to x - 3y + 2 <= 0
    pivoted = [atom_eq(2 * r, x), atom_lt(2 * r - 3 * y + 1, 0)]
    assert eliminate(pivoted, ["oldrnk"]) == [Atom(x - 3 * y + 2, Rel.LE)]
    # combination: x <= oldrnk and 2*oldrnk < 2y + 1 give 2x - 2y - 1 < 0,
    # i.e. x - y < 1/2, tightened to x - y <= 0
    combined = [atom_le(x, r), atom_lt(2 * r, 2 * y + 1)]
    assert eliminate(combined, ["oldrnk"]) == [Atom(x - y, Rel.LE)]
    for atoms in (pivoted, combined):
        assert (eliminate(atoms, ["oldrnk"])
                == fm_reference.eliminate(atoms, ["oldrnk"]))


@st.composite
def indivisible_equalities(draw):
    """``g*t + d = 0`` with ``g`` not dividing ``d``: no integer solution,
    unless ``t`` mentions the rational ``oldrnk``."""
    g = draw(st.integers(2, 4))
    names = draw(st.lists(st.sampled_from(ORACLE_VARS), min_size=1,
                          max_size=3, unique=True))
    coeffs = {n: g * draw(st.sampled_from([-2, -1, 1, 2])) for n in names}
    constant = g * draw(st.integers(-3, 3)) + draw(st.integers(1, g - 1))
    return Atom(term(coeffs, constant), Rel.EQ)


@settings(max_examples=500, deadline=None)
@given(st.one_of(oracle_atoms(), indivisible_equalities()))
@example(atom_le(0, 1))                                 # no variables
@example(atom_eq(6 * var("oldrnk") - y, 5))             # oldrnk soundness case
@example(atom_lt(Fraction(1, 2) * x + Fraction(1, 3), 0))
@example(atom_eq(2 * x, 5))
def test_tighten_integral_matches_the_reference_tightening(atom):
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        tightened = atom.tighten_integral()
    expected = fm_reference.tighten_atom(atom)
    assert tightened == expected and tightened.rel is expected.rel
    assert str(tightened) == str(expected)
    # the kernel runs on one atom with nothing eliminated: no FM work
    assert registry.snapshot()["counters"] == {}
