"""Tests for the exact rational feasibility check.

``tests/lp_reference.py`` keeps the two-phase simplex the solver was
cut down from.  Its ``check_feasible`` returns phase I's point, so the
production solver must report the same feasibility, exactly the same
point and exactly phase I's pivots; floating-point scipy cross-checks
feasibility.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.benchgen import suite_by_name
from repro.benchgen.scaled import interleaved_counters
from repro.core.api import prove_termination
from repro.core.config import AnalysisConfig
from repro.logic.lp import LinearProgram
from repro.obs import metrics
from tests import lp_reference


def test_simple_maximize():
    # max x + y over x + 2y <= 4, 3x + y <= 6 is 14/5, at (8/5, 6/5):
    # that level is feasible at exactly that point, any higher is not
    lp = LinearProgram()
    x, y = lp.new_var("x"), lp.new_var("y")
    lp.add_le({x: 1, y: 2}, 4)
    lp.add_le({x: 3, y: 1}, 6)
    lp.add_ge({x: 1, y: 1}, Fraction(14, 5))
    assert lp.check_feasible() == {x: Fraction(8, 5), y: Fraction(6, 5)}
    lp.add_ge({x: 1, y: 1}, Fraction(14, 5) + Fraction(1, 10**9))
    assert lp.check_feasible() is None


def test_simple_minimize():
    # min z over -10 <= z <= -3 is -10, for a free z
    lp = LinearProgram()
    z = lp.new_var("z", lower=None)
    lp.add_ge({z: 1}, -10)
    lp.add_le({z: 1}, -3)
    lp.add_le({z: 1}, -10)
    assert lp.check_feasible() == {z: -10}
    lp.add_le({z: 1}, Fraction(-21, 2))
    assert lp.check_feasible() is None


def test_infeasible():
    lp = LinearProgram()
    w = lp.new_var("w")
    lp.add_ge({w: 1}, 5)
    lp.add_le({w: 1}, 2)
    assert lp.check_feasible() is None


def test_unbounded():
    # an unbounded direction meets any demand
    lp = LinearProgram()
    u = lp.new_var("u")
    assert lp.check_feasible() == {u: 0}
    lp.add_ge({u: 1}, 10**6)
    assert lp.check_feasible() == {u: 10**6}


def test_equality_constraints():
    # max 2x + y over x + y = 10, x <= 4 is 14, only at x = 4, y = 6
    lp = LinearProgram()
    x, y = lp.new_var("x"), lp.new_var("y")
    lp.add_eq({x: 1, y: 1}, 10)
    lp.add_le({x: 1}, 4)
    lp.add_ge({x: 2, y: 1}, 14)
    assert lp.check_feasible() == {x: 4, y: 6}


def test_feasibility_with_zero_objective():
    lp = LinearProgram()
    x = lp.new_var("x")
    lp.add_ge({x: 1}, 3)
    point = lp.check_feasible()
    assert point is not None and point[x] >= 3


def test_free_variable_split():
    lp = LinearProgram()
    x = lp.new_var("x", lower=None)
    lp.add_eq({x: 1}, -7)
    assert lp.check_feasible() == {x: -7}


def test_degenerate_no_cycling():
    # Beale's classic cycling example, whose optimum is 5/4: Bland's
    # rule must terminate on the degenerate vertices both when the
    # objective level is reachable and when it is not.
    def beale(level):
        lp = LinearProgram()
        x1, x2, x3 = (lp.new_var() for _ in range(3))
        lp.add_le({x1: Fraction(1, 4), x2: -8, x3: -1}, 0)
        lp.add_le({x1: Fraction(1, 2), x2: -12, x3: -Fraction(1, 2)}, 0)
        lp.add_le({x3: 1}, 1)
        lp.add_ge({x1: Fraction(3, 4), x2: -20, x3: Fraction(1, 2)}, level)
        return lp, (x1, x2, x3)

    lp, xs = beale(Fraction(5, 4))
    point = lp.check_feasible()
    assert point is not None
    assert (Fraction(3, 4) * point[xs[0]] - 20 * point[xs[1]]
            + Fraction(1, 2) * point[xs[2]]) == Fraction(5, 4)
    lp, _ = beale(Fraction(5, 4) + Fraction(1, 1000))
    assert lp.check_feasible() is None


def test_rejects_unknown_variable():
    lp = LinearProgram()
    with pytest.raises(IndexError):
        lp.add_le({3: 1}, 0)


def test_rejects_general_lower_bound():
    lp = LinearProgram()
    with pytest.raises(ValueError):
        lp.new_var(lower=5)


# -- differential tests against the two-phase reference --------------------------

_ADD = {"<=": "add_le", ">=": "add_ge", "=": "add_eq"}


def _build(cls, free, rows):
    lp = cls()
    xs = [lp.new_var(lower=None if f else 0) for f in free]
    for coeffs, rel, rhs in rows:
        getattr(lp, _ADD[rel])({xs[i]: c for i, c in enumerate(coeffs)}, rhs)
    return lp


def _solve_counted(lp):
    with metrics.use_registry(metrics.MetricsRegistry()) as registry:
        point = lp.check_feasible()
        return point, registry.counter("logic.lp.pivots").value


def _assert_matches_reference(free, rows):
    """Same feasibility, same exact point, phase I's pivots only."""
    point, pivots = _solve_counted(_build(LinearProgram, free, rows))
    reference = _build(lp_reference.LinearProgram, free, rows)
    expected = reference.check_feasible()
    if expected.status is lp_reference.LPStatus.INFEASIBLE:
        assert point is None
    else:
        assert point == expected.assignment
    assert pivots == reference.phase_one_pivots
    return point


_coeff = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def random_systems(draw):
    n_vars = draw(st.integers(1, 6))
    free = [draw(st.booleans()) for _ in range(n_vars)]
    rows = [([draw(_coeff) for _ in range(n_vars)],
             draw(st.sampled_from(["<=", ">=", "="])),
             draw(_coeff))
            for _ in range(draw(st.integers(1, 6)))]
    return free, rows


@settings(max_examples=150, deadline=None)
@given(random_systems())
def test_agrees_with_scipy(system):
    free, rows = system
    point = _assert_matches_reference(free, rows)
    if point is not None:
        xs = range(len(free))
        for coeffs, rel, rhs in rows:
            lhs = sum(c * point[i] for i, c in zip(xs, coeffs))
            assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[rel]
        for i in xs:
            assert free[i] or point[i] >= 0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in rows:
        sign = -1 if rel == ">=" else 1
        target = (a_eq, b_eq) if rel == "=" else (a_ub, b_ub)
        target[0].append([float(sign * c) for c in coeffs])
        target[1].append(float(sign * rhs))
    ref = linprog(c=[0.0] * len(free), A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq or None, b_eq=b_eq or None,
                  bounds=[(None, None) if f else (0, None) for f in free],
                  method="highs")
    assert ref.status in (0, 2)
    assert (point is not None) == (ref.status == 0)


def _farkas_systems(source_program, config):
    """Every LP a run issues, as ``(free, rows)`` over dense coefficients."""
    systems = []
    solve = LinearProgram._solve

    def recording(self):
        systems.append((
            list(self._free),
            [([con.coeffs.get(i, 0) for i in range(len(self._free))],
              con.rel, con.rhs) for con in self._constraints]))
        return solve(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearProgram, "_solve", recording)
        prove_termination(source_program, config)
    return systems


# Under the default config ``sort`` is ranked by candidates alone and
# issues no LP; ``multiphase`` and ``interleaved_4`` reach the Farkas
# synthesis, and ``sort`` with interpolant modules the Farkas refutation.
@pytest.mark.parametrize("name, config", [
    ("multiphase", AnalysisConfig()),
    ("interleaved_4", AnalysisConfig()),
    ("sort", AnalysisConfig(interpolant_modules=True, max_refinements=6)),
], ids=["multiphase", "interleaved_4", "sort-interpolants"])
def test_farkas_lps_match_reference(name, config):
    program = (interleaved_counters(4) if name == "interleaved_4"
               else suite_by_name()[name]).parse()
    systems = _farkas_systems(program, config)
    assert systems
    for free, rows in systems:
        _assert_matches_reference(free, rows)
