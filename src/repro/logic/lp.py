"""An exact rational feasibility check (phase-I simplex, Bland's rule).

The ranking-function synthesis of :mod:`repro.ranking` and the Farkas
interpolants of :mod:`repro.logic.interpolation` both reduce their
question, via Farkas' lemma, to one: is a system of linear constraints
feasible over the rationals, and at which point.  Floating-point LP
(scipy) is unusable there because a certificate that is feasible only
up to rounding breaks the soundness of the produced ranking function,
so this module implements a small, exact simplex over
:class:`fractions.Fraction` that answers exactly that question:

>>> lp = LinearProgram()
>>> x, y = lp.new_var("x", lower=0), lp.new_var("y", lower=0)
>>> lp.add_le({x: 1, y: 2}, 4)       # x + 2y <= 4
>>> lp.add_ge({x: 1, y: 1}, 1)       # x +  y >= 1
>>> lp.check_feasible() == {x: 0, y: 1}
True
>>> lp.add_ge({y: 1}, 3)             # y >= 3 contradicts x + 2y <= 4
>>> lp.check_feasible() is None
True

Variables default to being nonnegative; free variables are split into
differences of two nonnegative ones internally.  Bland's rule guarantees
termination (no cycling).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import repro.faults as _faults
from repro.core.budget import current_budget
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer

Coeffs = Mapping[int, "int | Fraction"]


@dataclass
class _Constraint:
    coeffs: dict[int, Fraction]
    rel: str  # "<=", ">=", "="
    rhs: Fraction


class LinearProgram:
    """A system of linear constraints; checked by exact phase-I simplex."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._free: list[bool] = []
        self._constraints: list[_Constraint] = []

    # -- model building -------------------------------------------------------

    def new_var(self, name: str | None = None, *, lower: int | None = 0) -> int:
        """Declare a variable; ``lower=0`` means nonnegative, ``None`` free."""
        if lower not in (0, None):
            raise ValueError("only lower bounds of 0 or None are supported")
        index = len(self._names)
        self._names.append(name or f"v{index}")
        self._free.append(lower is None)
        return index

    def _check(self, coeffs: Coeffs) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for index, c in coeffs.items():
            if not 0 <= index < len(self._names):
                raise IndexError(f"unknown LP variable index {index}")
            f = Fraction(c)
            if f != 0:
                out[index] = f
        return out

    def add_le(self, coeffs: Coeffs, rhs: int | Fraction) -> None:
        self._constraints.append(_Constraint(self._check(coeffs), "<=", Fraction(rhs)))

    def add_ge(self, coeffs: Coeffs, rhs: int | Fraction) -> None:
        self._constraints.append(_Constraint(self._check(coeffs), ">=", Fraction(rhs)))

    def add_eq(self, coeffs: Coeffs, rhs: int | Fraction) -> None:
        self._constraints.append(_Constraint(self._check(coeffs), "=", Fraction(rhs)))

    # -- solving ---------------------------------------------------------------

    def check_feasible(self) -> dict[int, Fraction] | None:
        """A feasible point (variable index -> exact value), or None."""
        if _faults._ACTIVE is not None:
            _faults.perturb("solver.lp")
        budget = current_budget()
        if budget is not None:
            budget.check_deadline("lp")
        return self._solve()

    def _solve(self) -> dict[int, Fraction] | None:
        registry = _metrics.registry()
        registry.counter("logic.lp.solves").inc()
        pivots = registry.counter("logic.lp.pivots")
        pivots_before = pivots.value
        tracer = get_tracer()
        if not tracer.enabled:
            point = self._phase_one()
            registry.histogram("lp.pivots_per_solve").observe(
                pivots.value - pivots_before)
            return point
        with tracer.span("solver-call", kind="lp", vars=len(self._names),
                         constraints=len(self._constraints)) as span:
            point = self._phase_one()
            span.set(status="infeasible" if point is None else "feasible",
                     pivots=pivots.value - pivots_before)
        registry.histogram("lp.pivots_per_solve").observe(
            pivots.value - pivots_before)
        return point

    # -- internals: standard form + phase I --------------------------------------

    def _standard_form(self):
        """Convert to ``A x = b, x >= 0``.

        Returns ``(signs, rows, b)``: column ``j < len(signs)`` is
        ``signs[j] = (i, s)``, the positive (``s = 1``) or negative
        (``s = -1``) part of user variable ``i``; one slack column per
        inequality follows, in constraint order.
        """
        signs: list[tuple[int, int]] = []
        pos_col: dict[int, int] = {}
        neg_col: dict[int, int] = {}
        for i in range(len(self._names)):
            pos_col[i] = len(signs)
            signs.append((i, 1))
            if self._free[i]:
                neg_col[i] = len(signs)
                signs.append((i, -1))
        width = len(signs) + sum(con.rel != "=" for con in self._constraints)

        zero = Fraction(0)
        slack = len(signs)
        rows: list[list[Fraction]] = []
        b: list[Fraction] = []
        for con in self._constraints:
            row = [zero] * width
            for i, c in con.coeffs.items():
                row[pos_col[i]] += c
                if i in neg_col:
                    row[neg_col[i]] -= c
            if con.rel != "=":
                row[slack] = Fraction(1 if con.rel == "<=" else -1)
                slack += 1
            rows.append(row)
            b.append(con.rhs)
        return signs, rows, b

    def _phase_one(self) -> dict[int, Fraction] | None:
        """Maximize ``-sum(artificials)``; feasible iff the optimum is 0."""
        signs, rows, b = self._standard_form()
        m = len(rows)
        n = len(rows[0]) if rows else len(signs)
        total = n + m

        # Rows with b >= 0, one artificial per row as the starting basis.
        zero, one = Fraction(0), Fraction(1)
        tableau: list[list[Fraction]] = []
        for k, (row, rhs) in enumerate(zip(rows, b)):
            if rhs < 0:
                row, rhs = [-v for v in row], -rhs
            artificials = [zero] * m
            artificials[k] = one
            tableau.append(row + artificials + [rhs])
        basis = list(range(n, total))

        # The reduced-cost row, kept in the tableau and pivoted with it:
        # column sums on the original columns, 0 on the basic
        # artificials, and minus the objective value last.
        cost = [zero] * (total + 1)
        for row in tableau:
            cost = [c + v for c, v in zip(cost, row)]
        cost[n:total] = [zero] * m
        tableau.append(cost)

        while True:
            cost = tableau[m]
            # Bland: smallest column index with positive reduced cost.
            entering = next((j for j in range(total) if cost[j] > 0), None)
            if entering is None:
                break
            # Ratio test (Bland: smallest basis index breaks ties).  The
            # objective is bounded by 0, so some entry is positive.
            leaving = None
            best: Fraction | None = None
            for k in range(m):
                a = tableau[k][entering]
                if a > 0:
                    ratio = tableau[k][-1] / a
                    if best is None or ratio < best or (
                            ratio == best and basis[k] < basis[leaving]):
                        best = ratio
                        leaving = k
            self._pivot(tableau, basis, leaving, entering)
        if tableau[m][-1] > 0:
            return None

        point = {i: zero for i in range(len(self._names))}
        for k, j in enumerate(basis):
            if j < len(signs):
                i, sign = signs[j]
                point[i] += sign * tableau[k][-1]
        return point

    @staticmethod
    def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
        _metrics.inc("logic.lp.pivots")
        pivot = tableau[row][col]
        pivot_row = [v / pivot for v in tableau[row]]
        tableau[row] = pivot_row
        nonzero = [j for j, p in enumerate(pivot_row) if p]
        for k, other in enumerate(tableau):
            factor = other[col]
            if k != row and factor:
                other = list(other)
                for j in nonzero:
                    other[j] -= factor * pivot_row[j]
                tableau[k] = other
        basis[row] = col
