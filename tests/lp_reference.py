"""Reference two-phase simplex over ``Fraction`` (Bland's rule).

A test-only oracle for :mod:`repro.logic.lp`.  It is the textbook
procedure the production solver was cut down from: phase I minimizes
the sum of one artificial per row, recomputing the reduced costs from
every basis row on each iteration; the artificials left in the basis
are then driven out, and phase II maximizes the user objective with the
artificial columns blocked.  ``check_feasible`` is ``maximize({})``, so
its point is phase I's.  The production solver keeps only phase I, with
the reduced-cost row maintained by pivoting; it must report the same
feasibility and exactly the same point as this module, which the
differential tests in ``test_logic_lp.py`` hold it to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

Coeffs = Mapping[int, "int | Fraction"]


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: LPStatus
    objective: Fraction | None = None
    assignment: dict[int, Fraction] = field(default_factory=dict)


@dataclass
class _Constraint:
    coeffs: dict[int, Fraction]
    rel: str  # "<=", ">=", "="
    rhs: Fraction


class LinearProgram:
    """A linear program built incrementally; solved by exact simplex."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._free: list[bool] = []
        self._constraints: list[_Constraint] = []
        #: Pivots of the last solve, and how many of them phase I made.
        self.pivots = 0
        self.phase_one_pivots = 0

    # -- model building -------------------------------------------------------

    def new_var(self, name: str | None = None, *, lower: int | None = 0) -> int:
        """Declare a variable; ``lower=0`` means nonnegative, ``None`` free."""
        if lower not in (0, None):
            raise ValueError("only lower bounds of 0 or None are supported")
        index = len(self._names)
        self._names.append(name or f"v{index}")
        self._free.append(lower is None)
        return index

    @property
    def num_vars(self) -> int:
        return len(self._names)

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

    def maximize(self, objective: Coeffs) -> LPResult:
        return self._solve(self._check(objective), sense=1)

    def minimize(self, objective: Coeffs) -> LPResult:
        # _solve maximizes sense * objective but always reports the value of
        # the *user* objective, so no sign fix-up is needed here.
        return self._solve(self._check(objective), sense=-1)

    def check_feasible(self) -> LPResult:
        """Feasibility only: maximize the zero objective."""
        return self.maximize({})

    # -- internals: standard-form conversion + two-phase simplex -----------------

    def _standard_form(self, objective: dict[int, Fraction], sense: int):
        """Convert to ``A x = b, x >= 0, max c x`` with column metadata.

        Returns (columns, A, b, c) where ``columns[j]`` identifies how
        column ``j`` maps back to user variables: ``("+", i)``/("-", i)``
        for the positive/negative split of user variable ``i``, or
        ``("s", k)`` for the slack of constraint ``k``.
        """
        columns: list[tuple[str, int]] = []
        pos_col: dict[int, int] = {}
        neg_col: dict[int, int] = {}
        for i in range(len(self._names)):
            pos_col[i] = len(columns)
            columns.append(("+", i))
            if self._free[i]:
                neg_col[i] = len(columns)
                columns.append(("-", i))

        rows: list[list[Fraction]] = []
        b: list[Fraction] = []
        for k, con in enumerate(self._constraints):
            row = [Fraction(0)] * len(columns)
            for i, c in con.coeffs.items():
                row[pos_col[i]] += c
                if i in neg_col:
                    row[neg_col[i]] -= c
            rhs = con.rhs
            if con.rel == "<=":
                row.append(Fraction(1))
                columns.append(("s", k))
                for other in rows:
                    other.append(Fraction(0))
            elif con.rel == ">=":
                row.append(Fraction(-1))
                columns.append(("s", k))
                for other in rows:
                    other.append(Fraction(0))
            rows.append(row)
            b.append(rhs)

        width = len(columns)
        for row in rows:
            row.extend([Fraction(0)] * (width - len(row)))

        c = [Fraction(0)] * width
        for i, coeff in objective.items():
            c[pos_col[i]] += sense * coeff
            if i in neg_col:
                c[neg_col[i]] -= sense * coeff
        return columns, rows, b, c

    def _solve(self, objective: dict[int, Fraction], sense: int) -> LPResult:
        self.pivots = 0
        columns, rows, b, c = self._standard_form(objective, sense)
        m, n = len(rows), len(columns)

        # Normalize rows so b >= 0, then add one artificial var per row.
        for k in range(m):
            if b[k] < 0:
                rows[k] = [-v for v in rows[k]]
                b[k] = -b[k]
        tableau = [rows[k] + [Fraction(1) if j == k else Fraction(0) for j in range(m)]
                   + [b[k]] for k in range(m)]
        basis = [n + k for k in range(m)]
        total = n + m

        # Phase I: minimize the sum of artificials.
        cost1 = [Fraction(0)] * total + [Fraction(0)]
        for j in range(n, total):
            cost1[j] = Fraction(-1)
        value = self._run_simplex(tableau, basis, cost1, total)
        self.phase_one_pivots = self.pivots
        if value is None or value < 0:
            return LPResult(LPStatus.INFEASIBLE)

        # Drive remaining artificials out of the basis if possible.
        for k in range(m):
            if basis[k] >= n:
                pivot_col = next((j for j in range(n) if tableau[k][j] != 0), None)
                if pivot_col is not None:
                    self._pivot(tableau, basis, k, pivot_col)

        # Phase II on the original objective (artificial columns frozen at 0).
        cost2 = list(c) + [Fraction(0)] * m + [Fraction(0)]
        blocked = set(range(n, total))
        value = self._run_simplex(tableau, basis, cost2, total, blocked=blocked)
        if value is None:
            return LPResult(LPStatus.UNBOUNDED)

        solution = [Fraction(0)] * total
        for k, j in enumerate(basis):
            solution[j] = tableau[k][-1]
        assignment: dict[int, Fraction] = {i: Fraction(0) for i in range(len(self._names))}
        for j, (kind, i) in enumerate(columns):
            if kind == "+":
                assignment[i] += solution[j]
            elif kind == "-":
                assignment[i] -= solution[j]
        objective_value = sum((objective[i] * assignment[i] for i in objective), Fraction(0))
        return LPResult(LPStatus.OPTIMAL, objective_value, assignment)

    def _pivot(self, tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
        self.pivots += 1
        pivot = tableau[row][col]
        tableau[row] = [v / pivot for v in tableau[row]]
        for k in range(len(tableau)):
            if k != row and tableau[k][col] != 0:
                factor = tableau[k][col]
                tableau[k] = [v - factor * p for v, p in zip(tableau[k], tableau[row])]
        basis[row] = col

    def _run_simplex(self, tableau: list[list[Fraction]], basis: list[int],
                     cost: list[Fraction], total: int,
                     blocked: set[int] | None = None) -> Fraction | None:
        """Maximize ``cost`` over the tableau; returns the optimum or
        None when unbounded.  Bland's rule prevents cycling."""
        blocked = blocked or set()
        while True:
            # Reduced costs: z_j - c_j with current basis.
            reduced = list(cost[:total])
            for k, j_basis in enumerate(basis):
                cb = cost[j_basis]
                if cb != 0:
                    for j in range(total):
                        reduced[j] -= cb * tableau[k][j]
            entering = None
            for j in range(total):  # Bland: smallest index with positive reduced cost
                if j in blocked or j in basis:
                    continue
                if reduced[j] > 0:
                    entering = j
                    break
            if entering is None:
                value = Fraction(0)
                for k, j_basis in enumerate(basis):
                    value += cost[j_basis] * tableau[k][-1]
                return value
            # Ratio test (Bland: smallest basis index breaks ties).
            leaving = None
            best: Fraction | None = None
            for k in range(len(tableau)):
                a = tableau[k][entering]
                if a > 0:
                    ratio = tableau[k][-1] / a
                    if best is None or ratio < best or (ratio == best
                            and leaving is not None and basis[k] < basis[leaving]):
                        best = ratio
                        leaving = k
            if leaving is None:
                return None  # unbounded
            self._pivot(tableau, basis, leaving, entering)
