"""Farkas' lemma machinery for ranking-function synthesis.

Podelski--Rybalchenko reduce the existence of a linear ranking function
for a (satisfiable) polyhedral relation ``A z <= b`` (``z`` = pre and
post variable copies) to the existence of nonnegative multipliers: a
linear consequence ``g . z <= h`` of the system is witnessed by
``lambda >= 0`` with ``lambda^T A = g`` and ``lambda^T b <= h``.

:func:`relation_matrix` lays the :func:`~repro.logic.interpolation.farkas_rows`
of a :class:`LinConj` out as dense ``A z <= b`` rows (equalities become
two rows; strict inequalities are tightened to non-strict over the
integers when the row is integral, and *relaxed* otherwise -- enlarging
the relation is sound, the ranking condition just has to hold for more
pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.logic.interpolation import farkas_rows
from repro.logic.linconj import LinConj
from repro.logic.lp import LinearProgram


@dataclass
class RelationMatrix:
    """``A z <= b`` with named columns."""

    columns: tuple[str, ...]
    rows: list[list[Fraction]]
    bounds: list[Fraction]

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def relation_matrix(rel: LinConj, columns: Sequence[str]) -> RelationMatrix:
    """Normalize a conjunction into ``A z <= b`` over the given columns."""
    columns = tuple(columns)
    index = {name: i for i, name in enumerate(columns)}
    rows: list[list[Fraction]] = []
    bounds: list[Fraction] = []
    for term in farkas_rows(rel.atoms):
        # term <= 0  ->  coeffs . z <= -constant
        row = [Fraction(0)] * len(columns)
        for name, c in term.coeffs.items():
            if name not in index:
                raise ValueError(f"constraint mentions unknown variable {name!r}")
            row[index[name]] = c
        rows.append(row)
        bounds.append(-term.constant)
    return RelationMatrix(columns, rows, bounds)


def add_farkas_implication(lp: LinearProgram, matrix: RelationMatrix,
                           goal_coeffs: dict[str, int],
                           goal_bound_var: int | None,
                           goal_bound_const: Fraction,
                           prefix: str) -> None:
    """Constrain ``lp`` so that ``matrix |= goal . z <= bound`` by Farkas.

    ``goal_coeffs`` maps column names to LP variable indices (the
    unknown coefficients of the consequence); ``goal_bound_var`` is an
    optional LP variable added to the constant bound.  Fresh multiplier
    variables ``lambda >= 0`` (named with ``prefix``) are created.
    """
    lambdas = [lp.new_var(f"{prefix}_l{j}") for j in range(matrix.num_rows)]
    for i, column in enumerate(matrix.columns):
        coeffs: dict[int, Fraction] = {}
        for j, lam in enumerate(lambdas):
            a = matrix.rows[j][i]
            if a != 0:
                coeffs[lam] = a
        goal_var = goal_coeffs.get(column)
        if goal_var is not None:
            coeffs[goal_var] = coeffs.get(goal_var, Fraction(0)) - 1
        lp.add_eq(coeffs, 0)
    # lambda^T b <= bound_const + bound_var
    bound_coeffs: dict[int, Fraction] = {}
    for j, lam in enumerate(lambdas):
        if matrix.bounds[j] != 0:
            bound_coeffs[lam] = matrix.bounds[j]
    if goal_bound_var is not None:
        bound_coeffs[goal_bound_var] = bound_coeffs.get(
            goal_bound_var, Fraction(0)) - 1
    lp.add_le(bound_coeffs, goal_bound_const)
