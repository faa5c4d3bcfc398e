"""Farkas' lemma encodings and sequence interpolants.

Both Farkas callers reduce their question to one implication over a
system of rows ``A z <= b`` (:func:`farkas_rows`, laid out densely by
:func:`relation_matrix`): the consequence ``g . z <= h`` holds iff some
multipliers ``lambda >= 0`` give ``lambda^T A = g`` and
``lambda^T b <= h``.  :func:`add_farkas_implication` adds exactly those
constraints to a :class:`~repro.logic.lp.LinearProgram`.  The
Podelski--Rybalchenko ranking synthesis of :mod:`repro.ranking` asks it
with unknown ``g`` and ``h``; a refutation (:func:`farkas_refutation`)
is the implication ``rows |= 0 <= -1``.

For an infeasible conjunction ``A_1 & A_2 & ... & A_n`` (grouped by the
statement that contributed each constraint), a *sequence interpolant*
is a chain ``I_0 = true, I_1, ..., I_n = false`` with

    I_k  and  A_{k+1}   |=   I_{k+1}

and each ``I_k`` over the variables shared between the prefix and the
suffix.  Interpolants are what make infeasibility-based modules
generalize: unlike strongest postconditions they only mention the facts
*needed* for the contradiction, so other paths establishing the same
facts are covered too (this is how Ultimate Automizer's interpolant
automata work).

For linear arithmetic the whole chain falls out of one Farkas
refutation: if ``sum(lambda_i * row_i)`` derives ``0 <= -1`` with
``lambda >= 0``, then the partial sums over the first ``k`` groups are a
valid sequence interpolant.  The multipliers come from the exact
rational LP solver, so the chain is sound by construction (and
re-checked by the callers' Hoare validator anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.logic.atoms import Atom, Rel
from repro.logic.linconj import FALSE, TRUE, LinConj
from repro.logic.lp import LinearProgram
from repro.logic.terms import LinTerm


def farkas_rows(atoms: Iterable[Atom]) -> list[LinTerm]:
    """Atoms as Farkas rows ``term <= 0``, in atom order.

    Each atom is tightened over the integers first; an equality then
    contributes ``term`` and ``-term``.  A strict atom that survives
    tightening has non-integral coefficients and is relaxed to
    non-strict: that enlarges a relation to rank (sound), and a
    refutation of the weakened system refutes the original too.
    """
    rows: list[LinTerm] = []
    for atom in atoms:
        tightened = atom.tighten_integral()
        rows.append(tightened.term)
        if tightened.rel is Rel.EQ:
            rows.append(-tightened.term)
    return rows


@dataclass
class RelationMatrix:
    """``A z <= b`` with named columns."""

    columns: tuple[str, ...]
    rows: list[list[Fraction]]
    bounds: list[Fraction]


def relation_matrix(terms: Sequence[LinTerm],
                    columns: Sequence[str]) -> RelationMatrix:
    """Lay Farkas rows ``term <= 0`` out as ``A z <= b`` over ``columns``."""
    columns = tuple(columns)
    index = {name: i for i, name in enumerate(columns)}
    rows: list[list[Fraction]] = []
    bounds: list[Fraction] = []
    for term in terms:
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
                           prefix: str) -> list[int]:
    """Constrain ``lp`` so that ``matrix |= goal . z <= bound`` by Farkas.

    ``goal_coeffs`` maps column names to LP variable indices (the
    unknown coefficients of the consequence; a column it leaves out has
    coefficient 0); ``goal_bound_var`` is an optional LP variable added
    to the constant bound.  Returns the fresh multiplier variables
    ``lambda >= 0`` (named with ``prefix``), one per matrix row.
    """
    lambdas = [lp.new_var(f"{prefix}_l{j}") for j in range(len(matrix.rows))]
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
    return lambdas


def farkas_refutation(groups: Sequence[Sequence[Atom]]) -> list[list[Fraction]] | None:
    """Nonnegative multipliers deriving ``0 <= -1`` from the groups.

    Every group becomes its :func:`farkas_rows`; equalities get free
    multipliers (encoded as two opposite rows).  Returns per-group
    multiplier lists aligned with those rows, or ``None`` when the
    conjunction is (rationally) satisfiable.
    """
    rows = [farkas_rows(group) for group in groups]
    terms = [term for group_rows in rows for term in group_rows]
    columns = sorted({name for term in terms for name in term.variables()})
    lp = LinearProgram()
    lambdas = add_farkas_implication(lp, relation_matrix(terms, columns),
                                     {}, None, Fraction(-1), "l")
    point = lp.check_feasible()
    if point is None:
        return None
    multipliers = iter(lambdas)
    return [[point[next(multipliers)] for _ in group_rows]
            for group_rows in rows]


def sequence_interpolants(groups: Sequence[Sequence[Atom]]) -> list[LinConj] | None:
    """The interpolant chain ``I_0 .. I_n`` for infeasible ``groups``.

    ``I_0`` is ``TRUE`` and ``I_n`` is ``FALSE``; intermediate
    interpolants are single inequalities (partial Farkas sums).
    Returns ``None`` when no refutation exists (satisfiable input).
    """
    certificate = farkas_refutation(groups)
    if certificate is None:
        return None
    rows = [farkas_rows(group) for group in groups]

    chain: list[LinConj] = [TRUE]
    partial = LinTerm({}, 0)
    for group_rows, lams in zip(rows, certificate):
        for term, lam in zip(group_rows, lams):
            if lam != 0:
                partial = partial + term * lam
        if partial.is_constant() and partial.constant > 0:
            chain.append(FALSE)
        elif partial.is_constant():  # 0 <= 0 so far: nothing learned yet
            chain.append(TRUE)
        else:
            chain.append(LinConj([Atom(partial, Rel.LE)]))
    # the final partial sum must be the contradiction 0 <= -c, c > 0
    chain[-1] = FALSE
    return chain
