"""Farkas-based sequence interpolants for infeasible statement paths.

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


def farkas_refutation(groups: Sequence[Sequence[Atom]]) -> list[list[Fraction]] | None:
    """Nonnegative multipliers deriving ``0 <= -1`` from the groups.

    Every group becomes its :func:`farkas_rows`; equalities get free
    multipliers (encoded as two opposite rows).  Returns per-group
    multiplier lists aligned with those rows, or ``None`` when the
    conjunction is (rationally) satisfiable.
    """
    rows = [farkas_rows(group) for group in groups]
    lp = LinearProgram()
    multipliers = [[lp.new_var(f"l{g}_{i}") for i in range(len(group_rows))]
                   for g, group_rows in enumerate(rows)]

    variables = sorted({name
                        for group_rows in rows
                        for term in group_rows
                        for name in term.variables()})
    # sum of lambda_i * coeff_i(v) = 0 for every variable v
    for v in variables:
        coeffs: dict[int, Fraction] = {}
        for group_rows, lams in zip(rows, multipliers):
            for term, lam in zip(group_rows, lams):
                c = term.coeff(v)
                if c != 0:
                    coeffs[lam] = coeffs.get(lam, Fraction(0)) + c
        lp.add_eq(coeffs, 0)
    # sum of lambda_i * constant_i <= -1
    const_coeffs: dict[int, Fraction] = {}
    for group_rows, lams in zip(rows, multipliers):
        for term, lam in zip(group_rows, lams):
            if term.constant != 0:
                const_coeffs[lam] = (const_coeffs.get(lam, Fraction(0))
                                     + term.constant)
    lp.add_ge(const_coeffs, 1)

    point = lp.check_feasible()
    if point is None:
        return None
    return [[point[lam] for lam in lams] for lams in multipliers]


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
