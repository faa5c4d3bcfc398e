"""Exact linear-arithmetic logic substrate.

This package replaces the SMT solvers used by Ultimate Automizer with a
self-contained, exact decision procedure for conjunctions (and small
disjunctions) of linear constraints over rational-valued variables:

- :mod:`repro.logic.terms` -- immutable linear terms over named variables,
- :mod:`repro.logic.atoms` -- normalized atoms ``term <= 0 / < 0 / = 0``,
- :mod:`repro.logic.linconj` -- conjunctions with satisfiability,
  entailment, projection (variable elimination) and model extraction,
- :mod:`repro.logic.fourier_motzkin` -- the underlying elimination engine,
- :mod:`repro.logic.predicates` -- the two-case (``oldrnk = oo`` vs finite)
  predicates used by rank certificates (Definition 3.1 of the paper),
- :mod:`repro.logic.lp` -- an exact rational feasibility check (phase-I
  simplex) for the Farkas-lemma ranking synthesis and interpolants,
- :mod:`repro.logic.interpolation` -- the Farkas implication encoding
  (shared with the ranking synthesis), refutations and sequence
  interpolants for infeasible statement paths.

All arithmetic is exact: ints where integral, :class:`fractions.Fraction`
otherwise, floats never.  Terms store their integral coefficients as
ints, which is what Fourier--Motzkin and integral tightening compute
on; the public term accessors and the LP hand out ``Fraction``.
"""

from repro.logic.terms import LinTerm, term, const, var
from repro.logic.atoms import Atom, Rel, atom_le, atom_lt, atom_eq
from repro.logic.linconj import LinConj, TRUE, FALSE
from repro.logic.predicates import Pred, OLDRNK
from repro.logic.lp import LinearProgram
from repro.logic.interpolation import farkas_refutation, sequence_interpolants

__all__ = [
    "LinTerm",
    "term",
    "const",
    "var",
    "Atom",
    "Rel",
    "atom_le",
    "atom_lt",
    "atom_eq",
    "LinConj",
    "TRUE",
    "FALSE",
    "Pred",
    "OLDRNK",
    "LinearProgram",
    "farkas_refutation",
    "sequence_interpolants",
]
