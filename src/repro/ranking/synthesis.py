"""Linear ranking-function synthesis and the lasso prover.

``synthesize_ranking`` implements Podelski--Rybalchenko: a linear
function ``f(x) = c . x + d`` with

    for all (x, x') in R:   f(x') >= 0   and   f(x) - f(x') >= 1

is found (when one exists) by Farkas-encoding both implications into a
single rational LP feasibility problem.  The supporting invariant of
the lasso strengthens ``R``.

``prove_lasso`` is the full "off-the-shelf prover" of Figure 1: it
classifies a sampled lasso as stem-infeasible, loop-infeasible, ranked,
nonterminating, or unknown, and packages everything the generalization
stages need.

The Farkas LP asks the one per-run memo (:mod:`repro.logic.memo`) with
the key ``("lp", atoms, variables)``, the relation's atoms and the
variables in order, from which the LP is built exactly; it reaches the
``solver.lp`` fault site.  ``ranking.lp_syntheses`` counts the
questions that reach the LP stage; ``ranking.lp_memo_hits`` counts the
answers served from the memo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from repro.core.budget import current_budget
from repro.logic.interpolation import (add_farkas_implication, farkas_rows,
                                       relation_matrix)
from repro.logic.linconj import TRUE, LinConj
from repro.logic.lp import LinearProgram
from repro.logic.memo import ask
from repro.logic.terms import LinTerm
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer
from repro.ranking.lasso import Lasso, LoopRelation, primed
from repro.ranking.nontermination import (NontermWitness,
                                          find_nontermination_witness)


@dataclass(frozen=True)
class RankingFunction:
    """``f(x) = expr`` with the PR guarantees on the loop relation:
    ``f(post) >= 0`` and ``f(pre) - f(post) >= 1``."""

    expr: LinTerm

    def __str__(self) -> str:
        return f"f(v) = {self.expr}"


def _candidate_rankings(variables) -> list[LinTerm]:
    """Simple interpretable candidates tried before the LP.

    Single variables and pairwise differences cover the rankings that
    occur in practice (``i``, ``i - j``, ``n - x``, ...); a candidate
    that validates generalizes far better than an arbitrary vertex of
    the Farkas polytope, so these are preferred.
    """
    from repro.logic.terms import var as mkvar
    singles = [mkvar(v) for v in variables]
    diffs = [mkvar(a) - mkvar(b) for a in variables for b in variables if a != b]
    sums = [mkvar(a) + mkvar(b) for i, a in enumerate(variables)
            for b in variables[i + 1:]]
    return singles + diffs + sums


def _candidate_valid(rel: LinConj, variables, expr: LinTerm) -> bool:
    """Exact check of the PR conditions for a fixed candidate ``f``."""
    from repro.logic.atoms import atom_ge
    post = expr.rename({v: primed(v) for v in variables})
    return (rel.entails_atom(atom_ge(post, 0))
            and rel.entails_atom(atom_ge(expr - post, 1)))


def synthesize_ranking(relation: LoopRelation,
                       invariant: LinConj = TRUE) -> RankingFunction | None:
    """Find a linear ranking function for ``relation`` under ``invariant``.

    Simple candidates (variables, differences, sums) are tried first;
    the full Podelski--Rybalchenko Farkas encoding is the completeness
    backstop.  Returns ``None`` when no linear ranking function exists
    for the (rationally relaxed) relation.
    """
    tracer = get_tracer()
    budget = current_budget()
    if budget is not None:
        # Cheap checkpoint between candidate rounds and the Farkas LP:
        # a synthesis attempt never starts past the deadline.
        budget.check_deadline("ranking-synthesis")
    with tracer.span("synthesize-ranking") as span:
        result = _synthesize_ranking(relation, invariant, span)
    return result


def _synthesize_ranking(relation: LoopRelation, invariant: LinConj,
                        span) -> RankingFunction | None:
    _metrics.inc("ranking.syntheses")
    rel = relation.rel.and_(invariant)
    if rel.is_unsat():
        # The empty relation is ranked by anything; callers treat this
        # case separately (loop-infeasible), but stay total here.
        span.set(method="trivial", found=True)
        return RankingFunction(LinTerm({}, 0))
    variables = relation.variables
    for tried, candidate in enumerate(_candidate_rankings(variables), start=1):
        if _candidate_valid(rel, variables, candidate):
            _metrics.inc("ranking.candidates_tried", tried)
            span.set(method="candidate", found=True, candidates=tried)
            return RankingFunction(candidate)
    _metrics.inc("ranking.candidates_tried",
                 len(_candidate_rankings(variables)))
    _metrics.inc("ranking.lp_syntheses")
    ranking = ask(("lp", rel.atoms, tuple(variables)), "ranking.lp_memo_hits",
                  lambda: _farkas_ranking(rel, variables))
    span.set(method="farkas", found=ranking is not None)
    return ranking


def _farkas_ranking(rel: LinConj, variables) -> RankingFunction | None:
    """The Podelski--Rybalchenko Farkas LP for ``rel``: a ranking
    function at a feasible point, ``None`` when infeasible."""
    columns = list(variables) + [primed(v) for v in variables]
    matrix = relation_matrix(farkas_rows(rel.atoms), columns)

    lp = LinearProgram()
    coeff_vars = {v: lp.new_var(f"c_{v}", lower=None) for v in variables}
    offset = lp.new_var("d", lower=None)

    # Condition 1 (boundedness):  -f(x') <= 0,  i.e.  (-c).x' <= d0 with d0 = d
    #   f(x') = c.x' + d >= 0   <=>   sum(-c_i x'_i) <= d
    neg_post = {primed(v): lp.new_var(f"nc_{v}", lower=None) for v in variables}
    for v in variables:
        lp.add_eq({neg_post[primed(v)]: 1, coeff_vars[v]: 1}, 0)  # nc = -c
    add_farkas_implication(lp, matrix, neg_post, offset, Fraction(0), "bound")

    # Condition 2 (decrease):  f(x) - f(x') >= 1  <=>  (-c).x + c.x' <= -1
    dec_coeffs: dict[str, int] = {}
    for v in variables:
        dec_coeffs[v] = neg_post[primed(v)]   # -c on the pre copy
        dec_coeffs[primed(v)] = coeff_vars[v]  # +c on the post copy
    add_farkas_implication(lp, matrix, dec_coeffs, None, Fraction(-1), "dec")

    point = lp.check_feasible()
    if point is None:
        return None
    coeffs = {v: point[coeff_vars[v]] for v in variables}
    constant = point[offset]
    return RankingFunction(LinTerm(coeffs, constant))


class ProofKind(enum.Enum):
    STEM_INFEASIBLE = "stem-infeasible"
    LOOP_INFEASIBLE = "loop-infeasible"
    RANKED = "ranked"
    NONTERMINATING = "nonterminating"
    UNKNOWN = "unknown"


@dataclass
class LassoProof:
    """Everything the generalization stages need about a lasso."""

    lasso: Lasso
    kind: ProofKind
    ranking: RankingFunction | None = None
    invariant: LinConj = TRUE
    needs_invariant: bool = False
    infeasible_at: int | None = None
    witness: NontermWitness | None = None

    @property
    def is_terminating(self) -> bool:
        return self.kind in (ProofKind.STEM_INFEASIBLE,
                             ProofKind.LOOP_INFEASIBLE, ProofKind.RANKED)


def prove_lasso(lasso: Lasso, *, check_nontermination: bool = True) -> LassoProof:
    """The lasso prover of Figure 1.

    Order of attack:

    1. stem infeasibility (cheapest; enables the powerful stage-1
       ``prefix . Sigma^w`` generalization),
    2. ranking synthesis *without* the supporting invariant -- the
       invariant-free certificate merges the whole stem and yields the
       paper's template-shaped modules (Section 3.1.1),
    3. loop infeasibility under the inductive invariant: the unrolled
       straight line ``stem . loop`` is then infeasible, so the lasso is
       *reclassified* as stem-infeasible on the unrolled word (same
       omega-word, far more general module),
    4. ranking synthesis with the invariant,
    5. nontermination witnesses.
    """
    position = lasso.stem_infeasible_at()
    if position is not None:
        return LassoProof(lasso, ProofKind.STEM_INFEASIBLE,
                          ranking=RankingFunction(LinTerm({}, 0)),
                          infeasible_at=position)

    relation = lasso.loop_relation()
    ranking = synthesize_ranking(relation)
    if ranking is not None and not relation.is_infeasible():
        return LassoProof(lasso, ProofKind.RANKED, ranking=ranking)

    invariant = lasso.inductive_invariant()
    if relation.rel.and_(invariant).is_unsat():
        # stem_post |= inv, so sp(stem . loop) is unsatisfiable: shift
        # one loop copy into the stem and report stem infeasibility.
        unrolled = Lasso(lasso.stem + lasso.loop, lasso.loop)
        at = unrolled.stem_infeasible_at()
        assert at is not None, "loop-infeasible lasso must unroll to bottom"
        return LassoProof(unrolled, ProofKind.STEM_INFEASIBLE,
                          ranking=RankingFunction(LinTerm({}, 0)),
                          infeasible_at=at)

    ranking = synthesize_ranking(relation, invariant)
    if ranking is not None:
        return LassoProof(lasso, ProofKind.RANKED, ranking=ranking,
                          invariant=invariant, needs_invariant=True)

    if check_nontermination:
        witness = find_nontermination_witness(lasso, relation, invariant)
        if witness is not None:
            return LassoProof(lasso, ProofKind.NONTERMINATING, witness=witness)
    return LassoProof(lasso, ProofKind.UNKNOWN)
