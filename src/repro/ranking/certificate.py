"""Rank certificates for proved lassos (Definition 3.1).

Given a :class:`~repro.ranking.synthesis.LassoProof`, this module
computes the per-position predicates of the initial certified lasso
module ``M_uvw`` (Section 3.1.1):

- stem positions map to ``oldrnk = oo`` predicates.  When the ranking
  function needs no supporting invariant, *all* stem positions share the
  bare ``oldrnk = oo`` -- which is what lets stage 0 merge them (the
  paper's ``(i>0)* j:=1 ...`` generalization).  With an invariant, stem
  positions carry their strongest postconditions so the final stem edge
  establishes the invariant.
- the accepting position (loop head) maps to
  ``inv  AND  (oldrnk finite -> 0 <= f(v) <= oldrnk - 1)``
  -- the integer reading of ``f(v) < oldrnk`` that keeps the descent
  well-founded over the rationals,
- loop positions map to the strongest postconditions of
  ``oldrnk := f(v); v_1 ... v_i`` from the loop-head predicate.

The construction satisfies Definition 3.1 by design (strongest
postconditions + the Podelski--Rybalchenko guarantees).  The one
mechanical check of those conditions is
:func:`repro.core.module.validate_module`, run on the lasso module
:func:`repro.core.stages.build_lasso_module` builds from a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.atoms import atom_le
from repro.logic.linconj import TRUE
from repro.logic.predicates import OLDRNK, PRED_FALSE, Pred
from repro.logic.terms import LinTerm, var
from repro.program.statements import hoare_valid
from repro.ranking.synthesis import LassoProof, ProofKind


@dataclass
class RankCertificate:
    """Predicates along the (unmerged) lasso positions.

    ``stem_preds[i]`` annotates the state reached after ``i`` stem
    statements (``stem_preds[-1]`` is the loop head / accepting state);
    ``loop_preds[i]`` annotates the state after ``i`` loop statements,
    with ``loop_preds[m]`` = the loop-head predicate again.
    """

    stem_preds: list[Pred]
    loop_preds: list[Pred]
    ranking: LinTerm

    @property
    def head(self) -> Pred:
        return self.stem_preds[-1]


def rank_decrease_pred(rank: LinTerm, invariant=TRUE) -> Pred:
    """``inv AND (oldrnk finite -> 0 <= f <= oldrnk - 1)``.

    In the infinite case only ``inv`` remains (``f < oo`` is vacuous).
    """
    fin = invariant.and_([atom_le(0, rank),
                          atom_le(rank, var(OLDRNK) - 1)])
    return Pred((invariant,) if not invariant.is_unsat() else (),
                (fin,) if not fin.is_unsat() else ())


def build_certificate(proof: LassoProof, *,
                      interpolate: bool = False) -> RankCertificate:
    """Construct the Definition 3.1 predicates for a terminating lasso.

    ``interpolate`` replaces the strongest-postcondition predicates of a
    stem-infeasible lasso by Farkas sequence interpolants
    (:meth:`repro.ranking.lasso.Lasso.stem_interpolants`), which mention
    only the facts the contradiction needs and therefore generalize far
    better through the powerset stages.
    """
    if not proof.is_terminating:
        raise ValueError(f"cannot certify a {proof.kind.value} lasso")
    lasso = proof.lasso
    assert proof.ranking is not None
    rank = proof.ranking.expr

    if proof.kind is ProofKind.STEM_INFEASIBLE:
        # Positions up to the infeasibility point get their stem
        # postconditions (or interpolants); everything after is
        # unreachable (false).
        chains = lasso.stem_interpolants() if interpolate else None
        posts = chains if chains is not None else lasso.stem_posts()
        stem_preds = []
        for index in range(len(lasso.stem) + 1):
            post = posts[index]
            stem_preds.append(Pred.of_inf(post) if post.is_sat() else PRED_FALSE)
        head = stem_preds[-1]
        loop_preds = [head]
        current = head
        for stmt in lasso.loop:
            current = stmt.sp_pred(current)
            loop_preds.append(current)
        loop_preds[-1] = PRED_FALSE  # unreachable loop head re-entry
        return RankCertificate(stem_preds, loop_preds, rank)

    if proof.needs_invariant:
        stem_sources = lasso.stem_posts()[:-1]
        stem_preds = [Pred.of_inf(p) for p in stem_sources]
    else:
        # Invariant-free proof: the bare oldrnk = oo everywhere lets
        # stage 0 merge the whole stem.
        stem_preds = [Pred.of_inf(TRUE) for _ in lasso.stem]

    head = rank_decrease_pred(rank, proof.invariant)
    stem_preds.append(head)

    loop_preds = (_template_loop_preds(lasso.loop, head, rank, proof.invariant)
                  or _sp_loop_preds(lasso.loop, head, rank))
    return RankCertificate(stem_preds, loop_preds, rank)


def _sp_loop_preds(loop, head: Pred, rank: LinTerm) -> list[Pred]:
    """Exact strongest-postcondition loop predicates (always valid)."""
    loop_preds = [head]
    current = head.assign_oldrnk(rank)
    for stmt in loop[:-1]:
        current = stmt.sp_pred(current)
        loop_preds.append(current)
    loop_preds.append(head)  # the closing edge must re-establish the head
    return loop_preds


def _template_loop_preds(loop, head: Pred, rank: LinTerm,
                         invariant) -> list[Pred] | None:
    """Template loop predicates in the paper's shape (Section 3.1.1).

    Intermediate positions get one of two *templates* -- ``bounded``
    (``inv AND 0 <= f <= oldrnk``, the paper's ``q4``) or ``decreased``
    (``inv AND 0 <= f <= oldrnk - 1``) -- chosen by a tiny DP so that
    every Hoare triple along the loop, including the closing edge back
    into ``head``, is valid.  Returns ``None`` when no template
    assignment validates (the caller falls back to exact sp predicates).

    Template predicates mention nothing about the specific unrolling
    of the sampled loop, which is what lets the stage-2/3 powerset
    modules cover arbitrarily many iterations at once.
    """
    oldrnk = var(OLDRNK)
    options = tuple(
        Pred((), (invariant.and_([atom_le(low, rank), atom_le(rank, high)]),))
        for low, high in (
            (0, oldrnk),          # bounded:   the paper's q4 shape
            (1, oldrnk),          # positive:  guard-strengthened bound
            (0, oldrnk - 1),      # decreased: the head shape mid-loop
            (1, oldrnk - 1),      # both
        ))
    m = len(loop)
    if m == 1:
        return [head, head] if hoare_valid(head, loop[0], head,
                                           oldrnk_update=rank) else None

    # reachable[i] = set of option indices valid at position i (1..m-1).
    reachable: list[set[int]] = [set()]
    for k, option in enumerate(options):
        if hoare_valid(head, loop[0], option, oldrnk_update=rank):
            reachable[0].add(k)
    if not reachable[0]:
        return None
    edge_ok: dict[tuple[int, int, int], bool] = {}
    for i in range(1, m - 1):
        current: set[int] = set()
        for prev in reachable[i - 1]:
            for k, option in enumerate(options):
                key = (i, prev, k)
                if key not in edge_ok:
                    edge_ok[key] = hoare_valid(options[prev], loop[i], option)
                if edge_ok[key]:
                    current.add(k)
        if not current:
            return None
        reachable.append(current)

    # Close the loop: the last statement must re-establish the head.
    closing_from = [k for k in reachable[-1]
                    if hoare_valid(options[k], loop[-1], head)]
    if not closing_from:
        return None

    # Back-propagate one consistent assignment.
    choice = [0] * (m - 1)
    choice[m - 2] = closing_from[0]
    for i in range(m - 2, 0, -1):
        for prev in reachable[i - 1]:
            key = (i, prev, choice[i])
            if key not in edge_ok:
                edge_ok[key] = hoare_valid(options[prev], loop[i],
                                           options[choice[i]])
            if edge_ok[key]:
                choice[i - 1] = prev
                break
        else:
            return None
    return [head] + [options[k] for k in choice] + [head]
