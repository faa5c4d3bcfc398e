"""Tests for rank-certificate construction (Definition 3.1).

Certificates are checked the way the engine checks them: as the lasso
module :func:`build_lasso_module` makes of them, by
:func:`validate_module`.
"""

from dataclasses import replace

from repro.core.module import validate_module
from repro.core.stages import build_lasso_module
from repro.logic.atoms import atom_gt, atom_le
from repro.logic.linconj import TRUE, conj
from repro.logic.predicates import OLDRNK, Pred
from repro.logic.terms import var
from repro.program.statements import Assign, Assume
from repro.ranking.certificate import (RankCertificate, build_certificate,
                                       rank_decrease_pred)
from repro.ranking.lasso import Lasso
from repro.ranking.synthesis import prove_lasso

x, w = var("x"), var("w")
GUARD = Assume(conj(atom_gt(x, 0)), "x>0")
DEC = Assign("x", x - 1)


def certify(stem, loop):
    lasso = Lasso(stem, loop)
    proof = prove_lasso(lasso)
    assert proof.is_terminating, proof.kind
    cert = build_certificate(proof)
    problems = validate_module(build_lasso_module(proof, cert))
    assert problems == [], problems
    return proof, cert


def test_simple_countdown_certificate():
    proof, cert = certify([GUARD], [GUARD, DEC])
    assert cert.ranking == x
    # initial predicate is exactly oldrnk = infinity
    init = cert.stem_preds[0]
    assert init.fin_disjuncts == ()
    assert Pred.of_inf(TRUE).entails(init)
    # loop-head predicate forces the integer decrease
    head = cert.head
    assert head.entails(Pred((TRUE,), (TRUE.and_(
        [atom_le(cert.ranking, var(OLDRNK) - 1)]),)))


def test_invariant_free_certificate_merges_stem():
    proof, cert = certify([GUARD, GUARD, GUARD], [GUARD, DEC])
    assert not proof.needs_invariant
    # all proper stem predicates are the bare oldrnk = infinity
    stem_preds = cert.stem_preds[:-1]
    assert all(p == Pred.of_inf(TRUE) for p in stem_preds)


def test_template_loop_predicates_used():
    # inner loop of the paper's sort: f = i - j, template q4 shape
    i, j = var("i"), var("j")
    guard = Assume(conj(atom_gt(i, j)), "j<i")
    inc = Assign("j", j + 1)
    proof, cert = certify([guard], [guard, inc])
    assert cert.ranking == i - j
    # the mid-loop predicate should be a template (mentions only the
    # rank bounds, not the exact postcondition equalities)
    mid = cert.loop_preds[1]
    (fin,) = mid.fin_disjuncts
    assert fin.entails_atom(atom_le(0, i - j))
    assert OLDRNK in fin.variables()


def test_stem_infeasible_certificate():
    zero = Assign("x", var("none") * 0)
    lasso = Lasso([zero, GUARD], [GUARD, DEC])
    proof = prove_lasso(lasso)
    cert = build_certificate(proof)
    problems = validate_module(build_lasso_module(proof, cert))
    assert problems == []
    # everything from the infeasibility point on is bottom
    assert cert.stem_preds[2].is_unsat()


def test_validator_catches_bad_certificates():
    proof, cert = certify([GUARD], [GUARD, DEC])
    # sabotage: claim the loop keeps x unchanged
    bad = cert.loop_preds.copy()
    bad[1] = Pred((), (conj(atom_gt(x, 99)),))
    broken = RankCertificate(cert.stem_preds, bad, cert.ranking)
    problems = validate_module(build_lasso_module(proof, broken))
    assert problems


def test_validator_checks_initial_shape():
    proof, cert = certify([GUARD], [GUARD, DEC])
    bad_init = [Pred((), (TRUE,))] + cert.stem_preds[1:]
    broken = RankCertificate(bad_init, cert.loop_preds, cert.ranking)
    problems = validate_module(build_lasso_module(proof, broken))
    assert any("oldrnk" in p for p in problems)


def test_validator_catches_mutated_rank_coefficients():
    # Firewall threat model: the certificate is internally consistent
    # but its ranking term was corrupted after synthesis.
    proof, cert = certify([GUARD], [GUARD, DEC])
    broken = RankCertificate(cert.stem_preds, cert.loop_preds,
                             cert.ranking + 5)
    problems = validate_module(build_lasso_module(proof, broken))
    assert problems


ONE = var("none") * 0 + 1


def test_validator_catches_dropped_invariant_conjunct():
    # x := x - w only terminates because the stem pins w = 1; a head
    # predicate without that supporting invariant must be rejected.
    stem = [Assign("w", ONE)]
    loop = [GUARD, Assign("x", x - w)]
    proof, cert = certify(stem, loop)
    assert proof.needs_invariant
    # The module's loop head carries stem_preds[-1] (loop_preds[0] is
    # the same position), so drop the invariant conjunct from both.
    head = rank_decrease_pred(cert.ranking)  # invariant conjunct gone
    broken = RankCertificate(cert.stem_preds[:-1] + [head],
                             [head] + cert.loop_preds[1:], cert.ranking)
    problems = validate_module(build_lasso_module(proof, broken))
    assert problems


def test_validator_catches_stem_not_establishing_head():
    # The certificate itself is honest, but validated against a stem
    # that never establishes the invariant (w = 0 instead of 1): the
    # stem Hoare triple into the loop head must fail.
    proof, cert = certify([Assign("w", ONE)], [GUARD, Assign("x", x - w)])
    assert proof.needs_invariant
    wrong_stem = [Assign("w", var("none") * 0)]
    wrong = replace(proof, lasso=Lasso(wrong_stem, proof.lasso.loop))
    problems = validate_module(build_lasso_module(wrong, cert))
    assert problems


def test_rank_decrease_pred_shape():
    pred = rank_decrease_pred(x, conj(atom_gt(x, -10)))
    (fin,) = pred.fin_disjuncts
    assert fin.entails_atom(atom_le(x, var(OLDRNK) - 1))
    assert fin.entails_atom(atom_le(0, x))
    (inf,) = pred.inf_disjuncts
    assert inf.entails_atom(atom_gt(x, -10))


def test_certificate_roundtrip_on_various_lassos():
    cases = [
        ([GUARD], [GUARD, Assign("x", x - 3)]),
        ([GUARD, Assign("w", x)], [GUARD, Assign("x", x - 1), Assign("w", w + 1)]),
        ([Assume(conj(atom_gt(w, 0)), "w>0")],
         [Assume(conj(atom_gt(w, 0)), "w>0"), Assign("w", w - 1), GUARD]),
    ]
    for stem, loop in cases:
        certify(stem, loop)
