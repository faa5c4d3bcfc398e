"""Tests for the deterministic fault-injection layer (:mod:`repro.faults`)."""

import json

import pytest

import repro.faults as faults
from repro.core.budget import ReproError
from repro.faults import FaultPlan, InjectedFault


def drive(plan: FaultPlan, site: str, rounds: int = 200) -> dict:
    """Run ``rounds`` perturb calls; return {'crash': n, 'delay': n}."""
    crashes = 0
    with faults.use_plan(plan):
        for _ in range(rounds):
            try:
                faults.perturb(site)
            except InjectedFault:
                crashes += 1
        counts = faults.injected_counts()
    return {"crashes": crashes, "counts": counts}


# -- plan parsing -------------------------------------------------------------


def test_plan_json_round_trip():
    plan = FaultPlan(seed=7, crash_rate=0.1, delay_rate=0.05,
                     delay_seconds=0.001, wrong_answer_rate=0.2,
                     sites=("solver.lp", "difference"))
    restored = FaultPlan.from_json(plan.to_json())
    assert restored == plan


def test_plan_rejects_unknown_keys():
    with pytest.raises((ValueError, TypeError)):
        FaultPlan.from_json(json.dumps({"seed": 1, "crash_rat": 0.5}))


def test_plan_from_env(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR,
                       json.dumps({"seed": 3, "crash_rate": 0.5}))
    plan = faults.FaultPlan.from_env()
    assert plan is not None and plan.seed == 3
    monkeypatch.delenv(faults.ENV_VAR)
    assert faults.FaultPlan.from_env() is None


def test_resolve_plan_prefers_config_over_env(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, json.dumps({"seed": 1}))
    from_config = faults.resolve_plan(json.dumps({"seed": 99}))
    assert from_config is not None and from_config.seed == 99
    from_env = faults.resolve_plan(None)
    assert from_env is not None and from_env.seed == 1


# -- deterministic injection --------------------------------------------------


def test_injection_is_deterministic_per_seed_and_site():
    plan = FaultPlan(seed=11, crash_rate=0.3, delay_rate=0.0)
    first = drive(plan, "solver.lp")
    second = drive(plan, "solver.lp")
    assert first == second
    assert first["crashes"] > 0
    other_site = drive(plan, "difference")
    assert other_site["crashes"] > 0  # its own stream, still active


def test_different_seeds_give_different_streams():
    a = [drive(FaultPlan(seed=s, crash_rate=0.3), "solver.lp")["crashes"]
         for s in range(5)]
    assert len(set(a)) > 1, "five seeds producing identical crash counts"


def test_injected_fault_is_repro_error_with_site():
    plan = FaultPlan(seed=0, crash_rate=1.0)
    with faults.use_plan(plan):
        with pytest.raises(InjectedFault) as err:
            faults.perturb("complement.ncsb")
    assert isinstance(err.value, ReproError)
    assert err.value.site == "complement.ncsb"


def test_sites_filter_limits_injection():
    plan = FaultPlan(seed=0, crash_rate=1.0, sites=("solver",))
    with faults.use_plan(plan):
        faults.perturb("difference")  # filtered out: no crash
        with pytest.raises(InjectedFault):
            faults.perturb("solver.lp")  # prefix "solver" matches


def test_suspended_disables_injection():
    plan = FaultPlan(seed=0, crash_rate=1.0, wrong_answer_rate=1.0)
    with faults.use_plan(plan):
        with faults.suspended():
            faults.perturb("solver.lp")  # no crash
            assert faults.filter_bool("solver.entailment", True) is True
        with pytest.raises(InjectedFault):
            faults.perturb("solver.lp")


def test_filter_bool_flips_and_counts():
    plan = FaultPlan(seed=0, wrong_answer_rate=1.0)
    with faults.use_plan(plan):
        assert faults.filter_bool("solver.entailment", True) is False
        assert faults.filter_bool("solver.entailment", False) is True
        counts = faults.injected_counts()
    assert counts["solver.entailment"]["flip"] == 2


def test_no_active_plan_is_a_no_op():
    assert faults._ACTIVE is None
    faults.perturb("solver.lp")  # nothing raised
    assert faults.filter_bool("solver.lp", True) is True


def test_flipped_entailments_never_enter_the_solver_memo(monkeypatch):
    from repro.core.api import prove_termination_source
    from repro.core.config import AnalysisConfig
    from repro.core.refinement import RefinementEngine, Verdict
    from repro.logic import fourier_motzkin as fm
    from repro.logic import memo as solver_memo
    runs = []
    run = RefinementEngine.run

    def run_and_keep_memo(self):
        result = run(self)
        runs.append((solver_memo._MEMO, faults.injected_counts()))
        return result

    monkeypatch.setattr(RefinementEngine, "run", run_and_keep_memo)
    plan = FaultPlan(seed=0, wrong_answer_rate=1.0,
                     sites=("solver.entailment",)).to_json()
    cases = (("while x > 0:\n        x := x - 1", Verdict.TERMINATING),
             ("while x > 0:\n        x := x + 1", Verdict.NONTERMINATING))
    for body, honest in cases:
        result = prove_termination_source(
            f"program p(x):\n    {body}\n",
            AnalysisConfig(timeout=30.0, fault_plan=plan))
        # the firewall may lose the answer, never flip it
        assert result.verdict in (honest, Verdict.UNKNOWN)
    for memo, injected in runs:
        assert injected["solver.entailment"]["flip"] > 0
        assert memo
        # every stored answer is the honest uncached elimination
        for (kind, atoms, names), answer in memo.items():
            assert kind == "fm"
            fresh = fm.eliminate(atoms, names)
            assert answer == (None if fresh is None else tuple(fresh))


def test_flipped_entailments_never_enter_the_hoare_memo(monkeypatch):
    # the solver.entailment site sits below the postcondition and
    # Hoare-triple memo, so under a plan the memo must stay untouched
    from repro.core.api import prove_termination_source
    from repro.core.config import AnalysisConfig
    from repro.core.refinement import RefinementEngine, Verdict
    from repro.logic import memo as solver_memo
    runs = []
    run = RefinementEngine.run

    def run_and_keep_memo(self):
        result = run(self)
        runs.append((solver_memo._MEMO, faults.injected_counts()))
        return result

    monkeypatch.setattr(RefinementEngine, "run", run_and_keep_memo)
    plan = FaultPlan(seed=0, wrong_answer_rate=1.0,
                     sites=("solver.entailment",)).to_json()
    cases = (("while x > 0:\n        x := x - 1", Verdict.TERMINATING),
             ("while x > 0:\n        x := x + 1", Verdict.NONTERMINATING))
    for body, honest in cases:
        result = prove_termination_source(
            f"program p(x):\n    {body}\n",
            AnalysisConfig(timeout=30.0, fault_plan=plan))
        # the firewall may lose the answer, never flip it
        assert result.verdict in (honest, Verdict.UNKNOWN)
        assert "logic.hoare.memo_hits" not in \
            result.stats.metrics["counters"]
    for memo, injected in runs:
        assert injected["solver.entailment"]["flip"] > 0
        # the run's scope was open, and only honest FM answers entered
        assert memo and all(key[0] == "fm" for key in memo)


def test_an_active_plan_neither_reads_nor_writes_the_hoare_memo():
    from repro.logic.atoms import atom_ge
    from repro.logic.linconj import conj
    from repro.logic.predicates import PRED_FALSE, Pred
    from repro.logic.terms import var
    from repro.logic.memo import use_memo
    from repro.program.statements import Assign, hoare_valid
    stmt = Assign("x", var("x") - 1)
    pre = Pred.of_inf(conj(atom_ge(var("x"), 1)))
    post = Pred.of_inf(conj(atom_ge(var("x"), 0)))
    with use_memo() as memo:
        assert hoare_valid(pre, stmt, post)
        # poison every stored postcondition and triple: serving one would
        # show.  FM answers reach no fault site and stay served.
        poisoned = {key: (not answer if isinstance(answer, bool)
                          else PRED_FALSE if isinstance(answer, Pred)
                          else conj())
                    for key, answer in memo.items() if key[0] != "fm"}
        memo.update(poisoned)
        with faults.use_plan(FaultPlan(seed=0)):
            assert hoare_valid(pre, stmt, post)
            assert stmt.sp_pred(pre).is_sat()
            assert not hoare_valid(post, stmt, pre)
        assert {key: answer for key, answer in memo.items()
                if key[0] != "fm"} == poisoned
