"""Tests for the resource budget, error taxonomy, and degradation ladder."""

import time

import pytest

from repro.core import refinement
from repro.core.api import (DEFAULT_PORTFOLIO, prove_termination_portfolio,
                            prove_termination_source)
from repro.core.budget import (Budget, DeadlineExceeded, ReproError,
                               ResourceExhausted, current_budget, use_budget)
from repro.core.config import AnalysisConfig
from repro.core.refinement import Verdict
from repro.program.parser import parse_program

COUNTDOWN = """
program countdown(x):
    while x > 0:
        x := x - 1
"""

NESTED = """
program nested(x, y, n):
    while x > 0:
        y := n
        while y > 0:
            y := y - 1
        x := x - 1
"""


# -- the Budget object --------------------------------------------------------


def test_budget_caps_raise_typed_errors():
    budget = Budget(fm_constraint_cap=5, simulation_cap=3)
    with pytest.raises(ResourceExhausted) as err:
        budget.charge_fm(6)
    assert err.value.resource == "fm-constraints" and err.value.limit == 5
    with pytest.raises(ResourceExhausted) as err:
        budget.charge_simulation(2)
        budget.charge_simulation(2)
    assert err.value.resource == "simulation" and err.value.limit == 3


def test_deadline_exceeded_is_resource_exhausted():
    budget = Budget(deadline=time.perf_counter() - 1.0)
    with pytest.raises(DeadlineExceeded) as err:
        budget.check_deadline("unit")
    assert isinstance(err.value, ResourceExhausted)
    assert isinstance(err.value, ReproError)
    assert err.value.resource == "deadline"


def test_unbounded_budget_never_raises():
    budget = Budget()
    budget.check_deadline()
    budget.charge_fm(10_000)
    budget.charge_simulation(10_000)


def test_use_budget_scoping():
    assert current_budget() is None
    budget = Budget()
    with use_budget(budget):
        assert current_budget() is budget
        with use_budget(None):  # the firewall clears the ambient budget
            assert current_budget() is None
        assert current_budget() is budget
    assert current_budget() is None


# -- caps threaded through the analysis ---------------------------------------


def test_analysis_survives_tiny_fm_cap(monkeypatch):
    """An absurd FM cap must yield UNKNOWN + incidents, never a crash."""
    monkeypatch.setattr(refinement, "FM_CONSTRAINT_CAP", 1)
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=10.0))
    assert result.verdict in (Verdict.TERMINATING, Verdict.UNKNOWN)
    if result.verdict is Verdict.UNKNOWN:
        assert result.stats.incidents, "cap overrun must leave an incident"


def test_analysis_degrades_on_difference_state_limit():
    """Difference blowups fall down the ladder instead of erroring out."""
    config = AnalysisConfig(difference_state_limit=0, timeout=10.0)
    result = prove_termination_source(NESTED, config)
    assert result.verdict in (Verdict.TERMINATING, Verdict.UNKNOWN)
    kinds = {i.kind for i in result.stats.incidents}
    assert kinds >= {"budget.degraded", "budget.exhausted"}, \
        result.stats.incidents


def test_degradation_incidents_are_counted_in_metrics():
    config = AnalysisConfig(difference_state_limit=0, timeout=10.0)
    result = prove_termination_source(NESTED, config)
    assert result.stats.counter("incidents.budget.degraded") == sum(
        i.kind == "budget.degraded" for i in result.stats.incidents) > 0


def test_timeout_still_reports_timeout():
    config = AnalysisConfig(timeout=0.0)
    result = prove_termination_source(NESTED, config)
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "timeout"


def test_incident_serialization_round_trip():
    from repro.core.stats import AnalysisStats, Incident
    from repro.obs.metrics import MetricsRegistry, use_registry
    stats = AnalysisStats()
    with use_registry(MetricsRegistry()) as registry:
        stats.record_incident(Incident("budget.degraded", "refinement",
                                       "semi -> finite", round=2))
    stats.metrics = registry.snapshot()
    data = stats.to_dict()
    assert data["incidents"] == [{"kind": "budget.degraded",
                                  "component": "refinement",
                                  "detail": "semi -> finite", "round": 2}]
    assert data["metrics"]["counters"]["incidents.budget.degraded"] == 1


# -- the one fallback rule ------------------------------------------------------


def _degraded(result, component: str) -> list[str]:
    """Stage labels of the run's ``budget.degraded`` incidents from
    ``component``, in the order they were recorded."""
    return [i.detail.split(":")[0] for i in result.stats.incidents
            if i.kind == "budget.degraded" and i.component == component]


def _exhausted(result) -> list:
    return [i for i in result.stats.incidents if i.kind == "budget.exhausted"]


def _ladder_positions(stages: list[str]) -> list[int]:
    return [[s.value for s in refinement.DEGRADATION_LADDER].index(stage)
            for stage in stages]


def test_subtraction_blowups_walk_the_ladder_in_order():
    config = AnalysisConfig.single_stage(difference_state_limit=0,
                                         timeout=10.0)
    result = prove_termination_source(NESTED, config)
    walk = _ladder_positions(_degraded(result, "difference"))
    assert len(walk) >= 2 and walk == sorted(set(walk)), walk
    assert walk[0] == 0  # the configured nondet module blew first
    (last,) = _exhausted(result)
    assert last is result.stats.incidents[-1]
    assert last.component == "difference"
    assert result.reason == "difference state limit"


def test_build_blowups_walk_the_whole_ladder(monkeypatch):
    """A blowup building any module: the configured sequence counts as
    a blown nondet, then every rung below it blows in ladder order."""
    def blow(proof, sequence, alphabet, **kwargs):
        raise ResourceExhausted("fm-constraints", "forced")

    monkeypatch.setattr(refinement, "generalize", blow)
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=10.0))
    assert _degraded(result, "generalize") == [
        stage.value for stage in refinement.DEGRADATION_LADDER]
    (last,) = _exhausted(result)
    assert last.component == "generalize"
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "resource exhausted: fm-constraints"


def test_configured_build_blowup_enters_the_ladder_below_nondet(monkeypatch):
    config = AnalysisConfig(timeout=10.0)
    real = refinement.generalize

    def blow_configured(proof, sequence, alphabet, **kwargs):
        if tuple(sequence) == config.stages:
            raise ResourceExhausted("fm-constraints", "forced")
        return real(proof, sequence, alphabet, **kwargs)

    monkeypatch.setattr(refinement, "generalize", blow_configured)
    result = prove_termination_source(NESTED, config)
    assert result.verdict is Verdict.TERMINATING
    rounds = result.stats.rounds
    assert _degraded(result, "generalize") == ["nondet"] * len(rounds)
    assert not _exhausted(result)
    below = {stage.value for stage in refinement.ladder_tail("nondet")}
    assert all(r.stage in below for r in rounds), [r.stage for r in rounds]


def test_blown_library_hit_falls_through_to_fresh_synthesis(
        tmp_path, monkeypatch):
    from repro.core.library import ModuleLibrary
    path = tmp_path / "lib.jsonl"
    config = AnalysisConfig(timeout=10.0)
    cold = prove_termination_source(COUNTDOWN, config,
                                    library=ModuleLibrary(path))
    assert cold.verdict is Verdict.TERMINATING

    library = ModuleLibrary(path)
    hits = []
    match = library.match

    def recording_match(word, alphabet):
        hit = match(word, alphabet)
        if hit is not None:
            hits.append(hit.automaton)
        return hit

    real = refinement.difference

    def blow_hits(minuend, subtrahend, **kwargs):
        if any(subtrahend is automaton for automaton in hits):
            raise ResourceExhausted("difference-states", "forced")
        return real(minuend, subtrahend, **kwargs)

    library.match = recording_match
    monkeypatch.setattr(refinement, "difference", blow_hits)
    warm = prove_termination_source(COUNTDOWN, config, library=library)
    assert warm.verdict is Verdict.TERMINATING
    assert hits
    assert len(_degraded(warm, "library")) == len(hits)
    assert [i.component for i in warm.stats.incidents] == ["library"] * len(hits)
    # every round's module came from fresh synthesis
    assert all(r.proof_kind != "library" for r in warm.stats.rounds)
    assert warm.stats.counter("ranking.syntheses") > 0


def _blow_prove_lasso(monkeypatch):
    def blow(lasso):
        raise ResourceExhausted("fm-constraints", "forced")
    monkeypatch.setattr(refinement, "prove_lasso", blow)


def _blow_generalize(monkeypatch):
    def blow(proof, sequence, alphabet, **kwargs):
        raise ResourceExhausted("stage-states", "forced")
    monkeypatch.setattr(refinement, "generalize", blow)


def _tiny_fm_cap(monkeypatch):
    monkeypatch.setattr(refinement, "FM_CONSTRAINT_CAP", 1)


@pytest.mark.parametrize("program, config, force", [
    (NESTED, AnalysisConfig(difference_state_limit=0, timeout=10.0), None),
    (NESTED, AnalysisConfig.single_stage(difference_state_limit=0,
                                         timeout=10.0), None),
    (NESTED, AnalysisConfig(interpolant_modules=True,
                            difference_state_limit=0, timeout=10.0), None),
    (COUNTDOWN, AnalysisConfig(timeout=10.0), _blow_prove_lasso),
    (COUNTDOWN, AnalysisConfig(timeout=10.0), _blow_generalize),
    (NESTED, AnalysisConfig(timeout=10.0), _tiny_fm_cap),
], ids=["difference", "difference-single", "difference-interp",
        "prove-lasso", "generalize", "fm-cap"])
def test_a_cap_ends_a_run_with_exactly_one_exhausted_incident(
        monkeypatch, program, config, force):
    if force is not None:
        force(monkeypatch)
    result = prove_termination_source(program, config)
    assert result.verdict is Verdict.UNKNOWN
    (last,) = _exhausted(result)
    resource = last.detail.split(":")[0]
    assert result.reason == ("difference state limit"
                             if resource == "difference-states"
                             else f"resource exhausted: {resource}")
    assert result.stats.counter("incidents.budget.exhausted") == 1


# -- the portfolio short-circuit ----------------------------------------------


def test_portfolio_short_circuits_on_spent_budget():
    """A spent budget must not launch zero-timeout attempts."""
    program = parse_program(NESTED)
    result = prove_termination_portfolio(program, timeout=0.0)
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "timeout"
    assert result.attempts == []  # nothing was launched


def test_portfolio_stops_launching_after_budget_runs_out(monkeypatch):
    """Later configs are skipped once earlier ones consume the budget."""
    import repro.core.api as api

    launched = []
    real = api.prove_termination

    def spy(program, config=None, checkpoint=None, library=None):
        launched.append(config.timeout)
        return real(program, config, checkpoint=checkpoint, library=library)

    monkeypatch.setattr(api, "prove_termination", spy)
    program = parse_program(COUNTDOWN)
    configs = tuple(AnalysisConfig() for _ in range(3))
    api.prove_termination_portfolio(program, configs, timeout=30.0)
    assert launched, "at least the first attempt must run"
    assert all(t is not None and t > 0 for t in launched)


def test_portfolio_still_solves_with_budget():
    program = parse_program(COUNTDOWN)
    result = prove_termination_portfolio(program, DEFAULT_PORTFOLIO,
                                         timeout=60.0)
    assert result.verdict is Verdict.TERMINATING
    assert len(result.attempts) == 1
