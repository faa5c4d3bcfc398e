"""Tests for statistics collection and configuration plumbing."""

import pytest

from repro.core.config import AnalysisConfig, StageSequence
from repro.core.stages import Stage
from repro.core.stats import AnalysisStats, RefinementRound


def test_stage_sequences_well_formed():
    for name, sequence in StageSequence.BY_NAME.items():
        assert sequence, name
        assert sequence[-1] is Stage.NONDET, name
        # stages appear at most once
        assert len(sequence) == len(set(sequence)), name
    # fin always precedes the powerset stages in the multi sequences
    for name in ("i", "ii", "iii"):
        sequence = StageSequence.BY_NAME[name]
        assert sequence[0] is Stage.FINITE, name


def test_config_with_creates_modified_copy():
    base = AnalysisConfig()
    changed = base.with_(timeout=1.5, max_refinements=3)
    assert changed.timeout == 1.5
    assert changed.max_refinements == 3
    assert base.timeout is None
    assert changed.stages == base.stages


def test_config_is_hashable_value():
    assert AnalysisConfig() == AnalysisConfig()
    assert AnalysisConfig() != AnalysisConfig(subsumption=False)
    assert hash(AnalysisConfig()) == hash(AnalysisConfig())


def test_describe_mentions_all_options():
    config = AnalysisConfig(lazy_complement=False, subsumption=True,
                            interpolant_modules=True, via_semidet=True)
    described = config.describe()
    for token in ("ncsb-original", "subsumption", "interpolants", "semidet"):
        assert token in described


def test_stats_derive_iterations_and_peak_from_rounds():
    stats = AnalysisStats(program="p", config="c")
    assert stats.iterations == 0 and stats.peak_difference_states == 0
    stats.rounds += [
        RefinementRound(word="w1", proof_kind="ranked", stage="semi",
                        difference_states=10),
        RefinementRound(word="w2", proof_kind="ranked", stage="semi",
                        difference_states=50),
        RefinementRound(word="w3", proof_kind="stem-infeasible",
                        stage="finite", difference_states=5)]
    assert stats.iterations == 3
    assert stats.peak_difference_states == 50


def test_stats_round_without_stage_not_counted_as_module():
    from repro.core.api import prove_termination_source
    result = prove_termination_source(
        "program u(x):\n    while x > 0:\n        x := x + 1\n")
    assert result.stats.iterations == 1
    assert result.stats.rounds[0].stage is None
    assert result.to_dict()["modules"] == []
    assert "modules: none" in result.summary()


def test_describe_mentions_nosim_only_when_reduction_off():
    assert "nosim" not in AnalysisConfig().describe()
    assert "nosim" in AnalysisConfig(simulation_reduction=False).describe()


def test_config_round_trips_simulation_fields():
    config = AnalysisConfig(simulation_reduction=False)
    data = config.to_dict()
    assert data["simulation_reduction"] is False
    assert AnalysisConfig.from_dict(data) == config
    # the default round-trips too (flag on)
    default = AnalysisConfig()
    assert AnalysisConfig.from_dict(default.to_dict()) == default
    assert default.simulation_reduction is True


def test_from_dict_rejects_module_library():
    # a library attaches per run (``library=``, ``--module-library``),
    # never through the configuration
    with pytest.raises(ValueError, match="unknown config keys"):
        AnalysisConfig.from_dict({"module_library": "/tmp/lib.jsonl"})


@pytest.mark.parametrize("key", ["firewall", "check_nontermination",
                                 "macrostate_cap", "antichain_cap",
                                 "fm_constraint_cap", "simulation_cap"])
def test_from_dict_rejects_removed_knobs(key):
    with pytest.raises(ValueError, match="unknown config keys"):
        AnalysisConfig.from_dict({key: None})


@pytest.mark.parametrize("data, named", [
    ({"stages": "iv"}, "stages"),
    ({"stages": ["lasso", "nope"]}, "stages"),
    ({"timeout": "5"}, "timeout"),
    ({"max_refinements": 2.5}, "max_refinements"),
    ({"lazy_complement": 1}, "lazy_complement"),
    ({"difference_state_limit": True}, "difference_state_limit"),
    ({"fault_plan": {"seed": 7}}, "fault_plan"),
    ({"max_refinements": -1}, "max_refinements"),
    ({"timeout": -0.5}, "timeout"),
    ({"difference_state_limit": -1}, "difference_state_limit"),
])
def test_from_dict_rejects_malformed_values(data, named):
    with pytest.raises(ValueError, match=named):
        AnalysisConfig.from_dict(data)


def test_from_dict_accepts_json_numbers_and_nulls():
    config = AnalysisConfig.from_dict({"timeout": 5, "complement_kind": None,
                                       "difference_state_limit": None,
                                       "stages": ["lasso", "nondet"]})
    assert config.timeout == 5 and config.difference_state_limit is None
    assert [s.value for s in config.stages] == ["lasso", "nondet"]


def test_zero_budgets_are_legal():
    config = AnalysisConfig(max_refinements=0, timeout=0.0,
                            difference_state_limit=0)
    assert AnalysisConfig.from_dict(config.to_dict()) == config


def test_refinement_round_records_companion_stage():
    stats = AnalysisStats(program="p", config="c")
    plain = RefinementRound(word="w1", proof_kind="ranked", stage="interp",
                            difference_states=4)
    companion = RefinementRound(word="w2", proof_kind="ranked", stage="interp",
                                companion_stage="finite", difference_states=7)
    stats.rounds += [plain, companion]
    rounds = stats.to_dict()["rounds"]
    assert rounds[0]["companion_stage"] is None
    assert rounds[1]["companion_stage"] == "finite"


def test_record_incident_counts_in_the_current_registry():
    from repro.core.stats import Incident
    from repro.obs.metrics import MetricsRegistry, use_registry

    stats = AnalysisStats()
    registry = MetricsRegistry()
    with use_registry(registry):
        stats.record_incident(Incident("budget.degraded", "refinement"))
        stats.record_incident(Incident("budget.degraded", "checkpoint"))
    assert len(stats.incidents) == 2
    assert registry.counts() == {"incidents.budget.degraded": 2}
    assert stats.metrics == {}  # the snapshot is taken by the run
