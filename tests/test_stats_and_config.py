"""Tests for statistics collection and configuration plumbing."""

import pytest

from repro.core.config import AnalysisConfig, StageSequence
from repro.core.stages import Stage
from repro.core.stats import AnalysisStats, RefinementRound, StatsCollector


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


def test_stats_record_round_updates_aggregates():
    stats = AnalysisStats(program="p", config="c")
    stats.record_round(RefinementRound(word="w1", proof_kind="ranked",
                                       stage="semi", difference_states=10))
    stats.record_round(RefinementRound(word="w2", proof_kind="ranked",
                                       stage="semi", difference_states=50))
    stats.record_round(RefinementRound(word="w3", proof_kind="stem-infeasible",
                                       stage="finite", difference_states=5))
    assert stats.iterations == 3
    assert stats.modules_by_stage == {"semi": 2, "finite": 1}
    assert stats.peak_difference_states == 50
    summary = stats.summary()
    assert "3 rounds" in summary
    assert "semi=2" in summary


def test_stats_round_without_stage_not_counted_as_module():
    stats = AnalysisStats()
    stats.record_round(RefinementRound(word="w", proof_kind="nonterminating"))
    assert stats.iterations == 1
    assert not stats.modules_by_stage


def test_collector_finish_stamps_metadata():
    collector = StatsCollector()
    stats = collector.finish("prog", "cfg", "timeout")
    assert stats.program == "prog"
    assert stats.config == "cfg"
    assert stats.gave_up_reason == "timeout"
    assert stats.total_seconds >= 0


def test_collector_sdba_capture_flag():
    from repro.automata.gba import ba
    auto = ba({"a"}, {("q", "a"): {"q"}}, ["q"], ["q"])
    off = StatsCollector(capture_sdbas=False)
    off.observe_sdba(auto)
    assert off.sdbas == []
    on = StatsCollector(capture_sdbas=True)
    on.observe_sdba(auto)
    assert on.sdbas == [auto]


def test_describe_mentions_nosim_only_when_reduction_off():
    assert "nosim" not in AnalysisConfig().describe()
    assert "nosim" in AnalysisConfig(simulation_reduction=False).describe()


def test_config_round_trips_simulation_fields():
    config = AnalysisConfig(simulation_reduction=False, simulation_cap=1234)
    data = config.to_dict()
    assert data["simulation_reduction"] is False
    assert data["simulation_cap"] == 1234
    assert AnalysisConfig.from_dict(data) == config
    # the default round-trips too (flag on, finite default cap)
    default = AnalysisConfig()
    assert AnalysisConfig.from_dict(default.to_dict()) == default
    assert default.simulation_reduction is True


def test_from_dict_rejects_module_library():
    # a library attaches per run (``library=``, ``--module-library``),
    # never through the configuration
    with pytest.raises(ValueError, match="unknown config keys"):
        AnalysisConfig.from_dict({"module_library": "/tmp/lib.jsonl"})


def test_refinement_round_records_companion_stage():
    stats = AnalysisStats(program="p", config="c")
    plain = RefinementRound(word="w1", proof_kind="ranked", stage="interp",
                            difference_states=4)
    companion = RefinementRound(word="w2", proof_kind="ranked", stage="interp",
                                companion_stage="finite", difference_states=7)
    stats.record_round(plain)
    stats.record_round(companion)
    from dataclasses import asdict
    assert asdict(plain)["companion_stage"] is None
    assert asdict(companion)["companion_stage"] == "finite"
    rebuilt = AnalysisStats.from_dict(stats.to_dict())
    assert rebuilt.rounds[1].companion_stage == "finite"


def test_from_dict_reads_payload_with_per_round_copies():
    # Before rounds carried registry deltas, each round copied its
    # difference counters into fields, and the run copied the store
    # counters into top-level keys; such payloads still decode.
    old_round = {"word": "w", "proof_kind": "ranked", "stage": "semi",
                 "module_states": 4, "difference_states": 21,
                 "explored_states": 39, "subsumption_hits": 3,
                 "cache_hits": 0, "cache_misses": 273,
                 "peak_pending_edges": 12, "complement_kind": "ncsb-lazy",
                 "modular_components": None, "companion_stage": None,
                 "seconds": 0.04}
    data = {"program": "p", "config": "c", "iterations": 1,
            "total_seconds": 0.1, "peak_difference_states": 21,
            "gave_up_reason": None, "restored_rounds": 2,
            "library_hits": 1, "library_misses": 0,
            "modules_by_stage": {"semi": 1}, "rounds": [old_round],
            "metrics": {"counters": {"checkpoint.rounds_restored": 2}},
            "incidents": []}
    stats = AnalysisStats.from_dict(data)
    assert stats.iterations == 1
    assert stats.rounds[0].difference_states == 21
    assert stats.rounds[0].stage == "semi"
    assert stats.counter("checkpoint.rounds_restored") == 2
    assert stats.counter("library.hits") == 0
    again = AnalysisStats.from_dict(stats.to_dict())
    assert again.to_dict() == stats.to_dict()


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
