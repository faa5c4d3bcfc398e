"""Tests for the verdict firewall (:mod:`repro.core.firewall`)."""

from fractions import Fraction

from repro.core.api import prove_termination_source
from repro.core.config import AnalysisConfig
from repro.core.firewall import screen
from repro.core.refinement import RefinementEngine, Verdict
from repro.program.cfg import build_cfg
from repro.program.parser import parse_program

COUNTDOWN = """
program countdown(x):
    while x > 0:
        x := x - 1
"""

DIVERGING = """
program up(x):
    while x > 0:
        x := x + 1
"""


def engine_result(source: str, config: AnalysisConfig):
    """The engine's own result, before ``prove_termination`` screens it."""
    return RefinementEngine(build_cfg(parse_program(source)), config).run()


def unscreened(source: str):
    """An honest engine result that has not passed the firewall yet."""
    result = engine_result(source, AnalysisConfig(timeout=30.0))
    assert result.verdict is not Verdict.UNKNOWN
    return result


def firewall_incidents(result):
    return [i for i in result.stats.incidents if i.component == "firewall"]


def test_honest_terminating_result_passes():
    result = unscreened(COUNTDOWN)
    screened = screen(result, timeout=30.0)
    assert screened is result  # untouched, same object
    assert not firewall_incidents(screened)


def test_honest_nonterminating_result_passes():
    result = unscreened(DIVERGING)
    screened = screen(result, timeout=30.0)
    assert screened is result
    assert not firewall_incidents(screened)


def test_unknown_passes_through():
    result = engine_result(COUNTDOWN, AnalysisConfig(max_refinements=0))
    assert result.verdict is Verdict.UNKNOWN
    assert screen(result) is result


def test_sabotaged_ranking_is_downgraded():
    result = unscreened(COUNTDOWN)
    module = result.modules[0]
    module.ranking = module.ranking + 5  # rank decrease no longer forced
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert screened.reason and screened.reason.startswith("firewall:")
    kinds = {i.kind for i in firewall_incidents(screened)}
    assert "firewall.certificate" in kinds
    assert screened.stats.gave_up_reason == screened.reason


def test_dropped_certificate_state_is_downgraded():
    result = unscreened(COUNTDOWN)
    module = result.modules[0]
    dropped = next(iter(module.certificate))
    del module.certificate[dropped]
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.certificate"
               for i in firewall_incidents(screened))


def test_nonempty_remainder_is_downgraded():
    result = unscreened(COUNTDOWN)
    # Swap in an automaton that still accepts lassos: the emptiness
    # recheck must refuse to certify the (now bogus) verdict.
    result.remainder = build_cfg(parse_program(DIVERGING)).to_gba()
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.emptiness"
               for i in firewall_incidents(screened))


def test_mutated_witness_state_is_downgraded():
    result = unscreened(DIVERGING)
    result.witness.state["x"] = Fraction(-5)  # guard x>0 now false
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.witness"
               for i in firewall_incidents(screened))


def test_non_integral_witness_is_downgraded():
    result = unscreened(DIVERGING)
    result.witness.state["x"] = Fraction(1, 2)
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any("non-integral" in i.detail
               for i in firewall_incidents(screened))


def test_missing_witness_is_downgraded():
    result = unscreened(DIVERGING)
    result.witness = None
    screened = screen(result, timeout=30.0)
    assert screened.verdict is Verdict.UNKNOWN
    assert any(i.kind == "firewall.witness"
               for i in firewall_incidents(screened))


def test_firewall_on_by_default_stays_conclusive():
    # The default pipeline screens every verdict; honest runs keep them.
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    result = prove_termination_source(DIVERGING, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.NONTERMINATING


def test_firewall_counts_land_in_the_run_record():
    from repro.obs import metrics as obs_metrics
    outside = obs_metrics.registry().snapshot()["counters"]
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    counters = result.stats.metrics["counters"]
    assert counters.get("firewall.screens") == 1
    assert counters.get("firewall.passed") == 1
    # the re-check's logic work is the run's too: nothing of the run
    # leaks into the process-global registry
    assert obs_metrics.registry().snapshot()["counters"] == outside


def test_firewall_incidents_are_counted_once(monkeypatch):
    import repro.core.api as api

    def sabotaged_screen(result, timeout=None):
        # the sabotaged-ranking fixture, applied between engine and screen
        result.modules[0].ranking = result.modules[0].ranking + 5
        return screen(result, timeout)

    monkeypatch.setattr(api, "screen", sabotaged_screen)
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.UNKNOWN
    incidents = firewall_incidents(result)
    assert incidents
    counters = result.stats.metrics["counters"]
    for kind in {i.kind for i in incidents}:
        assert counters.get(f"incidents.{kind}") == \
            sum(i.kind == kind for i in incidents)
    assert counters.get("firewall.screens") == 1
    assert "firewall.passed" not in counters


def test_no_memo_outlives_a_run():
    from repro.logic import fourier_motzkin as fm
    assert fm._MEMO is None
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    assert result.stats.metrics["counters"]["logic.fm.memo_hits"] > 0
    assert fm._MEMO is None


def test_screen_solves_on_a_fresh_memo_of_its_own(monkeypatch):
    import repro.core.firewall as firewall
    from repro.core.refinement import RefinementEngine
    from repro.logic import fourier_motzkin as fm
    seen = {}
    run, check = RefinementEngine.run, firewall._check_terminating

    def run_and_keep_memo(self):
        seen["engine"] = fm._MEMO
        return run(self)

    def check_and_keep_memo(result, deadline):
        seen["screen"], seen["on_entry"] = fm._MEMO, len(fm._MEMO)
        return check(result, deadline)

    monkeypatch.setattr(RefinementEngine, "run", run_and_keep_memo)
    monkeypatch.setattr(firewall, "_check_terminating", check_and_keep_memo)
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    assert result.stats.metrics["counters"]["firewall.passed"] == 1
    # the screen starts empty and never reads an answer of the engine's
    assert seen["on_entry"] == 0 and seen["engine"]
    assert seen["screen"] is not seen["engine"]
    assert seen["screen"]  # the re-check's own queries went through it


def test_no_hoare_memo_outlives_a_run():
    from repro.program import statements
    assert statements._MEMO is None
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    counters = result.stats.metrics["counters"]
    assert counters["logic.hoare.memo_hits"] > 0
    assert counters["logic.sp.memo_hits"] > 0
    assert statements._MEMO is None


def test_screen_checks_triples_on_a_fresh_hoare_memo(monkeypatch):
    import repro.core.firewall as firewall
    from repro.core.refinement import RefinementEngine
    from repro.program import statements
    seen = {}
    run, check = RefinementEngine.run, firewall._check_terminating

    def run_and_keep_memo(self):
        seen["engine"] = statements._MEMO
        return run(self)

    def check_and_keep_memo(result, deadline):
        seen["screen"] = statements._MEMO
        seen["on_entry"] = len(statements._MEMO)
        return check(result, deadline)

    monkeypatch.setattr(RefinementEngine, "run", run_and_keep_memo)
    monkeypatch.setattr(firewall, "_check_terminating", check_and_keep_memo)
    result = prove_termination_source(COUNTDOWN, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    assert result.stats.metrics["counters"]["firewall.passed"] == 1
    # the screen starts empty and never reads an answer of the engine's
    assert seen["on_entry"] == 0 and seen["engine"]
    assert seen["screen"] is not seen["engine"]
    assert seen["screen"]  # the re-check's own triples went through it
