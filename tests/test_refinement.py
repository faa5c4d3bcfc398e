"""End-to-end tests of the refinement engine and public API."""

import pytest

from repro import AnalysisConfig, Verdict, prove_termination_source
from repro.core.module import validate_module
from repro.program.parser import parse_program

SORT = """
program sort(i, j):
    while i > 0:
        j := 1
        while j < i:
            j := j + 1
        i := i - 1
"""

COUNTDOWN = """
program count_down(x):
    while x > 0:
        x := x - 1
"""

DIVERGES = """
program count_up(x):
    while x > 0:
        x := x + 1
"""


def test_countdown_terminates():
    result = prove_termination_source(COUNTDOWN)
    assert result.verdict is Verdict.TERMINATING
    assert bool(result)
    assert result.modules
    assert result.stats.iterations >= 1


def test_sort_terminates_like_the_paper():
    result = prove_termination_source(SORT, AnalysisConfig(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    # every produced module is a valid certified module (Definition 3.1)
    for module in result.modules:
        assert validate_module(module) == []


def test_nontermination_detected():
    result = prove_termination_source(DIVERGES)
    assert result.verdict is Verdict.NONTERMINATING
    assert not bool(result)
    assert result.witness is not None
    assert result.witness_word is not None


def test_fractional_rank_cycle_not_claimed_terminating():
    # Regression: y cycles through -1 2 5 -5 -2 1 4 -4, so the program
    # diverges from every initial state.  Rankings like 1/6*y + 5/6 give
    # the certificates fractional oldrnk values; integral tightening of
    # oldrnk atoms used to declare those certificates unsat, creating
    # bogus accepting states and a TERMINATING verdict.
    result = prove_termination_source("""
program cycler(x, y):
    while x >= x:
        x := 3
        if y >= x:
            y := y + 3
            y := x - y
        else:
            x := 3
            y := y + 3
""", AnalysisConfig(timeout=20.0, max_refinements=12,
                    difference_state_limit=20_000))
    assert result.verdict is not Verdict.TERMINATING
    for module in result.modules:
        assert validate_module(module) == []


def test_loop_free_program_is_trivially_terminating():
    result = prove_termination_source("""
program straight(x):
    x := x + 1
    x := x - 2
""")
    assert result.verdict is Verdict.TERMINATING
    assert result.stats.iterations == 0


def test_unknown_on_multiphase():
    result = prove_termination_source("""
program multiphase(x, y):
    while x > 0:
        x := x + y
        y := y - 1
""")
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason and "not provable" in result.reason


def test_refinement_budget():
    result = prove_termination_source(SORT, AnalysisConfig(max_refinements=1))
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "refinement budget exhausted"


def test_timeout_budget():
    result = prove_termination_source(SORT, AnalysisConfig(timeout=0.0))
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "timeout"


def test_deadline_checked_inside_lasso_search():
    """An already-expired deadline must abort the SCC sweep itself, not
    wait for the next round boundary."""
    import time

    from repro.automata.emptiness import (ExplorationTimeout,
                                          find_accepting_lasso)
    from repro.program.cfg import build_cfg

    gba = build_cfg(parse_program(SORT)).to_gba()
    with pytest.raises(ExplorationTimeout):
        find_accepting_lasso(gba, deadline=time.perf_counter() - 1.0)
    # and without a deadline the same search still succeeds
    assert find_accepting_lasso(gba) is not None


def test_portfolio_budget_flows_to_later_configs(monkeypatch):
    """Unused budget of an early-finishing config goes to the rest,
    instead of every config being pinned to timeout/len(configs)."""
    import repro.core.api as api
    from repro.core.stats import AnalysisStats

    from repro.core.refinement import TerminationResult

    budgets = []

    def fake_prove(program, config=None, checkpoint=None, library=None):
        budgets.append(config.timeout)
        return TerminationResult(Verdict.UNKNOWN, stats=AnalysisStats())

    monkeypatch.setattr(api, "prove_termination", fake_prove)
    program = parse_program(COUNTDOWN)
    api.prove_termination_portfolio(
        program, configs=(AnalysisConfig(), AnalysisConfig()), timeout=10.0)
    assert budgets[0] == pytest.approx(5.0, abs=0.5)
    # the first attempt returned almost instantly; nearly the whole
    # 10s budget must flow to the second config (was: a fixed 5s)
    assert budgets[1] > 9.0


def test_all_stage_sequences_solve_countdown():
    for name in ("i", "ii", "iii"):
        config = AnalysisConfig.multi_stage(name, timeout=30.0)
        result = prove_termination_source(COUNTDOWN, config)
        assert result.verdict is Verdict.TERMINATING, name


def test_single_stage_solves_countdown():
    result = prove_termination_source(
        COUNTDOWN, AnalysisConfig.single_stage(timeout=30.0))
    assert result.verdict is Verdict.TERMINATING
    assert all(m.stage == "nondet" for m in result.modules)


def test_optimization_toggles_do_not_change_verdicts():
    for lazy in (True, False):
        for subsumption in (True, False):
            config = AnalysisConfig(lazy_complement=lazy,
                                    subsumption=subsumption, timeout=30.0)
            result = prove_termination_source(SORT, config)
            assert result.verdict is Verdict.TERMINATING, (lazy, subsumption)


def test_harvest_sdbas_on_sort_are_normalized_sdbas():
    """The Figure 4 harvest: every semideterministic module of the run,
    prepared for NCSB."""
    from repro.automata.classify import is_normalized_sdba
    from repro.benchgen.programs import suite_by_name
    from repro.benchgen.sdba_corpus import harvest_sdbas

    sdbas = harvest_sdbas([suite_by_name()["sort"]],
                          AnalysisConfig(timeout=30.0))
    assert sdbas, "sort produces semideterministic modules"
    assert all(is_normalized_sdba(auto) for auto in sdbas)


def test_stats_summary_shape():
    result = prove_termination_source(COUNTDOWN)
    summary = result.summary()
    assert "count_down" in summary
    assert f"{result.stats.iterations} rounds" in summary
    for module in result.modules:
        assert f"{module.stage}=" in summary
    assert result.stats.config.startswith("multi(i)")


def test_config_describe():
    assert AnalysisConfig().describe() == "multi(i)+ncsb-lazy+subsumption"
    assert AnalysisConfig.single_stage(
        lazy_complement=False, subsumption=False).describe() == "single+ncsb-original"
    custom = AnalysisConfig().with_(subsumption=False)
    assert "subsumption" not in custom.describe()


def test_verdicts_are_stable_across_repeat_runs():
    first = prove_termination_source(SORT, AnalysisConfig(timeout=30.0))
    second = prove_termination_source(SORT, AnalysisConfig(timeout=30.0))
    assert first.verdict == second.verdict
    assert [m.stage for m in first.modules] == [m.stage for m in second.modules]


def test_interpolant_modules_solve_phase_programs():
    result = prove_termination_source("""
program two_phase(x, p):
    while x > 0:
        if p == 0:
            x := x + 1
            p := 1
        else:
            x := x - 2
""", AnalysisConfig(timeout=30.0, interpolant_modules=True))
    assert result.verdict is Verdict.TERMINATING
    for module in result.modules:
        assert validate_module(module) == []


def test_portfolio_dominates_first_member():
    from repro import prove_termination_portfolio
    program = parse_program("""
program warmup(x, w):
    while x > 0:
        if w > 0:
            w := w - 1
        else:
            x := x - 1
""")
    result = prove_termination_portfolio(program, timeout=40.0)
    assert result.verdict is Verdict.TERMINATING


def test_portfolio_requires_configs():
    from repro import prove_termination_portfolio
    with pytest.raises(ValueError):
        prove_termination_portfolio(parse_program("program p(x):"), configs=())


def test_via_semidet_route_sound():
    result = prove_termination_source(COUNTDOWN,
                                      AnalysisConfig.single_stage(
                                          timeout=20.0, via_semidet=True))
    assert result.verdict is Verdict.TERMINATING


# -- degradation-ladder restart for off-ladder stages ------------------------------

def test_ladder_tail_walks_strictly_down():
    from repro.core.refinement import DEGRADATION_LADDER, ladder_tail
    from repro.core.stages import Stage
    assert ladder_tail("nondet") == DEGRADATION_LADDER[1:]
    assert ladder_tail("semi") == (Stage.LASSO, Stage.DETERMINISTIC,
                                   Stage.FINITE)
    assert ladder_tail("finite") == ()


def test_ladder_tail_restarts_for_off_ladder_stages():
    # "interp" (and any future off-ladder label) must retry the whole
    # ladder, not silently degrade straight to UNKNOWN.
    from repro.core.refinement import DEGRADATION_LADDER, ladder_tail
    from repro.core.stages import INTERPOLANT_STAGE
    assert ladder_tail(INTERPOLANT_STAGE) == DEGRADATION_LADDER
    assert ladder_tail("no-such-stage") == DEGRADATION_LADDER


def test_interpolant_modules_are_labeled_interp():
    from repro.core.stages import INTERPOLANT_STAGE
    source = """
program two_phase(x, p):
    while x > 0:
        if p == 0:
            x := x + 1
            p := 1
        else:
            x := x - 2
"""
    result = prove_termination_source(
        source, AnalysisConfig(interpolant_modules=True, timeout=60.0))
    assert result.verdict is Verdict.TERMINATING
    stages = [m.stage for m in result.modules]
    assert INTERPOLANT_STAGE in stages
    record_stages = [m["stage"] for m in result.to_dict()["modules"]]
    assert record_stages == stages


def test_companion_subtraction_recorded_in_round_stats(monkeypatch):
    import repro.core.refinement as refinement
    remainders: list[int] = []
    real_difference = refinement.difference

    def logged_difference(*args, **kwargs):
        result = real_difference(*args, **kwargs)
        remainders.append(len(result.automaton.states))
        # flat remainders: each round subtracts from DFS numbers, never
        # from a product pair nested one level deeper per round
        assert all(isinstance(q, int) for q in result.automaton.states)
        return result

    monkeypatch.setattr(refinement, "difference", logged_difference)
    source = """
program two_phase(x, p):
    while x > 0:
        if p == 0:
            x := x + 1
            p := 1
        else:
            x := x - 2
"""
    result = prove_termination_source(
        source, AnalysisConfig(interpolant_modules=True, timeout=60.0))
    assert result.verdict is Verdict.TERMINATING
    companion_rounds = [r for r in result.stats.rounds
                        if r.companion_stage is not None]
    assert companion_rounds, "interp rounds must record their companion"
    for round_stats in companion_rounds:
        assert round_stats.companion_stage == "finite"
        # both subtractions are the round's work
        assert round_stats.counters["difference.calls"] >= 2
    # each round ends with the remainder of its last subtraction: the
    # companion's, when it has one
    calls = 0
    for round_stats in result.stats.rounds:
        calls += round_stats.counters.get("difference.calls", 0)
        assert round_stats.difference_states == remainders[calls - 1]
    assert calls == len(remainders)


def _engine_run(source: str, config: AnalysisConfig, memo: bool) -> tuple:
    """One bare engine run, inside the solver memo or not: everything
    the memo must leave unchanged, then the computed eliminations."""
    from contextlib import nullcontext

    from repro.core.refinement import RefinementEngine
    from repro.logic.memo import use_memo
    from repro.obs import metrics as obs_metrics
    from repro.program.cfg import build_cfg
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry), \
            (use_memo() if memo else nullcontext()):
        result = RefinementEngine(build_cfg(parse_program(source)),
                                  config).run()
    counters = registry.snapshot()["counters"]
    return (result.verdict, result.reason,
            [(m.stage, len(m.automaton.states), len(m.automaton.transitions))
             for m in result.modules],
            {name: value for name, value in counters.items()
             if not name.startswith("logic.")
             and not name.endswith("memo_hits")},
            counters.get("logic.fm.eliminations"))


# The eliminations each program computes inside the memo.  gcd_like
# asks for the postcondition of set-equal preconditions in two atom
# orders: a memo keyed on LinConj values computes 11 more eliminations
# on it.
MEMO_ELIMINATIONS = {"sort": 287, "two_phase": 303, "count_up": 14,
                     "gcd_like": 482}


@pytest.mark.parametrize("name", list(MEMO_ELIMINATIONS))
def test_hoare_memo_changes_no_verdict_round_or_count(name):
    from repro.benchgen import program_suite
    config = AnalysisConfig(timeout=120.0)
    if name == "sort":
        source = SORT
    else:
        (source,) = [b.source for b in program_suite() if b.name == name]
        if name == "two_phase":
            config = config.with_(max_refinements=8)
    bare = _engine_run(source, config, memo=False)
    memoized = _engine_run(source, config, memo=True)
    assert bare[3]["refinement.rounds"] > 0
    assert bare[:4] == memoized[:4]
    # the memo answers repeated questions; FM still computes every
    # distinct elimination the run asks for
    assert memoized[4] == MEMO_ELIMINATIONS[name]
