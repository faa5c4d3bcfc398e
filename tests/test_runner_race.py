"""Racing-portfolio semantics: first conclusive verdict wins."""

from __future__ import annotations

import time

import pytest

from repro.core.api import DEFAULT_PORTFOLIO, prove_termination_portfolio
from repro.core.config import AnalysisConfig
from repro.core.refinement import Verdict
from repro.program.parser import parse_program
from repro.runner._testing import echo_task
from repro.runner.pool import WorkerPool
from repro.runner.race import race_portfolio, run_race

COUNTDOWN = """
program t(x):
    while x > 0:
        x := x - 1
"""

DIVERGING = """
program u(x):
    while x > 0:
        x := x + 1
"""


def test_diverging_attempt_loses_race_to_fast_one():
    """The satellite scenario: a deliberately diverging attempt (a
    worker that would run for an hour) loses to a fast conclusive one
    and is killed, so the race returns in interactive time."""
    pool = WorkerPool(workers=2, task=echo_task)
    if pool.inprocess:
        pytest.skip("multiprocessing unavailable")
    start = time.perf_counter()
    winner, outcomes = run_race(
        [{"name": "diverging", "delay": 3600.0},
         {"name": "fast", "value": 42}],
        pool, is_winner=lambda o: o.status == "ok")
    wall = time.perf_counter() - start
    assert wall < 30.0
    assert winner is not None and winner.payload["name"] == "fast"
    by_name = {o.payload["name"]: o for o in outcomes}
    assert by_name["diverging"].status == "cancelled"


def test_race_waits_past_inconclusive_attempts():
    """An UNKNOWN finishing first must not win: the racer keeps
    waiting for a conclusive verdict from the other configuration."""
    program = parse_program(DIVERGING)
    # check_nontermination=False makes the default stages give up fast
    # with UNKNOWN; the full config proves NONTERMINATING.
    blind = AnalysisConfig(check_nontermination=False, max_refinements=2)
    result = race_portfolio(program, (blind, AnalysisConfig()), timeout=60.0)
    assert result.verdict is Verdict.NONTERMINATING
    assert len(result.attempts) == 2


def test_race_conclusive_on_terminating_program():
    program = parse_program(COUNTDOWN)
    result = race_portfolio(program, DEFAULT_PORTFOLIO, timeout=60.0)
    assert result.verdict is Verdict.TERMINATING
    # the winner's full result came back (modules were pickled across)
    assert result.modules
    assert len(result.attempts) == 2
    assert all(a.total_seconds >= 0 for a in result.attempts)


def test_race_all_unknown_returns_most_informative_loser():
    program = parse_program(COUNTDOWN)
    # both configs exhaust a zero budget: cooperative timeout, UNKNOWN
    configs = (AnalysisConfig(timeout=0.0), AnalysisConfig(timeout=0.0))
    result = race_portfolio(program, configs, timeout=None)
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "timeout"
    assert len(result.attempts) == 2


def test_race_requires_configs():
    with pytest.raises(ValueError):
        race_portfolio(parse_program(COUNTDOWN), ())


def test_portfolio_parallel_mode():
    program = parse_program(COUNTDOWN)
    result = prove_termination_portfolio(program, parallel=True,
                                         timeout=60.0)
    assert result.verdict is Verdict.TERMINATING
    assert len(result.attempts) == len(DEFAULT_PORTFOLIO)


def test_portfolio_parallel_agrees_with_sequential_on_nonterm():
    program = parse_program(DIVERGING)
    sequential = prove_termination_portfolio(program, timeout=60.0)
    parallel = prove_termination_portfolio(program, parallel=True,
                                           timeout=60.0)
    assert parallel.verdict is sequential.verdict is Verdict.NONTERMINATING


def test_race_portfolio_accepts_source_text():
    result = race_portfolio(COUNTDOWN, (AnalysisConfig(),), timeout=60.0)
    assert result.verdict is Verdict.TERMINATING


def test_race_checkpoint_dir_persists_and_warm_starts(tmp_path):
    program = parse_program(COUNTDOWN)
    result = race_portfolio(program, DEFAULT_PORTFOLIO, timeout=60.0,
                            checkpoint_dir=str(tmp_path))
    assert result.verdict is Verdict.TERMINATING
    files = sorted(tmp_path.glob("checkpoint_*.jsonl"))
    assert files, "racing attempts left no durable checkpoints"
    # re-running the race's winner restores its rounds: the checkpoint
    # key ignores the attempt index, so it survives re-runs.  (A loser
    # may have been cancelled before saving anything.)
    winner, = (c for c in DEFAULT_PORTFOLIO
               if c.describe() == result.stats.config)
    again = prove_termination_portfolio(program, (winner,), timeout=60.0,
                                        checkpoint_dir=str(tmp_path))
    assert again.verdict is Verdict.TERMINATING
    assert again.stats.counter("checkpoint.rounds_restored") >= 1


def test_race_degraded_inprocess_pool():
    pool = WorkerPool(workers=1, inprocess=True, task_timeout=60.0)
    result = race_portfolio(parse_program(COUNTDOWN), DEFAULT_PORTFOLIO,
                            timeout=60.0, pool=pool)
    assert result.verdict is Verdict.TERMINATING
    # the sequential degradation still cancels the loser after a win
    assert result.attempts[1].gave_up_reason == "cancelled"
