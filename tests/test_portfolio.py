"""The configuration portfolio: configs run in order, first verdict wins."""

from __future__ import annotations

from repro.core.api import DEFAULT_PORTFOLIO, prove_termination_portfolio
from repro.core.config import AnalysisConfig
from repro.core.refinement import Verdict
from repro.program.parser import parse_program

COUNTDOWN = """
program t(x):
    while x > 0:
        x := x - 1
"""


def test_portfolio_accepts_source_text():
    result = prove_termination_portfolio(COUNTDOWN, (AnalysisConfig(),),
                                         timeout=60.0)
    assert result.verdict is Verdict.TERMINATING


def test_portfolio_all_unknown_returns_last_attempt():
    # both configs exhaust a zero budget: cooperative timeout, UNKNOWN
    configs = (AnalysisConfig(timeout=0.0), AnalysisConfig(timeout=0.0))
    result = prove_termination_portfolio(parse_program(COUNTDOWN), configs)
    assert result.verdict is Verdict.UNKNOWN
    assert result.reason == "timeout"
    assert len(result.attempts) == 2
    assert result.attempts[-1] is result.stats


def test_portfolio_checkpoint_dir_persists_and_warm_starts(tmp_path):
    result = prove_termination_portfolio(COUNTDOWN, DEFAULT_PORTFOLIO,
                                         timeout=60.0,
                                         checkpoint_dir=str(tmp_path))
    assert result.verdict is Verdict.TERMINATING
    assert sorted(tmp_path.glob("checkpoint_*.jsonl")), \
        "the portfolio's attempt left no durable checkpoint"
    # the key is (program, config, code version) without the budget, so
    # a re-run of the same portfolio under another budget restores it
    again = prove_termination_portfolio(COUNTDOWN, DEFAULT_PORTFOLIO,
                                        timeout=30.0,
                                        checkpoint_dir=str(tmp_path))
    assert again.verdict is Verdict.TERMINATING
    assert again.stats.counter("checkpoint.rounds_restored") >= 1
