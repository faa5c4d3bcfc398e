"""The e2e ``automata`` workload replays the engine's difference flags.

``benchmarks/e2e/worker.py::subtract_flags`` rebuilds, from a config,
the keyword arguments ``RefinementEngine`` passes to ``difference``.
If the engine stops passing a flag (or starts passing a new one), the
replayed chains no longer measure what the analysis runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

import worker  # noqa: E402
from repro.benchgen.programs import suite_by_name  # noqa: E402
from repro.core import refinement  # noqa: E402
from repro.core.api import prove_termination_source  # noqa: E402
from repro.core.config import AnalysisConfig  # noqa: E402
from repro.core.refinement import Verdict  # noqa: E402

FLIPPED = AnalysisConfig(lazy_complement=False, subsumption=False,
                         via_semidet=True, modular_complement=False,
                         kernel_cache=False, simulation_reduction=False,
                         difference_state_limit=100_000)


@pytest.mark.parametrize("config", [AnalysisConfig(), FLIPPED],
                         ids=["default", "flipped"])
def test_engine_passes_exactly_the_replayed_flags(monkeypatch, config):
    calls = []
    real = refinement.difference

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(refinement, "difference", spy)
    result = prove_termination_source(suite_by_name()["count_down"].source,
                                      config)
    assert result.verdict is Verdict.TERMINATING
    assert calls
    expected = worker.subtract_flags(config)
    for kwargs in calls:
        assert {k: v for k, v in kwargs.items() if k != "deadline"} \
            == expected
