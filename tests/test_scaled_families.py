"""Tests for the parameterized scaling families."""

import pytest

from repro import AnalysisConfig, prove_termination
from repro.benchgen.scaled import (interleaved_counters, nested_loops,
                                   phase_chain,
                                   sequential_loops)
from repro.program.cfg import build_cfg
from repro.program.interp import Interpreter


@pytest.mark.parametrize("generator", [interleaved_counters, sequential_loops,
                                       nested_loops, phase_chain])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_families_parse_and_terminate_concretely(generator, k):
    bench = generator(k)
    program = bench.parse()
    cfg = build_cfg(program)
    initial = {name: 3 for name in program.variables}
    run = Interpreter(cfg, seed=k).run(initial, fuel=100_000)
    assert run.terminated, bench.name


@pytest.mark.parametrize("generator", [interleaved_counters, sequential_loops,
                                       nested_loops, phase_chain])
def test_families_reject_nonpositive_size(generator):
    with pytest.raises(ValueError):
        generator(0)


@pytest.mark.parametrize("k", [1, 2])
def test_small_members_provable(k):
    config = AnalysisConfig(timeout=20.0)
    for generator in (interleaved_counters, sequential_loops, phase_chain):
        bench = generator(k)
        result = prove_termination(bench.parse(), config)
        assert result.verdict.value == "terminating", bench.name
