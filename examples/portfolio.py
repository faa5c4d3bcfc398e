#!/usr/bin/env python3
"""Portfolio analysis: the paper's configuration, then interpolants.

``prove_termination_portfolio`` runs the paper-faithful multi-stage
configuration first and falls back to interpolant-based infeasibility
modules (Ultimate-style interpolant automata) -- the two strategies
have complementary strengths.

Run:  python examples/portfolio.py
"""

from repro import AnalysisConfig, prove_termination, prove_termination_portfolio
from repro.program.parser import parse_program

# Terminating, but the default configuration diverges on it: every
# sampled lasso fixes the branch schedule, whose repetition is
# infeasible, and the stage-1 prefix modules remove one unrolling at a
# time.  Interpolant modules capture the parity argument at once.
TWO_PHASE = """
program two_phase(x, p):
    while x > 0:
        if p == 0:
            x := x + 1
            p := 1
        else:
            x := x - 2
"""


def main() -> None:
    program = parse_program(TWO_PHASE)

    plain = prove_termination(program, AnalysisConfig(timeout=5.0))
    print(f"default configuration:  {plain.verdict.value} "
          f"({plain.reason or 'done'}, {plain.stats.iterations} rounds)")

    result = prove_termination_portfolio(program, timeout=60.0)
    print(f"portfolio:              {result.verdict.value} "
          f"({result.stats.iterations} rounds, "
          f"config {result.stats.config})")
    assert result.verdict.value == "terminating"

    module = max(result.modules, key=lambda m: len(m.automaton.states))
    print(f"\nlargest certified module: stage={module.stage}, "
          f"|Q|={len(module.automaton.states)}, f(v) = {module.ranking}")


if __name__ == "__main__":
    main()
