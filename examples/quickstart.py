#!/usr/bin/env python3
"""Quickstart: prove termination of the paper's running example.

The ``sort`` program (Figure 2 of the paper) has a nested loop whose
inner bound depends on the outer counter.  The analysis decomposes its
behaviors into certified modules -- each a Buechi automaton bundled
with a ranking function and a rank certificate -- until every infinite
path is covered by some module's termination argument.

Run:  python examples/quickstart.py
"""

from repro import AnalysisConfig, prove_termination_source

SORT = """
program sort(i, j):
    while i > 0:
        j := 1
        while j < i:
            j := j + 1
        i := i - 1
"""


def main() -> None:
    result = prove_termination_source(SORT, AnalysisConfig())
    print(f"verdict: {result.verdict.value}")
    print(f"modules: {len(result.modules)}")
    for k, module in enumerate(result.modules):
        auto = module.automaton
        print(f"  module {k}: stage={module.stage}  "
              f"|Q|={len(auto.states)}  f(v) = {module.ranking}")
        print(f"    generalized from: {module.source_word}")
    print()
    print("refinement rounds:")
    for rnd in result.stats.rounds:
        # the round's complement class is the difference.by_kind.<kind>
        # counter it ticked
        kinds = [name.split(".")[2] for name in rnd.counters
                 if name.startswith("difference.by_kind.")
                 and name.count(".") == 2]
        print(f"  {rnd.proof_kind:16s} -> {rnd.stage or '-':7s} "
              f"(difference: {rnd.difference_states} states, "
              f"complement: {', '.join(kinds) or '-'})")
    print()
    print(result.summary())
    assert result.verdict.value == "terminating"


if __name__ == "__main__":
    main()
