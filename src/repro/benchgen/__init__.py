"""Workload generators for the evaluation benchmarks.

The paper evaluates on the SV-Comp Termination category (1375
non-recursive C programs) and on 1159 SDBAs harvested from Ultimate
Automizer runs over them.  Neither artifact is shippable here, so this
package builds in-kind substitutes (see DESIGN.md, "Substitutions"):

- :mod:`repro.benchgen.programs` -- a parameterized suite of integer
  programs covering the loop shapes that suite exercises (simple
  countdowns, nested loops, branching loops, phase changes,
  nondeterminism, infeasible branches, and nonterminating members),
- :mod:`repro.benchgen.sdba_corpus` -- SDBAs harvested from our own
  refinement runs plus seeded random SDBAs, the Figure 4 corpus.
"""

from repro.benchgen.programs import (BenchProgram, program_suite,
                                     suite_by_name)
from repro.benchgen.sdba_corpus import (harvest_sdbas, random_sdba,
                                        sdba_corpus)
from repro.benchgen.scaled import (interleaved_counters, nested_loops,
                                   phase_chain,
                                   sequential_loops)

__all__ = [
    "BenchProgram", "program_suite", "suite_by_name",
    "harvest_sdbas", "random_sdba", "sdba_corpus",
    "interleaved_counters", "nested_loops", "phase_chain",
    "sequential_loops",
]
