"""Omega-automata substrate: (generalized) Buechi automata and algorithms.

The package provides both *explicit* automata (:class:`GBA`) and an
*implicit* on-the-fly interface (:class:`ImplicitGBA`), mirroring the
paper's Section 4 optimization 1: complements and products are explored
lazily, and only the useful part is ever materialized.

Modules:

- :mod:`repro.automata.gba` -- explicit GBA/BA structures + materialize,
- :mod:`repro.automata.ops` -- completion, union and the on-the-fly
  product,
- :mod:`repro.automata.classify` -- finite-trace / DBA / SDBA detection
  and SDBA normalization (Section 2),
- :mod:`repro.automata.words` -- ultimately periodic words ``u v^w`` and
  membership testing,
- :mod:`repro.automata.emptiness` -- Algorithm 1 (modified
  Gaiser--Schwoon), the one Tarjan SCC search, lasso extraction and a
  naive emptiness reference,
- :mod:`repro.automata.complement` -- the four complementation
  procedures of the multi-stage approach,
- :mod:`repro.automata.difference` -- the on-the-fly difference of a GBA
  and a BA with subsumption pruning (Sections 4 and 6),
- :mod:`repro.automata.simulation` -- direct simulation and
  simulation quotienting (Section 6.1),
- :mod:`repro.automata.semidet` -- semi-determinization (BA -> SDBA),
- :mod:`repro.automata.io` -- HOA and Graphviz DOT serialization.
"""

from repro.automata.gba import GBA, ImplicitGBA, materialize
from repro.automata.words import UPWord
from repro.automata.ops import complete, union
from repro.automata.classify import (is_complete, is_deterministic,
                                     is_finite_trace, is_semideterministic,
                                     normalize_sdba, sdba_parts)
from repro.automata.emptiness import (find_accepting_lasso, is_empty,
                                      remove_useless)
from repro.automata.difference import difference
from repro.automata.simulation import direct_simulation, quotient
from repro.automata.semidet import semi_determinize
from repro.automata.io import from_hoa, to_dot, to_hoa

__all__ = [
    "GBA", "ImplicitGBA", "materialize",
    "UPWord",
    "complete", "union",
    "is_complete", "is_deterministic", "is_finite_trace",
    "is_semideterministic", "normalize_sdba", "sdba_parts",
    "find_accepting_lasso", "is_empty", "remove_useless",
    "difference",
    "direct_simulation", "quotient",
    "semi_determinize",
    "from_hoa", "to_dot", "to_hoa",
]
