"""Buechi complementation procedures, one per module class.

The multi-stage approach (Section 3) produces modules in classes of
increasing complementation cost; this package provides a procedure for
each:

- :mod:`repro.automata.complement.finite_trace` -- O(1)-space complement
  of finite-trace BAs (``w . Sigma^w``),
- :mod:`repro.automata.complement.dba` -- Kurshan's O(n) complement of
  deterministic BAs,
- :mod:`repro.automata.complement.ncsb` -- NCSB-Original (Definition
  5.1) and NCSB-Lazy (Section 5.3) for semideterministic BAs, exposed as
  on-the-fly implicit automata,
- :mod:`repro.automata.complement.rank_based` -- rank-based complement
  of general nondeterministic BAs,
- :mod:`repro.automata.complement.modular` -- per-SCC mix-and-match
  decomposition: partial complements per accepting-SCC class, combined
  on the fly in a round-robin product.

:func:`complement` dispatches on the recognized class of the input.
"""

from repro.automata.complement.finite_trace import complement_finite_trace
from repro.automata.complement.dba import complement_dba
from repro.automata.complement.ncsb import (MacroState, NCSBLazy,
                                            NCSBOriginal, subsumes,
                                            subsumes_b)
from repro.automata.complement.rank_based import RankComplement
from repro.automata.complement.modular import (Condensation, ModularComplement,
                                               SCCClass, condensation)
from repro.automata.complement.dispatch import (ComplementKind, classify_kind,
                                                complement, implicit_complement,
                                                kind_applies)

__all__ = [
    "complement_finite_trace",
    "complement_dba",
    "MacroState", "NCSBOriginal", "NCSBLazy", "subsumes", "subsumes_b",
    "RankComplement",
    "SCCClass", "Condensation", "condensation", "ModularComplement",
    "ComplementKind", "classify_kind", "complement", "implicit_complement",
    "kind_applies",
]
