"""The one per-run memo of the exact linear-arithmetic substrate.

Inside :func:`use_memo` (one analysis run, see
:func:`repro.core.api.prove_termination`, and one firewall screen, see
:func:`repro.core.firewall.screen`) :func:`ask` answers a repeated
question from its first answer.  Its questions, each keyed by a tuple
whose first entry names its kind:

- ``("fm", atoms, names)`` -- a Fourier--Motzkin elimination
  (:func:`repro.logic.fourier_motzkin.eliminate`);
- ``("sp", stmt, atoms)`` -- a strongest postcondition on a conjunction,
  ``("sp-pred", pre, stmt, oldrnk_update)`` -- one on a predicate after
  the optional ``oldrnk := rank`` update, and ``("hoare", pre, stmt,
  post, oldrnk_update)`` -- a Hoare triple (:mod:`repro.program.statements`);
- ``("lp", atoms, variables)`` -- the Farkas ranking LP
  (:mod:`repro.ranking.synthesis`).

The kind is part of the key because an FM query and a Farkas query have
the same shape.  Conjunctions, predicates and elimination orders are
keyed on their atoms and names in order: a ``LinConj`` compares as a
set of atoms, but FM's output form depends on the order, so a value key
could hand back an equivalent but syntactically different answer.

For every kind:

- a question that raises (budget cap, deadline, injected fault) is
  never stored;
- a hit returns the stored answer itself, so a caller that hands out a
  mutable answer stores an immutable form;
- each hit ticks the caller's counter (``logic.fm.memo_hits``,
  ``logic.sp.memo_hits``, ``logic.hoare.memo_hits``,
  ``ranking.lp_memo_hits``).

The fault rule: a question whose computation reaches a fault site
(:mod:`repro.faults`) is, while a fault plan is active, computed every
time and neither stored nor served -- a flipped answer must not be
stored, and a stored honest answer must not skip the site.  The
postcondition, Hoare-triple and Farkas questions reach
``solver.entailment`` and ``solver.lp``; FM reaches no fault site, so
its answers are stored and served under a plan too (``faults=False``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

import repro.faults as _faults
from repro.obs import metrics as _metrics

_T = TypeVar("_T")

#: The active memo: question key -> first answer.  ``None`` outside
#: :func:`use_memo`.
_MEMO: dict[tuple, object] | None = None
_MISS = object()


@contextmanager
def use_memo() -> Iterator[dict]:
    """Scope a fresh, empty memo; yields it."""
    global _MEMO
    previous = _MEMO
    _MEMO = {}
    try:
        yield _MEMO
    finally:
        _MEMO = previous


def ask(key: tuple, counter: str, compute: Callable[[], _T], *,
        faults: bool = True) -> _T:
    """The memo's answer to ``key``, computing and storing it on a miss.

    ``faults`` says whether ``compute`` reaches a fault site; see the
    fault rule above.
    """
    memo = _MEMO
    if memo is None or (faults and _faults._ACTIVE is not None):
        return compute()
    hit = memo.get(key, _MISS)
    if hit is _MISS:
        hit = memo[key] = compute()
    else:
        _metrics.inc(counter)
    return hit  # type: ignore[return-value]
