"""Round-robin synchronized product of partial complements.

:class:`ModularComplement` combines the per-class partials of
:mod:`.partials` on the fly into one implicit BA recognizing the
complement of the input: a macro-state carries the deterministic
reachable subset ``pool`` (the running subset construction all partials
re-admit entrants from), one partial state per active class, and a
round-robin ``turn`` counter.

The counter is the standard counter degeneralization of the
product's generalized acceptance: at each macro-state the counter advances past every partial that is
accepting there, in order, starting from ``turn``; the macro-state is
accepting (and the counter wraps to 0) iff it advances past the last
partial.  A word is accepted iff on some branch every partial accepts
infinitely often -- i.e. no run of the input is trapped accepting in
*any* accepting component, which (since every accepting run of a BA is
eventually trapped in exactly one accepting SCC) is exactly
``w not in L(A)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

import repro.faults as _faults
from repro.automata.classify import is_complete
from repro.automata.complement.modular.analyze import (Condensation, SCCClass,
                                                       condensation)
from repro.automata.complement.modular.partials import build_partials
from repro.automata.gba import GBA, State, Symbol
from repro.core.budget import current_budget

#: Poll the deadline every this many macro-state expansions.
_DEADLINE_STRIDE = 64


@dataclass(frozen=True)
class ModularState:
    """Macro-state: subset pool x partial states x round-robin turn."""

    pool: frozenset[State]
    comps: tuple
    turn: int

    def __str__(self) -> str:
        pool = "{" + ",".join(sorted(map(str, self.pool))) + "}"
        comps = ", ".join(str(c) for c in self.comps)
        return f"({pool}; {comps}; turn={self.turn})"


class ModularComplement:
    """Mix-and-match complement of a complete BA (implicit, on the fly)."""

    KIND = "modular"

    def __init__(self, auto: GBA, cond: Condensation | None = None):
        if not auto.is_ba():
            raise ValueError("modular complementation expects a BA")
        if not is_complete(auto):
            raise ValueError("modular complementation expects a complete "
                             "automaton; call repro.automata.ops.complete")
        self._auto = auto
        self._cond = cond if cond is not None else condensation(auto)
        self._partials = build_partials(auto, self._cond)
        #: successor computations and the macro-states they returned;
        #: ``difference`` adds them to ``complement.modular.*`` per call
        self.expansions = 0
        self.macrostates = 0

    @property
    def component_counts(self) -> dict[str, int]:
        """Accepting components per partial kind, plus the inert rest.

        ``{"weak": .., "det": .., "rank": .., "inert": ..}`` -- the
        per-kind breakdown surfaced through ``RemovalStats`` and
        ``repro report``.
        """
        by_class = self._cond.counts()
        return {
            "weak": by_class.get(SCCClass.WEAK_ACCEPTING.value, 0),
            "det": by_class.get(SCCClass.DET_ACCEPTING.value, 0),
            "rank": by_class.get(SCCClass.GENERAL.value, 0),
            "inert": (by_class.get(SCCClass.TRIVIAL.value, 0)
                      + by_class.get(SCCClass.WEAK_REJECTING.value, 0)),
        }

    # -- ImplicitGBA protocol ------------------------------------------------

    @property
    def alphabet(self) -> frozenset:
        return self._auto.alphabet

    @property
    def acceptance_count(self) -> int:
        return 1

    def initial_states(self) -> list[ModularState]:
        pool = frozenset(self._auto.initial_states())
        comps = tuple(p.initial(pool) for p in self._partials)
        return [ModularState(pool, comps, 0)]

    def _advance(self, state: ModularState) -> int:
        """Degeneralization credit: first pending partial not accepting
        at ``state``, scanning from ``state.turn``."""
        j = state.turn
        while j < len(self._partials) and \
                self._partials[j].is_accepting(state.comps[j]):
            j += 1
        return j

    def accepting_sets_of(self, state: ModularState) -> frozenset[int]:
        if self._advance(state) == len(self._partials):
            return frozenset([0])
        return frozenset()

    def successors(self, state: ModularState,
                   symbol: Symbol) -> tuple[ModularState, ...]:
        """Computed on every call, with no memo: the difference's
        numbered product asks once per macro-state and symbol and keeps
        the answer."""
        if _faults._ACTIVE is not None:
            _faults.perturb("complement.modular")
        out = self._compute_successors(state, symbol)
        self.expansions += 1
        self.macrostates += len(out)
        if self.expansions % _DEADLINE_STRIDE == 0:
            budget = current_budget()
            if budget is not None:
                budget.check_deadline("modular-complement")
        return out

    def _compute_successors(self, state: ModularState,
                            symbol: Symbol) -> tuple[ModularState, ...]:
        pool2: set[State] = set()
        for q in state.pool:
            pool2 |= self._auto.successors(q, symbol)
        new_pool = frozenset(pool2)
        j = self._advance(state)
        turn2 = 0 if j == len(self._partials) else j
        per_partial = []
        for partial, comp in zip(self._partials, state.comps):
            nxt = partial.successors(comp, symbol, new_pool)
            if not nxt:
                return ()  # some partial's guess died: branch blocked
            per_partial.append(nxt)
        return tuple(ModularState(new_pool, combo, turn2)
                     for combo in _cartesian(*per_partial))

    def __repr__(self) -> str:
        kinds = ",".join(p.KIND for p in self._partials) or "none"
        return (f"ModularComplement(|Q|={len(self._auto.states)}, "
                f"partials=[{kinds}])")
