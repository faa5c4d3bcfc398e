"""Rank-based complementation of general nondeterministic BAs.

The Kupferman--Vardi level-ranking construction: a macro-state is a pair
``(f, O)`` where ``f`` maps each currently reachable state to a rank in
``{0..2n}`` (accepting states get even ranks) and ``O`` tracks the
owing states with even rank since the last breakpoint.  A word is in
the complement iff some ranking run reaches ``O = {}`` infinitely often.

This is the expensive last resort of the multi-stage approach (stage-4
``M_nondet`` modules); its cost -- ranks multiply, so successors are
enumerated over a product of rank ranges -- is exactly why the paper
works so hard to avoid it.  ``max_rank`` can cap the rank domain; by
default the minimum of the classical ``2(n - |F|)`` bound and the
elevator-aware per-SCC bound (see
:func:`repro.automata.classify.elevator_rank_bound`) is used, both of
which preserve completeness of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from repro.automata.classify import is_complete
from repro.automata.gba import GBA, State, Symbol


@dataclass(frozen=True)
class RankState:
    """A level ranking: ``ranks`` maps live states to ranks; ``owing``
    is the O set of the breakpoint construction."""

    ranks: tuple[tuple[State, int], ...]
    owing: frozenset[State]

    def rank_map(self) -> dict[State, int]:
        return dict(self.ranks)

    def __str__(self) -> str:
        inner = ",".join(f"{q}:{r}" for q, r in self.ranks)
        o = ",".join(sorted(map(str, self.owing)))
        return f"<{inner}|O={{{o}}}>"


def _make(ranks: dict[State, int], owing: Iterable[State]) -> RankState:
    items = tuple(sorted(ranks.items(), key=lambda kv: repr(kv[0])))
    return RankState(items, frozenset(owing))


class RankComplement:
    """On-the-fly rank-based complement of a complete BA."""

    KIND = "rank-based"

    def __init__(self, auto: GBA, max_rank: int | None = None):
        if not auto.is_ba():
            raise ValueError("rank-based complementation expects a BA")
        if not is_complete(auto):
            raise ValueError("complete the BA before complementing")
        self._auto = auto
        self._f = auto.accepting
        # 2(n - |F|) ranks always suffice (odd ranks only ever label
        # F-free vertices of the run DAG); the elevator-aware per-SCC
        # bound is tighter whenever nondeterminism is confined to weak
        # or internally deterministic components, and never worse.
        if max_rank is None:
            from repro.automata.classify import elevator_rank_bound
            self._max_rank = elevator_rank_bound(auto)
        else:
            self._max_rank = max_rank
        #: successor computations and the rankings they returned;
        #: ``difference`` adds them to ``complement.<KIND>.*`` per call
        self.expansions = 0
        self.macrostates = 0

    @property
    def alphabet(self) -> frozenset:
        return self._auto.alphabet

    @property
    def acceptance_count(self) -> int:
        return 1

    def initial_states(self) -> list[RankState]:
        ranks = {q: self._max_rank for q in self._auto.initial_states()}
        return [_make(ranks, ())]

    def accepting_sets_of(self, state: RankState) -> frozenset[int]:
        return frozenset([0]) if not state.owing else frozenset()

    def successors(self, state: RankState, symbol: Symbol) -> tuple[RankState, ...]:
        """Computed on every call, with no memo: the difference's
        numbered product asks once per ranking and symbol and keeps the
        answer."""
        out = tuple(self._compute_successors(state, symbol))
        self.expansions += 1
        self.macrostates += len(out)
        return out

    def _compute_successors(self, state: RankState, symbol: Symbol) -> Iterator[RankState]:
        ranks = state.rank_map()
        bounds: dict[State, int] = {}
        for q, r in ranks.items():
            for q2 in self._auto.successors(q, symbol):
                bounds[q2] = min(bounds.get(q2, self._max_rank), r)
        targets = sorted(bounds, key=repr)
        choices: list[list[int]] = []
        for q2 in targets:
            top = bounds[q2]
            allowed = [r for r in range(top + 1)
                       if q2 not in self._f or r % 2 == 0]
            if not allowed:
                return
            choices.append(allowed)
        owed_targets: set[State] = set()
        for q in state.owing:
            owed_targets |= set(self._auto.successors(q, symbol))
        for combo in product(*choices):
            g = dict(zip(targets, combo))
            evens = {q2 for q2, r in g.items() if r % 2 == 0}
            if state.owing:
                owing2 = owed_targets & evens
            else:
                owing2 = evens
            yield _make(g, owing2)
