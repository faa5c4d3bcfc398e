"""Explicit and implicit generalized Buechi automata.

A GBA ``(Q, delta, Q_I, {F_1..F_k})`` (Section 2 of the paper) uses
*state-based* acceptance: a run is accepting iff it visits every ``F_j``
infinitely often.  ``k = 0`` is allowed and means every infinite run is
accepting (the natural unit of intersection); a BA is the special case
``k = 1``.

States and symbols may be arbitrary hashable values -- program
statements serve as symbols, and product/macro states nest freely.

The :class:`ImplicitGBA` interface is the on-the-fly protocol used by
the emptiness check and the difference construction: an automaton only
needs to enumerate initial states and successors; its state space is
explored lazily and never has to exist in memory as a whole.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Protocol, runtime_checkable

State = Hashable
Symbol = Hashable


@runtime_checkable
class ImplicitGBA(Protocol):
    """On-the-fly GBA interface (state-based generalized acceptance)."""

    @property
    def alphabet(self) -> frozenset:
        """The (finite) input alphabet."""
        ...

    @property
    def acceptance_count(self) -> int:
        """Number of acceptance sets ``k``."""
        ...

    def initial_states(self) -> Iterable[State]:
        ...

    def successors(self, state: State, symbol: Symbol) -> Iterable[State]:
        ...

    def accepting_sets_of(self, state: State) -> frozenset[int]:
        """Indices ``j`` (0-based) with ``state in F_j`` -- ``F(q)`` in the paper."""
        ...


class GBA:
    """An explicit generalized Buechi automaton."""

    def __init__(self,
                 alphabet: Iterable[Symbol],
                 transitions: Mapping[tuple[State, Symbol], Iterable[State]],
                 initial: Iterable[State],
                 acc_sets: Iterable[Iterable[State]] = (),
                 states: Iterable[State] | None = None):
        self._alphabet = frozenset(alphabet)
        self._initial = frozenset(initial)
        self._trans: dict[tuple[State, Symbol], frozenset[State]] = {}
        found: set[State] = set(self._initial)
        for (source, symbol), targets in transitions.items():
            if symbol not in self._alphabet:
                raise ValueError(f"transition over unknown symbol {symbol!r}")
            targets = frozenset(targets)
            if targets:
                self._trans[(source, symbol)] = targets
                found.add(source)
                found |= targets
        if states is not None:
            found |= set(states)
        self._states = frozenset(found)
        self._acc: tuple[frozenset[State], ...] = tuple(
            frozenset(f) for f in acc_sets)
        for f in self._acc:
            missing = f - self._states
            if missing:
                raise ValueError(f"accepting states not in the automaton: {missing!r}")
        #: Lazily built successor index: state -> ((symbol, target), ...)
        #: with symbols in sorted order.  Built once on first use; never
        #: invalidated -- a GBA is immutable after construction.
        self._out_index: dict[State, tuple[tuple[Symbol, State], ...]] | None = None

    # -- ImplicitGBA protocol -----------------------------------------------

    @property
    def alphabet(self) -> frozenset:
        return self._alphabet

    @property
    def acceptance_count(self) -> int:
        return len(self._acc)

    def initial_states(self) -> frozenset[State]:
        return self._initial

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        return self._trans.get((state, symbol), frozenset())

    def accepting_sets_of(self, state: State) -> frozenset[int]:
        return frozenset(j for j, f in enumerate(self._acc) if state in f)

    # -- explicit-only accessors -----------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        return self._states

    @property
    def acc_sets(self) -> tuple[frozenset[State], ...]:
        return self._acc

    @property
    def transitions(self) -> Mapping[tuple[State, Symbol], frozenset[State]]:
        """Read-only view of the transition map (no per-call copy)."""
        return MappingProxyType(self._trans)

    def num_transitions(self) -> int:
        return sum(len(t) for t in self._trans.values())

    def _build_out_index(self) -> dict[State, tuple[tuple[Symbol, State], ...]]:
        grouped: dict[State, list[tuple[Symbol, State]]] = {}
        for (source, symbol), targets in self._trans.items():
            bucket = grouped.setdefault(source, [])
            for target in targets:
                bucket.append((symbol, target))
        index = {source: tuple(sorted(edges, key=lambda e: str(e[0])))
                 for source, edges in grouped.items()}
        self._out_index = index
        return index

    def post(self, state: State) -> frozenset[State]:
        """All successors of ``state`` over any symbol."""
        index = self._out_index
        if index is None:
            index = self._build_out_index()
        return frozenset(target for _, target in index.get(state, ()))

    def edges_from(self, state: State) -> tuple[tuple[Symbol, State], ...]:
        """Outgoing ``(symbol, target)`` edges, symbols in sorted order.

        Served from the lazily built per-state successor index, so a
        traversal never re-scans (or re-sorts) the whole alphabet per
        state the way a naive ``for symbol in alphabet`` loop does.
        """
        index = self._out_index
        if index is None:
            index = self._build_out_index()
        return index.get(state, ())

    def is_ba(self) -> bool:
        return len(self._acc) == 1

    @property
    def accepting(self) -> frozenset[State]:
        """The single acceptance set of a BA."""
        if len(self._acc) != 1:
            raise ValueError(f"expected a BA (k=1), found k={len(self._acc)}")
        return self._acc[0]

    # -- construction helpers --------------------------------------------------

    def map_states(self, fn) -> "GBA":
        """Apply a state-renaming bijection."""
        trans = {(fn(q), a): [fn(t) for t in targets]
                 for (q, a), targets in self._trans.items()}
        return GBA(self._alphabet, trans, [fn(q) for q in self._initial],
                   [[fn(q) for q in f] for f in self._acc],
                   states=[fn(q) for q in self._states])

    def __repr__(self) -> str:
        return (f"GBA(|Q|={len(self._states)}, |Sigma|={len(self._alphabet)}, "
                f"|delta|={self.num_transitions()}, k={len(self._acc)})")


class CachedImplicitGBA:
    """Memoizing view of an :class:`ImplicitGBA` (shared successor cache).

    Generalizes the memoization hand-rolled in the NCSB constructions
    (``_NCSBBase.successors``): every protocol query is answered once
    from the wrapped automaton and then served from per-state caches.
    The wrapper also exposes :meth:`edges_from`, the per-state sorted
    outgoing-edge list used by Algorithm 1, so the exploration never
    re-sorts the alphabet per visited state.

    Invariants: caches are filled lazily and never invalidated -- the
    wrapped automaton must be immutable after construction (true for
    every automaton in this codebase).  ``cache_hits``/``cache_misses``
    count successor lookups, a :meth:`successors` set or an
    :meth:`edges_from` list (a miss fills the entry, a hit re-reads
    it), and are threaded into
    :class:`~repro.automata.emptiness.RemovalStats` by ``difference``.
    """

    def __init__(self, inner: ImplicitGBA):
        self._inner = inner
        self._alphabet = frozenset(inner.alphabet)
        self._sorted_alphabet: tuple[Symbol, ...] = tuple(
            sorted(self._alphabet, key=str))
        self._acceptance_count = inner.acceptance_count
        self._initial: tuple[State, ...] | None = None
        self._succ: dict[tuple[State, Symbol], tuple[State, ...]] = {}
        self._acc_of: dict[State, frozenset[int]] = {}
        self._edges: dict[State, tuple[tuple[Symbol, State], ...]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def inner(self) -> ImplicitGBA:
        return self._inner

    # -- ImplicitGBA protocol -----------------------------------------------

    @property
    def alphabet(self) -> frozenset:
        return self._alphabet

    @property
    def acceptance_count(self) -> int:
        return self._acceptance_count

    def initial_states(self) -> tuple[State, ...]:
        if self._initial is None:
            self._initial = tuple(self._inner.initial_states())
        return self._initial

    def successors(self, state: State, symbol: Symbol) -> tuple[State, ...]:
        key = (state, symbol)
        cached = self._succ.get(key)
        if cached is None:
            self.cache_misses += 1
            cached = tuple(self._inner.successors(state, symbol))
            self._succ[key] = cached
        else:
            self.cache_hits += 1
        return cached

    def accepting_sets_of(self, state: State) -> frozenset[int]:
        cached = self._acc_of.get(state)
        if cached is None:
            cached = frozenset(self._inner.accepting_sets_of(state))
            self._acc_of[state] = cached
        return cached

    # -- successor index ---------------------------------------------------------

    def edges_from(self, state: State) -> tuple[tuple[Symbol, State], ...]:
        """Outgoing ``(symbol, target)`` edges, symbols in sorted order.

        Built straight from the wrapped automaton, bypassing the
        per-``(state, symbol)`` memo of :meth:`successors`: a traversal
        asks for each state's edges once, so that memo would only grow.
        Counts one miss per list built and one hit per re-read.
        """
        cached = self._edges.get(state)
        if cached is None:
            self.cache_misses += 1
            successors = self._inner.successors
            cached = tuple([(symbol, target)
                            for symbol in self._sorted_alphabet
                            for target in successors(state, symbol)])
            self._edges[state] = cached
        else:
            self.cache_hits += 1
        return cached

    def __repr__(self) -> str:
        return (f"CachedImplicitGBA({self._inner!r}, "
                f"hits={self.cache_hits}, misses={self.cache_misses})")


def ba(alphabet: Iterable[Symbol],
       transitions: Mapping[tuple[State, Symbol], Iterable[State]],
       initial: Iterable[State],
       accepting: Iterable[State],
       states: Iterable[State] | None = None) -> GBA:
    """Convenience constructor for a plain BA (one acceptance set)."""
    return GBA(alphabet, transitions, initial, [accepting], states=states)


def materialize(auto: ImplicitGBA, *, limit: int | None = None) -> GBA:
    """Breadth-first materialization of the reachable part of an implicit GBA.

    ``limit`` bounds the number of explored states; exceeding it raises
    :class:`StateLimitExceeded` (the budget guard of the refinement loop).
    """
    initial = list(auto.initial_states())
    seen: set[State] = set(initial)
    queue: deque[State] = deque(initial)
    transitions: dict[tuple[State, Symbol], set[State]] = {}
    while queue:
        state = queue.popleft()
        for symbol in auto.alphabet:
            targets = frozenset(auto.successors(state, symbol))
            if targets:
                transitions[(state, symbol)] = set(targets)
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    if limit is not None and len(seen) > limit:
                        raise StateLimitExceeded(limit)
                    queue.append(target)
    acc: list[set[State]] = [set() for _ in range(auto.acceptance_count)]
    for state in seen:
        for j in auto.accepting_sets_of(state):
            acc[j].add(state)
    return GBA(auto.alphabet, transitions, initial, acc, states=seen)


class StateLimitExceeded(RuntimeError):
    """The exploration budget of :func:`materialize` was exhausted."""

    def __init__(self, limit: int):
        super().__init__(f"state limit of {limit} exceeded")
        self.limit = limit
