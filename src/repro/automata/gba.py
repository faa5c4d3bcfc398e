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
from typing import (Callable, Hashable, Iterable, Mapping, Protocol, TypeVar,
                    runtime_checkable)

State = Hashable
Symbol = Hashable
T = TypeVar("T")

_NO_SETS: frozenset[int] = frozenset()
_FIRST_SET: frozenset[int] = frozenset((0,))


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
        alphabet = frozenset(alphabet)
        initial = frozenset(initial)
        trans: dict[tuple[State, Symbol], frozenset[State]] = {}
        found: set[State] = set(initial)
        for (source, symbol), targets in transitions.items():
            if symbol not in alphabet:
                raise ValueError(f"transition over unknown symbol {symbol!r}")
            targets = frozenset(targets)
            if targets:
                trans[(source, symbol)] = targets
                found.add(source)
                found |= targets
        if states is not None:
            found |= set(states)
        acc = tuple(frozenset(f) for f in acc_sets)
        for f in acc:
            missing = f - found
            if missing:
                raise ValueError(f"accepting states not in the automaton: {missing!r}")
        self._set(alphabet, trans, initial, acc, frozenset(found))

    @classmethod
    def _trusted(cls, alphabet: frozenset,
                 transitions: Mapping[tuple[State, Symbol], list[State]],
                 initial: Iterable[State],
                 acc_sets: Iterable[Iterable[State]],
                 states: Iterable[State]) -> "GBA":
        """A GBA from parts already known to be consistent, frozen as
        given: every symbol in ``alphabet``, every target list nonempty,
        and every state -- initial, source, target, accepting -- listed
        in ``states``.  Algorithm 1 builds its result this way; anything
        else goes through the validating constructor.

        Each target list is frozen once, into the iteration order that
        copying a set filled from the list in turn gives: the order the
        next difference's product reads the targets in.  A frozenset
        built from a list of 5 or more elements sizes its table
        differently, so those go through a set first."""
        auto = cls.__new__(cls)
        auto._set(alphabet,
                  {key: frozenset(targets if len(targets) < 5
                                  else set(targets))
                   for key, targets in transitions.items()},
                  frozenset(initial), tuple(frozenset(f) for f in acc_sets),
                  frozenset(states))
        return auto

    def _set(self, alphabet: frozenset,
             trans: dict[tuple[State, Symbol], frozenset[State]],
             initial: frozenset[State], acc: tuple[frozenset[State], ...],
             states: frozenset[State]) -> None:
        self._alphabet = alphabet
        self._initial = initial
        self._trans = trans
        self._states = states
        self._acc = acc
        #: Lazily built successor index: state -> ((symbol, target), ...)
        #: with symbols in sorted order.  Built once on first use; never
        #: invalidated -- a GBA is immutable after construction.
        self._out_index: dict[State, tuple[tuple[Symbol, State], ...]] | None = None
        #: Lazily built ``F(q)`` map of a GBA with k != 1 sets: state ->
        #: indices of the acceptance sets holding it, for states in at
        #: least one set.
        self._acc_index: dict[State, frozenset[int]] | None = None
        #: :meth:`derive`'s memo: function -> its value on this automaton.
        self._derived: dict[Callable[["GBA"], object], object] = {}

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
        if len(self._acc) == 1:
            # a BA needs no map: F(q) is {0} or empty
            return _FIRST_SET if state in self._acc[0] else _NO_SETS
        index = self._acc_index
        if index is None:
            index = self._build_acc_index()
        return index.get(state, _NO_SETS)

    def _build_acc_index(self) -> dict[State, frozenset[int]]:
        # Equal index sets are shared, so a GBA with many acceptance
        # sets keeps the map small, and a lookup allocates nothing.
        shared: dict[frozenset[int], frozenset[int]] = {}
        index = {}
        for state in self._states:
            key = frozenset([j for j, f in enumerate(self._acc) if state in f])
            if key:
                index[state] = shared.setdefault(key, key)
        self._acc_index = index
        return index

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

    def derive(self, fn: Callable[["GBA"], T]) -> T:
        """``fn(self)``, computed once per automaton: a GBA is immutable,
        so a fact derived from it (say, its SDBA split) never changes."""
        derived = self._derived
        if fn not in derived:
            derived[fn] = fn(self)
        return derived[fn]

    def known(self, fn: Callable[["GBA"], T]) -> T | None:
        """``fn(self)`` if :meth:`derive` already holds it, else None."""
        return self._derived.get(fn)

    def settle(self, fn: Callable[["GBA"], T], value: T) -> None:
        """Record ``value`` as ``fn(self)`` for :meth:`derive`, when the
        code that built this automaton from another knows the fact from
        that one."""
        self._derived[fn] = value

    def is_ba(self) -> bool:
        return len(self._acc) == 1

    @property
    def accepting(self) -> frozenset[State]:
        """The single acceptance set of a BA."""
        if len(self._acc) != 1:
            raise ValueError(f"expected a BA (k=1), found k={len(self._acc)}")
        return self._acc[0]

    def __repr__(self) -> str:
        return (f"GBA(|Q|={len(self._states)}, |Sigma|={len(self._alphabet)}, "
                f"|delta|={self.num_transitions()}, k={len(self._acc)})")


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
