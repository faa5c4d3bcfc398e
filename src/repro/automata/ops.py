"""Basic operations on (generalized) Buechi automata.

Completion and the on-the-fly GBA intersection, over pairs or over
ints numbered on discovery.
"""

from __future__ import annotations

from typing import Iterable

from repro.automata.gba import GBA, ImplicitGBA, State, Symbol

#: Canonical sink state used by :func:`complete`.
SINK = "__sink__"


def complete(auto: GBA, alphabet: Iterable[Symbol] | None = None,
             sink: State = SINK) -> GBA:
    """Make the automaton complete (total transition function).

    Optionally extends the alphabet first (used to lift a module over
    the statements of ``u v^w`` to the full program alphabet before
    complementation).  The sink is non-accepting, so completion
    preserves the language.
    """
    sigma = frozenset(auto.alphabet if alphabet is None else alphabet)
    if not sigma >= auto.alphabet:
        raise ValueError("the target alphabet must contain the automaton's")
    fresh = 0
    while sink in auto.states:  # e.g. completing an already-completed BA
        sink = (SINK, fresh)
        fresh += 1
    transitions: dict[tuple[State, Symbol], set[State]] = {
        key: set(targets) for key, targets in auto.transitions.items()}
    need_sink = False
    for state in auto.states:
        for symbol in sigma:
            if not transitions.get((state, symbol)):
                transitions[(state, symbol)] = {sink}
                need_sink = True
    if not need_sink:
        # Even when nothing is missing, return a fresh automaton: callers
        # treat the result as their own copy, and handing back the input
        # object would let mutations of the "completed" automaton corrupt
        # the original.
        return GBA(sigma, transitions, auto.initial_states(), auto.acc_sets,
                   states=auto.states)
    for symbol in sigma:
        transitions[(sink, symbol)] = {sink}
    return GBA(sigma, transitions, auto.initial_states(), auto.acc_sets,
               states=set(auto.states) | {sink})


class ProductGBA:
    """On-the-fly intersection of two implicit GBAs.

    The product of GBAs is again a GBA (the "finite automaton-like
    product construction" of Section 4): states are pairs, and the
    acceptance sets of both operands are inherited side by side (indices
    of the right operand are shifted by ``left.acceptance_count``).
    """

    def __init__(self, left: ImplicitGBA, right: ImplicitGBA):
        if left.alphabet != right.alphabet:
            raise ValueError("intersection requires identical alphabets")
        self._left = left
        self._right = right

    @property
    def alphabet(self) -> frozenset:
        return self._left.alphabet

    @property
    def acceptance_count(self) -> int:
        return self._left.acceptance_count + self._right.acceptance_count

    def initial_states(self):
        return [(p, q) for p in self._left.initial_states()
                for q in self._right.initial_states()]

    def successors(self, state, symbol):
        p, q = state
        return [(p2, q2) for p2 in self._left.successors(p, symbol)
                for q2 in self._right.successors(q, symbol)]

    def accepting_sets_of(self, state) -> frozenset[int]:
        p, q = state
        shift = self._left.acceptance_count
        return (frozenset(self._left.accepting_sets_of(p))
                | frozenset(j + shift for j in self._right.accepting_sets_of(q)))


class NumberedProduct(ProductGBA):
    """:class:`ProductGBA` over dense ints, numbered on discovery.

    :attr:`pairs` maps an id back to its pair.  Each id's edge list is
    built once, in :class:`ProductGBA`'s order (symbols by ``str``, left
    targets in their iteration order): the left side is asked once per
    left state and symbol, the right side once per id and symbol, and
    only when the left side has a successor.  ``cache_misses`` counts
    the lists built and ``cache_hits`` their re-reads.  The left side's
    successor collections are kept and re-read, so they must not be
    one-shot iterators; those of every automaton here are collections.
    """

    def __init__(self, left: ImplicitGBA, right: ImplicitGBA):
        super().__init__(left, right)
        self._symbols = tuple(sorted(left.alphabet, key=str))
        self.pairs: list[tuple[State, State]] = []
        self._ids: dict[tuple[State, State], int] = {}
        self._edges: list[tuple[tuple[Symbol, int], ...] | None] = []
        #: left state -> its nonempty ``(symbol, left targets)`` rows
        self._rows: dict[State, tuple[tuple[Symbol, Iterable[State]], ...]] = {}
        #: ``F(q)`` by the two sides' answers: equal unions are shared
        self._joined: dict[tuple[frozenset, frozenset], frozenset[int]] = {}
        self._initial: list[int] | None = None
        self.cache_hits = 0
        self.cache_misses = 0

    def _number(self, pair: tuple[State, State]) -> int:
        state = self._ids[pair] = len(self.pairs)
        self.pairs.append(pair)
        self._edges.append(None)
        return state

    def initial_states(self) -> list[int]:
        if self._initial is None:
            self._initial = [self._number(pair)
                             for pair in super().initial_states()]
        return self._initial

    def root_key(self, state: int) -> str:
        """Algorithm 1's root order: its pair's ``repr`` (the ints' own
        would put 10 before 2)."""
        return repr(self.pairs[state])

    def successors(self, state: int, symbol: Symbol) -> list[int]:
        return [target for a, target in self.edges_from(state) if a == symbol]

    def accepting_sets_of(self, state: int) -> frozenset[int]:
        p, q = pair = self.pairs[state]
        key = (self._left.accepting_sets_of(p),
               self._right.accepting_sets_of(q))
        joined = self._joined.get(key)
        if joined is None:
            joined = self._joined[key] = super().accepting_sets_of(pair)
        return joined

    def edges_from(self, state: int) -> tuple[tuple[Symbol, int], ...]:
        """Outgoing ``(symbol, target id)`` edges, symbols in sorted order."""
        edges = self._edges[state]
        if edges is not None:
            self.cache_hits += 1
            return edges
        self.cache_misses += 1
        p, q = self.pairs[state]
        rows = self._rows.get(p)
        if rows is None:
            left = self._left.successors
            rows = self._rows[p] = tuple(
                (symbol, lefts) for symbol in self._symbols
                if (lefts := left(p, symbol)))
        right, ids, out = self._right.successors, self._ids, []
        for symbol, lefts in rows:
            rights = right(q, symbol)
            for p2 in lefts:
                for q2 in rights:
                    target = ids.get((p2, q2))
                    if target is None:
                        target = self._number((p2, q2))
                    out.append((symbol, target))
        edges = self._edges[state] = tuple(out)
        return edges
