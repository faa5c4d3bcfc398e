"""Basic operations on (generalized) Buechi automata.

Completion and the on-the-fly GBA intersection, over pairs or over
ints numbered on discovery.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable

from repro.automata.classify import carry_sdba_parts
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
    to_sink: set[State] = set()
    for state in auto.states:
        for symbol in sigma:
            if not transitions.get((state, symbol)):
                transitions[(state, symbol)] = {sink}
                to_sink.add(state)
    if not to_sink:
        # Even when nothing is missing, return a fresh automaton: callers
        # treat the result as their own copy, and handing back the input
        # object would let mutations of the "completed" automaton corrupt
        # the original.
        result = GBA(sigma, transitions, auto.initial_states(),
                     auto.acc_sets, states=auto.states)
        carry_sdba_parts(auto, result, lambda q1, q2: (q1, q2))
        return result
    for symbol in sigma:
        transitions[(sink, symbol)] = {sink}
    result = GBA(sigma, transitions, auto.initial_states(), auto.acc_sets,
                 states=set(auto.states) | {sink})
    # The sink only loops, so it joins Q2 exactly when a Q2 state (one
    # reachable from an accepting state) gained an edge to it.
    sink_set = frozenset((sink,))
    carry_sdba_parts(auto, result, lambda q1, q2: (
        (q1 | sink_set, q2) if q2.isdisjoint(to_sink) else (q1, q2 | sink_set)))
    return result


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


class ProductPairs(Sequence):
    """The pair behind each id of a :class:`NumberedProduct`, as a
    read-only sequence over the product's per-id lists: ``pairs[i]`` is
    built when asked for.  It holds the lists, not the product, so the
    product holds no reference cycle and is freed by refcount."""

    def __init__(self, lefts: list[State], right_ids: list[int],
                 rights: list[State]):
        self.lefts, self.right_ids, self.rights = lefts, right_ids, rights

    def __len__(self) -> int:
        return len(self.lefts)

    def __getitem__(self, i: int) -> tuple[State, State]:
        return self.lefts[i], self.rights[self.right_ids[i]]


class NumberedProduct(ProductGBA):
    """:class:`ProductGBA` over dense ints, numbered on discovery.

    Both sides are kept as ints.  The right side's states (the
    complement's macro-states, in a difference) are numbered when first
    reached, in :attr:`rights`; an id is its left state
    (:attr:`lefts`) and its right state's number (:attr:`right_ids`),
    and :attr:`pairs` gives its pair back.  A target id is found in a
    per-left-state table keyed by the right number, so no pair is built
    or hashed per edge.

    This is the difference's one memo.  The left side is asked once per
    left state and symbol, and its successor collections are read once,
    when their row is built.  The right side is asked once per right
    state and symbol, for every left state alike, and only when some
    left state paired with it has a successor on that symbol; its
    answer is kept as a row of right numbers.  An id's edge list is
    built from those rows each time it is asked for, in
    :class:`ProductGBA`'s order (symbols by ``str``, left targets in
    their iteration order), and is not kept: Algorithm 1 asks once per
    id and holds the list on its own stack until the id's SCC retires.
    A repeated ask gives an equal list, for the ids are numbered once.
    """

    def __init__(self, left: ImplicitGBA, right: ImplicitGBA):
        super().__init__(left, right)
        self._symbols = tuple(sorted(left.alphabet, key=str))
        #: per id: its left state and its right state's number
        self.lefts: list[State] = []
        self.right_ids: list[int] = []
        #: right number -> right state
        self.rights: list[State] = []
        self._right_number: dict[State, int] = {}
        #: right number -> per symbol index, its successors' numbers
        #: (None until asked)
        self._right_rows: list[list[tuple[int, ...] | None]] = []
        #: left state -> {right number: id}
        self._tables: dict[State, dict[int, int]] = {}
        #: left state -> its nonempty ``(symbol index, symbol, ((left
        #: target, its table), ...))`` rows
        self._rows: dict[State, tuple[tuple[int, Symbol,
                                            tuple[tuple[State, dict], ...]],
                                      ...]] = {}
        #: ``F(q)`` by the two sides' answers: equal unions are shared
        self._joined: dict[tuple[frozenset, frozenset], frozenset[int]] = {}
        self._initial: list[int] | None = None
        self.pairs = ProductPairs(self.lefts, self.right_ids, self.rights)

    def _number_right(self, state: State) -> int:
        r = self._right_number.get(state)
        if r is None:
            r = self._right_number[state] = len(self.rights)
            self.rights.append(state)
            self._right_rows.append([None] * len(self._symbols))
        return r

    def _number(self, left: State, table: dict[int, int], r: int) -> int:
        state = table[r] = len(self.lefts)
        self.lefts.append(left)
        self.right_ids.append(r)
        return state

    def initial_states(self) -> list[int]:
        if self._initial is None:
            rights = [self._number_right(q)
                      for q in self._right.initial_states()]
            tables = self._tables
            self._initial = [self._number(p, tables.setdefault(p, {}), r)
                             for p in self._left.initial_states()
                             for r in rights]
        return self._initial

    def root_key(self, state: int) -> str:
        """Algorithm 1's root order: its pair's ``repr`` (the ints' own
        would put 10 before 2)."""
        return repr(self.pairs[state])

    def successors(self, state: int, symbol: Symbol) -> list[int]:
        return [target for a, target in self.edges_from(state) if a == symbol]

    def accepting_sets_of(self, state: int) -> frozenset[int]:
        p, q = self.lefts[state], self.rights[self.right_ids[state]]
        key = (self._left.accepting_sets_of(p),
               self._right.accepting_sets_of(q))
        joined = self._joined.get(key)
        if joined is None:
            joined = self._joined[key] = super().accepting_sets_of((p, q))
        return joined

    def _left_rows(self, p: State) -> tuple:
        left, tables = self._left.successors, self._tables
        rows = self._rows[p] = tuple(
            (index, symbol, tuple((p2, tables.setdefault(p2, {}))
                                  for p2 in lefts))
            for index, symbol in enumerate(self._symbols)
            if (lefts := left(p, symbol)))
        return rows

    def _right_row(self, r: int, index: int) -> tuple[int, ...]:
        number = self._number_right
        row = tuple(number(q2) for q2 in self._right.successors(
            self.rights[r], self._symbols[index]))
        self._right_rows[r][index] = row
        return row

    def edges_from(self, state: int) -> tuple[tuple[Symbol, int], ...]:
        """Outgoing ``(symbol, target id)`` edges, symbols in sorted order."""
        p, r = self.lefts[state], self.right_ids[state]
        rows = self._rows.get(p)
        if rows is None:
            rows = self._left_rows(p)
        right_row, number, out = self._right_rows[r], self._number, []
        append = out.append
        for index, symbol, lefts in rows:
            rights = right_row[index]
            if rights is None:
                rights = self._right_row(r, index)
            for p2, table in lefts:
                for r2 in rights:
                    target = table.get(r2)
                    if target is None:
                        target = number(p2, table, r2)
                    append((symbol, target))
        return tuple(out)
