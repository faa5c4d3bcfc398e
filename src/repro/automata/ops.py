"""Basic operations on (generalized) Buechi automata.

Completion, disjoint union and the on-the-fly GBA intersection.
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


def union(left: GBA, right: GBA) -> GBA:
    """Disjoint union; the result accepts ``L(left) | L(right)``.

    Both operands must be BAs or have the same number of acceptance
    sets; set ``j`` of the result is the union of the operands' sets
    ``j``.  States are tagged to guarantee disjointness.
    """
    if left.acceptance_count != right.acceptance_count:
        raise ValueError("operands must have the same number of acceptance sets")
    tag_left = left.map_states(lambda q: (0, q))
    tag_right = right.map_states(lambda q: (1, q))
    # Copy before merging: ``transitions`` is a read-only view of the
    # operand's internal map, and extending it in place would silently
    # graft the right operand's transitions onto ``tag_left``.
    transitions = dict(tag_left.transitions)
    transitions.update(tag_right.transitions)
    acc = [l | r for l, r in zip(tag_left.acc_sets, tag_right.acc_sets)]
    return GBA(left.alphabet | right.alphabet, transitions,
               tag_left.initial_states() | tag_right.initial_states(), acc,
               states=tag_left.states | tag_right.states)


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
