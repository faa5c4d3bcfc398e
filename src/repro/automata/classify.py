"""Classification of BAs and SDBA normalization (Section 2).

The multi-stage approach dispatches on the class of the module
automaton: finite-trace BAs are complemented in O(1), deterministic BAs
in O(n), semideterministic BAs in 2^O(n), and only general BAs need the
full 2^O(n log n) machinery.  This module recognizes those classes and
establishes the two SDBA well-formedness requirements the NCSB
constructions assume:

1. every transition from the nondeterministic part ``Q1`` into the
   deterministic part ``Q2`` enters at an accepting state, and
2. every initial state inside ``Q2`` is accepting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.automata.gba import GBA, State, Symbol


def is_complete(auto: GBA) -> bool:
    """Total transition function on every state?

    A GBA keeps one entry per ``(state, symbol)`` with a nonempty target
    set, so it is complete exactly when it has ``|Q| * |Sigma|`` of them.
    """
    return len(auto.transitions) == len(auto.states) * len(auto.alphabet)


def is_deterministic(auto: GBA) -> bool:
    """At most one initial state and one successor per (state, symbol).

    (Deterministic automata may be incomplete; completion adds a sink.)
    """
    if len(auto.initial_states()) > 1:
        return False
    return all(len(auto.successors(q, a)) <= 1
               for q in auto.states for a in auto.alphabet)


def is_finite_trace(auto: GBA) -> bool:
    """Is the language of the form ``w . Sigma^w`` for a single finite ``w``?

    Recognizes exactly the shape built by the stage-1 generalization: a
    single simple path of non-accepting states ending in an accepting
    state with a universal self-loop over the full alphabet.
    """
    if not auto.is_ba():
        return False
    initial = auto.initial_states()
    if len(initial) != 1:
        return False
    (state,) = initial
    visited: set[State] = set()
    while True:
        if state in visited:
            return False  # looped before reaching the accepting sink
        visited.add(state)
        if state in auto.accepting:
            return all(auto.successors(state, a) == frozenset({state})
                       for a in auto.alphabet)
        moves = [(a, t) for a in auto.alphabet
                 for t in auto.successors(state, a)]
        if len(moves) != 1:
            return False
        state = moves[0][1]


def _accepting_states(auto: GBA) -> frozenset[State]:
    if not auto.is_ba():
        raise ValueError("SDBA analysis expects a BA (one acceptance set)")
    return auto.accepting


def _reachable_from(auto: GBA, sources: Iterable[State]) -> frozenset[State]:
    seen: set[State] = set(sources)
    queue: deque[State] = deque(seen)
    while queue:
        q = queue.popleft()
        for target in auto.post(q):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return frozenset(seen)


def sdba_parts(auto: GBA) -> tuple[frozenset[State], frozenset[State]] | None:
    """Split the states of a semideterministic BA into ``(Q1, Q2)``.

    ``Q2`` is the set of states reachable from some accepting state --
    the part that must behave deterministically; ``Q1`` is the rest.
    Returns ``None`` when the automaton is not semideterministic.
    Computed once per automaton (:meth:`GBA.derive`): classification,
    normalization, quotienting and NCSB all ask for it.
    """
    return auto.derive(_sdba_parts)


def carry_sdba_parts(source: GBA, target: GBA,
                     convert: Callable[[frozenset[State], frozenset[State]],
                                       tuple[frozenset[State],
                                             frozenset[State]] | None],
                     ) -> None:
    """Give ``target``, an automaton built from ``source``, the split
    ``convert(Q1, Q2)`` of ``source``'s known split, so that
    :func:`sdba_parts` need not search ``target``.  Nothing is recorded
    when ``source``'s split is not known (or ``source`` is not
    semideterministic), nor when ``convert`` returns None."""
    parts = source.known(_sdba_parts)
    if parts is not None:
        parts = convert(*parts)
        if parts is not None:
            target.settle(_sdba_parts, parts)


def _sdba_parts(auto: GBA) -> tuple[frozenset[State], frozenset[State]] | None:
    accepting = _accepting_states(auto)
    q2 = _reachable_from(auto, accepting)
    for q in q2:
        for a in auto.alphabet:
            if len(auto.successors(q, a)) > 1:
                return None
    return frozenset(auto.states - q2), q2


def is_semideterministic(auto: GBA) -> bool:
    """Is every state reachable from an accepting state deterministic?"""
    return sdba_parts(auto) is not None


def elevator_rank_bound(auto: GBA) -> int:
    """Tightest known cap on the ranks a rank-based complement needs.

    The minimum of the classical ``2 (n - |F|)`` and the per-SCC bound
    of the condensation analyzer (constant for elevator automata,
    ``2 |C \\ F|``-capped per general component otherwise).  Used as the
    default ``max_rank`` of
    :class:`~repro.automata.complement.rank_based.RankComplement`.
    """
    from repro.automata.complement.modular.analyze import condensation, rank_bound
    classical = 2 * (len(auto.states) - len(_accepting_states(auto)))
    return min(rank_bound(condensation(auto)), classical)


def is_normalized_sdba(auto: GBA) -> bool:
    """SDBA satisfying both entry requirements of Section 2."""
    parts = sdba_parts(auto)
    return parts is not None and entries_accepting(auto, *parts)


def entries_accepting(auto: GBA, q1: frozenset[State],
                      q2: frozenset[State]) -> bool:
    """Section 2's entry requirements on the ``(Q1, Q2)`` split of
    :func:`sdba_parts`: every initial ``Q2`` state and every target of a
    ``Q1 -> Q2`` transition is accepting."""
    rejecting = q2 - auto.accepting
    if not rejecting:
        return True
    if not rejecting.isdisjoint(auto.initial_states()):
        return False
    return all(rejecting.isdisjoint(targets)
               for (q, _), targets in auto.transitions.items() if q in q1)


def normalize_sdba(auto: GBA) -> GBA:
    """Enforce the SDBA requirements of Section 2 by state duplication.

    Every non-accepting state ``q`` of ``Q2`` that is entered from
    ``Q1`` (or initial) gets an accepting duplicate ``(q, "entry")``:
    transitions from ``Q1`` are redirected to the duplicate, which
    copies the outgoing transitions of ``q``.  The language and
    semideterminism are preserved.
    """
    parts = sdba_parts(auto)
    if parts is None:
        raise ValueError("the automaton is not semideterministic")
    q1, q2 = parts
    accepting = set(auto.accepting)
    bad_entries: set[State] = set()
    for q in q1:
        for a in auto.alphabet:
            for target in auto.successors(q, a):
                if target in q2 and target not in accepting:
                    bad_entries.add(target)
    bad_entries |= {q for q in auto.initial_states()
                    if q in q2 and q not in accepting}
    if not bad_entries:
        return auto

    def dup(q: State) -> tuple[State, str]:
        return (q, "entry")

    transitions: dict[tuple[State, Symbol], set[State]] = {}
    for (q, a), targets in auto.transitions.items():
        new_targets: set[State] = set()
        for t in targets:
            if q in q1 and t in bad_entries:
                new_targets.add(dup(t))  # redirect Q1 -> Q2 entries
            else:
                new_targets.add(t)
        transitions[(q, a)] = new_targets
    for q in bad_entries:  # duplicate outgoing transitions
        for a in auto.alphabet:
            targets = auto.successors(q, a)
            if targets:
                transitions[(dup(q), a)] = set(targets)
    initial = {dup(q) if q in bad_entries else q for q in auto.initial_states()}
    new_accepting = accepting | {dup(q) for q in bad_entries}
    states = set(auto.states) | {dup(q) for q in bad_entries}
    result = GBA(auto.alphabet, transitions, initial, [new_accepting],
                 states=states)
    # The duplicates are accepting and lead into Q2, and no Q2 state
    # leads out of it, so they join Q2 and Q1 stays.
    dups = frozenset(dup(q) for q in bad_entries)
    if dups.isdisjoint(auto.states):
        carry_sdba_parts(auto, result, lambda q1, q2: (q1, q2 | dups))
    return result
