"""Reference Algorithm 1: dict-keyed useless-state removal.

A test-only oracle for :func:`repro.automata.emptiness.remove_useless`.
It is the direct reading of the paper's Algorithm 1 over the input's
own states: ``useful``, ``dfsnum`` and the active set are hashed
tables, explored edges are buffered per source in a ``pending`` dict,
and the result goes through the validating :class:`GBA` constructor.
The production loop runs over dense ids; its result automaton and every
:class:`RemovalStats` count but the antichain's scan counts must equal
this module's on the same input and oracle.  The differential tests in
``test_emptiness_differential.py`` hold it to that.

:class:`ReferenceAntichain` is the matching test-only ``ceil(emp)`` of
Eq. 10: a pairwise scan under :func:`subsumes` / :func:`subsumes_b`, or
under their simulation-coarsened forms read off decoded state sets, with
no memo of earlier answers.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

from repro.automata.complement.ncsb import MacroState, subsumes_b
from repro.automata.emptiness import (EmptyOracle, ExplorationLimit,
                                      ExplorationTimeout, RemovalStats)
from repro.automata.gba import GBA, ImplicitGBA, State, Symbol
from repro.core.budget import ResourceExhausted
from repro.obs.trace import get_tracer


class _Frame:
    __slots__ = ("state", "edges", "is_nemp")

    def __init__(self, state: State, edges: Iterator[tuple[Symbol, State]]):
        self.state = state
        self.edges = edges
        self.is_nemp = False


def remove_useless(auto: ImplicitGBA, *,
                   oracle: EmptyOracle | None = None,
                   on_transition: Callable[[State, Symbol, State], None] | None = None,
                   state_limit: int | None = None,
                   deadline: float | None = None,
                   ) -> tuple[GBA, RemovalStats]:
    """Materialize the useful part of an implicit GBA (Algorithm 1).

    Returns ``(A', stats)`` where every state of ``A'`` has a nonempty
    language; ``L(A') = L(A)`` and ``A'`` is empty iff ``L(A)`` is.
    The states of ``A'`` are opaque ints: each useful state is named by
    its DFS number, so a remainder that is subtracted from again stays
    flat instead of nesting one product pair deeper per round.
    ``oracle`` replaces the exact ``emp`` set (subsumption pruning);
    ``on_transition`` observes every explored edge, between the
    input's own states; ``state_limit`` raises :class:`ExplorationLimit`
    when the traversal grows too big.
    The traversal runs inside an ``emptiness`` span; its counts live in
    ``stats`` and, via :func:`repro.automata.difference.difference`,
    in the metrics registry.
    """
    oracle = oracle if oracle is not None else EmptyOracle()
    stats = RemovalStats()
    all_conditions = frozenset(range(auto.acceptance_count))

    useful: set[State] = set()
    dfsnum: dict[State, int] = {}
    counter = [0]
    scc_stack: list[tuple[State, frozenset[int]]] = []  # SCCs in the paper
    # Active states with their F(q), read once at push: a state found
    # useful adds its DFS number to the result's acceptance lists.
    act_stack: list[tuple[State, frozenset[int]]] = []
    acc: list[list[int]] = [[] for _ in range(auto.acceptance_count)]
    act_set: set[State] = set()
    # Explored edges are streamed into a per-source index and retired the
    # moment the source is classified: useless sources drop their edges,
    # useful ones contribute them to the result right away.  Peak
    # auxiliary memory is therefore proportional to the useful + active
    # part of the automaton, never to the full exploration.
    pending: dict[State, list[tuple[Symbol, State]]] = {}
    pending_count = 0
    transitions: dict[tuple[int, Symbol], set[int]] = {}

    edge_index = getattr(auto, "edges_from", None)
    if edge_index is not None:
        # Indexed path (explicit GBAs and numbered products): one sorted
        # (symbol, target) list per state.
        def edge_iter(state: State) -> Iterator[tuple[Symbol, State]]:
            return iter(edge_index(state))
    else:
        def edge_iter(state: State) -> Iterator[tuple[Symbol, State]]:
            for symbol in sorted(auto.alphabet, key=str):
                for target in auto.successors(state, symbol):
                    yield symbol, target

    def construct(root: State) -> None:
        nonlocal pending_count
        frames: list[_Frame] = []

        def push(state: State) -> None:
            counter[0] += 1
            dfsnum[state] = counter[0]
            stats.explored_states += 1
            if state_limit is not None and stats.explored_states > state_limit:
                raise ExplorationLimit(state_limit)
            if (deadline is not None and stats.explored_states % 256 == 0
                    and time.perf_counter() > deadline):
                raise ExplorationTimeout(deadline)
            conditions = auto.accepting_sets_of(state)
            scc_stack.append((state, conditions))
            act_stack.append((state, conditions))
            act_set.add(state)
            pending[state] = []
            frames.append(_Frame(state, edge_iter(state)))

        push(root)
        while frames:
            frame = frames[-1]
            advanced = False
            source_edges = pending[frame.state]
            for symbol, target in frame.edges:
                stats.explored_edges += 1
                # Deadline poll on edges too: a single high-fan-out frame
                # (dense product state) can stream thousands of edges
                # without ever pushing, so the per-push poll alone could
                # blow far past a cooperative deadline.
                if (deadline is not None and stats.explored_edges % 256 == 0
                        and time.perf_counter() > deadline):
                    raise ExplorationTimeout(deadline)
                source_edges.append((symbol, target))
                pending_count += 1
                if pending_count > stats.peak_pending_edges:
                    stats.peak_pending_edges = pending_count
                if on_transition is not None:
                    on_transition(frame.state, symbol, target)
                if target in useful:
                    frame.is_nemp = True
                elif oracle.contains(target):
                    # Line 11 of Algorithm 1: t in ceil(emp).  With the
                    # subsumption oracle this may prune even *active*
                    # states (a back edge through a provably empty state
                    # can never contribute an accepting cycle).
                    stats.subsumption_hits += 1
                    continue
                elif target in act_set:
                    # Back edge: collapse the potential SCC entries down to
                    # the entry point of the cycle, joining their conditions.
                    joined: frozenset[int] = frozenset()
                    while True:
                        entry, conditions = scc_stack.pop()
                        joined |= conditions
                        if joined == all_conditions:
                            frame.is_nemp = True
                        if dfsnum[entry] <= dfsnum[target]:
                            break
                    scc_stack.append((entry, joined))
                elif target not in dfsnum:
                    push(target)
                    advanced = True
                    break
                # else: target already classified useless -- skip.
            if advanced:
                continue
            # Frame exhausted: maybe close the SCC rooted at this state.
            frames.pop()
            state = frame.state
            if scc_stack and scc_stack[-1][0] == state:
                scc_stack.pop()
                members: list[State] = []
                while True:
                    member, conditions = act_stack.pop()
                    act_set.discard(member)
                    members.append(member)
                    if frame.is_nemp:
                        useful.add(member)
                        for j in conditions:
                            acc[j].append(dfsnum[member])
                    else:
                        oracle.add(member)
                        stats.useless_states += 1
                    if member == state:
                        break
                # Retire the members' buffered edges.  Every target is
                # classified by now (a back edge to a still-active state
                # would have merged the SCCs), so useful -> useful edges
                # can be committed immediately, under DFS numbers, and
                # everything else dropped.
                if frame.is_nemp:
                    for member in members:
                        edges = pending.pop(member)
                        pending_count -= len(edges)
                        source = dfsnum[member]
                        for symbol, target in edges:
                            if target in useful:
                                transitions.setdefault(
                                    (source, symbol), set()).add(dfsnum[target])
                                stats.retained_edges += 1
                else:
                    for member in members:
                        pending_count -= len(pending.pop(member))
            if frames:
                frames[-1].is_nemp = frames[-1].is_nemp or frame.is_nemp

    with get_tracer().span("emptiness"):
        try:
            # Roots in ``repr`` order; a numbered product orders its
            # ids by their pairs (``NumberedProduct.root_key``).
            for initial in sorted(auto.initial_states(),
                                  key=getattr(auto, "root_key", repr)):
                if initial not in useful and not oracle.contains(initial):
                    if initial not in dfsnum:
                        construct(initial)
        except ResourceExhausted as exc:  # includes ExplorationTimeout
            # The partial effort must survive the unwind: the difference
            # layer registers explored states/edges even for attempts that
            # blow a budget or deadline (see difference.attempt), so a
            # retried round is never invisible in the metrics.
            exc.partial_stats = stats
            raise

        # In DFS order, so no set built here depends on the hash seed
        # or on the order in which the SCCs closed.
        order = sorted(useful, key=dfsnum.__getitem__)
        for f in acc:
            f.sort()
        result = GBA(auto.alphabet, transitions,
                     [dfsnum[q] for q in auto.initial_states() if q in useful],
                     acc, states=[dfsnum[q] for q in order])
        stats.useful_states = len(useful)
        return result, stats


class ReferenceAntichain(EmptyOracle):
    """``ceil(emp)`` of Eq. 10 by a pairwise scan, remembering nothing.

    States are ``(qA, MacroState)`` pairs or bare macro-states (grouped
    under ``None``), or ids into ``names`` (a numbered product's pairs).  ``small`` is covered when some recorded ``big``
    has ``small <=' big``: :func:`subsumes` or :func:`subsumes_b` on the
    raw masks, or, given a ``simulation`` (pairs ``(q, r)``: ``q`` is
    simulated by ``r``) and the ``complement`` that numbers the bits,
    the coarsened order on decoded state sets -- N and S, and C under
    ``subsumes_b``, pass when every state of ``big`` is simulated by a
    state of ``small``; C under ``subsumes`` and B stay raw supersets.
    """

    def __init__(self, relation: Callable[[MacroState, MacroState], bool],
                 simulation: set[tuple[State, State]] | None = None,
                 complement=None, names=None):
        super().__init__()
        self.names = names
        self.relation = relation
        self.simulation = simulation
        self.complement = complement
        self.groups: dict[State, list[MacroState]] = {}

    def _le(self, small: MacroState, big: MacroState) -> bool:
        if self.simulation is None:
            return self.relation(small, big)
        lazy = self.relation is subsumes_b
        sn, sc, ss, sb = self.complement.decode(small)
        bn, bc, bs, bb = self.complement.decode(big)

        def coarse(mine, theirs):
            return all(any(q == r or (q, r) in self.simulation for r in mine)
                       for q in theirs)

        return (coarse(sn, bn) and coarse(ss, bs)
                and (coarse(sc, bc) if lazy else bc <= sc)
                and (not lazy or bb <= sb))

    def _split(self, state: State) -> tuple[State, MacroState]:
        if self.names is not None:
            state = self.names[state]
        return (None, state) if isinstance(state, MacroState) else state

    def add(self, state: State) -> None:
        key, macro = self._split(state)
        group = self.groups.get(key, [])
        if any(self._le(macro, kept) for kept in group):
            return
        self.groups[key] = [kept for kept in group
                            if not self._le(kept, macro)] + [macro]

    def contains(self, state: State) -> bool:
        key, macro = self._split(state)
        return any(self._le(macro, kept) for kept in self.groups.get(key, ()))

    def __len__(self) -> int:
        return sum(len(group) for group in self.groups.values())
