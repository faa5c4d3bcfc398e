"""Algorithm 1: SCC-based useless-state removal for GBAs.

This is the paper's modification of the Gaiser--Schwoon emptiness check
(itself a refinement of Couvreur's algorithm): a single depth-first
traversal that

- decides emptiness of ``L(A)``,
- classifies every visited state as *useful* (nonempty language, goes
  to ``Q'``) or *useless* (goes to ``emp``), and
- works on-the-fly -- the input is any :class:`ImplicitGBA`, so the
  difference automaton of Section 4 is explored lazily and only its
  useful part is materialized.

The membership tests on ``emp`` (lines 3 and 11 of Algorithm 1) are
routed through a pluggable :class:`EmptyOracle`; the difference
construction substitutes the subsumption-based ``ceil(emp)`` antichain
of Section 6 (Eq. 10).

The implementation is iterative (explicit DFS frames) so automata with
hundreds of thousands of states do not hit Python's recursion limit.
So is :func:`tarjan_sccs`, the one SCC search behind lasso extraction
(:func:`find_accepting_lasso`), word membership
(:func:`repro.automata.words.accepts`) and the condensation analysis of
modular complementation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.automata.gba import GBA, ImplicitGBA, State, Symbol
from repro.automata.words import UPWord
from repro.core.budget import DeadlineExceeded, ResourceExhausted
from repro.obs.trace import get_tracer


class EmptyOracle:
    """Exact bookkeeping of states proved useless (the default ``emp``)."""

    def __init__(self) -> None:
        self._emp: set[State] = set()

    def add(self, state: State) -> None:
        self._emp.add(state)

    def contains(self, state: State) -> bool:
        return state in self._emp

    def __len__(self) -> int:
        return len(self._emp)


@dataclass
class RemovalStats:
    """Exploration counters reported by :func:`remove_useless`."""

    explored_states: int = 0
    explored_edges: int = 0
    useful_states: int = 0
    #: States proved useless, counted directly as Algorithm 1 classifies
    #: them -- independent of the oracle representation (a subsumption
    #: antichain keeps only maximal entries, so ``len(oracle)`` would
    #: under-report pruning).
    useless_states: int = 0
    subsumption_hits: int = 0
    #: Successor-cache hits/misses of the memoization layer (filled in by
    #: ``difference`` when its :class:`~repro.automata.gba.CachedImplicitGBA`
    #: wrappers are active).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Peak number of explored edges buffered at any point.  Edges are
    #: streamed into a per-state index and dropped as soon as their
    #: source is classified useless, so this is proportional to the
    #: useful/active part -- not to the whole exploration.
    peak_pending_edges: int = 0
    #: Edges of the materialized useful sub-automaton.
    retained_edges: int = 0
    #: Antichain comparisons skipped by the cheap size pre-filter of the
    #: subsumption oracle.
    prefilter_skips: int = 0
    #: Antichain hits found only by the simulation-coarsened order
    #: (would have been missed by the raw componentwise-superset check).
    sim_subsumption_hits: int = 0
    #: Per-kind accepting-component counts of a modular complementation
    #: (``{"weak": .., "det": .., "rank": .., "inert": ..}``); None when
    #: the subtrahend went through a monolithic procedure.
    modular_components: dict | None = None


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
    act_stack: list[State] = []
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
        # Indexed path (explicit GBAs and CachedImplicitGBA wrappers):
        # one precomputed sorted (symbol, target) list per state.
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
            scc_stack.append((state, auto.accepting_sets_of(state)))
            act_stack.append(state)
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
                    member = act_stack.pop()
                    act_set.discard(member)
                    members.append(member)
                    if frame.is_nemp:
                        useful.add(member)
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
            for initial in sorted(auto.initial_states(), key=repr):
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

        # In DFS order, so no set built here depends on the hash seed.
        order = sorted(useful, key=dfsnum.__getitem__)
        acc = [[dfsnum[q] for q in order if j in auto.accepting_sets_of(q)]
               for j in range(auto.acceptance_count)]
        result = GBA(auto.alphabet, transitions,
                     [dfsnum[q] for q in auto.initial_states() if q in useful],
                     acc, states=[dfsnum[q] for q in order])
        stats.useful_states = len(useful)
        return result, stats


class ExplorationLimit(ResourceExhausted):
    """Raised when ``state_limit`` is exceeded during Algorithm 1.

    Part of the :class:`~repro.core.budget.ReproError` taxonomy as a
    :class:`~repro.core.budget.ResourceExhausted` with resource
    ``"difference-states"`` -- the refinement loop answers it by
    falling down the degradation ladder.
    """

    def __init__(self, limit: int):
        super().__init__("difference-states",
                         f"exploration limit of {limit} states exceeded",
                         limit)


class ExplorationTimeout(DeadlineExceeded):
    """Raised when the wall-clock ``deadline`` passes during Algorithm 1."""

    def __init__(self, deadline: float):
        super().__init__("exploration deadline exceeded", deadline)


class SearchInvariantError(RuntimeError):
    """A lasso-search reachability invariant was violated.

    This signals a bug (or an inconsistent :class:`ImplicitGBA`
    implementation whose ``post``/``edges_from`` views disagree), not
    an input condition -- for a consistent automaton, an accepting SCC
    found by the reachable-SCC sweep is reachable by construction.
    Raised instead of ``assert`` so the check survives ``python -O``:
    a silent ``None`` here would flow into path extension and corrupt
    the extracted witness word.
    """


def is_empty(auto: ImplicitGBA, **kwargs) -> bool:
    """Language emptiness via Algorithm 1."""
    useful, _ = remove_useless(auto, **kwargs)
    return not useful.initial_states()


def is_empty_naive(auto: GBA) -> bool:
    """Reference emptiness check (for tests): reachable SCC analysis.

    Computes SCCs of the reachable explicit graph with
    :func:`tarjan_sccs` and looks for a non-trivial SCC hitting every set.
    """
    return find_accepting_lasso(auto) is None


def tarjan_sccs(roots: Iterable[State],
                successors: Callable[[State], Iterable[State]],
                deadline: float | None = None) -> Iterator[list[State]]:
    """SCCs of the graph reachable from ``roots``, in Tarjan emission order.

    Every SCC is emitted after all distinct SCCs reachable from it
    (reverse topological order of the condensation DAG); successors are
    visited in the order ``successors`` lists them.  A generator, so a
    caller looking for one component stops the search there.  The
    search is iterative (explicit DFS frames).  ``deadline`` (absolute
    ``perf_counter`` seconds) raises :class:`ExplorationTimeout`.
    """
    index: dict[State, int] = {}
    low: dict[State, int] = {}
    on_stack: set[State] = set()
    stack: list[State] = []
    counter = 0
    steps = 0
    for root in roots:
        if root in index:
            continue
        # One unconditional check per root, then every 512 loop steps:
        # small graphs still notice an expired deadline, big ones pay
        # one perf_counter call per half-K states.
        if deadline is not None and time.perf_counter() > deadline:
            raise ExplorationTimeout(deadline)
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[State, Iterator[State]]] = [
            (root, iter(successors(root)))]
        while work:
            steps += 1
            if (deadline is not None and steps % 512 == 0
                    and time.perf_counter() > deadline):
                raise ExplorationTimeout(deadline)
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                yield component


def accepting_scc(component: list[State],
                  successors: Callable[[State], Iterable[State]],
                  accepting_sets_of: Callable[[State], Iterable[int]],
                  k: int) -> bool:
    """Does the SCC hold an edge and a state of each of the ``k`` sets?"""
    members = set(component)
    if not any(t in members for q in component for t in successors(q)):
        return False
    needed = set(range(k))
    for q in component:
        needed -= accepting_sets_of(q)
        if not needed:
            return True
    return not needed


def find_accepting_lasso(auto: GBA,
                         deadline: float | None = None) -> UPWord | None:
    """Extract an accepted ultimately periodic word, or None if empty.

    Finds a reachable accepting SCC, builds a stem by BFS from an
    initial state, and a period inside the SCC that visits a state of
    every acceptance set before closing the cycle.  ``deadline``
    (absolute ``perf_counter`` seconds) makes the SCC sweep raise
    :class:`ExplorationTimeout` instead of overrunning a cooperative
    budget on a large remainder.
    """
    k = auto.acceptance_count
    components = tarjan_sccs(auto.initial_states(),
                             lambda q: sorted(auto.post(q), key=repr),
                             deadline)
    target_scc = next((set(c) for c in components if accepting_scc(
        c, auto.post, auto.accepting_sets_of, k)), None)
    if target_scc is None:
        return None

    stem, entry = _bfs_path(auto, auto.initial_states(),
                            lambda q: q in target_scc, within=None)
    if entry is None:
        raise SearchInvariantError(
            "accepting SCC unreachable from the initial states")

    period: list[Symbol] = []
    current = entry
    for j in range(k):
        if j in auto.accepting_sets_of(current):
            continue
        segment, current = _bfs_path(
            auto, [current], lambda q, jj=j: jj in auto.accepting_sets_of(q),
            within=target_scc)
        if current is None:
            raise SearchInvariantError(
                f"no state of acceptance set {j} reachable inside the "
                f"accepting SCC")
        period.extend(segment)
    closing, back = _bfs_path(auto, [current], lambda q: q == entry,
                              within=target_scc, require_step=not period)
    if back is None:
        raise SearchInvariantError(
            "could not close the period cycle back to the SCC entry")
    period.extend(closing)
    return UPWord(tuple(stem), tuple(period))


def _bfs_path(auto: GBA, sources: Iterable[State],
              goal: Callable[[State], bool],
              within: set[State] | None,
              require_step: bool = False) -> tuple[list[Symbol], State | None]:
    """Shortest symbol path from ``sources`` to a goal state.

    ``within`` restricts intermediate states; ``require_step`` forces at
    least one transition (for closing a cycle at the start state).
    """
    sources = list(sources)
    sources_set = set(sources)
    if not require_step:
        for s in sources:
            if goal(s):
                return [], s
    parents: dict[State, tuple[State, Symbol]] = {}
    queue: deque[State] = deque(sources)
    while queue:
        q = queue.popleft()
        for symbol, t in auto.edges_from(q):  # indexed: symbols sorted
            if within is not None and t not in within:
                continue
            if t in sources_set:
                if goal(t):  # cycle back to a source in >= 1 step
                    return _reconstruct(parents, q, sources_set) + [symbol], t
                continue
            if t not in parents:
                parents[t] = (q, symbol)
                if goal(t):
                    return _reconstruct(parents, t, sources_set), t
                queue.append(t)
    return [], None


def _reconstruct(parents: dict[State, tuple[State, Symbol]],
                 target: State, sources: set[State]) -> list[Symbol]:
    path: list[Symbol] = []
    current = target
    while current not in sources:
        parent, symbol = parents[current]
        path.append(symbol)
        current = parent
    path.reverse()
    return path
