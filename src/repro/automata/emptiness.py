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

The traversal runs over dense int ids.  A
:class:`~repro.automata.ops.NumberedProduct` (the difference's product)
hands out its own; any other input is numbered on discovery by a small
adapter, so there is one loop.  Per-id arrays replace hashed tables:
one ``bytearray`` holds each id's state (unseen, active, useful,
useless) and a list its DFS number.  Each pushed id's edge tuple stays
on the active stack until its SCC retires, which is the only edge
buffer.

The membership tests on ``emp`` (lines 3 and 11 of Algorithm 1) ask by
id: an id classified useless is in ``emp``, and a pluggable
:class:`EmptyOracle`, bound to the id -> state list, answers the rest.
The difference construction substitutes the subsumption-based
``ceil(emp)`` antichain of Section 6 (Eq. 10).

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
from typing import Callable, Iterable, Iterator, Sequence

from repro.automata.gba import GBA, ImplicitGBA, State, Symbol
from repro.automata.ops import NumberedProduct
from repro.automata.words import UPWord
from repro.core.budget import DeadlineExceeded, ResourceExhausted
from repro.obs.trace import get_tracer


class EmptyOracle:
    """Exact bookkeeping of states proved useless (the default ``emp``).

    An oracle may answer "empty" for more states than were added (the
    subsumption antichain does), but an added state stays contained:
    Algorithm 1 answers for the ids it classified useless itself.
    """

    def __init__(self) -> None:
        self._emp: set[State] = set()

    def add(self, state: State) -> None:
        self._emp.add(state)

    def contains(self, state: State) -> bool:
        return state in self._emp

    def bind(self, names: Sequence[State]) -> tuple[Callable[[int], bool],
                                                    Callable[[int], None]]:
        """Id-level ``(contains, add)`` over ``names`` (id -> state): the
        view Algorithm 1 asks through."""
        contains, add = self.contains, self.add
        return (lambda i: contains(names[i])), (lambda i: add(names[i]))

    def __len__(self) -> int:
        return len(self._emp)


@dataclass
class RemovalStats:
    """Exploration counters reported by :func:`remove_useless`;
    ``difference`` adds the oracle's counts and the modular split.  The
    complement's counts go to the metrics registry only."""

    explored_states: int = 0
    explored_edges: int = 0
    useful_states: int = 0
    #: States proved useless, counted directly as Algorithm 1 classifies
    #: them -- independent of the oracle representation (a subsumption
    #: antichain keeps only maximal entries, so ``len(oracle)`` would
    #: under-report pruning).
    useless_states: int = 0
    subsumption_hits: int = 0
    #: Peak number of explored edges not yet retired.  A state's edges
    #: are held only until its SCC is classified, so this is
    #: proportional to the active part -- not to the whole exploration.
    peak_pending_edges: int = 0
    #: Edges of the materialized useful sub-automaton.
    retained_edges: int = 0
    #: Antichain comparisons skipped by the cheap size pre-filter of the
    #: subsumption oracle, over the scans it made (an answer that cannot
    #: have changed is not scanned again).
    prefilter_skips: int = 0
    #: Antichain hits found only by the simulation-coarsened order
    #: (would have been missed by the raw componentwise-superset check),
    #: over the scans the oracle made.
    sim_subsumption_hits: int = 0
    #: Per-kind accepting-component counts of a modular complementation
    #: (``{"weak": .., "det": .., "rank": .., "inert": ..}``); None when
    #: the subtrahend went through a monolithic procedure.
    modular_components: dict | None = None


class _Numbering:
    """Numbers an input's states on discovery: the id view a
    :class:`~repro.automata.ops.NumberedProduct` gives of itself, for
    explicit GBAs, bare complements and plain products.

    ``states`` maps an id back to its state.  Edges come from the
    input's ``edges_from`` when it has one, else from ``successors``
    over the alphabet sorted by ``str``.
    """

    def __init__(self, auto: ImplicitGBA):
        self._auto = auto
        self.states: list[State] = []
        self._ids: dict[State, int] = {}
        index = getattr(auto, "edges_from", None)
        if index is None:
            symbols = sorted(auto.alphabet, key=str)
            successors = auto.successors

            def index(state: State) -> list[tuple[Symbol, State]]:
                return [(symbol, target) for symbol in symbols
                        for target in successors(state, symbol)]
        self._index = index

    def _id(self, state: State) -> int:
        i = self._ids.get(state)
        if i is None:
            i = self._ids[state] = len(self.states)
            self.states.append(state)
        return i

    def initial_states(self) -> list[int]:
        return [self._id(q) for q in self._auto.initial_states()]

    def root_key(self, i: int) -> str:
        return repr(self.states[i])

    def accepting_sets_of(self, i: int) -> frozenset[int]:
        return self._auto.accepting_sets_of(self.states[i])

    def edges_from(self, i: int) -> tuple[tuple[Symbol, int], ...]:
        number = self._id
        return tuple((symbol, number(target))
                     for symbol, target in self._index(self.states[i]))


#: Per-id states of Algorithm 1.
_UNSEEN, _ACTIVE, _USEFUL, _USELESS = 0, 1, 2, 3
#: Stands for "no symbol run yet" while committing a member's edges.
_NO_SYMBOL = object()


def remove_useless(auto: ImplicitGBA, *,
                   oracle: EmptyOracle | None = None,
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
    ``state_limit`` raises :class:`ExplorationLimit` when the traversal
    grows too big.  Edges are tested in the paper's order: a useful
    target, then ``emp`` (useless ids and the oracle), then an active
    one, then an unseen one.
    The traversal runs inside an ``emptiness`` span; its counts live in
    ``stats`` and, via :func:`repro.automata.difference.difference`,
    in the metrics registry.
    """
    # ``ids`` grows by one entry per numbered id; ``names`` maps an id
    # back to its state.
    if isinstance(auto, NumberedProduct):
        numbered, ids, names = auto, auto.lefts, auto.pairs
    else:
        numbered = _Numbering(auto)
        ids = names = numbered.states
    contains = add = None
    if oracle is not None:
        contains, add = oracle.bind(names)
    edges_from = numbered.edges_from
    accepting_sets_of = numbered.accepting_sets_of
    perf_counter = time.perf_counter
    k = auto.acceptance_count
    all_conditions = frozenset(range(k))

    status = bytearray()
    dfsnum: list[int] = []
    # Potential SCCs (the paper's SCCs stack): entry DFS number and the
    # conditions joined so far.
    scc_stack: list[tuple[int, frozenset[int]]] = []
    # Active ids with their F(q), read once at push, and their edge
    # tuple: a state found useful adds its DFS number to the result's
    # acceptance lists and commits its useful -> useful edges.
    act_stack: list[tuple[int, frozenset[int], tuple]] = []
    acc: list[list[int]] = [[] for _ in range(k)]
    transitions: dict[tuple[int, Symbol], list[int]] = {}
    useful: list[int] = []  # DFS numbers, in retirement order
    counter = explored_states = explored_edges = hits = useless = 0
    retained = retired = peak = 0

    with get_tracer().span("emptiness"):
        try:
            roots = numbered.initial_states()
            status.extend(bytes(len(ids)))
            dfsnum.extend([0] * len(ids))
            # Roots in ``repr`` order of their states (the ids' own
            # order would put 10 before 2).
            for root in sorted(roots, key=numbered.root_key):
                if status[root] != _UNSEEN or (contains is not None
                                               and contains(root)):
                    continue
                frames: list[tuple[int, int, Iterator, bool]] = []
                child = root
                while True:
                    if child is not None:
                        # Push: give the child its DFS number and frame.
                        counter += 1
                        dfsnum[child] = num = counter
                        explored_states += 1
                        if state_limit is not None and explored_states > state_limit:
                            raise ExplorationLimit(state_limit)
                        if (deadline is not None and explored_states % 256 == 0
                                and perf_counter() > deadline):
                            raise ExplorationTimeout(deadline)
                        conditions = accepting_sets_of(child)
                        scc_stack.append((num, conditions))
                        edges = edges_from(child)
                        act_stack.append((child, conditions, edges))
                        status[child] = _ACTIVE
                        grow = len(ids) - len(status)
                        if grow:
                            status.extend(bytes(grow))
                            dfsnum.extend([0] * grow)
                        state, it, nemp = child, iter(edges), False
                    child = None
                    for _, target in it:
                        explored_edges += 1
                        # Deadline poll on edges too: a single high-fan-out
                        # frame (dense product state) can stream thousands
                        # of edges without ever pushing.
                        if (deadline is not None and explored_edges % 256 == 0
                                and perf_counter() > deadline):
                            raise ExplorationTimeout(deadline)
                        st = status[target]
                        if st == _USEFUL:
                            nemp = True
                        elif st == _USELESS or (contains is not None
                                                and contains(target)):
                            # Line 11 of Algorithm 1: t in ceil(emp).  With
                            # the subsumption oracle this may prune even
                            # *active* states (a back edge through a
                            # provably empty state can never contribute an
                            # accepting cycle).
                            hits += 1
                        elif st == _ACTIVE:
                            # Back edge: collapse the potential SCC entries
                            # down to the entry point of the cycle, joining
                            # their conditions.
                            low = dfsnum[target]
                            joined: frozenset[int] = frozenset()
                            while True:
                                entry, conditions = scc_stack.pop()
                                joined |= conditions
                                if joined == all_conditions:
                                    nemp = True
                                if entry <= low:
                                    break
                            scc_stack.append((entry, joined))
                        else:
                            child = target
                            break
                    if child is not None:
                        frames.append((state, num, it, nemp))
                        continue
                    # Frame exhausted: maybe close the SCC rooted here.
                    if scc_stack and scc_stack[-1][0] == num:
                        scc_stack.pop()
                        if explored_edges - retired > peak:
                            peak = explored_edges - retired
                        members = []
                        while True:
                            member = act_stack.pop()
                            members.append(member)
                            if member[0] == state:
                                break
                        if nemp:
                            for member, conditions, _ in members:
                                status[member] = _USEFUL
                                source = dfsnum[member]
                                useful.append(source)
                                for j in conditions:
                                    acc[j].append(source)
                            # Every target is classified by now (a back
                            # edge to a still-active state would have
                            # merged the SCCs), so the useful -> useful
                            # edges are committed under DFS numbers, one
                            # target list per run of equal symbols.
                            for member, _, member_edges in members:
                                retired += len(member_edges)
                                source = dfsnum[member]
                                last, targets = _NO_SYMBOL, None
                                for symbol, target in member_edges:
                                    if status[target] == _USEFUL:
                                        if symbol is not last:
                                            last = symbol
                                            targets = transitions.setdefault(
                                                (source, symbol), [])
                                        targets.append(dfsnum[target])
                                        retained += 1
                        else:
                            for member, _, member_edges in members:
                                status[member] = _USELESS
                                if add is not None:
                                    add(member)
                                useless += 1
                                retired += len(member_edges)
                    if not frames:
                        break
                    state, num, it, parent_nemp = frames.pop()
                    nemp = nemp or parent_nemp
        except ResourceExhausted as exc:  # includes ExplorationTimeout
            # The partial effort must survive the unwind: the difference
            # layer registers explored states/edges even for attempts that
            # blow a budget or deadline (see difference.attempt), so a
            # retried round is never invisible in the metrics.  No result
            # was built, so it has no useful states.
            exc.partial_stats = RemovalStats(
                explored_states=explored_states, explored_edges=explored_edges,
                useless_states=useless, subsumption_hits=hits,
                peak_pending_edges=max(peak, explored_edges - retired),
                retained_edges=retained)
            raise

        # In DFS order, so no set built here depends on the hash seed
        # or on the order in which the SCCs closed.
        useful.sort()
        for f in acc:
            f.sort()
        result = GBA._trusted(
            auto.alphabet, transitions,
            [dfsnum[q] for q in roots if status[q] == _USEFUL], acc, useful)
        return result, RemovalStats(
            explored_states=explored_states, explored_edges=explored_edges,
            useful_states=len(useful), useless_states=useless,
            subsumption_hits=hits, peak_pending_edges=peak,
            retained_edges=retained)


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
