"""Direct simulation and simulation quotients (Section 6.1).

``p`` is **direct-simulated** by ``r`` when Duplicator, starting in
``r``, can answer every move of Spoiler from ``p`` with a move on the
same symbol so that, at every step, an accepting Spoiler state is
matched by an accepting Duplicator state.  Direct simulation implies
the paper's early and early+1 simulations (Eqs. 11 and 12), which in
turn imply language inclusion (Proposition 6.1); the engine uses it to
quotient the subtrahend (:func:`quotient`) and to coarsen the
subsumption antichain.

The relation is a greatest fixpoint, solved over bitsets: the states
are numbered in ``repr`` order and each state ``p`` keeps one int mask
``sim[p]`` of the states that may still simulate it, seeded from the
accepting mask (and the part blocks).  With ``Pre_a(M)`` the mask of
states that have an ``a``-successor in ``M`` (read off each
``a``-source's successor mask), a worklist applies
``sim[p] &= Pre_a(sim[p'])`` for every ``a``-successor ``p'`` of ``p``
and re-queues ``p``'s predecessors whenever ``sim[p]`` shrinks.  A mask
shrinks at most ``n`` times and ``Pre_a`` of a mask is cached until it
shrinks, so a solve makes at most ``n + n·m`` visits (``m`` edges) of
one ``n``-bit AND per outgoing edge; on the near-identity relations of
the engine's modules it is a few passes over the edges.  The solver
charges the ambient :class:`~repro.core.budget.Budget`
(``charge_simulation``, ``n·n`` candidate pairs) and polls its deadline
while it runs, making the reduction safe to leave on for large
automata.

Proposition 6.1 and Lemma 6.2 (the NCSB subsumptions are early
simulations) are checked by the test suite against a chaotic-iteration
solver of the early games and against the actual complement automata.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

from repro.automata.classify import carry_sdba_parts
from repro.automata.gba import GBA, State
from repro.core.budget import current_budget
from repro.obs import metrics as _metrics

#: Deadline-poll stride of the solver: one poll per this many edges
#: processed by the worklist.
_POLL_EVERY = 4096


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _simulation_masks(auto: GBA,
                      parts: tuple[Iterable[State], ...] | None,
                      ) -> tuple[list[State], list[int]]:
    """The states in ``repr`` order and, per state index ``p``, the mask
    of the indices of the states that direct-simulate it."""
    if not auto.is_ba():
        raise ValueError("direct simulation is defined on BAs")
    states = sorted(auto.states, key=repr)
    n = len(states)
    budget = current_budget()
    if budget is not None:
        budget.charge_simulation(n * n)
    _metrics.inc("simulation.pairs", n * n)
    index = {q: i for i, q in enumerate(states)}

    # Seed: p <= r needs p in F => r in F, and r in p's block.  States in
    # no block (all of them without ``parts``) form one more block.
    full = (1 << n) - 1
    accepting = sum(1 << index[q] for q in auto.accepting)
    part_of = {q: block_id for block_id, block in enumerate(parts or ())
               for q in block}
    blocks: dict[int | None, int] = {}
    for i, q in enumerate(states):
        key = part_of.get(q)
        blocks[key] = blocks.get(key, 0) | 1 << i
    sim = [blocks[part_of.get(q)] & (accepting if accepting >> i & 1 else full)
           for i, q in enumerate(states)]

    # Per symbol (numbered as met), its sources' (bit, successor mask)
    # rows; per state, its outgoing (symbol, target) edges and all its
    # predecessors.  Pre_a(M) is the sources whose row meets M: a
    # symbol labels few edges, so scanning them beats scanning M's bits.
    symbol_id: dict[object, int] = {}
    rows: list[list[tuple[int, int]]] = []
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    preds = [0] * n
    for (q, a), targets in auto.transitions.items():
        if a not in symbol_id:
            symbol_id[a] = len(rows)
            rows.append([])
        a_id, i = symbol_id[a], index[q]
        successors = 0
        for t in targets:
            j = index[t]
            successors |= 1 << j
            out[i].append((a_id, j))
            preds[j] |= 1 << i
        rows[a_id].append((1 << i, successors))

    # ``pre[j][a]`` caches Pre_a(sim[j]); dropped when sim[j] shrinks.
    # The worklist is a mask too, visited lowest state first.
    pre: list[dict[int, int]] = [{} for _ in range(n)]
    pending = sum(1 << i for i in range(n) if out[i])
    steps = 0
    while pending:
        low = pending & -pending
        pending ^= low
        p = low.bit_length() - 1
        steps += len(out[p])
        if steps >= _POLL_EVERY and budget is not None:
            steps = 0
            budget.check_deadline("simulation")
        mask = sim[p]
        for a_id, j in out[p]:
            reply = pre[j].get(a_id)
            if reply is None:
                target = sim[j]
                reply = 0
                for bit, successors in rows[a_id]:
                    if successors & target:
                        reply |= bit
                pre[j][a_id] = reply
            mask &= reply
        if mask != sim[p]:
            sim[p] = mask
            pre[p] = {}
            pending |= preds[p]
    return states, sim


def direct_simulation(auto: GBA,
                      parts: tuple[Iterable[State], ...] | None = None,
                      ) -> set[tuple[State, State]]:
    """Classical direct simulation (``p in F  =>  r in F`` stepwise),
    as the set of pairs ``(p, r)`` with ``p`` simulated by ``r``.

    Contained in both early simulations of Eqs. 11 and 12; used for
    simulation-based state-space reduction (:func:`quotient`) and for
    coarsening the subsumption antichain.

    ``parts`` optionally restricts the relation to pairs within the
    same block (e.g. the ``(Q1, Q2)`` split of an SDBA): Duplicator may
    then only reply inside Spoiler's part, which keeps quotients of
    semideterministic automata semideterministic and keeps the
    antichain coarsening part-consistent.  States in no block are
    related only to each other.

    Solved over one candidate-simulator mask per state (see the module
    docstring); the result does not depend on the order the worklist
    visits the states in.
    """
    states, sim = _simulation_masks(auto, parts)
    return {(states[p], states[r])
            for p, mask in enumerate(sim) for r in _bits(mask)}


def quotient(auto: GBA,
             related: set[tuple[State, State]] | None = None,
             parts: tuple[Iterable[State], ...] | None = None,
             ) -> GBA:
    """Quotient by direct-simulation equivalence (a language-preserving
    state-space reduction usable on any BA).

    ``related`` reuses a precomputed :func:`direct_simulation`;
    ``parts`` (forwarded to the solver) keeps SDBA quotients
    part-respecting, so semideterminism survives the merge.  The
    classes of mutual simulation are numbered by their first state in
    ``repr`` order, and the quotient's states are those numbers.  When
    no two states are mutually similar, ``auto`` itself is returned.
    """
    if related is None:
        states, sim = _simulation_masks(auto, parts)
    else:
        states = sorted(auto.states, key=repr)
        index = {q: i for i, q in enumerate(states)}
        sim = [0] * len(states)
        for p, r in related:
            sim[index[p]] |= 1 << index[r]
    # p and r are mutually similar iff r in sim[p] and p in sim[r].
    cls = [-1] * len(states)
    count = 0
    for p, mask in enumerate(sim):
        if cls[p] < 0:
            cls[p] = count
            for r in _bits(mask >> (p + 1) << (p + 1)):
                if sim[r] >> p & 1:
                    cls[r] = count
            count += 1
    if count == len(states):
        return auto
    number = dict(zip(states, cls))
    transitions: dict[tuple[int, object], set[int]] = {}
    for (q, a), targets in auto.transitions.items():
        for t in targets:
            transitions.setdefault((number[q], a), set()).add(number[t])
    accepting = {number[q] for q in auto.accepting}
    initial = {number[q] for q in auto.initial_states()}
    from repro.automata.gba import ba
    result = ba(auto.alphabet, transitions, initial, accepting,
                states=set(cls))
    carry_sdba_parts(auto, result, partial(_class_parts, number))
    return result


def _class_parts(number: dict[State, int], q1: frozenset[State],
                 q2: frozenset[State]
                 ) -> tuple[frozenset[int], frozenset[int]] | None:
    """The quotient's ``(Q1, Q2)`` split from its input's, when no class
    mixes the two parts (else None).  Mutually similar states of the
    deterministic ``Q2`` have mutually similar successors, so ``Q2``'s
    classes stay deterministic, and they are the classes reachable from
    an accepting one."""
    c1 = frozenset(number[q] for q in q1)
    c2 = frozenset(number[q] for q in q2)
    return (c1, c2) if c1.isdisjoint(c2) else None
