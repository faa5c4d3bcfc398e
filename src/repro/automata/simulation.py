"""Direct simulation and simulation quotients (Section 6.1).

``p`` is **direct-simulated** by ``r`` when Duplicator, starting in
``r``, can answer every move of Spoiler from ``p`` with a move on the
same symbol so that, at every step, an accepting Spoiler state is
matched by an accepting Duplicator state.  Direct simulation implies
the paper's early and early+1 simulations (Eqs. 11 and 12), which in
turn imply language inclusion (Proposition 6.1); the engine uses it to
quotient the subtrahend (:func:`quotient`) and to coarsen the
subsumption antichain.

The relation is a greatest fixpoint, solved with the worklist/counter
algorithm of Henzinger--Henzinger--Kopke: each pair keeps, per
Spoiler move, a counter of surviving Duplicator replies; when a pair
dies its predecessors' counters are decremented, and a counter hitting
zero kills the dependent pairs.  Counters are initialized lazily from
per-``(r, a)`` successor tallies, so total work is proportional to
``states x edges`` instead of iterating the full relation to a
fixpoint.  The solver charges the ambient
:class:`~repro.core.budget.Budget` (``charge_simulation``), making the
reduction safe to leave on for large automata.

Proposition 6.1 and Lemma 6.2 (the NCSB subsumptions are early
simulations) are checked by the test suite against a chaotic-iteration
solver of the early games and against the actual complement automata.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.automata.gba import GBA, State
from repro.core.budget import current_budget
from repro.obs import metrics as _metrics

#: Deadline-poll stride for the solver worklist loops.
_POLL_EVERY = 4096


def _edge_index(auto: GBA, states: list[State], alphabet: list):
    """Successor sets and predecessor lists per ``(state, symbol)``."""
    succ: dict[tuple[State, object], frozenset[State]] = {}
    pred: dict[tuple[State, object], list[State]] = {}
    for q in states:
        for a in alphabet:
            targets = auto.successors(q, a)
            if targets:
                succ[(q, a)] = targets
                for t in targets:
                    pred.setdefault((t, a), []).append(q)
    return succ, pred


def direct_simulation(auto: GBA,
                      parts: tuple[Iterable[State], Iterable[State]] | None = None,
                      ) -> set[tuple[State, State]]:
    """Classical direct simulation (``p in F  =>  r in F`` stepwise).

    Contained in both early simulations of Eqs. 11 and 12; used for
    simulation-based state-space reduction (:func:`quotient`) and for
    coarsening the subsumption antichain.

    ``parts`` optionally restricts the relation to pairs within the
    same block (e.g. the ``(Q1, Q2)`` split of an SDBA): Duplicator may
    then only reply inside Spoiler's part, which keeps quotients of
    semideterministic automata semideterministic and keeps the
    antichain coarsening part-consistent.

    Worklist/counter solver (Henzinger--Henzinger--Kopke): counters
    ``cnt[(q, r, a)]`` track how many ``a``-successors of ``r`` still
    simulate ``q``; a removed pair decrements the counters of ``r``'s
    predecessors and a zero counter removes the dependent pairs.
    """
    if not auto.is_ba():
        raise ValueError("direct simulation is defined on BAs")
    accepting = auto.accepting
    states = sorted(auto.states, key=repr)
    n = len(states)
    budget = current_budget()
    if budget is not None:
        budget.charge_simulation(n * n)
    _metrics.inc("simulation.pairs", n * n)
    alphabet = sorted(auto.alphabet, key=str)
    succ, pred = _edge_index(auto, states, alphabet)

    part_of: dict[State, int] | None = None
    if parts is not None:
        part_of = {}
        for block_id, block in enumerate(parts):
            for q in block:
                part_of[q] = block_id

    def compatible(p: State, r: State) -> bool:
        if part_of is not None and part_of.get(p) != part_of.get(r):
            return False
        return (p not in accepting) or (r in accepting)

    # Per (r, a) reply tallies by successor category (part, accepting?),
    # for O(1) lazy counter initialization.
    tallies: dict[tuple[State, object], dict[tuple[int | None, bool], int]] = {}
    for key, targets in succ.items():
        table: dict[tuple[int | None, bool], int] = {}
        for t in targets:
            cat = (part_of.get(t) if part_of is not None else None,
                   t in accepting)
            table[cat] = table.get(cat, 0) + 1
        tallies[key] = table

    def init_cnt(q: State, r: State, a) -> int:
        """``|{r' in succ(r, a) : (q, r') initially related}|``."""
        table = tallies.get((r, a))
        if not table:
            return 0
        q_part = part_of.get(q) if part_of is not None else None
        q_acc = q in accepting
        return sum(count for (t_part, t_acc), count in table.items()
                   if t_part == q_part and (not q_acc or t_acc))

    related: set[tuple[State, State]] = {
        (p, r) for p in states for r in states if compatible(p, r)}
    removed: deque[tuple[State, State]] = deque()

    def remove(pair: tuple[State, State]) -> None:
        if pair in related:
            related.discard(pair)
            removed.append(pair)

    # Seed: pairs with a Spoiler move that has no initially-related reply.
    for p in states:
        for a in alphabet:
            p_moves = succ.get((p, a))
            if not p_moves:
                continue
            for r in states:
                if (p, r) not in related:
                    continue
                if any(init_cnt(p2, r, a) == 0 for p2 in p_moves):
                    remove((p, r))

    # Propagate removals.  Counters are created lazily at their first
    # decrement: every earlier removal touching a key passes through this
    # same loop, so a missing counter still holds its initial value.
    cnt: dict[tuple[State, State, object], int] = {}
    polls = 0
    while removed:
        q, r2 = removed.popleft()
        for a in alphabet:
            r_preds = pred.get((r2, a))
            if not r_preds:
                continue
            q_preds = pred.get((q, a), ())
            for r in r_preds:
                polls += 1
                if budget is not None and polls % _POLL_EVERY == 0:
                    budget.check_deadline("simulation")
                key = (q, r, a)
                count = cnt.get(key)
                if count is None:
                    count = init_cnt(q, r, a)
                count -= 1
                cnt[key] = count
                if count == 0:
                    for p in q_preds:
                        remove((p, r))
    return related


def quotient(auto: GBA,
             related: set[tuple[State, State]] | None = None,
             parts: tuple[Iterable[State], Iterable[State]] | None = None,
             ) -> GBA:
    """Quotient by direct-simulation equivalence (a language-preserving
    state-space reduction usable on any BA).

    ``related`` reuses a precomputed :func:`direct_simulation`;
    ``parts`` (forwarded to the solver) keeps SDBA quotients
    part-respecting, so semideterminism survives the merge.
    """
    if related is None:
        related = direct_simulation(auto, parts=parts)
    states = sorted(auto.states, key=repr)
    # equivalence classes of mutual simulation
    cls: dict[State, int] = {}
    reps: list[State] = []
    for q in states:
        for k, rep in enumerate(reps):
            if (q, rep) in related and (rep, q) in related:
                cls[q] = k
                break
        else:
            cls[q] = len(reps)
            reps.append(q)
    transitions: dict[tuple[int, object], set[int]] = {}
    for (q, a), targets in auto.transitions.items():
        for t in targets:
            transitions.setdefault((cls[q], a), set()).add(cls[t])
    accepting = {cls[q] for q in auto.accepting}
    initial = {cls[q] for q in auto.initial_states()}
    from repro.automata.gba import ba
    return ba(auto.alphabet, transitions, initial, accepting,
              states=set(cls.values()))
