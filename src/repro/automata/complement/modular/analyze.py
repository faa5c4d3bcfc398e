"""SCC condensation analysis for modular complementation.

Decomposition layer of the mix-and-match complementation subsystem
(Havlena, Lengal, Li, Smahlikova & Turrini, *Modular Mix-and-Match
Complementation of Buechi Automata*, 2023): the SCCs of a BA are
classified by the cheapest partial complementation procedure that can
track runs trapped in them --

- ``TRIVIAL`` / ``WEAK_REJECTING``: no cycle, or only F-free cycles.
  No run trapped here is accepting, so no partial is needed at all.
  This is where the decomposition wins: a nondeterministic *rejecting*
  prefix SCC stops inflating the complementation cost of the whole
  automaton.
- ``WEAK_ACCEPTING``: inherently weak with an F state -- every internal
  cycle visits F (the F-free internal subgraph is acyclic).  A
  Miyano--Hayashi breakpoint set suffices.
- ``DET_ACCEPTING``: internally deterministic (at most one internal
  successor per symbol) but not inherently weak.  A CSB triple
  (NCSB without the N component) suffices.
- ``GENERAL``: everything else; needs rank-based tracking, but with a
  rank cap of ``2 |C \\ F|`` local to the component.

``rank_bound`` computes the per-component rank caps of *Sky Is Not the
Limit* (Havlena, Lengal & Smahlikova, 2021) over the condensation DAG;
it tightens the classical ``2 (n - |F|)`` bound whenever part of the
automaton is weak or deterministic, and is also used by the monolithic
rank-based construction (via ``repro.automata.classify``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.automata.gba import GBA, State


class SCCClass(enum.Enum):
    """Complementation class of one SCC of the condensation."""

    TRIVIAL = "trivial"
    WEAK_REJECTING = "weak-rejecting"
    WEAK_ACCEPTING = "weak-accepting"
    DET_ACCEPTING = "det-accepting"
    GENERAL = "general"

    @property
    def accepting(self) -> bool:
        """Can a run trapped in an SCC of this class be accepting?"""
        return self in (SCCClass.WEAK_ACCEPTING, SCCClass.DET_ACCEPTING,
                        SCCClass.GENERAL)


@dataclass(frozen=True)
class Component:
    """One SCC of the condensation (``index`` is the Tarjan emission
    order: every component comes after all distinct components reachable
    from it)."""

    index: int
    states: frozenset[State]
    scc_class: SCCClass


class Condensation:
    """The classified SCC condensation of (the reachable part of) a BA."""

    def __init__(self, auto: GBA, components: tuple[Component, ...]):
        self.auto = auto
        self.components = components
        self.component_of: dict[State, Component] = {
            q: comp for comp in components for q in comp.states}

    @property
    def accepting_components(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.scc_class.accepting)

    def by_class(self, scc_class: SCCClass) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.scc_class is scc_class)

    def counts(self) -> dict[str, int]:
        """Per-class component counts, e.g. ``{"weak-accepting": 2, ...}``."""
        out: dict[str, int] = {}
        for comp in self.components:
            key = comp.scc_class.value
            out[key] = out.get(key, 0) + 1
        return out

    def modular_pays_off(self) -> bool:
        """Should the MODULAR dispatch heuristic engage?

        True iff some accepting component exists and at least one of
        them is *cheaper* than GENERAL -- then the decomposition either
        avoids rank tracking for that component entirely or shrinks the
        rank sub-DAG, so the round-robin product beats the monolithic
        rank-based construction.  All-GENERAL (or no accepting SCC at
        all) condensations gain nothing over the monolithic path.
        """
        acc = self.accepting_components
        return bool(acc) and any(c.scc_class is not SCCClass.GENERAL
                                 for c in acc)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"Condensation({parts})"


def condensation(auto: GBA, deadline: float | None = None) -> Condensation:
    """Classified SCC condensation of the reachable part of a BA."""
    if not auto.is_ba():
        raise ValueError(
            f"condensation analysis expects a BA (k=1), found k={auto.acceptance_count}")
    from repro.automata.emptiness import tarjan_sccs
    accepting = auto.accepting
    components = tuple(
        Component(i, frozenset(members),
                  _classify_scc(auto, frozenset(members), accepting))
        for i, members in enumerate(tarjan_sccs(
            auto.initial_states(), lambda q: sorted(auto.post(q), key=repr),
            deadline)))
    return Condensation(auto, components)


def _classify_scc(auto: GBA, members: frozenset[State],
                  accepting: frozenset[State]) -> SCCClass:
    if not _has_cycle(auto, members):
        return SCCClass.TRIVIAL
    if not (members & accepting):
        return SCCClass.WEAK_REJECTING
    if not _subgraph_has_cycle(auto, members - accepting):
        return SCCClass.WEAK_ACCEPTING
    if _internally_deterministic(auto, members):
        return SCCClass.DET_ACCEPTING
    return SCCClass.GENERAL


def _has_cycle(auto: GBA, members: frozenset[State]) -> bool:
    """Does the SCC carry a cycle?  (Size > 1, or a self-loop.)"""
    if len(members) > 1:
        return True
    (q,) = members
    return q in auto.post(q)


def _subgraph_has_cycle(auto: GBA, nodes: frozenset[State]) -> bool:
    """Cycle detection on the subgraph induced by ``nodes`` (iterative DFS)."""
    VISITING, DONE = 0, 1
    color: dict[State, int] = {}
    for root in nodes:
        if root in color:
            continue
        color[root] = VISITING
        stack = [(root, iter(auto.post(root) & nodes))]
        while stack:
            _, successors = stack[-1]
            advanced = False
            for target in successors:
                mark = color.get(target)
                if mark == VISITING:
                    return True
                if mark is None:
                    color[target] = VISITING
                    stack.append((target, iter(auto.post(target) & nodes)))
                    advanced = True
                    break
            if not advanced:
                color[stack[-1][0]] = DONE
                stack.pop()
    return False


def _internally_deterministic(auto: GBA, members: frozenset[State]) -> bool:
    """At most one successor *inside the SCC* per state and symbol."""
    return all(len(auto.successors(q, a) & members) <= 1
               for q in members for a in auto.alphabet)


def _even_at_least(m: int) -> int:
    return m if m % 2 == 0 else m + 1


def _odd_at_least(m: int) -> int:
    return m if m % 2 == 1 else m + 1


def rank_bound(cond: Condensation) -> int:
    """Elevator-aware bound on the maximum rank a complement needs.

    Reverse-topological pass over the condensation DAG.  With ``m`` the
    maximum bound over a component's successor components (0 for sinks),
    a run-DAG vertex inside the component can always be ranked within:

    - TRIVIAL without F: ``m`` (any rank <= a predecessor's works);
      with F: smallest even >= ``m`` (F vertices need even ranks);
    - WEAK_REJECTING: smallest odd >= ``m`` -- on a rejected word every
      internal infinite future is F-free, so a constant odd rank works;
      it must be odd: an even-ranked F-free infinite path would park in
      the owing set O forever and block the breakpoint;
    - WEAK_ACCEPTING: smallest even >= ``m`` -- trapped runs would be
      accepting, so on a rejected word every internal future is finite
      and a constant even rank drains through the breakpoint;
    - DET_ACCEPTING: smallest even > ``m`` -- the unique internal future
      takes the even rank while it still visits F and drops to the odd
      rank below after the last F visit;
    - GENERAL: ``m + 2 |C \\ F|`` (the classical bound, locally).

    The result is capped by the classical ``2 (n - |F|)`` over the
    reachable part, so it is never worse than the monolithic default.
    Soundness note: an *under*-estimated cap would under-approximate the
    complement (risking a wrong TERMINATING verdict downstream), which
    is why each per-class rule above must admit a full ranking of the
    rejected-word run DAG -- see DESIGN.md, "Modular complementation".
    """
    auto = cond.auto
    accepting = auto.accepting
    succ: dict[int, set[int]] = {c.index: set() for c in cond.components}
    for comp in cond.components:
        for q in comp.states:
            for target in auto.post(q):
                target_comp = cond.component_of.get(target)
                if target_comp is not None and target_comp.index != comp.index:
                    succ[comp.index].add(target_comp.index)
    bound: dict[int, int] = {}
    # Tarjan emission order is reverse-topological: successors first.
    for comp in cond.components:
        m = max((bound[j] for j in succ[comp.index]), default=0)
        cls = comp.scc_class
        if cls is SCCClass.TRIVIAL:
            r = _even_at_least(m) if comp.states & accepting else m
        elif cls is SCCClass.WEAK_REJECTING:
            r = _odd_at_least(m)
        elif cls is SCCClass.WEAK_ACCEPTING:
            r = _even_at_least(m)
        elif cls is SCCClass.DET_ACCEPTING:
            r = _odd_at_least(m) + 1
        else:
            r = m + 2 * len(comp.states - accepting)
        bound[comp.index] = r
    per_scc = max(bound.values(), default=0)
    reachable = set(cond.component_of)
    classical = 2 * len(reachable - accepting)
    return min(per_scc, classical)
