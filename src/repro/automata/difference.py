"""On-the-fly difference of a GBA and a BA (Sections 4 and 6).

``difference(A, B)`` builds a GBA ``D`` with ``L(D) = L(A) \\ L(B)`` by

1. complementing ``B`` *implicitly* (the cheapest procedure for its
   class -- finite-trace, DBA, NCSB for SDBAs, rank-based otherwise),
2. forming the on-the-fly product ``A x complement(B)`` (a GBA whose
   acceptance sets are those of ``A`` plus the complement's), and
3. running Algorithm 1 (:func:`repro.automata.emptiness.remove_useless`)
   over the product, so only states on useful paths are ever built.

When ``B`` is complemented through NCSB, the ``emp`` set of Algorithm 1
is maintained as the subsumption antichain ``ceil(emp)`` of Eq. 10:
a product state ``(qA, qhat)`` is known-useless if some recorded
``(qA, rhat)`` with ``qhat <=' rhat`` is, where ``<='`` is Eq. 4 for
NCSB-Original and Eq. 5 for NCSB-Lazy (Theorem 6.3 / 6.4).

``simulation_reduction`` (default on) adds the Section 6.1 layer:

- the subtrahend is quotiented by (part-respecting) direct-simulation
  equivalence before complementation, so NCSB/rank run on a smaller
  automaton, and
- the antichain order is *coarsened* modulo a direct simulation on the
  prepared SDBA: the quotient-friendly components compare "every state
  of the recorded entry is simulated by some state of the candidate"
  instead of plain superset.  Per the Lemma 6.2 simulation argument the
  coarsening is sound for N and S under NCSB-Original (C must stay a
  raw superset: a C-run that never visits F again can only be guessed
  into S at an F-exit) and for N, C and S under NCSB-Lazy (B must stay
  raw: a never-accepting run stuck in B blocks the next breakpoint).
  When the computed relation is trivial (identity only) the oracle
  falls back to the plain bitset path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.automata.classify import sdba_parts
from repro.automata.complement.dispatch import (KIND_GUARDS, ComplementKind,
                                                classify_kind,
                                                implicit_complement)
from repro.automata.complement.ncsb import (MacroEncoder, MacroState,
                                            subsumes, subsumes_b)
import repro.faults as _faults
from repro.automata.emptiness import EmptyOracle, RemovalStats, remove_useless
from repro.automata.gba import CachedImplicitGBA, GBA, ImplicitGBA, State
from repro.automata.ops import ProductGBA
from repro.automata.simulation import direct_simulation, quotient
from repro.core.budget import DeadlineExceeded, ResourceExhausted
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer

#: Skip the simulation solvers above this many subtrahend states, in
#: engine runs and standalone library use alike: the solvers are
#: near-linear in ``states x edges``, but the reduction is an
#: optimization and must never dominate the difference itself.
_SIM_STATE_GUARD = 512


class SubsumptionOracle(EmptyOracle):
    """``ceil(emp)`` of Eq. 10: an antichain of empty product states.

    Entries are grouped by the GBA-side state ``qA``; within a group only
    ``<='``-maximal complement macro-states are kept (a smaller-language
    macro-state subsumed by a recorded empty one is empty too).

    ``relation`` is Eq. 4 ``subsumes`` or Eq. 5 ``subsumes_b``; the
    antichain scan runs over an interned bitset encoding of the
    macro-state components (:class:`MacroEncoder`), with a
    component-size pre-filter in front of the bitwise checks.

    ``simulation`` (pairs ``(q, r)`` = "``q`` is direct-simulated by
    ``r``" on the prepared SDBA) coarsens the order: components that
    tolerate it compare modulo the simulation's down-closure (see the
    module docstring for which components, per relation, and why).  A
    trivial relation (identity only) is ignored.
    """

    def __init__(self, relation: Callable[[MacroState, MacroState], bool],
                 simulation: set[tuple[State, State]] | None = None):
        super().__init__()
        if relation not in (subsumes, subsumes_b):
            raise ValueError("the antichain orders are subsumes and subsumes_b")
        self._check_b = relation is subsumes_b
        self._encoder = MacroEncoder()
        #: ``down[r]`` = bitmask of ``{q : q direct-simulated by r}``;
        #: None disables the coarsened path.
        self._down: dict[State, int] | None = None
        self._closure_cache: dict[frozenset, tuple[int, int]] = {}
        if simulation is not None and any(p != r for p, r in simulation):
            bit = self._encoder.bit
            down: dict[State, int] = {}
            for q, r in simulation:
                down[r] = down.get(r, 0) | bit(q)
            self._down = down
        #: Per-group entries: ``(macro, raw, closure)`` -- bitset
        #: encodings, ``closure`` only on the coarsened path.
        self._groups: dict[State, list[tuple[MacroState, tuple[int, ...],
                                             tuple[int, ...] | None]]] = {}
        self._size = 0
        self.prefilter_skips = 0
        #: Antichain hits that only the simulation-coarsened order found
        #: (the raw componentwise-superset check would have missed them).
        self.sim_subsumption_hits = 0

    @staticmethod
    def _split(state: State) -> tuple[State, MacroState | None]:
        """Key a product state by its GBA side; bare macro-states (from
        standalone complementation, as in the Figure 4 experiments) are
        grouped under a single key."""
        if isinstance(state, MacroState):
            return None, state
        if isinstance(state, tuple) and len(state) == 2 \
                and isinstance(state[1], MacroState):
            return state[0], state[1]
        return state, None

    def _closure(self, states: frozenset) -> tuple[int, int]:
        """Bitmask and popcount of the simulation down-closure of a
        component set (every state simulated by some member)."""
        cached = self._closure_cache.get(states)
        if cached is None:
            down = self._down
            bit = self._encoder.bit
            mask = 0
            for q in states:
                mask |= down.get(q) or bit(q)
            cached = (mask, mask.bit_count())
            self._closure_cache[states] = cached
        return cached

    def _subsumed(self, small: tuple[MacroState, tuple[int, ...],
                                     tuple[int, ...] | None],
                  big: tuple[MacroState, tuple[int, ...],
                             tuple[int, ...] | None]) -> bool:
        """Is ``small`` subsumed by ``big`` (``small <=' big``)?"""
        sn, sc, ss, sb, sln, slc, sls, slb = small[1]
        bn, bc, bs, bb, bln, blc, bls, blb = big[1]
        if self._down is None:
            # Superset on every component needs at-least-as-large sizes;
            # comparing four ints is cheaper than four mask operations.
            if sln < bln or slc < blc or sls < bls \
                    or (self._check_b and slb < blb):
                self.prefilter_skips += 1
                return False
            return (sn & bn == bn and sc & bc == bc and ss & bs == bs
                    and (not self._check_b or sb & bb == bb))
        # Coarsened order: a component passes when every state of big is
        # simulated by some state of small, i.e. big is a subset of
        # small's down-closure.  NCSB-Original keeps C raw; NCSB-Lazy
        # keeps B raw (see module docstring).
        cn, cc, cs, _cb, cln, clc, cls, _clb = small[2]
        if self._check_b:
            if cln < bln or clc < blc or cls < bls or slb < blb:
                self.prefilter_skips += 1
                return False
            hit = (cn & bn == bn and cc & bc == bc and cs & bs == bs
                   and sb & bb == bb)
        else:
            if cln < bln or slc < blc or cls < bls:
                self.prefilter_skips += 1
                return False
            hit = (cn & bn == bn and sc & bc == bc and cs & bs == bs)
        if hit and not (sn & bn == bn and sc & bc == bc and ss & bs == bs
                        and (not self._check_b or sb & bb == bb)):
            self.sim_subsumption_hits += 1
        return hit

    def _entry(self, macro: MacroState) -> tuple[MacroState, tuple[int, ...],
                                                 tuple[int, ...] | None]:
        raw = self._encoder.encode(macro)
        if self._down is None:
            return macro, raw, None
        (cn, cln), (cc, clc) = self._closure(macro.n), self._closure(macro.c)
        (cs, cls), (cb, clb) = self._closure(macro.s), self._closure(macro.b)
        return macro, raw, (cn, cc, cs, cb, cln, clc, cls, clb)

    def _covered(self, entry: tuple[MacroState, tuple[int, ...],
                                    tuple[int, ...] | None],
                 group: list) -> bool:
        """``any(self._subsumed(entry, existing) for existing in group)``
        as one loop over locals, with the same answer and counts: the hot
        antichain scan of ``contains`` and ``add``."""
        sn, sc, ss, sb, sln, slc, sls, slb = entry[1]
        if not self._check_b:
            # Eq. 4 ignores B: an all-ones mask of unbounded size passes
            # every B test.
            sb, slb = -1, math.inf
        coarse = entry[2]
        if coarse is None:
            pn, pc, ps, pln, plc, pls = sn, sc, ss, sln, slc, sls
        else:
            # Down-closures stand in for N and S, and for C under
            # NCSB-Lazy only; B stays raw (see module docstring).
            pn, cc, ps, _cb, pln, clc, pls, _clb = coarse
            pc, plc = (cc, clc) if self._check_b else (sc, slc)
        skips = 0
        for existing in group:
            bn, bc, bs, bb, bln, blc, bls, blb = existing[1]
            if pln < bln or plc < blc or pls < bls or slb < blb:
                skips += 1
                continue
            if pn & bn == bn and pc & bc == bc and ps & bs == bs and sb & bb == bb:
                self.prefilter_skips += skips
                if coarse is not None and not (sn & bn == bn and sc & bc == bc
                                               and ss & bs == bs):
                    self.sim_subsumption_hits += 1
                return True
        self.prefilter_skips += skips
        return False

    def add(self, state: State) -> None:
        q_a, macro = self._split(state)
        if macro is None:
            super().add(state)
            return
        entry = self._entry(macro)
        group = self._groups.setdefault(q_a, [])
        if self._covered(entry, group):
            return  # already covered
        survivors = [existing for existing in group
                     if not self._subsumed(existing, entry)]
        survivors.append(entry)
        self._size += len(survivors) - len(group)
        self._groups[q_a] = survivors
        _metrics.gauge("difference.antichain.peak").max_of(self._size)

    def contains(self, state: State) -> bool:
        q_a, macro = self._split(state)
        if macro is None:
            return super().contains(state)
        group = self._groups.get(q_a)
        if not group:
            return False
        return self._covered(self._entry(macro), group)

    def __len__(self) -> int:
        return self._size + super().__len__()


#: Shape guards for forced/pinned kinds (see dispatch.KIND_GUARDS; kinds
#: absent there -- RANK, VIA_SEMIDET, MODULAR -- apply to any BA).
_KIND_GUARDS = KIND_GUARDS

#: Complementation cost levels (finite-trace < DBA < NCSB < general).
_KIND_COST = {ComplementKind.FINITE_TRACE: 0, ComplementKind.DBA: 1,
              ComplementKind.SDBA_ORIGINAL: 2, ComplementKind.SDBA_LAZY: 2,
              ComplementKind.VIA_SEMIDET: 3, ComplementKind.RANK: 3,
              ComplementKind.MODULAR: 3}


def _reduced_subtrahend(subtrahend: GBA,
                        kind: ComplementKind | None) -> GBA:
    """Quotient the subtrahend by direct-simulation equivalence.

    Part-respecting on SDBAs (so semideterminism survives the merge).
    The reduction is refused -- the original automaton returned -- when
    it would worsen the complementation class (or break a pinned
    ``kind``'s requirements), and when the simulation budget blows
    (plain :class:`ResourceExhausted`; deadlines propagate).
    """
    n = len(subtrahend.states)
    if n <= 1 or n > _SIM_STATE_GUARD or not subtrahend.is_ba():
        return subtrahend
    try:
        related = direct_simulation(subtrahend, parts=sdba_parts(subtrahend))
        reduced = quotient(subtrahend, related=related)
    except DeadlineExceeded:
        raise
    except ResourceExhausted:
        return subtrahend
    removed = n - len(reduced.states)
    if removed <= 0:
        return subtrahend
    if kind is not None:
        guard = _KIND_GUARDS.get(kind)
        if guard is not None and not guard(reduced):
            return subtrahend
    elif _KIND_COST[classify_kind(reduced)] > _KIND_COST[classify_kind(subtrahend)]:
        return subtrahend
    _metrics.inc("reduction.quotients")
    _metrics.inc("reduction.states_removed", removed)
    return reduced


def _subtrahend_simulation(comp) -> set[tuple[State, State]] | None:
    """Part-respecting direct simulation on the prepared SDBA behind an
    NCSB complement, for coarsening the antichain; None when the
    complement exposes no SDBA, the relation is trivial, or the
    simulation budget blows (deadlines propagate)."""
    sdba = getattr(comp, "sdba", None)
    if sdba is None or len(sdba.states) > _SIM_STATE_GUARD:
        return None
    try:
        relation = direct_simulation(sdba, parts=comp.parts)
    except DeadlineExceeded:
        raise
    except ResourceExhausted:
        return None
    if all(p == r for p, r in relation):
        return None
    return relation


@dataclass
class DifferenceResult:
    """Outcome of a difference computation."""

    automaton: GBA
    kind: ComplementKind
    stats: RemovalStats

    @property
    def is_empty(self) -> bool:
        return not self.automaton.initial_states()


def difference(minuend: ImplicitGBA, subtrahend: GBA, *,
               lazy: bool = True,
               subsumption: bool = True,
               via_semidet: bool = False,
               modular: bool = False,
               cache: bool = True,
               simulation_reduction: bool = True,
               kind: ComplementKind | None = None,
               state_limit: int | None = None,
               deadline: float | None = None) -> DifferenceResult:
    """Compute ``L(minuend) \\ L(subtrahend)`` as a trimmed GBA.

    ``minuend`` may be implicit; ``subtrahend`` must be an explicit BA
    (the certified-module automaton).  ``lazy``/``subsumption`` select
    the Section 5/6 optimizations; ``kind`` pins the complementation
    procedure.  ``state_limit`` bounds the product exploration.

    The result's states are opaque ints (Algorithm 1's DFS numbers, see
    :func:`~repro.automata.emptiness.remove_useless`), so chained
    subtractions build products over ``(int, MacroState)`` pairs
    however many rounds came before.

    ``modular`` lets general subtrahends with a genuinely mixed SCC
    condensation go through the per-SCC mix-and-match decomposition
    (``ComplementKind.MODULAR``).  When the heuristic engaged it and the
    exploration blows a *resource* limit (not the deadline), the call
    retries once through the monolithic path -- the decomposition is a
    bet, and the established construction stays the backstop.  A pinned
    ``kind=MODULAR`` never falls back.

    ``cache`` (default on) installs the shared successor-index /
    memoization layer: an implicit minuend is wrapped in a
    :class:`~repro.automata.gba.CachedImplicitGBA` (explicit GBAs
    already carry their own lazily built edge index), and so is the
    product itself, giving Algorithm 1 precomputed per-state sorted
    edge lists instead of a fresh alphabet sort per pushed state.

    ``simulation_reduction`` (default on) quotients the subtrahend by
    direct-simulation equivalence before complementation and coarsens
    the subsumption antichain with a simulation on the prepared SDBA
    (see module docstring).  Both halves are language-preserving, so
    verdicts never change -- only exploration effort.
    """
    tracer = get_tracer()
    if _faults._ACTIVE is not None:
        _faults.perturb("difference")
    with tracer.span("difference") as span:
        module_states = len(subtrahend.states)
        if simulation_reduction:
            subtrahend = _reduced_subtrahend(subtrahend, kind)
        heuristic_modular = False

        def attempt(use_modular: bool) -> DifferenceResult:
            nonlocal heuristic_modular
            with tracer.span("complement") as comp_span:
                comp, used_kind = implicit_complement(
                    subtrahend, minuend.alphabet, lazy=lazy,
                    via_semidet=via_semidet, modular=use_modular, kind=kind)
                comp_span.set(kind=used_kind.value,
                              module_states=len(subtrahend.states),
                              reduced_from=module_states)
            heuristic_modular = (kind is None
                                 and used_kind is ComplementKind.MODULAR)
            wrappers: list[CachedImplicitGBA] = []
            left = minuend
            if cache and not isinstance(left, (GBA, CachedImplicitGBA)):
                left = CachedImplicitGBA(left)
                wrappers.append(left)
            product: ImplicitGBA = ProductGBA(left, comp)
            if cache:
                product = CachedImplicitGBA(product)
                wrappers.append(product)
            oracle: EmptyOracle | None = None
            ncsb_kinds = (ComplementKind.SDBA_ORIGINAL,
                          ComplementKind.SDBA_LAZY,
                          ComplementKind.VIA_SEMIDET)
            if subsumption and used_kind in ncsb_kinds:
                uses_lazy = used_kind is ComplementKind.SDBA_LAZY or (
                    used_kind is ComplementKind.VIA_SEMIDET and lazy)
                relation = subsumes_b if uses_lazy else subsumes
                simulation = (_subtrahend_simulation(comp)
                              if simulation_reduction else None)
                oracle = SubsumptionOracle(relation, simulation=simulation)
            def register(stats: RemovalStats) -> None:
                """Fold the wrapper/oracle counters into ``stats`` and
                account the attempt in the metrics registry."""
                for wrapper in wrappers:
                    stats.cache_hits += wrapper.cache_hits
                    stats.cache_misses += wrapper.cache_misses
                if isinstance(oracle, SubsumptionOracle):
                    stats.prefilter_skips = oracle.prefilter_skips
                    stats.sim_subsumption_hits = oracle.sim_subsumption_hits
                    _metrics.inc("difference.antichain.sim_hits",
                                 oracle.sim_subsumption_hits)
                registry = _metrics.registry()
                if used_kind is ComplementKind.MODULAR:
                    counts = comp.component_counts
                    stats.modular_components = dict(counts)
                    for key in ("weak", "det", "rank"):
                        registry.counter(
                            f"complement.modular.components.{key}").inc(counts[key])
                registry.counter("difference.calls").inc()
                registry.counter("difference.explored_states").inc(stats.explored_states)
                registry.counter("difference.explored_edges").inc(stats.explored_edges)
                registry.counter("difference.subsumption_hits").inc(stats.subsumption_hits)
                registry.counter("difference.cache.hits").inc(stats.cache_hits)
                registry.counter("difference.cache.misses").inc(stats.cache_misses)
                registry.counter(f"difference.by_kind.{used_kind.value}").inc()
                registry.counter(
                    f"difference.by_kind.{used_kind.value}.explored_states").inc(
                        stats.explored_states)
                registry.histogram("difference.explored_states_per_call").observe(
                    stats.explored_states)

            try:
                useful, stats = remove_useless(product, oracle=oracle,
                                               state_limit=state_limit,
                                               deadline=deadline)
            except ResourceExhausted as exc:  # includes DeadlineExceeded
                # A blown budget or deadline must still account its
                # partial exploration: the degradation ladder retries
                # exactly these attempts, and a zero-effort row would
                # hide them from `repro report` and the trajectory gate.
                partial = getattr(exc, "partial_stats", None)
                if partial is not None:
                    register(partial)
                    _metrics.inc("difference.aborted")
                    span.set(aborted=True)
                raise
            register(stats)
            span.set(kind=used_kind.value)
            return DifferenceResult(useful, used_kind, stats)

        try:
            return attempt(modular)
        except DeadlineExceeded:
            raise
        except ResourceExhausted:
            if not heuristic_modular:
                raise
            _metrics.inc("difference.modular.fallbacks")
            span.set(modular_fallback=True)
            return attempt(False)
