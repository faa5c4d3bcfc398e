"""On-the-fly difference of a GBA and a BA (Sections 4 and 6).

``difference(A, B)`` builds a GBA ``D`` with ``L(D) = L(A) \\ L(B)`` by

1. complementing ``B`` *implicitly* (the cheapest procedure for its
   class -- finite-trace, DBA, NCSB for SDBAs, rank-based otherwise),
2. forming the on-the-fly product ``A x complement(B)`` (a GBA whose
   acceptance sets are those of ``A`` plus the complement's), and
3. running Algorithm 1 (:func:`repro.automata.emptiness.remove_useless`)
   over the product, so only states on useful paths are ever built.

By default (``cache=True``) the product is a
:class:`~repro.automata.ops.NumberedProduct`, which numbers each
``(qA, qhat)`` pair when first reached, and each complement state too;
Algorithm 1 and the antichain below run over those ints (any other
product is numbered on discovery by Algorithm 1 itself).  It is the
difference's only memo: it asks each side once per state and symbol,
so the complements keep no successor memo, and Algorithm 1's stack
holds an id's edges until its SCC retires.  The call adds the
complement's tallies to the ``complement.<kind>.*`` counters.

A call runs with Python's cyclic garbage collector paused.  The build
allocates hundreds of thousands of containers -- edge tuples, id rows,
antichain entries, complement macro-states -- and all of them but the
result die by refcount when the call returns, for none of them is in a
reference cycle.  Left running, the collector rescans them while they
live: on the ``automata`` e2e workload that was about a fifth of the
job time.  The pause spans the whole call, not just Algorithm 1:
paused inside :func:`~repro.automata.emptiness.remove_useless` alone,
the first collection after it scans the whole build, which is still
alive then.  The caller's ``gc.isenabled()`` is restored on every exit,
exceptions included.

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

import functools
import gc
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.automata.classify import sdba_parts
from repro.automata.complement.dispatch import (KIND_GUARDS, ComplementKind,
                                                classify_kind,
                                                implicit_complement)
from repro.automata.complement.ncsb import (MacroState, image, subsumes,
                                            subsumes_b)
import repro.faults as _faults
from repro.automata.emptiness import EmptyOracle, RemovalStats, remove_useless
from repro.automata.gba import GBA, ImplicitGBA, State
from repro.automata.ops import NumberedProduct, ProductGBA, ProductPairs
from repro.automata.simulation import direct_simulation, quotient
from repro.core.budget import DeadlineExceeded, ResourceExhausted
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer

#: Skip the simulation solver above this many subtrahend states, in
#: engine runs and standalone library use alike: the solver works on
#: one ``states``-bit mask per state, but the reduction is an
#: optimization and must never dominate the difference itself.
_SIM_STATE_GUARD = 512


def _paired(state: State) -> tuple[State, MacroState]:
    return state


def _bare(state: MacroState) -> tuple[None, MacroState]:
    return None, state


class SubsumptionOracle(EmptyOracle):
    """``ceil(emp)`` of Eq. 10: an antichain of empty product states.

    Entries are grouped by the GBA-side state ``qA``; within a group only
    ``<='``-maximal complement macro-states are kept (a smaller-language
    macro-state subsumed by a recorded empty one is empty too).

    ``relation`` is Eq. 4 ``subsumes`` or Eq. 5 ``subsumes_b``; the
    antichain scan reads the macro-state's component bitmasks directly,
    with a component-size (popcount) pre-filter in front of the bitwise
    checks.

    ``simulation`` (pairs ``(q, r)`` = "``q`` is direct-simulated by
    ``r``" on the prepared SDBA) coarsens the order: components that
    tolerate it compare modulo the simulation's down-closure (see the
    module docstring for which components, per relation, and why).  A
    trivial relation (identity only) is ignored; a nontrivial one needs
    ``complement``, the NCSB construction whose :attr:`order` numbers
    the bits of the macro-states.

    Algorithm 1 asks by id (:meth:`bind`); :meth:`add` and
    :meth:`contains` take states and number them here.  Each id's row
    ``[qA, entry, answer]`` is filled on its first query.  Bound to a
    :class:`~repro.automata.ops.NumberedProduct`'s pairs, the row reads
    ``qA`` and the macro-state's number off the product's per-id
    arrays, and keeps one entry per macro-state number.  Otherwise the
    shape of the states -- ``(qA, MacroState)`` pairs (an NCSB product)
    or bare macro-states (from standalone complementation, as in the
    Figure 4 experiments; one group) -- is read off the first one and
    fixed for the oracle; any other shape (or a product whose right
    side is not NCSB) is a ``ValueError``.

    ``answer`` remembers a scan's result for as long as it provably
    holds.  "Covered" is final: :meth:`add` drops only entries the new
    one subsumes, and the order is transitive, so the covered set only
    grows.  "Not covered" is the group list it was computed against,
    reused while that list is the group: :meth:`add` replaces the list
    whenever it changes the group.  An added id is covered.
    """

    def __init__(self, relation: Callable[[MacroState, MacroState], bool],
                 simulation: set[tuple[State, State]] | None = None,
                 complement=None):
        super().__init__()
        self._names: Sequence[State] = ()
        self._rows: list[list | None] = []
        #: the bound product's per-id lists and the entries by
        #: macro-state number; None when bound to plain states
        self._pairs: ProductPairs | None = None
        self._macro_entries: list[tuple | None] = []
        #: state -> id, for the state-keyed :meth:`add`/:meth:`contains`
        self._own: dict[State, int] | None = None
        self._split: Callable[[State], tuple] | None = None
        self._entries: dict[MacroState, tuple] = {}
        if relation not in (subsumes, subsumes_b):
            raise ValueError("the antichain orders are subsumes and subsumes_b")
        self._check_b = relation is subsumes_b
        #: ``down[i]`` = bitmask of ``{q : q direct-simulated by the
        #: state of bit i}``; None disables the coarsened path.
        self._down: list[int] | None = None
        self._closure_cache: dict[int, tuple[int, int]] = {}
        if simulation is not None and any(p != r for p, r in simulation):
            if complement is None:
                raise ValueError("a simulation needs the complement that "
                                 "numbers the macro-state bits")
            index = {q: i for i, q in enumerate(complement.order)}
            down = [1 << i for i in range(len(index))]
            for q, r in simulation:
                down[index[r]] |= 1 << index[q]
            self._down = down
        #: Per-group entries: ``(macro, raw, closure)`` -- bitset
        #: encodings, ``closure`` only on the coarsened path.  A group's
        #: list is never changed in place.
        self._groups: dict[State, list[tuple[MacroState, tuple[int, ...],
                                             tuple[int, ...] | None]]] = {}
        self._size = 0
        self.prefilter_skips = 0
        #: Antichain hits that only the simulation-coarsened order found
        #: (the raw componentwise-superset check would have missed them).
        self.sim_subsumption_hits = 0

    def _closure(self, states: int) -> tuple[int, int]:
        """Bitmask and popcount of the simulation down-closure of a
        component mask (every state simulated by some member)."""
        cached = self._closure_cache.get(states)
        if cached is None:
            mask = image(self._down, states)
            cached = self._closure_cache[states] = (mask, mask.bit_count())
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
        n, c, s, b = macro
        raw = (n, c, s, b, n.bit_count(), c.bit_count(), s.bit_count(),
               b.bit_count())
        if self._down is None:
            return macro, raw, None
        (cn, cln), (cc, clc) = self._closure(n), self._closure(c)
        (cs, cls), (cb, clb) = self._closure(s), self._closure(b)
        return macro, raw, (cn, cc, cs, cb, cln, clc, cls, clb)

    def _fill(self, i: int) -> list:
        """Fill id ``i``'s row: group key, entry and no answer yet."""
        rows, pairs = self._rows, self._pairs
        if pairs is not None:
            if len(rows) < len(pairs.lefts):
                rows.extend([None] * (len(pairs.lefts) - len(rows)))
            r, entries = pairs.right_ids[i], self._macro_entries
            if r >= len(entries):
                entries.extend([None] * (len(pairs.rights) - len(entries)))
            entry = entries[r]
            if entry is None:
                macro = pairs.rights[r]
                if not isinstance(macro, MacroState):
                    raise ValueError("the antichain holds NCSB states, "
                                     f"not {macro!r}")
                entry = entries[r] = self._entry(macro)
            row = rows[i] = [pairs.lefts[i], entry, None]
            return row
        names = self._names
        if len(rows) < len(names):
            rows.extend([None] * (len(names) - len(rows)))
        state = names[i]
        split = self._split
        if split is None:
            if isinstance(state, MacroState):
                split = _bare
            elif (isinstance(state, tuple) and len(state) == 2
                  and isinstance(state[1], MacroState)):
                split = _paired
            else:
                raise ValueError("the antichain holds NCSB states: "
                                 f"(qA, MacroState) pairs or macro-states, "
                                 f"not {state!r}")
            self._split = split
        q_a, macro = split(state)
        entry = self._entries.get(macro)
        if entry is None:
            entry = self._entries[macro] = self._entry(macro)
        row = rows[i] = [q_a, entry, None]
        return row

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

    def bind(self, names: Sequence[State]) -> tuple[Callable[[int], bool],
                                                    Callable[[int], None]]:
        """Ask by id into ``names`` (id -> state) from now on.  The rows
        start empty; the recorded antichain is kept."""
        self._names, self._rows, self._own = names, [], None
        self._pairs = names if isinstance(names, ProductPairs) else None
        self._macro_entries = []
        return self._contains_id, self._add_id

    def _id(self, state: State) -> int:
        """Number ``state`` for the state-keyed :meth:`add` and
        :meth:`contains`."""
        own = self._own
        if own is None:
            self.bind([])
            own = self._own = {}
        i = own.get(state)
        if i is None:
            i = own[state] = len(self._names)
            self._names.append(state)
        return i

    def add(self, state: State) -> None:
        self._add_id(self._id(state))

    def contains(self, state: State) -> bool:
        return self._contains_id(self._id(state))

    def _add_id(self, i: int) -> None:
        rows = self._rows
        row = (rows[i] if i < len(rows) else None) or self._fill(i)
        q_a, entry, answer = row
        if answer is True:
            return  # already covered
        row[2] = True
        group = self._groups.get(q_a)
        if group is None:
            survivors = [entry]
        elif answer is not group and self._covered(entry, group):
            return  # already covered
        else:
            survivors = [existing for existing in group
                         if not self._subsumed(existing, entry)]
            survivors.append(entry)
            self._size -= len(group)
        self._size += len(survivors)
        self._groups[q_a] = survivors
        _metrics.gauge("difference.antichain.peak").max_of(self._size)

    def _contains_id(self, i: int) -> bool:
        rows = self._rows
        row = (rows[i] if i < len(rows) else None) or self._fill(i)
        q_a, entry, answer = row
        if answer is True:
            return True
        group = self._groups.get(q_a)
        if group is None or answer is group:
            return False
        if self._covered(entry, group):
            row[2] = True
            return True
        row[2] = group
        return False

    def __len__(self) -> int:
        return self._size


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
    no two states are mutually similar (:func:`quotient` then builds no
    automaton), when it would worsen the complementation class (or
    break a pinned ``kind``'s requirements), and when the simulation
    budget blows (plain :class:`ResourceExhausted`; deadlines
    propagate).
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
        guard = KIND_GUARDS.get(kind)
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


def _collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused, and give
    the caller back the collector as it found it on every exit.  The
    switch is process-wide, so this holds only while no other thread
    flips it meanwhile; differences run on one thread per process."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass
class DifferenceResult:
    """Outcome of a difference computation."""

    automaton: GBA
    kind: ComplementKind
    stats: RemovalStats

    @property
    def is_empty(self) -> bool:
        return not self.automaton.initial_states()


@_collector_paused
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

    ``cache`` (default on) selects the product.  On, it is a
    :class:`~repro.automata.ops.NumberedProduct`, the one memo of the
    call: it asks the minuend once per state and symbol and the
    complement once per complement state and symbol.  Off, it is the
    plain :class:`~repro.automata.ops.ProductGBA` over pairs, with no
    memo anywhere: it asks both sides once per product state and
    symbol, and Algorithm 1 numbers the pairs as it discovers them.
    Both give the same automaton and exploration counts; only the
    ``complement.<kind>.*`` counts, which tally the questions asked,
    are higher with the cache off.  Either way the call runs with the cyclic
    garbage collector paused, so that nothing the build allocates is
    scanned while it lives; what dies with the call is freed by
    refcount, and only the result is left for the collector (see the
    module docstring for why the pause spans the whole call).

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
            product = (NumberedProduct if cache else ProductGBA)(minuend,
                                                                 comp)
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
                oracle = SubsumptionOracle(relation, simulation=simulation,
                                           complement=comp)
            def register(stats: RemovalStats) -> None:
                """Fold the oracle counters into ``stats`` and account
                the attempt, the complement's counts included, in the
                metrics registry."""
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
                expansions = getattr(comp, "expansions", 0)
                if expansions:
                    registry.counter(
                        f"complement.{comp.KIND}.expansions").inc(expansions)
                    registry.counter(
                        f"complement.{comp.KIND}.macrostates").inc(comp.macrostates)
                registry.counter("difference.calls").inc()
                registry.counter("difference.explored_states").inc(stats.explored_states)
                registry.counter("difference.explored_edges").inc(stats.explored_edges)
                registry.counter("difference.subsumption_hits").inc(stats.subsumption_hits)
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
