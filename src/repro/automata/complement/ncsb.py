"""NCSB complementation of semideterministic Buechi automata.

Implements both algorithms compared in the paper:

- **NCSB-Original** (Blahoudek et al., TACAS'16; Definition 5.1): every
  time a run in ``C`` leaves an accepting state, the construction
  *eagerly* guesses whether that was its last accepting visit (move to
  ``S``) or not (stay in ``C``).
- **NCSB-Lazy** (Section 5.3): guessing is *delayed* to breakpoints.
  While ``B`` is nonempty, only runs in ``B`` leaving an accepting state
  may be guessed into ``S``; when ``B`` empties (an accepting
  macro-state), any non-accepting state of the pool may be moved to
  ``S`` at once.

Both are exposed as on-the-fly :class:`~repro.automata.gba.ImplicitGBA`
BAs over macro-states ``(N, C, S, B)``; the difference construction of
Section 4 explores them lazily.  The subsumption relations of Section 6
(``subsumes`` = Eq. 4, ``subsumes_b`` = Eq. 5) live here too.

The input SDBA must be *complete* and *normalized* (Section 2: every
``Q1 -> Q2`` entry and every initial ``Q2`` state is accepting); use
:func:`repro.automata.classify.normalize_sdba` and
:func:`repro.automata.ops.complete` first -- or the convenience
:func:`prepare_sdba` below.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

import repro.faults as _faults
from repro.automata.classify import (is_complete, is_normalized_sdba,
                                     normalize_sdba, sdba_parts)
from repro.automata.gba import GBA, State, Symbol
from repro.automata.ops import complete
from repro.core.budget import current_budget
from repro.obs import metrics as _metrics


class MacroState(NamedTuple):
    """An NCSB macro-state ``(N, C, S, B)`` with ``B <= C``, ``S ^ F = {}``.

    A named tuple, so hashing and equality run as C tuple operations --
    every product-state lookup of the difference hashes one.  The hash
    is ``hash((n, c, s, b))`` and the ``repr`` the field-named form;
    set iteration orders (and with them the exploration order and the
    counterexample found) depend on the first, the ``key=repr`` sort of
    initial states on the second, so the fields keep this order.
    """

    n: frozenset[State]
    c: frozenset[State]
    s: frozenset[State]
    b: frozenset[State]

    def is_accepting(self) -> bool:
        return not self.b

    def __str__(self) -> str:
        def fmt(xs: frozenset) -> str:
            return "{" + ",".join(sorted(map(str, xs))) + "}"
        return f"({fmt(self.n)},{fmt(self.c)},{fmt(self.s)},{fmt(self.b)})"


def _powerset(items: Iterable[State]) -> Iterator[frozenset[State]]:
    items = sorted(items, key=repr)
    return (frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r))


def prepare_sdba(auto: GBA, alphabet: Iterable[Symbol] | None = None) -> GBA:
    """Complete and normalize an SDBA for NCSB complementation."""
    completed = complete(auto, alphabet)
    return normalize_sdba(completed)


class _NCSBBase:
    """Shared structure of the two NCSB constructions."""

    #: Metric-name segment; overridden per construction.
    KIND = "ncsb"

    def __init__(self, auto: GBA):
        if not auto.is_ba():
            raise ValueError("NCSB expects a BA")
        if not is_complete(auto):
            raise ValueError("NCSB expects a complete automaton; call prepare_sdba")
        if not is_normalized_sdba(auto):
            raise ValueError("NCSB expects a normalized SDBA; call prepare_sdba")
        parts = sdba_parts(auto)
        assert parts is not None
        self._auto = auto
        self._q1, self._q2 = parts
        self._f = auto.accepting
        self._succ_cache: dict[tuple[MacroState, Symbol], list[MacroState]] = {}
        self._metric_expansions = f"complement.{self.KIND}.expansions"
        self._metric_macrostates = f"complement.{self.KIND}.macrostates"

    @property
    def sdba(self) -> GBA:
        """The prepared (complete, normalized) input SDBA: macro-state
        components are subsets of its states."""
        return self._auto

    @property
    def parts(self) -> tuple[frozenset[State], frozenset[State]]:
        """The ``(Q1, Q2)`` split of the prepared SDBA."""
        return self._q1, self._q2

    # -- ImplicitGBA protocol ------------------------------------------------

    @property
    def alphabet(self) -> frozenset:
        return self._auto.alphabet

    @property
    def acceptance_count(self) -> int:
        return 1

    def initial_states(self) -> list[MacroState]:
        initial = self._auto.initial_states()
        q2_init = frozenset(initial & self._q2)
        return [MacroState(frozenset(initial & self._q1), q2_init,
                           frozenset(), q2_init)]

    def accepting_sets_of(self, state: MacroState) -> frozenset[int]:
        return frozenset([0]) if state.is_accepting() else frozenset()

    def successors(self, state: MacroState, symbol: Symbol) -> list[MacroState]:
        """Memoized: the difference product asks for the same complement
        state from many product states."""
        key = (state, symbol)
        cached = self._succ_cache.get(key)
        if cached is None:
            if _faults._ACTIVE is not None:
                _faults.perturb("complement.ncsb")
            cached = self._compute_successors(state, symbol)
            self._succ_cache[key] = cached
            _metrics.inc(self._metric_expansions)
            _metrics.inc(self._metric_macrostates, len(cached))
            budget = current_budget()
            if budget is not None:
                budget.charge_macrostates(len(cached))
        return cached

    # -- shared delta helpers ---------------------------------------------------

    def _delta1(self, states: frozenset[State], symbol: Symbol) -> frozenset[State]:
        """Successors of Q1 states staying in Q1."""
        out: set[State] = set()
        for q in states:
            out |= self._auto.successors(q, symbol) & self._q1
        return frozenset(out)

    def _delta_t(self, states: frozenset[State], symbol: Symbol) -> frozenset[State]:
        """Successors of Q1 states entering Q2 (all accepting, by normalization)."""
        out: set[State] = set()
        for q in states:
            out |= self._auto.successors(q, symbol) & self._q2
        return frozenset(out)

    def _delta2(self, states: frozenset[State], symbol: Symbol) -> frozenset[State]:
        """Deterministic successors of Q2 states."""
        out: set[State] = set()
        for q in states:
            succ = self._auto.successors(q, symbol)
            assert len(succ) == 1, "Q2 must be deterministic and complete"
            out |= succ
        return frozenset(out)


class NCSBOriginal(_NCSBBase):
    """NCSB-Original: Definition 5.1 (eager guessing)."""

    KIND = "ncsb-original"

    def _compute_successors(self, state: MacroState, symbol: Symbol) -> list[MacroState]:
        n2 = self._delta1(state.n, symbol)
        s_min = self._delta2(state.s, symbol)
        if s_min & self._f:
            return []  # a safe run touched an accepting state: blocked
        pool = self._delta_t(state.n, symbol) | self._delta2(state.c | state.s, symbol)
        c_min = self._delta2(state.c - self._f, symbol)  # rule 5
        if c_min & s_min:
            return []  # rules 3-5 are unsatisfiable together
        # Mandatory C members: c_min plus every accepting pool state.
        c_base = c_min | (pool & self._f)
        if c_base & s_min:
            return []
        free = pool - c_base - s_min
        out: list[MacroState] = []
        for extra_s in _powerset(free):
            c2 = c_base | (free - extra_s)
            s2 = s_min | extra_s
            b2 = c2 if not state.b else self._delta2(state.b, symbol) & c2
            out.append(MacroState(n2, c2, s2, b2))
        return out


class NCSBLazy(_NCSBBase):
    """NCSB-Lazy: Section 5.3 (guessing delayed to breakpoints)."""

    KIND = "ncsb-lazy"

    def _compute_successors(self, state: MacroState, symbol: Symbol) -> list[MacroState]:
        n2 = self._delta1(state.n, symbol)
        s_min = self._delta2(state.s, symbol)
        if s_min & self._f:
            return []  # rule a4/b4: safe runs stay safe
        if not state.b:
            # Rules a1-a6: B empty (accepting macro-state): free guessing of
            # every non-accepting, non-safe pool state.
            pool = (self._delta_t(state.n, symbol)
                    | self._delta2(state.c | state.s, symbol))
            free = pool - self._f - s_min
            out: list[MacroState] = []
            for extra_s in _powerset(free):
                c2 = pool - s_min - extra_s
                s2 = s_min | extra_s
                out.append(MacroState(n2, c2, s2, c2))  # rule a6: B' = C'
            return out
        # Rules b1-b6: B nonempty: only successors of accepting B states
        # may be guessed into S.
        b_min = self._delta2(state.b - self._f, symbol)  # rule b6
        if b_min & s_min:
            return []  # rules b3+b4+b6 conflict
        b_pool = self._delta2(state.b, symbol)
        free = b_pool - b_min - s_min - self._f  # S' excludes accepting states
        dt = self._delta_t(state.n, symbol)
        c_all = self._delta2(state.c, symbol) | dt
        out = []
        for extra_s in _powerset(free):
            s2 = s_min | extra_s
            b2 = b_pool - s2
            c2 = c_all - s2  # rule b5
            out.append(MacroState(n2, c2, s2, b2))
        return out


# -- subsumption (Section 6) -----------------------------------------------------

class MacroEncoder:
    """Interned bitset encoding of :class:`MacroState` components.

    Bit positions are assigned to SDBA states lazily on first encounter,
    so the encoder needs no up-front universe; each component frozenset
    and each macro-state is interned, making repeated encodings O(1).
    A component set becomes an int bitmask, so the superset tests of the
    subsumption relations (Eqs. 4/5) reduce to single-word ``&``/``==``
    operations -- the hot loop of the ``ceil(emp)`` antichain.

    An encoded macro is ``(n, c, s, b, ln, lc, ls, lb)``: four bitmasks
    plus the component sizes, used as a cheap antichain pre-filter
    (``x ⊇ y`` needs ``|x| >= |y|``).
    """

    def __init__(self) -> None:
        self._bit_of: dict[State, int] = {}
        self._set_cache: dict[frozenset, int] = {}
        self._macro_cache: dict[MacroState, tuple[int, ...]] = {}

    def bit(self, state: State) -> int:
        """The (lazily assigned) bit of a single SDBA state."""
        bit = self._bit_of.get(state)
        if bit is None:
            bit = 1 << len(self._bit_of)
            self._bit_of[state] = bit
        return bit

    def _bits(self, states: frozenset) -> int:
        cached = self._set_cache.get(states)
        if cached is None:
            bit_of = self._bit_of
            cached = 0
            for q in states:
                bit = bit_of.get(q)
                if bit is None:
                    bit = 1 << len(bit_of)
                    bit_of[q] = bit
                cached |= bit
            self._set_cache[states] = cached
        return cached

    def encode(self, macro: MacroState) -> tuple[int, ...]:
        cached = self._macro_cache.get(macro)
        if cached is None:
            cached = (self._bits(macro.n), self._bits(macro.c),
                      self._bits(macro.s), self._bits(macro.b),
                      len(macro.n), len(macro.c), len(macro.s), len(macro.b))
            self._macro_cache[macro] = cached
        return cached


def subsumes(small: MacroState, big: MacroState) -> bool:
    """``small <= big`` in the relation of Eq. 4: componentwise superset
    on N, C, S.  Implies language inclusion for NCSB-Original macro-states."""
    return (small.n >= big.n) and (small.c >= big.c) and (small.s >= big.s)


def subsumes_b(small: MacroState, big: MacroState) -> bool:
    """``small <=_B big`` of Eq. 5: additionally ``B`` superset.  Implies
    language inclusion for both NCSB variants."""
    return subsumes(small, big) and (small.b >= big.b)
