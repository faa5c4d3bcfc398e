"""Reference NCSB constructions over ``frozenset`` macro-states.

A test-only oracle for :mod:`repro.automata.complement.ncsb`.  It is the
textbook reading of Definition 5.1 (NCSB-Original) and Section 5.3
(NCSB-Lazy): every component is a ``frozenset`` of SDBA states, built
one ``successors(q, a) & Q1`` at a time, and the guesses into ``S`` are
enumerated by size over the ``repr``-sorted free states.  The production
constructions work on int bitmasks; their successor lists must
``decode`` to exactly what this module returns, in the same order, and
their mask subsumption tests must agree with :func:`subsumes` /
:func:`subsumes_b` here (Eqs. 4 and 5).  The differential tests in
``test_ncsb_bitset.py`` hold them to that.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from repro.automata.classify import sdba_parts
from repro.automata.gba import GBA, State, Symbol


class RefMacroState(NamedTuple):
    """``(N, C, S, B)`` with ``B <= C`` and ``S ^ F = {}``."""

    n: frozenset[State]
    c: frozenset[State]
    s: frozenset[State]
    b: frozenset[State]


def _powerset(items: Iterable[State]) -> Iterator[frozenset[State]]:
    items = sorted(items, key=repr)
    return (frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r))


class _RefBase:
    """Shared structure of the two reference constructions.  ``auto``
    must be a complete, normalized SDBA (see ``prepare_sdba``)."""

    def __init__(self, auto: GBA):
        parts = sdba_parts(auto)
        assert parts is not None
        self._auto = auto
        self._q1, self._q2 = parts
        self._f = auto.accepting

    def initial_states(self) -> list[RefMacroState]:
        initial = self._auto.initial_states()
        q2_init = frozenset(initial & self._q2)
        return [RefMacroState(frozenset(initial & self._q1), q2_init,
                              frozenset(), q2_init)]

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


class RefNCSBOriginal(_RefBase):
    """NCSB-Original: Definition 5.1 (eager guessing)."""

    def successors(self, state: RefMacroState, symbol: Symbol) -> list[RefMacroState]:
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
        out: list[RefMacroState] = []
        for extra_s in _powerset(free):
            c2 = c_base | (free - extra_s)
            s2 = s_min | extra_s
            b2 = c2 if not state.b else self._delta2(state.b, symbol) & c2
            out.append(RefMacroState(n2, c2, s2, b2))
        return out


class RefNCSBLazy(_RefBase):
    """NCSB-Lazy: Section 5.3 (guessing delayed to breakpoints)."""

    def successors(self, state: RefMacroState, symbol: Symbol) -> list[RefMacroState]:
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
            out: list[RefMacroState] = []
            for extra_s in _powerset(free):
                c2 = pool - s_min - extra_s
                s2 = s_min | extra_s
                out.append(RefMacroState(n2, c2, s2, c2))  # rule a6: B' = C'
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
            out.append(RefMacroState(n2, c2, s2, b2))
        return out


def subsumes(small: RefMacroState, big: RefMacroState) -> bool:
    """Eq. 4: componentwise superset on N, C, S."""
    return (small.n >= big.n) and (small.c >= big.c) and (small.s >= big.s)


def subsumes_b(small: RefMacroState, big: RefMacroState) -> bool:
    """Eq. 5: Eq. 4 and a superset B."""
    return subsumes(small, big) and (small.b >= big.b)
