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

A construction numbers the states of its SDBA in ``repr`` order
(:attr:`_NCSBBase.order`), and every macro-state component is an int
bitmask over those numbers.  The successor function is mask arithmetic:
per symbol, a row of successor masks (one per state, built on the
symbol's first use) gives the image of a component as the OR of the
rows of its set bits, and ``Q1``/``Q2``/``F`` are masks too.  The
guesses are enumerated by size and then in ascending bit order, so the
successor lists come out in the order of a ``repr``-sorted enumeration
of state sets.  :meth:`_NCSBBase.decode` turns a macro-state back into
state sets, for tests and printing.

The input SDBA must be *complete* and *normalized* (Section 2: every
``Q1 -> Q2`` entry and every initial ``Q2`` state is accepting); use
:func:`repro.automata.classify.normalize_sdba` and
:func:`repro.automata.ops.complete` first -- or the convenience
:func:`prepare_sdba` below.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

import repro.faults as _faults
from repro.automata.classify import (entries_accepting, is_complete,
                                     normalize_sdba, sdba_parts)
from repro.automata.gba import GBA, State, Symbol
from repro.automata.ops import complete


class MacroState(NamedTuple):
    """An NCSB macro-state ``(N, C, S, B)`` with ``B <= C``, ``S ^ F = {}``.

    Each component is an int bitmask over the states of the
    construction's SDBA: bit ``i`` is the ``i``-th state of
    :attr:`_NCSBBase.order`.  A named tuple of ints, so hashing and
    equality run as C tuple operations -- every product-state lookup of
    the difference hashes one -- and neither depends on the hash seed.
    Set inclusion is ``x & y == y``; an int's ``>=`` is numeric
    comparison, not inclusion.
    """

    n: int
    c: int
    s: int
    b: int

    def is_accepting(self) -> bool:
        return not self.b


def image(row: list[int], mask: int) -> int:
    """OR of ``row[i]`` over the set bits ``i`` of ``mask``: the image
    of a state set under a per-state successor row."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _subsets(free: int) -> list[int]:
    """Every subset of the mask ``free``: by size, then in ascending bit
    order (``itertools.combinations`` over the set bits)."""
    bits = []
    while free:
        low = free & -free
        bits.append(low)
        free ^= low
    return [sum(chosen) for r in range(len(bits) + 1)
            for chosen in combinations(bits, r)]


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
        parts = sdba_parts(auto)  # None when Q2 is not deterministic
        if parts is None or not entries_accepting(auto, *parts):
            raise ValueError("NCSB expects a normalized SDBA; call prepare_sdba")
        self._auto = auto
        self._parts = parts
        self._order = tuple(sorted(auto.states, key=repr))
        self._bit = {q: 1 << i for i, q in enumerate(self._order)}
        self._q1, self._q2 = self.mask(parts[0]), self.mask(parts[1])
        self._f = self.mask(auto.accepting)
        #: symbol -> successor mask of each state, in bit order
        self._rows: dict[Symbol, list[int]] = {}
        #: successor computations and the macro-states they returned;
        #: ``difference`` adds them to ``complement.<KIND>.*`` per call
        self.expansions = 0
        self.macrostates = 0

    @property
    def sdba(self) -> GBA:
        """The prepared (complete, normalized) input SDBA: macro-state
        components are subsets of its states."""
        return self._auto

    @property
    def parts(self) -> tuple[frozenset[State], frozenset[State]]:
        """The ``(Q1, Q2)`` split of the prepared SDBA."""
        return self._parts

    @property
    def order(self) -> tuple[State, ...]:
        """The SDBA's states in bit order (``repr`` order)."""
        return self._order

    def mask(self, states: Iterable[State]) -> int:
        """The bitmask of a set of SDBA states."""
        bit, out = self._bit, 0
        for q in states:
            out |= bit[q]
        return out

    def decode(self, macro: MacroState) -> tuple[frozenset[State], ...]:
        """The four components of ``macro`` as sets of SDBA states."""
        order = self._order
        return tuple(frozenset(order[i] for i in range(mask.bit_length())
                               if mask >> i & 1)
                     for mask in macro)

    def _row(self, symbol: Symbol) -> list[int]:
        row = self._rows.get(symbol)
        if row is None:
            succ, mask = self._auto.successors, self.mask
            row = self._rows[symbol] = [mask(succ(q, symbol))
                                        for q in self._order]
        return row

    # -- ImplicitGBA protocol ------------------------------------------------

    @property
    def alphabet(self) -> frozenset:
        return self._auto.alphabet

    @property
    def acceptance_count(self) -> int:
        return 1

    def initial_states(self) -> list[MacroState]:
        initial = self.mask(self._auto.initial_states())
        q2_init = initial & self._q2
        return [MacroState(initial & self._q1, q2_init, 0, q2_init)]

    def accepting_sets_of(self, state: MacroState) -> frozenset[int]:
        return frozenset([0]) if state.is_accepting() else frozenset()

    def successors(self, state: MacroState, symbol: Symbol) -> list[MacroState]:
        """Computed on every call, with no memo: the difference's
        numbered product asks once per macro-state and symbol and keeps
        the answer."""
        if _faults._ACTIVE is not None:
            _faults.perturb("complement.ncsb")
        out = self._compute_successors(state, self._row(symbol))
        self.expansions += 1
        self.macrostates += len(out)
        return out


class NCSBOriginal(_NCSBBase):
    """NCSB-Original: Definition 5.1 (eager guessing)."""

    KIND = "ncsb-original"

    def _compute_successors(self, state: MacroState,
                            row: list[int]) -> list[MacroState]:
        f = self._f
        n, c, s, b = state
        s_min = image(row, s)
        if s_min & f:
            return []  # a safe run touched an accepting state: blocked
        c_min = image(row, c & ~f)  # rule 5
        if c_min & s_min:
            return []  # rules 3-5 are unsatisfiable together
        succ_n = image(row, n)
        n2 = succ_n & self._q1
        pool = (succ_n & self._q2) | image(row, c | s)
        # Mandatory C members: c_min plus every accepting pool state.
        c_base = c_min | (pool & f)
        if c_base & s_min:
            return []
        free = pool & ~c_base & ~s_min
        succ_b = image(row, b)
        out: list[MacroState] = []
        for extra_s in _subsets(free):
            c2 = c_base | (free & ~extra_s)
            out.append(MacroState(n2, c2, s_min | extra_s,
                                  c2 if not b else succ_b & c2))
        return out


class NCSBLazy(_NCSBBase):
    """NCSB-Lazy: Section 5.3 (guessing delayed to breakpoints)."""

    KIND = "ncsb-lazy"

    def _compute_successors(self, state: MacroState,
                            row: list[int]) -> list[MacroState]:
        f = self._f
        n, c, s, b = state
        s_min = image(row, s)
        if s_min & f:
            return []  # rule a4/b4: safe runs stay safe
        if not b:
            # Rules a1-a6: B empty (accepting macro-state): free guessing of
            # every non-accepting, non-safe pool state.
            succ_n = image(row, n)
            n2 = succ_n & self._q1
            pool = (succ_n & self._q2) | image(row, c | s)
            free = pool & ~f & ~s_min
            out: list[MacroState] = []
            for extra_s in _subsets(free):
                c2 = pool & ~s_min & ~extra_s
                out.append(MacroState(n2, c2, s_min | extra_s, c2))  # rule a6: B' = C'
            return out
        # Rules b1-b6: B nonempty: only successors of accepting B states
        # may be guessed into S.
        b_min = image(row, b & ~f)  # rule b6
        if b_min & s_min:
            return []  # rules b3+b4+b6 conflict
        b_pool = image(row, b)
        free = b_pool & ~b_min & ~s_min & ~f  # S' excludes accepting states
        succ_n = image(row, n)
        n2 = succ_n & self._q1
        c_all = image(row, c) | (succ_n & self._q2)
        out = []
        for extra_s in _subsets(free):
            s2 = s_min | extra_s
            out.append(MacroState(n2, c_all & ~s2, s2, b_pool & ~s2))  # rule b5
        return out


# -- subsumption (Section 6) -----------------------------------------------------


def subsumes(small: MacroState, big: MacroState) -> bool:
    """``small <= big`` in the relation of Eq. 4: componentwise superset
    on N, C, S.  Implies language inclusion for NCSB-Original macro-states."""
    return (small.n & big.n == big.n and small.c & big.c == big.c
            and small.s & big.s == big.s)


def subsumes_b(small: MacroState, big: MacroState) -> bool:
    """``small <=_B big`` of Eq. 5: additionally ``B`` superset.  Implies
    language inclusion for both NCSB variants."""
    return subsumes(small, big) and small.b & big.b == big.b
