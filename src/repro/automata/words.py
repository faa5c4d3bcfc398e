"""Ultimately periodic words ``u v^w`` and membership testing.

The refinement loop communicates counterexamples as ultimately periodic
(lasso-shaped) words; stage selection checks ``u v^w in L(M_i)``
membership against candidate modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.automata.gba import ImplicitGBA, Symbol


@dataclass(frozen=True)
class UPWord:
    """An ultimately periodic word ``prefix . period^w``  (period nonempty)."""

    prefix: tuple[Symbol, ...]
    period: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("the period of an ultimately periodic word is empty")

    def symbols(self) -> Iterator[Symbol]:
        """Infinite iterator over the word's symbols."""
        yield from self.prefix
        while True:
            yield from self.period

    def at(self, index: int) -> Symbol:
        if index < len(self.prefix):
            return self.prefix[index]
        return self.period[(index - len(self.prefix)) % len(self.period)]

    def unroll_once(self) -> "UPWord":
        """``u v^w = (u v) v^w`` -- used when an empty stem must be avoided."""
        return UPWord(self.prefix + self.period, self.period)

    def canonical(self) -> "UPWord":
        """A normal form: minimal period rotation-free, maximal prefix folding.

        Two UPWords denote the same omega-word iff their canonical forms
        are equal.  The period is reduced to its primitive root; then
        the prefix is folded back while its tail matches the period's
        tail (e.g. ``a . (ba)^w`` becomes ``(ab)^w``).
        """
        period = list(self.period)
        # primitive root of the period
        n = len(period)
        for d in range(1, n + 1):
            if n % d == 0 and period == period[:d] * (n // d):
                period = period[:d]
                break
        prefix = list(self.prefix)
        while prefix and prefix[-1] == period[-1]:
            prefix.pop()
            period = [period[-1]] + period[:-1]
        return UPWord(tuple(prefix), tuple(period))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UPWord):
            return NotImplemented
        if (self.prefix, self.period) == (other.prefix, other.period):
            return True
        a, b = self.canonical(), other.canonical()
        return (a.prefix, a.period) == (b.prefix, b.period)

    def __hash__(self) -> int:
        c = self.canonical()
        return hash((c.prefix, c.period))

    def __str__(self) -> str:
        stem = " ".join(str(s) for s in self.prefix)
        loop = " ".join(str(s) for s in self.period)
        return f"{stem} ({loop})^w" if stem else f"({loop})^w"


def accepts(auto: ImplicitGBA, word: UPWord) -> bool:
    """Does the GBA accept the ultimately periodic word?

    Runs the standard product-with-lasso construction: positions of the
    word form a lasso graph, and the word is accepted iff the
    ``(position, state)`` product reachable from the initial states has
    an SCC with an edge that hits every acceptance set.  Such an SCC
    lies in the loop part (stem positions only move forward).  Works
    for any implicit GBA: the SCC search explores the product on the
    fly and stops at the first accepting component.
    """
    # Imported here: the emptiness module imports this one for UPWord.
    from repro.automata.emptiness import accepting_scc, tarjan_sccs
    last = len(word.prefix) + len(word.period) - 1
    edges: dict[tuple[int, object], list[tuple[int, object]]] = {}

    def successors(node: tuple[int, object]) -> list[tuple[int, object]]:
        out = edges.get(node)
        if out is None:
            pos, q = node
            nxt = pos + 1 if pos < last else len(word.prefix)
            out = edges[node] = [(nxt, q2) for q2 in
                                 auto.successors(q, word.at(pos))]
        return out

    def accepting_sets_of(node: tuple[int, object]) -> frozenset[int]:
        return auto.accepting_sets_of(node[1])

    k = auto.acceptance_count
    roots = [(0, q) for q in auto.initial_states()]
    return any(accepting_scc(c, successors, accepting_sets_of, k)
               for c in tarjan_sccs(roots, successors))
