"""Lasso-shaped programs: a stem and a simple loop of atomic statements.

A sampled counterexample word ``u v^w`` *is* a lasso-shaped program
(Section 1); this module gives it relational semantics:

- ``stem_post`` / ``stem_posts``: strongest postconditions along the stem
  (conjunctions of linear constraints -- statements keep conjunctions
  closed, so no DNF is ever needed here),
- ``loop_relation``: one loop iteration as a constraint over unprimed
  (pre) and primed (post) variable copies, intermediates eliminated
  exactly by Fourier--Motzkin,
- ``inductive_invariant``: the largest subset of the stem-postcondition
  atoms that is preserved by the loop (a simple, always-terminating
  weakening iteration), used as the supporting invariant of the
  ranking-function synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.automata.words import UPWord
from repro.logic.atoms import Atom, Rel, atom_eq
from repro.logic.linconj import TRUE, LinConj
from repro.logic.terms import LinTerm, var
from repro.program.statements import Assign, Assume, Havoc, Statement


def primed(name: str) -> str:
    return name + "!post"


def _stage_name(name: str, index: int) -> str:
    return f"{name}!v{index}"


def _ssa_path(statements: Sequence[Statement], variables: Iterable[str],
             ) -> tuple[list[list[Atom]], list[dict[str, str]]]:
    """A statement path in SSA form: its atom groups and its versions.

    Every assignment or havoc of ``v`` at position ``k`` stages ``v``
    through the fresh version ``v!vk``.  Returns ``(groups, versions)``:
    ``groups[k]`` holds the atoms statement ``k`` contributes, over the
    versions current before it, and ``versions[k]`` names each variable's
    version after the first ``k`` statements (``versions[0]`` is the
    identity).  Raises :class:`TypeError` on any other statement kind.
    """
    current = {v: v for v in variables}
    terms: dict[str, LinTerm] = {v: var(v) for v in current}
    groups: list[list[Atom]] = []
    versions = [current]
    for index, stmt in enumerate(statements):
        group: list[Atom] = []
        if isinstance(stmt, Assume):
            group = [atom.substitute(terms) for atom in stmt.cond.atoms]
        elif isinstance(stmt, (Assign, Havoc)):
            fresh = _stage_name(stmt.var, index)
            if isinstance(stmt, Assign):
                group = [atom_eq(var(fresh), stmt.expr.substitute(terms))]
            current = {**current, stmt.var: fresh}
            terms = {**terms, stmt.var: var(fresh)}
        else:
            raise TypeError(f"unsupported statement in a lasso: {stmt!r}")
        groups.append(group)
        versions.append(current)
    return groups, versions


@dataclass(frozen=True)
class LoopRelation:
    """One loop iteration as ``rel`` over ``pre`` and ``primed(pre)`` vars."""

    rel: LinConj
    variables: tuple[str, ...]

    def is_infeasible(self) -> bool:
        return self.rel.is_unsat()

    def post_of(self, pre: LinConj) -> LinConj:
        """Image of ``pre`` under the relation, as a constraint on the
        (unprimed) variables."""
        combined = self.rel.and_(pre)
        projected = combined.project_away(self.variables)
        return projected.rename({primed(v): v for v in self.variables})


class Lasso:
    """A stem plus a nonempty loop of atomic statements."""

    def __init__(self, stem: Iterable[Statement], loop: Iterable[Statement]):
        self.stem: tuple[Statement, ...] = tuple(stem)
        self.loop: tuple[Statement, ...] = tuple(loop)
        if not self.loop:
            raise ValueError("a lasso needs a nonempty loop")
        names: set[str] = set()
        for stmt in self.stem + self.loop:
            names |= stmt.variables()
        self.variables: tuple[str, ...] = tuple(sorted(names))

    @staticmethod
    def from_word(word: UPWord) -> "Lasso":
        """Lasso of a sampled counterexample.

        The word is canonicalized first (period reduced to its primitive
        root, stem folded into the period where possible) -- sampling
        artifacts like a doubled-up period would otherwise degrade the
        generalization.  An empty stem is then unrolled once (footnote 1
        of the paper: ``v^w = v . v^w``).
        """
        word = word.canonical()
        if not word.prefix:
            word = word.unroll_once()
        return Lasso(word.prefix, word.period)

    def word(self) -> UPWord:
        return UPWord(self.stem, self.loop)

    # -- stem semantics ---------------------------------------------------------

    def stem_posts(self) -> list[LinConj]:
        """Strongest postconditions after each stem prefix (index 0 = TRUE)."""
        posts = [TRUE]
        current = TRUE
        for stmt in self.stem:
            current = stmt.sp_conj(current)
            posts.append(current)
        return posts

    def stem_post(self) -> LinConj:
        return self.stem_posts()[-1]

    def stem_infeasible_at(self) -> int | None:
        """First stem position whose postcondition is unsatisfiable."""
        for index, post in enumerate(self.stem_posts()):
            if post.is_unsat():
                return index
        return None

    # -- loop semantics -----------------------------------------------------------

    def loop_relation(self) -> LoopRelation:
        """The loop body as a relation between pre and post states.

        Intermediate valuations are staged through fresh variable
        versions and eliminated by projection, so the result is the
        exact (rational) composition of the statement relations.
        """
        groups, versions = _ssa_path(self.loop, self.variables)
        atoms = [atom for group in groups for atom in group]
        temps = [versions[k + 1][stmt.var] for k, stmt in enumerate(self.loop)
                 if not isinstance(stmt, Assume)]
        for name in self.variables:
            atoms.append(atom_eq(var(primed(name)), var(versions[-1][name])))
        rel = LinConj(atoms).project_away(temps)
        return LoopRelation(rel, self.variables)

    def stem_interpolants(self) -> list[LinConj] | None:
        """Sequence interpolants along an infeasible stem.

        Returns predicates ``I_0 .. I_len(stem)`` over the program
        variables with ``I_0 = TRUE``, ``I_end`` unsatisfiable, and
        every ``{I_k} stem[k] {I_{k+1}}`` a valid Hoare triple -- or
        ``None`` when the stem is feasible (or the path is outside the
        Farkas fragment).  Unlike strongest postconditions, interpolants
        mention only what the contradiction needs, which is what lets
        infeasibility modules generalize (see
        :mod:`repro.logic.interpolation`).
        """
        from repro.logic.interpolation import sequence_interpolants

        try:
            groups, versions = _ssa_path(self.stem, self.variables)
        except TypeError:
            return None
        chain = sequence_interpolants(groups)
        if chain is None:
            return None
        # rename each interpolant's SSA versions back to program variables
        renamed: list[LinConj] = []
        for interpolant, names in zip(chain, versions):
            back = {ssa: v for v, ssa in names.items()}
            renamed.append(interpolant.rename(back))
        return renamed

    def inductive_invariant(self) -> LinConj:
        """An inductive invariant at the loop head established by the stem.

        Starts from the stem postcondition and repeatedly drops atoms
        not preserved by one loop iteration; terminates because atoms
        only ever get dropped.  The result ``inv`` satisfies
        ``stem_post |= inv`` and ``post_of(inv) |= inv``.
        """
        relation = self.loop_relation()
        # Split equalities into inequality pairs so one half can survive
        # the weakening when the other is not preserved (x = 10 -> x <= 10).
        candidate: list[Atom] = []
        for atom in self.stem_post().atoms:
            if atom.rel is Rel.EQ:
                candidate.append(Atom(atom.term, Rel.LE))
                candidate.append(Atom(-atom.term, Rel.LE))
            else:
                candidate.append(atom)
        while True:
            inv = LinConj(candidate)
            post = relation.post_of(inv)
            surviving = [a for a in candidate if post.entails_atom(a)]
            if len(surviving) == len(candidate):
                return inv
            candidate = surviving

    def __str__(self) -> str:
        return str(self.word())
