"""Atomic program statements and their semantics.

Statements are the alphabet symbols of the program automaton (Section 2
of the paper: "The alphabet is the set of statements appearing in P").
Two occurrences of the same statement text denote the same symbol, so
statements are interned value objects.

Each statement carries three semantic views:

- a **binary relation over valuations** (``execute``: concrete small-step
  semantics, partial on failed assumes),
- a **strongest-postcondition transformer** on conjunctions of linear
  constraints (``sp_conj``) and on the two-case rank-certificate
  predicates (``sp_pred``),
- a display ``text`` used for printing words/paths.

Hoare-triple validity ``{P} stmt {Q}`` -- the engine behind Definitions
3.1 and 3.2 -- is ``stmt.sp_pred(P).entails(Q)``; soundness follows from
``sp_conj`` being the exact (rational) strongest postcondition.

Strongest postconditions and Hoare triples ask the one per-run memo
(:mod:`repro.logic.memo`), keyed on conjunctions and predicates by
their atoms in order; they reach the ``solver.entailment`` fault site.
``logic.sp.memo_hits`` and ``logic.hoare.memo_hits`` count the answers
served from the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from repro.logic.atoms import atom_eq
from repro.logic.linconj import LinConj
from repro.logic.memo import ask
from repro.logic.predicates import OLDRNK, Pred
from repro.logic.terms import LinTerm, var as mkvar


def _pred_key(pred: Pred) -> tuple:
    """``pred``'s disjuncts as atom tuples, in order."""
    return (tuple(d.atoms for d in pred.inf_disjuncts),
            tuple(d.atoms for d in pred.fin_disjuncts))


#: Valuations map variable names to exact rationals (integer-valued in
#: well-formed runs; Fractions keep the interpreter total).
Valuation = dict[str, Fraction]


def _fresh(name: str, taken: frozenset[str]) -> str:
    candidate = f"{name}'"
    while candidate in taken:
        candidate += "'"
    return candidate


@dataclass(frozen=True, eq=False)
class Statement:
    """Base class of atomic statements.  Value identity = semantics.

    Statements are every automaton's symbols, so they key the product
    states, successor memos and the solver memo's keys of the whole
    analysis.  Each one computes its hash once, at construction, from
    its fields; equality checks identity, then the class and the hash,
    and only then compares the fields.
    """

    def __post_init__(self) -> None:
        key = tuple(getattr(self, f.name) for f in fields(self))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Statement):
            return NotImplemented
        return (type(self) is type(other) and self._hash == other._hash
                and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def sp_conj(self, pre: LinConj) -> LinConj:
        """Strongest postcondition on a single conjunction."""
        return ask(("sp", self, pre.atoms), "logic.sp.memo_hits",
                   self._sp_conj, pre)

    def _sp_conj(self, pre: LinConj) -> LinConj:
        """The uncached transformer behind :meth:`sp_conj`."""
        raise NotImplementedError

    def sp_pred(self, pre: Pred,
                oldrnk_update: LinTerm | None = None) -> Pred:
        """Strongest postcondition on a two-case predicate, optionally
        after the implicit ``oldrnk := rank`` update of Definition 3.1.

        Program statements never touch ``oldrnk``, so the transformer
        acts per-case; ``oldrnk`` occurrences in the finite case are
        carried through untouched (the transformers below never
        eliminate it).
        """
        return ask(("sp-pred", _pred_key(pre), self, oldrnk_update),
                   "logic.sp.memo_hits", self._sp_pred, pre, oldrnk_update)

    def _sp_pred(self, pre: Pred, oldrnk_update: LinTerm | None) -> Pred:
        """The uncached transformer behind :meth:`sp_pred`."""
        if oldrnk_update is not None:
            pre = pre.assign_oldrnk(oldrnk_update)
        return pre.map_cases(self.sp_conj)

    def execute(self, valuation: Valuation) -> Valuation | None:
        """Concrete semantics; ``None`` when an assume is violated.

        Nondeterministic statements (havoc) raise; the interpreter
        resolves them via :meth:`Havoc.execute_with`.
        """
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    @property
    def text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, eq=False)
class Assume(Statement):
    """A guard ``assume(cond)`` with a conjunction of linear atoms.

    Boolean *disjunctions* in source-level conditions are compiled to
    several parallel CFG edges, one ``Assume`` per disjunct, so a single
    statement always carries a pure conjunction.
    """

    cond: LinConj
    label: str = ""

    def _sp_conj(self, pre: LinConj) -> LinConj:
        return pre.and_(self.cond)

    def execute(self, valuation: Valuation) -> Valuation | None:
        if self.cond.evaluate(valuation):
            return dict(valuation)
        return None

    def variables(self) -> frozenset[str]:
        return self.cond.variables()

    @property
    def text(self) -> str:
        return self.label or f"assume {self.cond}"

    def __repr__(self) -> str:
        return f"Assume({self.text!r})"


@dataclass(frozen=True, eq=False)
class Assign(Statement):
    """A linear assignment ``var := expr``."""

    var: str
    expr: LinTerm

    def __post_init__(self) -> None:
        if self.var == OLDRNK:
            raise ValueError("programs must not assign the reserved oldrnk variable")
        super().__post_init__()

    def _sp_conj(self, pre: LinConj) -> LinConj:
        taken = pre.variables() | self.expr.variables() | {self.var}
        old = _fresh(self.var, frozenset(taken))
        shifted = pre.rename({self.var: old})
        bound = shifted.and_(atom_eq(mkvar(self.var),
                                     self.expr.rename({self.var: old})))
        return bound.project_away([old])

    def execute(self, valuation: Valuation) -> Valuation | None:
        out = dict(valuation)
        out[self.var] = self.expr.evaluate(valuation)
        return out

    def variables(self) -> frozenset[str]:
        return self.expr.variables() | {self.var}

    @property
    def text(self) -> str:
        return f"{self.var} := {self.expr}"

    def __repr__(self) -> str:
        return f"Assign({self.text!r})"


@dataclass(frozen=True, eq=False)
class Havoc(Statement):
    """Nondeterministic assignment ``havoc var`` (any integer)."""

    var: str

    def __post_init__(self) -> None:
        if self.var == OLDRNK:
            raise ValueError("programs must not havoc the reserved oldrnk variable")
        super().__post_init__()

    def _sp_conj(self, pre: LinConj) -> LinConj:
        return pre.project_away([self.var])

    def execute(self, valuation: Valuation) -> Valuation | None:
        raise NondeterminismError(
            f"havoc {self.var} needs a chooser; use execute_with()")

    def execute_with(self, valuation: Valuation, value: Fraction | int) -> Valuation:
        out = dict(valuation)
        out[self.var] = Fraction(value)
        return out

    def variables(self) -> frozenset[str]:
        return frozenset({self.var})

    @property
    def text(self) -> str:
        return f"havoc {self.var}"

    def __repr__(self) -> str:
        return f"Havoc({self.text!r})"


class NondeterminismError(RuntimeError):
    """Raised when a nondeterministic statement is executed without a chooser."""


def hoare_valid(pre: Pred, stmt: Statement, post: Pred, *,
                oldrnk_update: LinTerm | None = None) -> bool:
    """Validity of ``{pre} stmt {post}``, optionally with the implicit
    ``oldrnk := rank`` prefix of Definition 3.1 (outgoing edges of the
    accepting state)."""
    return ask(("hoare", _pred_key(pre), stmt, _pred_key(post),
                oldrnk_update), "logic.hoare.memo_hits",
               _hoare_valid, pre, stmt, post, oldrnk_update)


def _hoare_valid(pre: Pred, stmt: Statement, post: Pred,
                 oldrnk_update: LinTerm | None) -> bool:
    """The uncached check behind :func:`hoare_valid`."""
    return stmt.sp_pred(pre, oldrnk_update).entails(post)
