"""Fourier--Motzkin elimination over exact rationals, on integer rows.

The engine operates on lists of normalized :class:`~repro.logic.atoms.Atom`
objects -- coefficients and constants are ints where integral,
``Fraction`` otherwise, floats never -- and provides:

- :func:`eliminate` -- project away a set of variables,
- :func:`satisfiable` -- exact rational satisfiability of a conjunction,
- :func:`find_model` -- a satisfying rational valuation (integral where
  an integer fits the bounds),
- :func:`use_memo` -- scope a per-run memo of :func:`eliminate` answers.

One elimination converts its atoms once into *rows* and converts back
only at the end.  A row is a tuple of Python ints: one coefficient per
variable of a call-local sorted index, then the constant, then a
relation code; it is divided by the gcd of its entries.  An atom whose
term holds only ints is copied into its row as is; one with a
``Fraction`` entry is scaled by the lcm of its denominators first.
Over the rationals an atom is equivalent to each of its positive
scalings, so no ``Fraction`` is built inside the loop, and converting
back builds one only for a non-integral constant of a row of a
rational-valued variable.  Equalities are eliminated by
pivoting: the first equality ``e`` with coefficient ``c`` of the
variable turns a row ``r`` with coefficient ``a`` into
``|c|*r - sign(c)*a*e``.  Inequalities are eliminated by pairwise
combination: a lower bound ``lo`` (coefficient ``cl < 0``) and an upper
bound ``up`` (``cu > 0``) give ``cu*lo - cl*up``, strict iff either
parent is strict.  Rows without the variable come first, then the
combinations, and duplicates are dropped by hash, first occurrence
kept.  Satisfiability is *exact over the rationals*; over the integers
it is sound in the UNSAT direction (rational-UNSAT implies
integer-UNSAT), which is the direction every soundness-critical caller
relies on.

Each new row is also tightened over the integers, exactly as
:meth:`Atom.tighten_integral` tightens an atom: divide by the gcd ``g``
of the variable coefficients and round the constant ``d`` by floor
division (``t + d < 0`` becomes ``t/g + d//g + 1 <= 0``, ``t + d <= 0``
becomes ``t/g + ceil(d/g) <= 0``, and an equality with ``g`` not
dividing ``d`` is a contradiction).  A row with a nonzero coefficient
of a rational-valued variable (:data:`~repro.logic.atoms.RATIONAL_VARS`,
i.e. ``oldrnk``) is only scaled, never rounded.  So every atom returned
is the tightened atom of its row, and the output is atom for atom what
the textbook procedure on ``Fraction`` atoms gives.

Inside :func:`use_memo` (one analysis run, see
:func:`repro.core.api.prove_termination`) :func:`eliminate` answers a
repeated query from its first answer.  The key is the atoms and the
elimination order exactly as given: FM's output form depends on both,
and an order-insensitive key could hand back an equivalent but
syntactically different projection.  A query that raises (budget cap,
deadline, injected fault) is never stored, and a hit returns a fresh
list.  ``logic.fm.eliminations`` counts computed eliminations only;
``logic.fm.memo_hits`` counts the answers served from the memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from repro.core.budget import current_budget
from repro.logic.atoms import RATIONAL_VARS, Atom, Rel
from repro.logic.terms import LinTerm
from repro.obs import metrics as _metrics


#: The active per-run memo: query key -> projected atoms, ``None`` for
#: UNSAT.  ``None`` outside :func:`use_memo`.
_MEMO: dict[tuple, tuple[Atom, ...] | None] | None = None
_MISS = object()


@contextmanager
def use_memo() -> Iterator[dict]:
    """Scope a fresh, empty elimination memo; yields it."""
    global _MEMO
    previous = _MEMO
    _MEMO = {}
    try:
        yield _MEMO
    finally:
        _MEMO = previous


class _Contradiction(Exception):
    """Raised internally when a trivially false row appears."""


#: Relation codes, the last entry of a row.
_LE, _LT, _EQ = 0, 1, 2
_RELS = (Rel.LE, Rel.LT, Rel.EQ)

#: ``(c_0, ..., c_{n-1}, constant, relation code)``, all ints.
Row = tuple[int, ...]


def _row(vals: list[int], rel: int, rational: tuple[int, ...]) -> Row | None:
    """The normalized row of ``vals[:-1]·v + vals[-1] REL 0``.

    ``None`` if it is trivially true; raises :class:`_Contradiction` if
    it is trivially false.  ``rational`` lists the columns of
    rational-valued variables, whose rows are never rounded.
    """
    d = vals.pop()
    g = gcd(*vals)
    if g == 0:
        if (d < 0 and rel != _EQ) or (d == 0 and rel != _LT):
            return None
        raise _Contradiction()
    if not any(vals[k] for k in rational):
        if rel == _LT:
            d, rel = d // g + 1, _LE
        elif rel == _LE:
            d = -(-d // g)
        elif d % g:
            raise _Contradiction()
        else:
            d //= g
    else:
        g = gcd(g, d)
        d //= g
    if g != 1:
        vals = [c // g for c in vals]
    return (*vals, d, rel)


def _dedupe(rows: list[Row | None]) -> list[Row]:
    """Drop ``None`` (trivially true) and repeats, first occurrence kept."""
    return [r for r in dict.fromkeys(rows) if r is not None]


def _step(rows: list[Row], k: int, rational: tuple[int, ...]) -> list[Row]:
    """Eliminate column ``k``: pivot on an equality, else FM-combine."""
    for i, e in enumerate(rows):
        c = e[k]
        if c and e[-1] == _EQ:
            # e without its relation code: zip then stops before r's
            sign, c, ev = (1 if c > 0 else -1), abs(c), e[:-1]
            pivoted: list[Row | None] = []
            for r in rows[:i] + rows[i + 1:]:
                a = sign * r[k]
                pivoted.append(_row([c * x - a * y for x, y in zip(r, ev)],
                                    r[-1], rational) if a else r)
            return _dedupe(pivoted)
    lowers: list[Row] = []   # coefficient < 0: lower bounds
    uppers: list[Row] = []   # coefficient > 0: upper bounds
    out: list[Row | None] = []
    for r in rows:
        (out if not r[k] else uppers if r[k] > 0 else lowers).append(r)
    for lo in lowers:
        cl = -lo[k]
        for up in uppers:
            rel = _LT if _LT in (lo[-1], up[-1]) else _LE
            out.append(_row([x * up[k] + y * cl for x, y in zip(lo, up[:-1])],
                            rel, rational))
    return _dedupe(out)


def _rows(atoms: Sequence[Atom], names: Iterable[str] | None,
          systems: list[tuple[int, list[Row]]] | None = None
          ) -> tuple[list[str], list[Row]]:
    """The one elimination kernel behind :func:`eliminate` and :func:`find_model`.

    Converts ``atoms`` to rows over their sorted variables and eliminates
    ``names`` in order (every variable when ``None``), charging the
    budget once per name, absent names included.  Returns the variable
    index and the final rows; ``systems`` collects each present name's
    column and the rows before its elimination.  Raises
    :class:`_Contradiction` on UNSAT.
    """
    variables = sorted({n for a in atoms for n, _ in a.term._coeffs})
    index = {n: k for k, n in enumerate(variables)}
    rational = tuple(index[n] for n in RATIONAL_VARS if n in index)
    rows: list[Row | None] = []
    for atom in atoms:
        term = atom.term
        vals = [0] * (len(variables) + 1)
        const = term._constant
        integral = type(const) is int
        for n, c in term._coeffs:
            vals[index[n]] = c
            if type(c) is not int:
                integral = False
        vals[-1] = const
        if not integral:
            # a Fraction entry: scale the row to integers by the lcm of
            # the denominators (int entries have denominator 1)
            den = lcm(*(v.denominator for v in vals))
            vals = [v.numerator * (den // v.denominator) for v in vals]
        rows.append(_row(vals, _RELS.index(atom.rel), rational))
    current = _dedupe(rows)
    budget = current_budget()
    for name in variables if names is None else names:
        if budget is not None:
            # FM combination can square the system per eliminated variable;
            # this is the only guard between a pathological conjunction and
            # an effectively hung solver call.
            budget.charge_fm(len(current))
        k = index.get(name)
        if k is not None:
            if systems is not None:
                systems.append((k, current))
            current = _step(current, k, rational)
    return variables, current


def eliminate(atoms: Sequence[Atom], names: Iterable[str]) -> list[Atom] | None:
    """Project the conjunction onto the complement of ``names``.

    Returns the projected atom list, or ``None`` if the conjunction is
    (rationally) unsatisfiable.  The projection is exact over the
    rationals: a valuation of the remaining variables satisfies the
    result iff it extends to a valuation of all variables satisfying the
    input.  Inside :func:`use_memo` a repeated query is answered from
    the memo.
    """
    if _MEMO is None:
        return _eliminate(atoms, names)
    key = (tuple(atoms), tuple(names))
    hit = _MEMO.get(key, _MISS)
    if hit is _MISS:
        result = _eliminate(*key)
        _MEMO[key] = None if result is None else tuple(result)
        return result
    _metrics.inc("logic.fm.memo_hits")
    return None if hit is None else list(hit)


def _eliminate(atoms: Sequence[Atom],
               names: Iterable[str]) -> list[Atom] | None:
    """The uncached elimination behind :func:`eliminate`."""
    _metrics.inc("logic.fm.eliminations")
    try:
        variables, rows = _rows(atoms, names)
    except _Contradiction:
        return None
    out = []
    for r in rows:
        # g > 1 only on a row of a rational-valued variable, which
        # ``_row`` divides by the gcd of all its entries, constant
        # included: only there can the constant come back a Fraction
        g = gcd(*r[:-2])
        items = tuple((variables[k], c // g)
                      for k, c in enumerate(r[:-2]) if c)
        d = r[-2]
        d = d // g if d % g == 0 else Fraction(d, g)
        out.append(Atom(LinTerm._from_sorted(items, d), _RELS[r[-1]]))
    return out


def satisfiable(atoms: Sequence[Atom]) -> bool:
    """Exact rational satisfiability of a conjunction of atoms."""
    _metrics.inc("logic.fm.sat_checks")
    names = set()
    for atom in atoms:
        names |= atom.variables()
    return eliminate(atoms, sorted(names)) is not None


def _pick_value(lower: Fraction | None, lower_strict: bool,
                upper: Fraction | None, upper_strict: bool) -> Fraction:
    """Pick a value within the bounds, preferring small integers."""
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        assert upper is not None
        candidate = Fraction(_floor(upper))
        if upper_strict and candidate == upper:
            candidate -= 1
        return candidate
    if upper is None:
        candidate = Fraction(_ceil(lower))
        if candidate == lower and lower_strict:
            candidate += 1
        return candidate
    # both bounds present
    int_low = _ceil(lower) + (1 if (lower_strict and lower.denominator == 1) else 0)
    int_high = _floor(upper) - (1 if (upper_strict and upper.denominator == 1) else 0)
    if int_low <= int_high:
        if int_low <= 0 <= int_high:
            return Fraction(0)
        return Fraction(int_low if abs(int_low) <= abs(int_high) else int_high)
    # Fraction(_, 2), not ``/ 2``: int bounds would make a float midpoint
    return Fraction(lower + upper, 2)


def _floor(f: Fraction) -> int:
    return f.numerator // f.denominator


def _ceil(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def find_model(atoms: Sequence[Atom], *,
               prefer: dict[str, Fraction] | None = None) -> dict[str, Fraction] | None:
    """Find a rational model of the conjunction, or ``None`` if UNSAT.

    The model prefers integer values when an integer fits the final
    bounds of a variable.  ``prefer`` supplies values to try first for
    selected variables (used by witness extraction to keep models small
    and reproducible).
    """
    _metrics.inc("logic.fm.models")
    # Eliminate every variable in sorted order, remembering the systems so
    # values can be back-substituted in reverse order.
    systems: list[tuple[int, list[Row]]] = []
    try:
        variables, _ = _rows(atoms, None, systems)
    except _Contradiction:
        return None
    values = [Fraction(0)] * len(variables)
    for k, system in reversed(systems):
        # With the later variables fixed, each row mentioning column k
        # bounds it by -(constant + later terms) / coefficient.
        lower: Fraction | None = None
        upper: Fraction | None = None
        ls = us = False
        for r in system:
            c = r[k]
            if not c:
                continue
            # rest starts as a Fraction, so ``-rest / c`` never goes float
            rest = sum((x * v for x, v in zip(r[k + 1:-2], values[k + 1:])),
                       Fraction(r[-2]))
            bound, strict = -rest / c, r[-1] == _LT
            if c > 0 or r[-1] == _EQ:
                if upper is None or bound < upper or (bound == upper and strict):
                    upper, us = bound, strict
            if c < 0 or r[-1] == _EQ:
                if lower is None or bound > lower or (bound == lower and strict):
                    lower, ls = bound, strict
        cand = prefer.get(variables[k]) if prefer else None
        if cand is not None and (
                (lower is None or cand > lower or (cand == lower and not ls))
                and (upper is None or cand < upper or (cand == upper and not us))):
            values[k] = Fraction(cand)  # an int hint must not leak as an int
        else:
            values[k] = _pick_value(lower, ls, upper, us)
    model = dict(zip(reversed(variables), reversed(values)))
    # Defensive check: the model must satisfy the original conjunction.
    for atom in atoms:
        if not atom.evaluate({n: model.get(n, Fraction(0)) for n in atom.variables()}):
            return None
    return model
