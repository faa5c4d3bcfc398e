"""Fourier--Motzkin elimination over exact rationals, on integer rows.

The engine operates on lists of normalized :class:`~repro.logic.atoms.Atom`
objects -- coefficients and constants are ints where integral,
``Fraction`` otherwise, floats never -- and provides:

- :func:`eliminate` -- project away a set of variables,
- :func:`satisfiable` -- exact rational satisfiability of a conjunction,
- :func:`find_model` -- a satisfying rational valuation (integral where
  an integer fits the bounds),
- :func:`tighten` -- integral tightening of one atom, the kernel behind
  :meth:`Atom.tighten_integral <repro.logic.atoms.Atom.tighten_integral>`.

One elimination converts its atoms once into *rows* and converts back
only at the end.  A row is a tuple of Python ints: one coefficient per
variable of a call-local sorted index, then the constant, then a
relation code.  An atom whose term holds only ints is copied into its
row as is; one with a ``Fraction`` entry is scaled by the lcm of its
denominators first.  Over the rationals an atom is equivalent to each
of its positive scalings, so no ``Fraction`` is built inside the loop,
and converting back builds one only for a non-integral constant of a
row of a rational-valued variable.  Equalities are eliminated by
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

*Integral tightening*, the one definition of it in the package: every
row, the input's and each new one, is divided by the gcd ``g`` of its
variable coefficients and its constant ``d`` rounded by floor division
(``t + d < 0`` becomes ``t/g + d//g + 1 <= 0``, ``t + d <= 0`` becomes
``t/g + ceil(d/g) <= 0``, and an equality with ``g`` not dividing ``d``
is a contradiction, returned by :func:`tighten` as ``1 = 0``).  Each
step is an equivalence over integer-valued variables.  A row with a
nonzero coefficient of a rational-valued variable
(:data:`~repro.logic.atoms.RATIONAL_VARS`, i.e. ``oldrnk``) is only
scaled, never rounded: ``oldrnk`` holds ranking-function values, and
``6*oldrnk - y - 5 = 0 and 3 <= y <= 5`` is satisfiable (at
``oldrnk = 5/3``) but has no integral ``oldrnk``, so rounding it would
turn a satisfiable state of a powerset module into an unsound
accepting one.  Every atom returned is the tightened atom of its row,
and the output is atom for atom what the textbook procedure on
``Fraction`` atoms gives.

:func:`eliminate` asks the one per-run memo (:mod:`repro.logic.memo`)
with the key ``("fm", atoms, names)``, atoms and elimination order
exactly as given.  A hit returns a fresh list.
``logic.fm.eliminations`` counts computed eliminations only;
``logic.fm.memo_hits`` counts the answers served from the memo.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from repro.core.budget import current_budget
from repro.logic import memo as _memo
from repro.logic.atoms import RATIONAL_VARS, Atom, Rel
from repro.logic.terms import LinTerm
from repro.obs import metrics as _metrics


class _Contradiction(Exception):
    """Raised internally when a trivially false row appears."""


#: Relation codes, the last entry of a row.
_LE, _LT, _EQ = 0, 1, 2
_RELS = (Rel.LE, Rel.LT, Rel.EQ)

#: ``(c_0, ..., c_{n-1}, constant, relation code)``, all ints.
Row = tuple[int, ...]


def _row(vals: list[int], rel: int, rational: tuple[int, ...]) -> Row | None:
    """The tightened row of ``vals[:-1]·v + vals[-1] REL 0``.

    ``None`` if it is trivially true; raises :class:`_Contradiction` if
    it is trivially false.  ``rational`` lists the columns of
    rational-valued variables, whose rows are never rounded; such a row
    is divided by the gcd of all its entries, constant included.
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


def _vals(atom: Atom, index: dict[str, int]) -> list[int]:
    """``atom``'s coefficients in ``index``'s columns, then its constant.

    An atom with a ``Fraction`` entry is scaled to integers by the lcm
    of its denominators (int entries have denominator 1).
    """
    term = atom.term
    vals = [0] * (len(index) + 1)
    const = term._constant
    integral = type(const) is int
    for n, c in term._coeffs:
        vals[index[n]] = c
        if type(c) is not int:
            integral = False
    vals[-1] = const
    if not integral:
        den = lcm(*(v.denominator for v in vals))
        vals = [v.numerator * (den // v.denominator) for v in vals]
    return vals


def _atom(r: Row, variables: Sequence[str]) -> Atom:
    """The atom of row ``r`` over ``variables``."""
    # g > 1 only on a row of a rational-valued variable, which ``_row``
    # divides by the gcd of all its entries, constant included: only
    # there can the constant come back a Fraction
    g = gcd(*r[:-2])
    items = tuple((variables[k], c // g) for k, c in enumerate(r[:-2]) if c)
    d = r[-2]
    d = d // g if d % g == 0 else Fraction(d, g)
    return Atom(LinTerm._from_sorted(items, d), _RELS[r[-1]])


def _index(variables: Sequence[str]) -> tuple[dict[str, int], tuple[int, ...]]:
    """The column of each of ``variables`` and the rational-valued columns."""
    index = {n: k for k, n in enumerate(variables)}
    return index, tuple(index[n] for n in RATIONAL_VARS if n in index)


def tighten(atom: Atom) -> Atom:
    """``atom`` tightened over the integers: the one-atom system's row
    with nothing eliminated, as an atom (``1 = 0`` if it is a
    contradiction).  An atom without variables is returned as it is.
    Ticks no counter."""
    variables = [n for n, _ in atom.term._coeffs]
    if not variables:
        return atom
    index, rational = _index(variables)
    try:
        row = _row(_vals(atom, index), _RELS.index(atom.rel), rational)
    except _Contradiction:
        return Atom(LinTerm({}, 1), Rel.EQ)
    return _atom(row, variables)


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
    index, rational = _index(variables)
    current = _dedupe([_row(_vals(atom, index), _RELS.index(atom.rel),
                            rational) for atom in atoms])
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
    input.  Inside :func:`repro.logic.memo.use_memo` a repeated query is
    answered from the memo.
    """
    key = ("fm", tuple(atoms), tuple(names))
    answer = _memo.ask(key, "logic.fm.memo_hits",
                       lambda: _eliminate(key[1], key[2]), faults=False)
    return None if answer is None else list(answer)


def _eliminate(atoms: Sequence[Atom],
               names: Iterable[str]) -> tuple[Atom, ...] | None:
    """The uncached elimination behind :func:`eliminate`."""
    _metrics.inc("logic.fm.eliminations")
    try:
        variables, rows = _rows(atoms, names)
    except _Contradiction:
        return None
    return tuple(_atom(r, variables) for r in rows)


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
