"""Fourier--Motzkin elimination over exact rationals.

The engine operates on lists of normalized :class:`~repro.logic.atoms.Atom`
objects and provides:

- :func:`eliminate` -- project away a set of variables,
- :func:`satisfiable` -- exact rational satisfiability of a conjunction,
- :func:`find_model` -- a satisfying rational valuation (integral where
  an integer fits the bounds),
- :func:`use_memo` -- scope a per-run memo of :func:`eliminate` answers.

Equalities are eliminated by pivoting (exact Gaussian substitution),
inequalities by the classical pairwise combination.  Strictness is
propagated: a combination is strict iff either parent is strict.
Satisfiability is *exact over the rationals*; over the integers it is
sound in the UNSAT direction (rational-UNSAT implies integer-UNSAT),
which is the direction every soundness-critical caller relies on.

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
from typing import Iterable, Iterator, Sequence

from repro.core.budget import Budget, current_budget
from repro.logic.atoms import Atom, Rel
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
    """Raised internally when a trivially false atom appears."""


def _simplify(atoms: Iterable[Atom], tighten: bool) -> list[Atom]:
    """Drop trivially true atoms; raise on trivially false ones; dedupe."""
    seen: set[Atom] = set()
    out: list[Atom] = []
    for atom in atoms:
        if tighten:
            atom = atom.tighten_integral()
        if atom.is_trivially_true():
            continue
        if atom.is_trivially_false():
            raise _Contradiction()
        if atom not in seen:
            seen.add(atom)
            out.append(atom)
    return out


def _pivot_equality(atoms: list[Atom], name: str) -> list[Atom] | None:
    """If some equality mentions ``name``, substitute it away; else None."""
    for i, atom in enumerate(atoms):
        if atom.rel is not Rel.EQ:
            continue
        c = atom.term.coeff(name)
        if c == 0:
            continue
        # name = -(term - c*name) / c
        replacement = (LinTerm({name: c}) - atom.term) * (Fraction(1) / c)
        rest = atoms[:i] + atoms[i + 1:]
        return [a.substitute({name: replacement}) for a in rest]
    return None


def _combine(atoms: list[Atom], name: str) -> list[Atom]:
    """Eliminate ``name`` from pure-inequality occurrences by FM combination."""
    lowers: list[Atom] = []   # atoms giving lower bounds: coeff < 0
    uppers: list[Atom] = []   # atoms giving upper bounds: coeff > 0
    others: list[Atom] = []
    for atom in atoms:
        c = atom.term.coeff(name)
        if c == 0:
            others.append(atom)
        elif atom.rel is Rel.EQ:
            raise AssertionError("equalities must be pivoted before combination")
        elif c > 0:
            uppers.append(atom)
        else:
            lowers.append(atom)
    for low in lowers:
        cl = low.term.coeff(name)
        for up in uppers:
            cu = up.term.coeff(name)
            # low: cl*x + tl REL 0 with cl < 0 -> x >= (tl / -cl)-ish
            # combined: tl * cu + tu * (-cl) REL' 0
            combined_term = low.term * cu + up.term * (-cl)
            rel = Rel.LT if Rel.LT in (low.rel, up.rel) else Rel.LE
            others.append(Atom(combined_term, rel))
    return others


def _step(current: list[Atom], name: str, tighten: bool,
          budget: Budget | None) -> list[Atom]:
    """Eliminate one variable: pivot on an equality, else FM-combine."""
    if budget is not None:
        # FM combination can square the system per eliminated variable;
        # this is the only guard between a pathological conjunction and
        # an effectively hung solver call.
        budget.charge_fm(len(current))
    pivoted = _pivot_equality(current, name)
    if pivoted is None:
        pivoted = _combine(current, name)
    return _simplify(pivoted, tighten)


def eliminate(atoms: Sequence[Atom], names: Iterable[str], *,
              tighten: bool = True) -> list[Atom] | None:
    """Project the conjunction onto the complement of ``names``.

    Returns the projected atom list, or ``None`` if the conjunction is
    (rationally) unsatisfiable.  The projection is exact over the
    rationals: a valuation of the remaining variables satisfies the
    result iff it extends to a valuation of all variables satisfying the
    input.  Inside :func:`use_memo` a repeated query is answered from
    the memo.
    """
    if _MEMO is None:
        return _eliminate(atoms, names, tighten)
    key = (tuple(atoms), tuple(names), tighten)
    hit = _MEMO.get(key, _MISS)
    if hit is _MISS:
        result = _eliminate(key[0], key[1], tighten)
        _MEMO[key] = None if result is None else tuple(result)
        return result
    _metrics.inc("logic.fm.memo_hits")
    return None if hit is None else list(hit)


def _eliminate(atoms: Sequence[Atom], names: Iterable[str],
               tighten: bool) -> list[Atom] | None:
    """The uncached elimination behind :func:`eliminate`."""
    _metrics.inc("logic.fm.eliminations")
    budget = current_budget()
    try:
        current = _simplify(atoms, tighten)
        for name in names:
            current = _step(current, name, tighten, budget)
        return current
    except _Contradiction:
        return None


def satisfiable(atoms: Sequence[Atom], *, tighten: bool = True) -> bool:
    """Exact rational satisfiability of a conjunction of atoms."""
    _metrics.inc("logic.fm.sat_checks")
    names = set()
    for atom in atoms:
        names |= atom.variables()
    return eliminate(atoms, sorted(names), tighten=tighten) is not None


def _bounds_for(atoms: Sequence[Atom], name: str) -> tuple[
        Fraction | None, bool, Fraction | None, bool]:
    """Extract (lower, lower_strict, upper, upper_strict) for ``name``.

    All atoms are assumed to mention only ``name`` (after elimination of
    other variables and substitution of already-chosen values).
    """
    lower: Fraction | None = None
    lower_strict = False
    upper: Fraction | None = None
    upper_strict = False

    def merge_upper(bound: Fraction, strict: bool) -> None:
        nonlocal upper, upper_strict
        if upper is None or bound < upper or (bound == upper and strict):
            upper, upper_strict = bound, strict

    def merge_lower(bound: Fraction, strict: bool) -> None:
        nonlocal lower, lower_strict
        if lower is None or bound > lower or (bound == lower and strict):
            lower, lower_strict = bound, strict

    for atom in atoms:
        c = atom.term.coeff(name)
        d = atom.term.constant
        if c == 0:
            continue
        bound = -d / c
        if atom.rel is Rel.EQ:
            merge_lower(bound, False)
            merge_upper(bound, False)
        elif c > 0:
            merge_upper(bound, atom.rel is Rel.LT)
        else:
            merge_lower(bound, atom.rel is Rel.LT)
    return lower, lower_strict, upper, upper_strict


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
    return (lower + upper) / 2


def _floor(f: Fraction) -> int:
    return f.numerator // f.denominator


def _ceil(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def find_model(atoms: Sequence[Atom], *, tighten: bool = True,
               prefer: dict[str, Fraction] | None = None) -> dict[str, Fraction] | None:
    """Find a rational model of the conjunction, or ``None`` if UNSAT.

    The model prefers integer values when an integer fits the final
    bounds of a variable.  ``prefer`` supplies values to try first for
    selected variables (used by witness extraction to keep models small
    and reproducible).
    """
    _metrics.inc("logic.fm.models")
    budget = current_budget()
    names: list[str] = sorted({n for atom in atoms for n in atom.variables()})
    # Eliminate back-to-front, remembering the systems so values can be
    # back-substituted in reverse order.
    systems: list[tuple[str, list[Atom]]] = []
    try:
        current = _simplify(atoms, tighten)
        for name in names:
            systems.append((name, current))
            current = _step(current, name, tighten, budget)
    except _Contradiction:
        return None
    model: dict[str, Fraction] = {}
    for name, system in reversed(systems):
        # Substitute the already-chosen values, leaving atoms in `name` only.
        bindings = {n: LinTerm({}, v) for n, v in model.items()}
        local = [a.substitute(bindings) for a in system]
        local = [a for a in local if name in a.variables()]
        lower, ls, upper, us = _bounds_for(local, name)
        if prefer and name in prefer:
            cand = prefer[name]
            ok_low = lower is None or cand > lower or (cand == lower and not ls)
            ok_up = upper is None or cand < upper or (cand == upper and not us)
            if ok_low and ok_up:
                model[name] = cand
                continue
        model[name] = _pick_value(lower, ls, upper, us)
    # Defensive check: the model must satisfy the original conjunction.
    for atom in atoms:
        if not atom.evaluate({n: model.get(n, Fraction(0)) for n in atom.variables()}):
            return None
    for name in names:
        model.setdefault(name, Fraction(0))
    return model
