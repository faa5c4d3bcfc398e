"""Reference Fourier--Motzkin elimination over ``Fraction`` atoms.

A test-only oracle for :mod:`repro.logic.fourier_motzkin`.  It is the
straightforward textbook procedure on :class:`~repro.logic.atoms.Atom`
objects: every intermediate atom is a ``LinTerm`` with ``Fraction``
coefficients, equalities are eliminated by substitution, inequalities
by pairwise combination, and :func:`tighten_atom` tightens each atom.  The
production kernel must return exactly what this module returns (same
atoms, same order) under integral tightening, and the same models; the
differential tests in ``test_logic_solver.py`` hold it to that.
:func:`tighten_atom` is this module's own, so the oracle shares no rounding
code with the kernel (:meth:`Atom.tighten_integral` runs the kernel's
row code); ``test_logic_solver.py`` checks the two agree atom for atom.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from repro.core.budget import Budget, current_budget
from repro.logic.atoms import RATIONAL_VARS, Atom, Rel
from repro.logic.fourier_motzkin import _pick_value
from repro.logic.terms import LinTerm, _frac


class _Contradiction(Exception):
    """Raised internally when a trivially false atom appears."""


def tighten_atom(atom: Atom) -> Atom:
    """Normalize and tighten ``atom`` over integer-valued variables.

    The atom is first scaled so every variable coefficient is an
    integer and their gcd is 1; then ``t + d < 0`` becomes
    ``t + floor(d) + 1 <= 0``, a fractional constant of a non-strict
    atom is ceiling-normalized, and an equality with a fractional
    constant is the contradiction ``1 = 0``.  An atom mentioning a
    rational-valued variable (``oldrnk``) is only scaled, never rounded.
    """
    items = atom.term._coeffs
    if not items:
        return atom
    # Scale by den/g: den clears the coefficients' denominators, g is
    # the gcd of the cleared coefficients.  All of it on ints.
    den = 1
    for _, c in items:
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den != 1:
        items = tuple((n, c.numerator * (den // c.denominator))
                      for n, c in items)
    g = gcd(*(c for _, c in items))
    if g != 1:
        items = tuple((n, c // g) for n, c in items)
    # the scaled constant num/dnm = constant * den / g, dnm > 0
    d = atom.term._constant
    num, dnm = d.numerator * den, d.denominator * g
    scaled = den != 1 or g != 1
    if any(name in RATIONAL_VARS for name, _ in items):
        if not scaled:
            return atom
        return Atom(LinTerm._from_sorted(items, _frac(Fraction(num, dnm))),
                    atom.rel)
    if atom.rel is Rel.LT:
        # linear + d < 0  over ints  <=>  linear <= -floor(d) - 1
        return Atom(LinTerm._from_sorted(items, num // dnm + 1), Rel.LE)
    if num % dnm:
        if atom.rel is Rel.LE:
            # linear <= -d  <=>  linear + ceil(d) <= 0
            return Atom(LinTerm._from_sorted(items, -(-num // dnm)), Rel.LE)
        # coprime integer coefficients cannot sum to a fraction
        return Atom(LinTerm({}, 1), Rel.EQ)
    if not scaled:
        return atom
    return Atom(LinTerm._from_sorted(items, num // dnm), atom.rel)


def _simplify(atoms: Iterable[Atom], tighten: bool) -> list[Atom]:
    """Drop trivially true atoms; raise on trivially false ones; dedupe."""
    seen: set[Atom] = set()
    out: list[Atom] = []
    for atom in atoms:
        if tighten:
            atom = tighten_atom(atom)
        if atom.is_trivially_true():
            continue
        if atom.term.is_constant():
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
            combined_term = low.term * cu + up.term * (-cl)
            rel = Rel.LT if Rel.LT in (low.rel, up.rel) else Rel.LE
            others.append(Atom(combined_term, rel))
    return others


def _step(current: list[Atom], name: str, tighten: bool,
          budget: Budget | None) -> list[Atom]:
    """Eliminate one variable: pivot on an equality, else FM-combine."""
    if budget is not None:
        budget.charge_fm(len(current))
    pivoted = _pivot_equality(current, name)
    if pivoted is None:
        pivoted = _combine(current, name)
    return _simplify(pivoted, tighten)


def eliminate(atoms: Sequence[Atom], names: Iterable[str], *,
              tighten: bool = True) -> list[Atom] | None:
    """Project away ``names``; ``None`` if the conjunction is UNSAT."""
    budget = current_budget()
    try:
        current = _simplify(atoms, tighten)
        for name in names:
            current = _step(current, name, tighten, budget)
        return current
    except _Contradiction:
        return None


def _bounds_for(atoms: Sequence[Atom], name: str) -> tuple[
        Fraction | None, bool, Fraction | None, bool]:
    """Extract (lower, lower_strict, upper, upper_strict) for ``name``."""
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


def find_model(atoms: Sequence[Atom], *, tighten: bool = True,
               prefer: dict[str, Fraction] | None = None) -> dict[str, Fraction] | None:
    """A rational model by back-substitution over the saved atom systems."""
    budget = current_budget()
    names: list[str] = sorted({n for atom in atoms for n in atom.variables()})
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
    for atom in atoms:
        if not atom.evaluate({n: model.get(n, Fraction(0)) for n in atom.variables()}):
            return None
    for name in names:
        model.setdefault(name, Fraction(0))
    return model
