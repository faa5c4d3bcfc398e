"""Immutable linear terms over named variables.

A :class:`LinTerm` represents ``c_1*x_1 + ... + c_n*x_n + d`` with exact
rational coefficients.  Terms are hashable values: all operations return
new terms.

Coefficients and the constant are stored as ints where integral,
``Fraction`` otherwise, floats never: almost every term of a program is
integral, and int arithmetic is several times cheaper than ``Fraction``
arithmetic in the solver's hot loops.  Python guarantees
``hash(n) == hash(Fraction(n))``, ``n == Fraction(n)`` and
``str(n) == str(Fraction(n))``, so the stored form changes no hash, no
equality and no printed term.  The hash stays ``hash((coeffs,
constant))`` for the same reason: every set and dict of atoms iterates
in the order it gave before.  (CPython hashes -1 and -2 alike, so
``a - 1 <= 0`` and ``a - 2 <= 0`` collide; a different hash would move
every set order, so the collision is kept.)

The public accessors -- :attr:`LinTerm.coeffs`, :attr:`LinTerm.constant`,
:meth:`LinTerm.coeff` and :meth:`LinTerm.evaluate` -- return
``Fraction``, so rational code outside the solver (parser, ranking
functions, Farkas LP, interpolation, interpreter, codec, firewall)
never meets an int that ``/`` would turn into a float.  The solver's
hot paths read ``_coeffs`` and ``_constant`` directly.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Union

Coeff = Union[int, Fraction]


def _frac(value: Coeff) -> Coeff:
    """``value`` in stored form: an int if integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, Rational):  # bool, other exact rationals
        return _frac(Fraction(value))
    raise TypeError(f"expected an exact rational, got {value!r} ({type(value).__name__})")


def _as_fraction(value: Coeff) -> Fraction:
    """A stored value as a ``Fraction``, for the public accessors."""
    return value if type(value) is Fraction else Fraction(value)


class LinTerm:
    """A linear term ``sum(coeffs[v] * v) + constant`` with exact coefficients."""

    __slots__ = ("_coeffs", "_constant", "_hash")

    def __init__(self, coeffs: Mapping[str, Coeff] | None = None, constant: Coeff = 0):
        items = []
        if coeffs:
            for name, c in coeffs.items():
                f = _frac(c)
                if f != 0:
                    items.append((name, f))
        items.sort()
        self._coeffs: tuple[tuple[str, Coeff], ...] = tuple(items)
        self._constant: Coeff = _frac(constant)
        self._hash = hash((self._coeffs, self._constant))

    @classmethod
    def _from_sorted(cls, items: tuple[tuple[str, Coeff], ...],
                     constant: Coeff) -> LinTerm:
        """A term from nonzero ``(name, coefficient)`` items already sorted
        by name, every value already in stored form."""
        self = object.__new__(cls)
        self._coeffs = items
        self._constant = constant
        self._hash = hash((items, constant))
        return self

    @property
    def coeffs(self) -> dict[str, Fraction]:
        """Variable -> coefficient mapping (zero coefficients omitted)."""
        return {name: _as_fraction(c) for name, c in self._coeffs}

    @property
    def constant(self) -> Fraction:
        return _as_fraction(self._constant)

    def coeff(self, name: str) -> Fraction:
        """Coefficient of variable ``name`` (0 if absent)."""
        for var_name, c in self._coeffs:
            if var_name == name:
                return _as_fraction(c)
        return Fraction(0)

    def variables(self) -> frozenset[str]:
        return frozenset(name for name, _ in self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: LinTerm | Coeff) -> LinTerm:
        other = _as_term(other)
        coeffs = dict(self._coeffs)
        for name, c in other._coeffs:
            coeffs[name] = coeffs.get(name, 0) + c
        return LinTerm(coeffs, self._constant + other._constant)

    __radd__ = __add__

    def __neg__(self) -> LinTerm:
        return LinTerm({name: -c for name, c in self._coeffs}, -self._constant)

    def __sub__(self, other: LinTerm | Coeff) -> LinTerm:
        return self + (-_as_term(other))

    def __rsub__(self, other: LinTerm | Coeff) -> LinTerm:
        return _as_term(other) + (-self)

    def __mul__(self, scalar: Coeff) -> LinTerm:
        s = _frac(scalar)
        return LinTerm({name: c * s for name, c in self._coeffs}, self._constant * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Coeff) -> LinTerm:
        s = _frac(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a linear term by zero")
        return self * (Fraction(1) / s)

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, bindings: Mapping[str, "LinTerm"]) -> LinTerm:
        """Replace each variable in ``bindings`` by the given term."""
        result = LinTerm({}, self._constant)
        for name, c in self._coeffs:
            if name in bindings:
                result = result + bindings[name] * c
            else:
                result = result + LinTerm({name: c})
        return result

    def rename(self, mapping: Mapping[str, str]) -> LinTerm:
        """Rename variables according to ``mapping`` (missing names kept)."""
        coeffs: dict[str, Coeff] = {}
        for name, c in self._coeffs:
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, 0) + c
        return LinTerm(coeffs, self._constant)

    def evaluate(self, valuation: Mapping[str, Coeff]) -> Fraction:
        """Evaluate under a total valuation of this term's variables."""
        total = self._constant
        for name, c in self._coeffs:
            if name not in valuation:
                raise KeyError(f"valuation missing variable {name!r}")
            total += c * _frac(valuation[name])
        return _as_fraction(total)

    # -- value protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinTerm):
            return NotImplemented
        return self._coeffs == other._coeffs and self._constant == other._constant

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LinTerm({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self._coeffs:
            if c == 1:
                piece = name
            elif c == -1:
                piece = f"-{name}"
            else:
                piece = f"{c}*{name}"
            if parts and not piece.startswith("-"):
                parts.append(f"+ {piece}")
            elif parts:
                parts.append(f"- {piece[1:]}")
            else:
                parts.append(piece)
        if self._constant != 0 or not parts:
            c = self._constant
            if parts:
                parts.append(f"+ {c}" if c > 0 else f"- {-c}")
            else:
                parts.append(str(c))
        return " ".join(parts)


def _as_term(value: LinTerm | Coeff) -> LinTerm:
    if isinstance(value, LinTerm):
        return value
    return LinTerm({}, _frac(value))


def var(name: str) -> LinTerm:
    """The term consisting of a single variable."""
    return LinTerm({name: 1})


def const(value: Coeff) -> LinTerm:
    """A constant term."""
    return LinTerm({}, value)


def term(coeffs: Mapping[str, Coeff] | Iterable[tuple[str, Coeff]] | None = None,
         constant: Coeff = 0) -> LinTerm:
    """Build a term from a coefficient mapping and a constant."""
    if coeffs is not None and not isinstance(coeffs, Mapping):
        coeffs = dict(coeffs)
    return LinTerm(coeffs, constant)
