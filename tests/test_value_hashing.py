"""The hash and equality contract of the logic and program value objects.

Atoms, statements and conjunctions key every solver memo, product state
and successor cache, and each keeps its hash from construction.  Equal
values built by different routes -- the parser, term arithmetic,
``rename``, Fourier--Motzkin output, the codec -- must hash equal and
compare equal; values that differ only in a relation, a constant or a
label must compare unequal.

Terms store their coefficients as ints where integral and ``Fraction``
otherwise.  The last section holds that representation to the
all-``Fraction`` one it replaced: the same hash, the same printed form
and the same arithmetic results.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.logic import fourier_motzkin as fm
from repro.logic.atoms import Atom, Rel, atom_gt, atom_le, atom_lt
from repro.logic.linconj import conj
from repro.logic.predicates import Pred
from repro.logic.terms import LinTerm, var
from tests import fm_reference
from repro.program.cfg import build_cfg
from repro.program.parser import parse_program
from repro.program.statements import Assign, Assume, Havoc

x, y = var("x"), var("y")

SOURCE = """program p(x, y):
    while x > 0 and y <= 3:
        x := x - 1
        havoc y
"""


def assert_same(a, b):
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def assert_differ(a, b):
    assert a != b and b != a
    assert not (a == b)


def alphabet() -> dict[str, object]:
    return {str(s): s for s in build_cfg(parse_program(SOURCE)).alphabet()}


# -- atoms -------------------------------------------------------------------------


def test_atom_routes_agree():
    direct = Atom(LinTerm({"x": -1}, 0), Rel.LT)
    assert_same(atom_gt(x, 0), direct)
    assert_same(atom_lt(0 - x, 0), direct)
    assert_same(atom_gt(var("z"), 0).rename({"z": "x"}), direct)
    assert_same(codec.atom_from_dict(codec.atom_to_dict(direct)), direct)
    parsed = alphabet()["x > 0 and y <= 3"].cond.atoms[0]
    assert_same(parsed, direct)


def test_atom_from_fourier_motzkin_equals_constructed():
    # eliminate y from x <= y, y <= 3: FM builds x - 3 <= 0 row-wise
    projected = fm.eliminate([atom_le(x, y), atom_le(y, 3)], ["y"])
    assert projected is not None
    assert_same(projected[0], atom_le(x, 3))


def test_atoms_differing_in_relation_or_constant_are_unequal():
    term = LinTerm({"x": 1}, -3)
    le, lt, eq = (Atom(term, rel) for rel in (Rel.LE, Rel.LT, Rel.EQ))
    assert_differ(le, lt)
    assert_differ(le, eq)
    assert_differ(lt, eq)
    assert_differ(le, Atom(LinTerm({"x": 1}, -2), Rel.LE))
    assert le != "x - 3 <= 0"


def test_atom_keeps_its_fields_and_repr():
    atom = atom_le(x, 3)
    assert atom.term == x - 3 and atom.rel is Rel.LE
    assert repr(atom) == f"Atom(term={atom.term!r}, rel={atom.rel!r})"
    # the e2e layer timer patches this name on the class itself
    assert "tighten_integral" in Atom.__dict__


_coeffs = st.integers(-3, 3)


@settings(max_examples=100, deadline=None)
@given(_coeffs, _coeffs, _coeffs, st.sampled_from(list(Rel)))
def test_atom_hash_matches_equality(a, b, c, rel):
    one = Atom(LinTerm({"x": a, "y": b}, c), rel)
    two = Atom(x * a + y * b + c, rel)
    assert_same(one, two)
    assert hash(one) == hash((one.term, one.rel))


# -- conjunctions and predicates ------------------------------------------------


def test_conjunction_compares_as_an_atom_set():
    forward = conj(atom_le(x, 3), atom_gt(y, 0))
    backward = conj(atom_gt(y, 0), atom_le(x, 3), atom_le(x, 3))
    assert_same(forward, backward)
    assert forward.atoms != backward.atoms  # order kept, value equal
    assert_same(codec.conj_from_dict(codec.conj_to_dict(forward)), forward)
    assert_same(forward.rename({}), forward)


def test_conjunctions_differing_in_one_atom_are_unequal():
    base = conj(atom_le(x, 3), atom_gt(y, 0))
    assert_differ(base, conj(atom_lt(x, 3), atom_gt(y, 0)))
    assert_differ(base, conj(atom_le(x, 4), atom_gt(y, 0)))
    assert_differ(base, conj(atom_le(x, 3)))
    assert base != (atom_le(x, 3), atom_gt(y, 0))


def test_predicate_routes_agree():
    pred = Pred((conj(atom_gt(x, 0)),), (conj(atom_le(y, 3)),))
    assert_same(codec.pred_from_dict(codec.pred_to_dict(pred)), pred)
    renamed = Pred((conj(atom_gt(var("z"), 0)).rename({"z": "x"}),),
                   (conj(atom_le(y, 3)),))
    assert_same(renamed, pred)
    assert_differ(pred, Pred((conj(atom_gt(x, 0)),), (conj(atom_lt(y, 3)),)))
    assert_differ(pred, Pred((conj(atom_gt(x, 0)),), (conj(atom_le(y, 4)),)))


# -- statements ------------------------------------------------------------------


def test_statements_of_two_parses_are_equal():
    first, second = alphabet(), alphabet()
    assert first.keys() == second.keys()
    for text, stmt in first.items():
        assert stmt is not second[text]
        assert_same(stmt, second[text])


def test_statement_routes_agree():
    parsed = alphabet()
    assert_same(parsed["x := x - 1"], Assign("x", x - 1))
    assert_same(parsed["x := x - 1"], Assign("x", LinTerm({"x": 1}, -1)))
    assert_same(parsed["havoc y"], Havoc("y"))
    guard = parsed["x > 0 and y <= 3"]
    rebuilt = Assume(conj(atom_le(y, 3), atom_gt(x, 0)).rename({}),
                     "x > 0 and y <= 3")
    assert_same(guard, rebuilt)


def test_statements_differing_in_label_or_constant_are_unequal():
    cond = conj(atom_gt(x, 0))
    assert_differ(Assume(cond, "a"), Assume(cond, "b"))
    assert_differ(Assume(cond), Assume(conj(atom_gt(x, 1))))
    assert_differ(Assume(cond), Assume(conj(Atom(-x, Rel.LE))))
    assert_differ(Assign("x", x - 1), Assign("x", x - 2))
    assert_differ(Assign("x", x - 1), Assign("y", x - 1))
    assert_differ(Havoc("x"), Havoc("y"))
    assert_differ(Havoc("x"), Assign("x", x))


def test_statement_hash_is_its_fields_hash():
    # the kept hash is the one a frozen dataclass computes per call
    stmt = Assign("x", x - 1)
    assert hash(stmt) == hash(("x", x - 1))
    assert hash(Havoc("y")) == hash(("y",))


# -- ints where integral: the representation against all-Fraction terms ---------

NAMES = ["a", "x", "y", "oldrnk"]
#: ints, integral Fractions and proper fractions
VALUES = st.one_of(st.integers(-6, 6),
                   st.integers(-6, 6).map(Fraction),
                   st.fractions(min_value=-4, max_value=4, max_denominator=6))
COEFF_MAPS = st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=3)


def fraction_backed(coeffs: dict, constant) -> LinTerm:
    """The term as stored before ints: every value a ``Fraction``."""
    items = tuple(sorted((n, Fraction(c)) for n, c in coeffs.items() if c != 0))
    return LinTerm._from_sorted(items, Fraction(constant))


def reference(t: LinTerm) -> tuple[dict, Fraction]:
    """A term's value as a Fraction coefficient map and constant."""
    return {n: Fraction(c) for n, c in t._coeffs}, Fraction(t._constant)


def ref_add(one: tuple, two: tuple) -> tuple[dict, Fraction]:
    coeffs = dict(one[0])
    for n, c in two[0].items():
        coeffs[n] = coeffs.get(n, Fraction(0)) + c
    return {n: c for n, c in coeffs.items() if c != 0}, one[1] + two[1]


def ref_scale(one: tuple, s: Fraction) -> tuple[dict, Fraction]:
    return {n: c * s for n, c in one[0].items() if c * s != 0}, one[1] * s


def assert_stored_form(t: LinTerm) -> None:
    """Ints where integral, Fraction otherwise, floats never."""
    for value in [c for _, c in t._coeffs] + [t._constant]:
        assert type(value) is int or (type(value) is Fraction
                                      and value.denominator != 1), value


def assert_matches(t: LinTerm, expected: tuple) -> None:
    assert_stored_form(t)
    assert reference(t) == expected
    old = fraction_backed(*expected)
    assert_same(t, old)
    assert str(t) == str(old) and repr(t) == repr(old)


@settings(max_examples=200, deadline=None)
@given(COEFF_MAPS, VALUES)
def test_term_keeps_the_all_fraction_hash_and_text(coeffs, constant):
    t = LinTerm(coeffs, constant)
    assert_stored_form(t)
    items = tuple(sorted((n, Fraction(c)) for n, c in coeffs.items() if c != 0))
    assert hash(t) == hash((items, Fraction(constant)))
    assert_matches(t, ({n: Fraction(c) for n, c in items}, Fraction(constant)))
    # the public accessors keep handing out Fractions
    assert all(type(c) is Fraction for c in t.coeffs.values())
    assert type(t.constant) is Fraction
    assert all(type(t.coeff(n)) is Fraction for n in NAMES)


@settings(max_examples=200, deadline=None)
@given(COEFF_MAPS, VALUES, COEFF_MAPS, VALUES,
       VALUES.filter(lambda v: v != 0))
def test_term_arithmetic_equals_the_fraction_computation(c1, k1, c2, k2, s):
    one, two = LinTerm(c1, k1), LinTerm(c2, k2)
    r1, r2 = reference(one), reference(two)
    assert_matches(one + two, ref_add(r1, r2))
    assert_matches(one - two, ref_add(r1, ref_scale(r2, Fraction(-1))))
    assert_matches(-one, ref_scale(r1, Fraction(-1)))
    assert_matches(one * s, ref_scale(r1, Fraction(s)))
    assert_matches(s * one, ref_scale(r1, Fraction(s)))
    assert_matches(one / s, ref_scale(r1, 1 / Fraction(s)))
    assert_matches(one + k2, ref_add(r1, ({}, Fraction(k2))))


@settings(max_examples=200, deadline=None)
@given(COEFF_MAPS, VALUES, COEFF_MAPS, VALUES,
       st.dictionaries(st.sampled_from(NAMES), VALUES, min_size=4, max_size=4))
def test_substitute_rename_evaluate_equal_the_fraction_computation(
        c1, k1, c2, k2, valuation):
    one, two = LinTerm(c1, k1), LinTerm(c2, k2)
    r1, r2 = reference(one), reference(two)
    # substitute x := two
    expected = ({n: c for n, c in r1[0].items() if n != "x"}, r1[1])
    expected = ref_add(expected, ref_scale(r2, r1[0].get("x", Fraction(0))))
    assert_matches(one.substitute({"x": two}), expected)
    # rename merges x into y
    merged: dict = {}
    for n, c in r1[0].items():
        merged["y" if n == "x" else n] = merged.get(
            "y" if n == "x" else n, Fraction(0)) + c
    assert_matches(one.rename({"x": "y"}),
                   ({n: c for n, c in merged.items() if c != 0}, r1[1]))
    value = one.evaluate(valuation)
    assert type(value) is Fraction
    assert value == r1[1] + sum((c * Fraction(valuation[n])
                                 for n, c in r1[0].items()), Fraction(0))


@st.composite
def mixed_atoms(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(NAMES), VALUES,
                                  min_size=1, max_size=3))
    return Atom(LinTerm(coeffs, draw(VALUES)), draw(st.sampled_from(list(Rel))))


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_atoms(), min_size=1, max_size=5),
       st.lists(st.sampled_from(NAMES), max_size=3))
def test_eliminate_outputs_ints_where_integral(atoms, order):
    projected = fm.eliminate(atoms, order)
    assert projected == fm_reference.eliminate(atoms, order)
    for atom in projected or ():
        assert_stored_form(atom.term)
    for atom in atoms:
        assert_stored_form(atom.tighten_integral().term)
