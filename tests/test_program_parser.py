"""Tests for the parser, AST conditions, and CFG construction."""

import pytest

from repro.logic.atoms import atom_ge, atom_gt, atom_le, atom_lt
from repro.logic.linconj import conj
from repro.logic.terms import var
from repro.program.ast import (Block, BoolAnd, BoolConst, BoolNot, BoolOr,
                               Comparison, Nondet, SAssign, SAssume, SHavoc,
                               SIf, SWhile)
from repro.program.cfg import build_cfg
from repro.program.parser import ParseError, parse_program
from repro.program.statements import Assign, Assume, Havoc


# -- parser -----------------------------------------------------------------------

def test_parse_header():
    prog = parse_program("program foo(a, b, c):\n    skip\n")
    assert prog.name == "foo"
    assert prog.variables == ("a", "b", "c")


def test_parse_no_variables():
    prog = parse_program("program bare():")
    assert prog.variables == ()
    assert len(prog.body) == 0


def test_parse_assignment_forms():
    prog = parse_program("""
program p(x):
    x := 2 * x + 1
    x ++
    x --
""")
    stmts = list(prog.body)
    assert stmts[0] == SAssign("x", 2 * var("x") + 1)
    assert stmts[1] == SAssign("x", var("x") + 1)
    assert stmts[2] == SAssign("x", var("x") - 1)


def test_parse_nested_structure():
    prog = parse_program("""
program p(x, y):
    while x > 0:
        if y > 0:
            y := y - 1
        else:
            x := x - 1
            havoc y
""")
    (loop,) = list(prog.body)
    assert isinstance(loop, SWhile)
    (branch,) = list(loop.body)
    assert isinstance(branch, SIf)
    assert isinstance(list(branch.then_branch)[0], SAssign)
    assert isinstance(list(branch.else_branch)[1], SHavoc)


def test_parse_boolean_conditions():
    prog = parse_program("""
program p(x, y):
    assume x > 0 and (y < 3 or not x == y)
    while *:
        skip
""")
    stmts = list(prog.body)
    cond = stmts[0].cond
    assert isinstance(cond, BoolAnd)
    assert isinstance(list(prog.body)[1].cond, Nondet)


def test_parse_comments_and_blank_lines():
    prog = parse_program("""
# leading comment
program p(x):   # trailing comment

    x := x + 1  # increment
""")
    assert len(prog.body) == 1


def test_parse_errors():
    bad_sources = [
        "",                                       # empty
        "program p(x)\n    skip",                 # missing colon
        "program p(x, x):\n    skip",             # duplicate variable
        "program p(x):\n    while x > 0:",        # empty while body
        "program p(x):\n    else:\n        skip",  # dangling else
        "program p(x):\n    x := x * y",          # nonlinear
        "program p(x):\n    x := := 3",           # junk
        "program p(x):\n  skip\n      skip",      # bad indent
        "program p(x):\n\tskip",                  # tab indentation
        "program p(x):\n    x := 1 2",            # trailing tokens
        "program p(x):\n    while := 0:\n        skip",  # keyword misuse
    ]
    for source in bad_sources:
        with pytest.raises(ParseError):
            parse_program(source)


def test_parse_error_carries_line():
    try:
        parse_program("program p(x):\n    x := x * x\n")
    except ParseError as err:
        assert err.line == 2


def test_precedence_or_binds_weaker_than_and():
    prog = parse_program("""
program p(x, y):
    assume x > 0 and y > 0 or x < 0
""")
    cond = list(prog.body)[0].cond
    assert isinstance(cond, BoolOr)
    assert isinstance(cond.parts[0], BoolAnd)


# -- conditions to DNF -----------------------------------------------------------------

x, y = var("x"), var("y")


def test_comparison_dnf():
    assert Comparison("<", x, y).dnf() == [conj(atom_lt(x, y))]
    neq = Comparison("!=", x, y).dnf()
    assert len(neq) == 2


def test_comparison_negated_dnf():
    (only,) = Comparison("<=", x, y).negated_dnf()
    assert only.entails_atom(atom_gt(x, y))
    eq_branches = Comparison("==", x, y).negated_dnf()
    assert len(eq_branches) == 2


def test_comparison_rejects_bad_op():
    with pytest.raises(ValueError):
        Comparison("~", x, y)


def test_bool_and_distributes():
    cond = BoolAnd((Comparison("!=", x, 0), Comparison(">", y, 0)))
    dnf = cond.dnf()
    assert len(dnf) == 2
    for disjunct in dnf:
        assert disjunct.entails_atom(atom_gt(y, 0))


def test_bool_not_double_negation():
    cond = BoolNot(BoolNot(Comparison("<", x, y)))
    assert cond.dnf() == Comparison("<", x, y).dnf()


def test_bool_const_and_nondet():
    assert BoolConst(True).dnf() == [conj()]
    assert BoolConst(True).negated_dnf() == []
    assert BoolConst(False).dnf() == []
    assert Nondet().dnf() == [conj()]
    assert Nondet().negated_dnf() == [conj()]


def test_unsat_disjuncts_dropped():
    cond = BoolAnd((Comparison("<", x, 0), Comparison(">", x, 0)))
    assert cond.dnf() == []


# -- CFG ---------------------------------------------------------------------------------

def test_cfg_shape_for_simple_loop():
    cfg = build_cfg(parse_program("""
program p(x):
    while x > 0:
        x := x - 1
"""))
    assert cfg.entry == 0
    assert len(cfg.alphabet()) == 3  # guard, negated guard, decrement
    guards = [e for e in cfg.edges if isinstance(e.statement, Assume)]
    assert len(guards) == 2
    # exit has no outgoing edges
    assert cfg.out_edges(cfg.exit) == []


def test_cfg_statement_interning():
    cfg = build_cfg(parse_program("""
program p(x):
    while x > 0:
        x := x - 1
    while x > 0:
        x := x - 1
"""))
    # Both loops use the same guard and body: the alphabet does not grow.
    assert len(cfg.alphabet()) == 3


def test_cfg_disjunctive_guard_splits_edges():
    cfg = build_cfg(parse_program("""
program p(x, y):
    while x > 0 or y > 0:
        x := x - 1
"""))
    guards = [e for e in cfg.edges if e.source == 0 and e.target not in (0,)]
    # two entry edges (one per disjunct) plus one exit edge (conjunction)
    labels = sorted(str(e.statement) for e in cfg.edges if isinstance(e.statement, Assume))
    assert any("#0" in label for label in labels)


def test_cfg_nondet_branch_duplicates_symbol():
    cfg = build_cfg(parse_program("""
program p(x):
    while x > 0:
        if *:
            x := x - 1
        else:
            x := x - 2
"""))
    star_edges = [e for e in cfg.edges
                  if isinstance(e.statement, Assume) and not e.statement.cond.atoms]
    # '*' true and false branches carry assume-true statements
    assert len(star_edges) >= 2


def test_cfg_to_gba_all_states_accepting():
    cfg = build_cfg(parse_program("""
program p(x):
    while x > 0:
        x := x - 1
"""))
    gba = cfg.to_gba()
    assert gba.acceptance_count == 1
    assert gba.acc_sets[0] == gba.states


def test_cfg_empty_while_body_self_loop():
    cfg = build_cfg(parse_program("""
program p(x):
    while x > 0:
        skip
"""))
    gba = cfg.to_gba()
    assert gba.initial_states() <= gba.states


def test_cfg_empty_program():
    cfg = build_cfg(parse_program("program p(x):"))
    assert cfg.entry == cfg.exit
    assert cfg.edges == ()
