"""Parameterized program families for scaling experiments.

Each generator produces a family member of size ``k``; analysis cost
grows with ``k`` through bigger alphabets, more modules, and larger
difference automata -- the knobs the paper's optimizations act on.

- ``interleaved_counters(k)``: one loop draining ``k`` counters through
  a nondeterministic ``k``-way branch (wide modules),
- ``sequential_loops(k)``: ``k`` independent loops in sequence (many
  refinement rounds, growing alphabet),
- ``nested_loops(k)``: ``k``-deep nesting with reset inner bounds,
- ``phase_chain(k)``: a phase counter stepping through ``k`` phases
  before the ranked descent starts.
"""

from __future__ import annotations

from repro.benchgen.programs import BenchProgram


def interleaved_counters(k: int) -> BenchProgram:
    """while x1+..+xk > 0: nondeterministically decrement one counter."""
    if k < 1:
        raise ValueError("k must be positive")
    names = [f"x{i}" for i in range(1, k + 1)]
    guard = " + ".join(names) + " > 0"
    lines = [f"program interleaved_{k}({', '.join(names)}):",
             f"    while {guard}:"]
    indent = "        "
    for i, name in enumerate(names):
        if i == len(names) - 1:
            if k == 1:
                lines.append(f"{indent}{name} := {name} - 1")
            else:
                lines.append(f"{indent}else:")
                lines.append(f"{indent}    {name} := {name} - 1")
        elif i == 0:
            lines.append(f"{indent}if *:")
            lines.append(f"{indent}    {name} := {name} - 1")
        else:
            lines.append(f"{indent}else:")
            lines.append(f"{indent}    if *:")
            lines.append(f"{indent}        {name} := {name} - 1")
            indent += "    "
    source = "\n".join(lines) + "\n"
    return BenchProgram(f"interleaved_{k}", "scaled", source, "terminating")


def sequential_loops(k: int) -> BenchProgram:
    """k independent countdown loops in sequence."""
    if k < 1:
        raise ValueError("k must be positive")
    names = [f"x{i}" for i in range(1, k + 1)]
    lines = [f"program sequential_{k}({', '.join(names)}):"]
    for name in names:
        lines.append(f"    while {name} > 0:")
        lines.append(f"        {name} := {name} - 1")
    source = "\n".join(lines) + "\n"
    return BenchProgram(f"sequential_{k}", "scaled", source, "terminating")


def nested_loops(k: int) -> BenchProgram:
    """k-deep nesting; each inner loop is reset from the outer counter."""
    if k < 1:
        raise ValueError("k must be positive")
    names = [f"x{i}" for i in range(1, k + 1)]
    lines = [f"program nested_{k}({', '.join(names)}):"]
    indent = "    "
    for depth, name in enumerate(names):
        lines.append(f"{indent}while {name} > 0:")
        indent += "    "
        if depth + 1 < k:
            lines.append(f"{indent}{names[depth + 1]} := {name}")
    lines.append(f"{indent}{names[-1]} := {names[-1]} - 1")
    for depth in range(k - 1, 0, -1):
        indent = "    " * (depth + 1)
        lines.append(f"{indent}{names[depth - 1]} := {names[depth - 1]} - 1")
    source = "\n".join(lines) + "\n"
    return BenchProgram(f"nested_{k}", "scaled", source, "terminating")


def phase_chain(k: int) -> BenchProgram:
    """A phase counter walks 0..k before x starts descending."""
    if k < 1:
        raise ValueError("k must be positive")
    lines = [f"program phases_{k}(x, p):",
             "    while x > 0:",
             f"        if p < {k}:",
             "            p := p + 1",
             "        else:",
             "            x := x - 1"]
    source = "\n".join(lines) + "\n"
    return BenchProgram(f"phases_{k}", "scaled", source, "terminating")
