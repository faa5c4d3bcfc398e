"""Smoke tests: every shipped example must run to completion."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "nonterminating.py",
            "automata_playground.py", "portfolio.py"} <= names


@pytest.mark.slow
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(example):
    result = subprocess.run([sys.executable, str(example)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples should narrate what they do"
