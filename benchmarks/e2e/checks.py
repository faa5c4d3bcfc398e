"""Reference checks the benchmark applies to every output, off the clock.

They use only the simple machinery: the known answer of each program,
the accepting-lasso search, and word membership by the product with a
lasso.  None of them goes through the difference operator.
"""

from __future__ import annotations

import random

from repro.automata.emptiness import find_accepting_lasso
from repro.automata.words import UPWord, accepts

SOLVED, OPEN, WRONG, FAILED = "solved", "open", "wrong", "failed"


def verdict_status(expected: str, verdict: str) -> str:
    """Classify a verdict against the program's known answer.

    ``expected == "unknown"`` marks a terminating program outside the
    linear-ranking fragment: only NONTERMINATING is wrong there, and no
    verdict counts as solved.
    """
    if verdict == "unknown":
        return OPEN
    if expected == "unknown":
        return WRONG if verdict == "nonterminating" else OPEN
    return SOLVED if verdict == expected else WRONG


def sample_words(alphabet, rng: random.Random, count: int) -> list[UPWord]:
    """``count`` random ultimately periodic words over ``alphabet``."""
    symbols = sorted(alphabet, key=str)
    return [UPWord(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))),
                   tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4))))
            for _ in range(count)]


def difference_mismatches(minuend, subtrahend, result, words, *,
                          result_lasso: bool = True) -> list[UPWord]:
    """Words on which ``result`` disagrees with ``L(minuend) \\ L(subtrahend)``.

    Besides ``words``, the minuend's accepting lasso is checked and,
    with ``result_lasso``, the result's own: a word it claims to accept.
    """
    candidates = list(words)
    for auto in (minuend, result) if result_lasso else (minuend,):
        lasso = find_accepting_lasso(auto)
        if lasso is not None:
            candidates.append(lasso)
    return [word for word in candidates
            if accepts(result, word) != (accepts(minuend, word)
                                         and not accepts(subtrahend, word))]


def remainder_is_empty(remainder) -> bool:
    """A fully replayed module chain must leave no accepting lasso."""
    return find_accepting_lasso(remainder) is None
