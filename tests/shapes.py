"""Test helper: compare explicit GBAs up to a renaming of their states.

Algorithm 1 names the states of the useful part it materializes by
their DFS numbers, so tests that know the expected automaton by its
original state names compare shapes, not names.
"""

from __future__ import annotations

from itertools import permutations

from repro.automata.gba import GBA


def isomorphic(got: GBA, expected: GBA) -> bool:
    """Is there a bijection of states mapping ``got`` onto ``expected``
    (initial states, transitions and every acceptance set)?  Brute force
    over all bijections: for hand-built automata of a few states."""
    if (got.alphabet != expected.alphabet
            or len(got.states) != len(expected.states)
            or got.acceptance_count != expected.acceptance_count):
        return False
    names = list(got.states)
    for image in permutations(expected.states):
        rename = dict(zip(names, image))
        if (frozenset(rename[q] for q in got.initial_states())
                == expected.initial_states()
                and all(frozenset(rename[q] for q in f) == g
                        for f, g in zip(got.acc_sets, expected.acc_sets))
                and {(rename[q], a): frozenset(rename[t] for t in targets)
                     for (q, a), targets in got.transitions.items()}
                == dict(expected.transitions)):
            return True
    return False
