"""The Figure 4 SDBA corpus.

The paper complements 1159 SDBAs collected from Ultimate Automizer
runs.  We reproduce the distribution in kind:

- :func:`harvest_sdbas` runs the analysis over the program suite and
  returns every certified module that NCSB complements (completed +
  normalized, exactly what is fed to NCSB), and
- :func:`random_sdba` generates seeded random normalized SDBAs so the
  corpus can be scaled to stress sizes the tiny suite does not reach.

``sdba_corpus`` combines both deterministically.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.automata.classify import is_normalized_sdba
from repro.automata.complement.dispatch import ComplementKind, classify_kind
from repro.automata.complement.ncsb import prepare_sdba
from repro.automata.gba import GBA, ba
from repro.benchgen.programs import BenchProgram, program_suite
from repro.core.api import prove_termination
from repro.core.config import AnalysisConfig


def harvest_sdbas(programs: Iterable[BenchProgram] | None = None,
                  config: AnalysisConfig | None = None) -> list[GBA]:
    """SDBAs produced by our own termination analysis over the suite:
    the modules of each run that :func:`classify_kind` sends to NCSB."""
    programs = list(programs) if programs is not None else program_suite()
    config = config or AnalysisConfig()
    harvested: list[GBA] = []
    for bench in programs:
        try:
            result = prove_termination(bench.parse(), config)
        except Exception:
            continue  # a failing benchmark must not sink the harvest
        harvested.extend(prepare_sdba(module.automaton)
                         for module in result.modules
                         if classify_kind(module.automaton)
                         is ComplementKind.SDBA_LAZY)
    return harvested


def random_sdba(seed: int, *, n_nondet: int = 4, n_det: int = 6,
                n_symbols: int = 3, density: float = 0.35) -> GBA:
    """A seeded random normalized SDBA.

    ``Q1`` states move nondeterministically among themselves and into
    accepting entry points of ``Q2``; ``Q2`` is a random deterministic
    complete structure.  The result is completed and normalized, ready
    for NCSB.
    """
    rng = random.Random(seed)
    sigma = [f"s{i}" for i in range(n_symbols)]
    q1 = [f"n{i}" for i in range(n_nondet)]
    q2 = [f"d{i}" for i in range(n_det)]
    accepting = {q for q in q2 if rng.random() < 0.5}
    if not accepting:
        accepting = {rng.choice(q2)}

    transitions: dict[tuple[str, str], set[str]] = {}

    def add(source: str, symbol: str, target: str) -> None:
        transitions.setdefault((source, symbol), set()).add(target)

    for q in q1:
        for symbol in sigma:
            for target in q1:
                if rng.random() < density:
                    add(q, symbol, target)
            # occasional jump into the deterministic part (accepting entry)
            if rng.random() < density:
                add(q, symbol, rng.choice(sorted(accepting)))
    for q in q2:
        for symbol in sigma:
            add(q, symbol, rng.choice(q2))  # deterministic: one target

    initial = [q1[0]] if q1 else [rng.choice(q2)]
    auto = ba(sigma, transitions, initial, accepting, states=q1 + q2)
    prepared = prepare_sdba(auto)
    assert is_normalized_sdba(prepared)
    return prepared


def sdba_corpus(*, harvested: bool = True, n_random: int = 40,
                seed: int = 2018,
                random_sizes: Iterable[tuple[int, int]] = ((3, 4), (4, 6), (5, 8)),
                ) -> list[GBA]:
    """The deterministic Figure 4 corpus: harvested + random SDBAs."""
    corpus: list[GBA] = []
    if harvested:
        corpus.extend(harvest_sdbas())
    rng = random.Random(seed)
    sizes = list(random_sizes)
    for i in range(n_random):
        n1, n2 = sizes[i % len(sizes)]
        corpus.append(random_sdba(rng.randrange(1 << 30),
                                  n_nondet=n1, n_det=n2))
    return corpus
