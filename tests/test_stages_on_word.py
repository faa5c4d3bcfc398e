"""The powerset stages decide the sampled word before they are built.

``generalize`` reaches ``M_det`` and ``M_semi`` (also over interpolant
predicates) through ``_explore`` with the sampled word: the stage's
rule is run along ``u v^w`` only, and the module is built only when
the word is accepted.  These tests hold that decision to the built
module's ``language_contains``, and pin the rounds it must not move.
"""

import json
import pathlib
import random

import pytest

from repro import AnalysisConfig, prove_termination_source
from repro.automata.words import UPWord
from repro.benchgen import suite_by_name
from repro.core import refinement, stages
from repro.core.stages import (build_deterministic_module, build_lasso_module,
                               build_semideterministic_module)
from repro.obs import metrics
from repro.ranking.certificate import build_certificate
from repro.ranking.synthesis import ProofKind

PINNED = pathlib.Path(__file__).with_name("stage_rounds_pinned.json")

#: (name, the internal on-word path, the public unconditional build)
RULES = [("det", stages._deterministic, build_deterministic_module),
         ("semi", stages._semideterministic, build_semideterministic_module)]


@pytest.fixture(scope="module")
def suite_proofs():
    """Every proof the suite's rounds generalize, under the default and
    the interpolant config (6 rounds each), one per sampled word."""
    proofs = {}
    real = refinement.generalize

    def recording(proof, *args, **kwargs):
        proofs.setdefault(str(proof.lasso.word()), proof)
        return real(proof, *args, **kwargs)

    refinement.generalize = recording
    try:
        for program in suite_by_name().values():
            for interpolants in (False, True):
                prove_termination_source(program.source, AnalysisConfig(
                    max_refinements=6, interpolant_modules=interpolants))
    finally:
        refinement.generalize = real
    return list(proofs.values())


def _bases(proof):
    """The lasso module and, for a stem-infeasible lasso, the lasso
    module over interpolant predicates."""
    yield build_lasso_module(proof)
    if proof.kind is ProofKind.STEM_INFEASIBLE:
        yield build_lasso_module(
            proof, build_certificate(proof, interpolate=True))


def _random_words(alphabet, rng, count):
    symbols = sorted(alphabet, key=str)
    for _ in range(count):
        yield UPWord(
            tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4))),
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4))))


def _on_word(build, base, word):
    """``(module, rejected_on_word)``: what the on-word path returned,
    and whether its check (not the build's budget) skipped the build."""
    registry = metrics.MetricsRegistry()
    with metrics.use_registry(registry):
        module = build(base, word)
    return module, registry.counter("stages.rejected_on_word").value == 1


def test_suite_yields_lassos_of_both_kinds(suite_proofs):
    kinds = {proof.kind for proof in suite_proofs}
    assert {ProofKind.RANKED, ProofKind.STEM_INFEASIBLE} <= kinds


@pytest.mark.parametrize("rule", RULES, ids=[r[0] for r in RULES])
def test_on_word_decision_matches_the_built_module(suite_proofs, rule):
    """On each sampled word, on seeded random lassos over the module's
    alphabet and on the sampled word with a foreign statement in its
    loop, the stage is kept exactly when the fully built module
    contains the word; a kept module is the full one."""
    _, on_word, build = rule
    rng = random.Random(36)
    statements = sorted({s for proof in suite_proofs
                         for s in proof.lasso.stem + proof.lasso.loop}, key=str)
    checked = {True: 0, False: 0}
    for proof in suite_proofs:
        if not proof.is_terminating:
            continue
        for base in _bases(proof):
            full = build(base)
            assert full is not None
            alphabet = base.automaton.alphabet
            sampled = proof.lasso.word()
            foreign = next(s for s in statements if s not in alphabet)
            words = [sampled, *_random_words(alphabet, rng, 3),
                     UPWord(sampled.prefix, sampled.period + (foreign,))]
            for word in words:
                expected = full.language_contains(word)
                module, rejected = _on_word(on_word, base, word)
                assert (module is not None) == expected, (str(word), proof.lasso)
                assert rejected == (not expected)
                checked[expected] += 1
                if module is not None:
                    assert module.automaton.states == full.automaton.states
                    assert (module.automaton.transitions
                            == full.automaton.transitions)
                    assert module.automaton.accepting == full.automaton.accepting
                    assert module.certificate == full.certificate
    # both answers are exercised
    assert min(checked.values()) >= 20


@pytest.mark.parametrize("rule", RULES, ids=[r[0] for r in RULES])
def test_on_word_skips_exactly_when_the_budget_would(suite_proofs,
                                                     monkeypatch, rule):
    """Under a low budget the stage is skipped exactly when the build
    returns ``None`` or rejects the word, and the check itself skips
    some accepted words for the budget, before any build.  Bases of up
    to 8 states keep the rebuilds cheap."""
    _, on_word, build = rule
    rng = random.Random(7)
    skipped_for_budget = 0
    for proof in suite_proofs:
        if not proof.is_terminating:
            continue
        for base in _bases(proof):
            if len(base.automaton.states) > 8:
                continue
            unbounded = build(base)
            words = [proof.lasso.word(),
                     *_random_words(base.automaton.alphabet, rng, 1)]
            size = len(unbounded.automaton.states)
            # the build returns None from budget size - 2 down
            for budget in {0, size // 2, size - 2, size - 1} - {-1}:
                monkeypatch.setattr(stages, "STAGE_STATE_BUDGET", budget)
                full = build(base)
                for word in words:
                    skipped = full is None or not full.language_contains(word)
                    module, rejected = _on_word(on_word, base, word)
                    assert (module is None) == skipped, (budget, str(word))
                    if rejected and unbounded.language_contains(word):
                        assert full is None
                        skipped_for_budget += 1
                monkeypatch.undo()
    assert skipped_for_budget > 0


def _pinned_rounds():
    suite = suite_by_name()
    jobs = [(name, AnalysisConfig(max_refinements=10)) for name in
            ("nested_reset", "triple_nest", "alternate_guarded", "two_phase")]
    jobs.append(("sort@interpolants", AnalysisConfig(interpolant_modules=True)))
    out, rejected = {}, 0
    for key, config in jobs:
        result = prove_termination_source(suite[key.split("@")[0]].source,
                                          config)
        out[key] = [[r.word, r.proof_kind, r.stage, r.module_states,
                     r.difference_states] for r in result.stats.rounds]
        rejected += result.stats.counter("stages.rejected_on_word")
    return out, rejected


def test_rounds_are_pinned():
    """Deciding a stage on the word before building it moves no
    round: the words, proof kinds, stages and sizes of the ``deep``
    programs' first 10 rounds and of ``sort`` under interpolants are
    those recorded before the check existed."""
    rounds, rejected = _pinned_rounds()
    assert rounds == json.loads(PINNED.read_text())
    # and the check skipped builds there: the rounds stay put regardless
    assert rejected > 0
