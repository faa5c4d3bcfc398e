"""Tests for the modular mix-and-match complementation subsystem.

Covers the condensation analyzer (SCC classes, elevator recognition,
per-SCC rank bounds), the partial complements through the round-robin
product (cross-checked against the rank-based complement on sampled
word membership and on ``L(A) & L(comp(A))`` emptiness), the dispatch
heuristic and forced-kind paths, the config/CLI plumbing, and the
``repro report`` dropped-counter warning that rides along.
"""

import json
import random

import pytest

from repro.automata.classify import elevator_rank_bound, is_semideterministic
from repro.automata.complement import (ComplementKind, classify_kind,
                                       implicit_complement, kind_applies)
from repro.automata.complement.modular import (ModularComplement, SCCClass,
                                               condensation, rank_bound)
from repro.automata.complement.rank_based import RankComplement
from repro.automata.difference import difference
from repro.automata.emptiness import is_empty_naive
from repro.automata.gba import GBA, ba, materialize
from repro.automata.ops import ProductGBA, complete
from repro.automata.words import UPWord, accepts
from repro.core.config import AnalysisConfig

SIGMA = ("a", "b")


def words(count, seed, symbols=SIGMA):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        prefix = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
        period = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4)))
        out.append(UPWord(prefix, period))
    return out


def random_general_ba(seed, n=3):
    rng = random.Random(seed)
    states = list(range(n))
    trans = {}
    for q in states:
        for a in SIGMA:
            trans[(q, a)] = set(rng.sample(states, rng.choice((1, 1, 2))))
    accepting = set(rng.sample(states, rng.randint(1, n)))
    return complete(ba(SIGMA, trans, {0}, accepting, states=states))


def mixed_ba():
    """Nondet rejecting prefix -> weak + det + general accepting SCCs.

    Classified RANK by ``classify_kind`` (the general SCC breaks
    semideterminism), with a genuinely mixed condensation -- the shape
    the MODULAR heuristic exists for.
    """
    trans = {
        # nondeterministic rejecting prefix SCC {p0}
        ("p0", "a"): {"p0", "w0"}, ("p0", "b"): {"p0", "d0", "g0"},
        # inherently weak accepting SCC {w0}
        ("w0", "a"): {"w0"},
        # internally deterministic accepting SCC {d0, d1} (F = {d0};
        # the b-self-loop on d1 is an F-free cycle, so it is not weak)
        ("d0", "a"): {"d1"}, ("d1", "a"): {"d0"}, ("d1", "b"): {"d1"},
        # general accepting SCC {g0, g1}: internal nondeterminism at g0
        # and an F-free cycle (the b-self-loop on g1)
        ("g0", "a"): {"g0", "g1"}, ("g1", "a"): {"g0"},
        ("g1", "b"): {"g1"},
    }
    accepting = {"w0", "d0", "g0"}
    return complete(ba(SIGMA, trans, {"p0"}, accepting))


# -- condensation analyzer -------------------------------------------------------


def test_condensation_classifies_mixed_automaton():
    cond = condensation(mixed_ba())
    counts = cond.counts()
    assert counts.get(SCCClass.WEAK_ACCEPTING.value) == 1
    assert counts.get(SCCClass.DET_ACCEPTING.value) == 1
    assert counts.get(SCCClass.GENERAL.value) == 1
    # the nondeterministic prefix and the completion sink are rejecting
    assert counts.get(SCCClass.WEAK_REJECTING.value, 0) >= 2
    assert cond.modular_pays_off()


def test_condensation_trivial_and_rejecting_components():
    auto = complete(ba(SIGMA, {("s", "a"): {"q"}, ("q", "a"): {"q"}},
                       ["s"], ["q"]))
    cond = condensation(auto)
    classes = {next(iter(c.states)): c.scc_class for c in cond.components
               if len(c.states) == 1}
    assert classes["s"] is SCCClass.TRIVIAL
    assert classes["q"] is SCCClass.WEAK_ACCEPTING


def test_condensation_requires_ba():
    gba = GBA(SIGMA, {("q", "a"): {"q"}}, ["q"], [])
    with pytest.raises(ValueError):
        condensation(gba)


def test_all_general_condensation_does_not_pay_off():
    auto = mixed_ba()
    for seed in range(20):
        rnd = random_general_ba(seed)
        cond = condensation(rnd)
        acc = cond.accepting_components
        if acc and all(c.scc_class is SCCClass.GENERAL for c in acc):
            assert not cond.modular_pays_off()
            break
    else:  # pragma: no cover - seeds above contain all-general samples
        pytest.skip("no all-general sample found")
    assert condensation(auto).modular_pays_off()


# -- elevator recognition and rank bounds -----------------------------------------


def test_is_elevator_positive_and_negative():
    # Accepting SCC -> nondeterministic rejecting SCC -> accepting SCC:
    # an elevator, but NOT semideterministic (nondeterminism after an
    # accepting state), so classify_kind falls back to RANK -- exactly
    # the shape where the tighter elevator bound pays on the monolithic
    # path.
    elevator = complete(ba(
        SIGMA,
        {("p", "a"): {"p", "q"}, ("p", "b"): {"p"},
         ("q", "a"): {"q"}, ("q", "b"): {"r"},
         ("r", "a"): {"r", "t"}, ("r", "b"): {"r"},
         ("t", "a"): {"t"}, ("t", "b"): {"t"}},
        ["p"], ["q", "t"]))
    assert all(c.scc_class is not SCCClass.GENERAL
               for c in condensation(elevator).components)
    assert not is_semideterministic(elevator)
    assert classify_kind(elevator) is ComplementKind.RANK
    # a general SCC disqualifies
    assert any(c.scc_class is SCCClass.GENERAL
               for c in condensation(mixed_ba()).components)


def test_elevator_rank_bound_constant_for_elevators():
    elevator = complete(ba(
        SIGMA,
        {("p", "a"): {"p", "q"}, ("p", "b"): {"p"},
         ("q", "a"): {"q"}},
        ["p"], ["q"]))
    classical = 2 * (len(elevator.states) - len(elevator.accepting))
    bound = elevator_rank_bound(elevator)
    assert bound <= 3  # constant, independent of the prefix size
    assert bound < classical


def test_rank_bound_never_exceeds_classical():
    for seed in range(25):
        auto = random_general_ba(seed)
        classical = 2 * (len(auto.states) - len(auto.accepting))
        assert rank_bound(condensation(auto)) <= classical


def test_rank_based_with_elevator_bound_still_correct():
    # The monolithic satellite: RankComplement defaults to the tighter
    # bound; its language must still be the exact complement.
    for seed in range(12):
        auto = random_general_ba(seed)
        comp = materialize(RankComplement(auto))
        for word in words(30, seed * 13 + 5):
            assert accepts(auto, word) != accepts(comp, word), (seed, word)


# -- modular complement correctness ----------------------------------------------


def test_modular_complement_on_mixed_automaton():
    auto = mixed_ba()
    comp = materialize(ModularComplement(auto))
    for word in words(150, 42):
        assert accepts(auto, word) != accepts(comp, word), str(word)


def test_modular_vs_rank_randomized_membership():
    for seed in range(20):
        auto = random_general_ba(seed)
        mod = materialize(ModularComplement(auto))
        rank = materialize(RankComplement(auto))
        for word in words(25, seed * 7 + 1):
            assert accepts(mod, word) == accepts(rank, word), (seed, word)
            assert accepts(auto, word) != accepts(mod, word), (seed, word)


def test_modular_intersection_with_input_is_empty():
    # L(A) & L(comp(A)) = {} -- emptiness-level soundness, stronger than
    # word sampling.
    for seed in range(15):
        auto = random_general_ba(seed)
        comp = materialize(ModularComplement(auto))
        assert is_empty_naive(materialize(ProductGBA(auto, comp))), seed
    auto = mixed_ba()
    comp = materialize(ModularComplement(auto))
    assert is_empty_naive(materialize(ProductGBA(auto, comp)))


def test_modular_vs_rank_on_sdba_corpus_samples():
    from repro.benchgen.sdba_corpus import random_sdba
    for seed in range(6):
        sdba = random_sdba(seed, n_nondet=2, n_det=3, n_symbols=2)
        auto = complete(sdba)
        mod = materialize(ModularComplement(auto))
        rank = materialize(RankComplement(auto))
        sample = words(25, seed * 11 + 3, symbols=tuple(sorted(auto.alphabet)))
        for word in sample:
            assert accepts(mod, word) == accepts(rank, word), (seed, word)


def test_modular_requires_complete_ba():
    incomplete = ba(SIGMA, {("q", "a"): {"q"}}, ["q"], ["q"])
    with pytest.raises(ValueError):
        ModularComplement(incomplete)
    completed = complete(incomplete)
    gba = GBA(completed.alphabet, completed.transitions,
              completed.initial_states(), [], states=completed.states)
    with pytest.raises(ValueError):
        ModularComplement(gba)


# -- dispatch: heuristic and forced kinds -----------------------------------------


def test_dispatch_heuristic_engages_only_when_mixed():
    mixed = mixed_ba()
    assert classify_kind(mixed) is ComplementKind.RANK
    _, kind = implicit_complement(mixed, modular=True)
    assert kind is ComplementKind.MODULAR
    # modular off: the monolithic rank path
    _, kind = implicit_complement(mixed, modular=False)
    assert kind is ComplementKind.RANK
    # modular beats via_semidet when both apply
    _, kind = implicit_complement(mixed, modular=True, via_semidet=True)
    assert kind is ComplementKind.MODULAR
    # an all-general condensation gains nothing: stays RANK
    for seed in range(20):
        rnd = random_general_ba(seed)
        cond = condensation(rnd)
        acc = cond.accepting_components
        if acc and all(c.scc_class is SCCClass.GENERAL for c in acc):
            _, kind = implicit_complement(rnd, modular=True)
            assert kind is ComplementKind.RANK
            break


def test_dispatch_heuristic_skips_cheaper_classes():
    # A plain SDBA keeps its NCSB dispatch even with modular enabled.
    sdba = ba(SIGMA,
              {("n", "a"): {"n", "q"}, ("n", "b"): {"n"},
               ("q", "a"): {"q"}},
              ["n"], ["q"])
    assert is_semideterministic(sdba)
    _, kind = implicit_complement(sdba, modular=True)
    assert kind is ComplementKind.SDBA_LAZY


def test_every_kind_can_be_forced():
    samples = {
        ComplementKind.FINITE_TRACE: ba(
            SIGMA, {("0", "a"): {"acc"}, ("acc", "a"): {"acc"},
                    ("acc", "b"): {"acc"}}, ["0"], ["acc"]),
        ComplementKind.DBA: ba(
            SIGMA, {("p", "a"): {"q"}, ("p", "b"): {"p"},
                    ("q", "a"): {"q"}, ("q", "b"): {"p"}}, ["p"], ["q"]),
        ComplementKind.SDBA_ORIGINAL: ba(
            SIGMA, {("n", "a"): {"n", "q"}, ("n", "b"): {"n"},
                    ("q", "a"): {"q"}}, ["n"], ["q"]),
        ComplementKind.SDBA_LAZY: ba(
            SIGMA, {("n", "a"): {"n", "q"}, ("n", "b"): {"n"},
                    ("q", "a"): {"q"}}, ["n"], ["q"]),
        # keep the rank-flavoured kinds on 3-state inputs: their
        # materialized complements grow very fast with |Q|
        ComplementKind.VIA_SEMIDET: random_general_ba(3),
        ComplementKind.RANK: random_general_ba(3),
        ComplementKind.MODULAR: mixed_ba(),
    }
    for kind, auto in samples.items():
        implicit, used = implicit_complement(auto, kind=kind)
        assert used is kind
        comp = implicit if hasattr(implicit, "states") else materialize(implicit)
        for word in words(20, hash(kind.value) % 1000):
            assert accepts(auto, word) != accepts(comp, word), (kind, word)


def test_forced_kind_raises_cleanly_when_inapplicable():
    general = mixed_ba()  # not finite-trace, not det, not semidet
    for kind in (ComplementKind.FINITE_TRACE, ComplementKind.DBA,
                 ComplementKind.SDBA_ORIGINAL, ComplementKind.SDBA_LAZY):
        assert not kind_applies(kind, general)
        with pytest.raises(ValueError):
            implicit_complement(general, kind=kind)
    # universal kinds apply to any BA
    for kind in (ComplementKind.RANK, ComplementKind.VIA_SEMIDET,
                 ComplementKind.MODULAR):
        assert kind_applies(kind, general)


# -- difference pipeline ----------------------------------------------------------


def test_difference_forced_modular_agrees_with_rank():
    # rank-vs-modular agreement on a small subtrahend (the rank side
    # must stay materializable); per-class component counts on the
    # mixed one, where only the modular run produces them.
    minuend = complete(ba(SIGMA, {("m", "a"): {"m"}, ("m", "b"): {"m"}},
                          ["m"], ["m"]))
    sub = random_general_ba(5)
    via_mod = difference(minuend, sub, kind=ComplementKind.MODULAR)
    via_rank = difference(minuend, sub, kind=ComplementKind.RANK)
    assert via_mod.kind is ComplementKind.MODULAR
    assert via_rank.kind is ComplementKind.RANK
    assert via_mod.is_empty == via_rank.is_empty
    assert via_rank.stats.modular_components is None
    for word in words(40, 99):
        assert (accepts(via_mod.automaton, word)
                == accepts(via_rank.automaton, word)), str(word)
    mixed = difference(minuend, mixed_ba(), kind=ComplementKind.MODULAR)
    counts = mixed.stats.modular_components
    assert counts == {"weak": 1, "det": 1, "rank": 1, "inert": counts["inert"]}


def test_difference_heuristic_modular_engages():
    minuend = complete(ba(SIGMA, {("m", "a"): {"m"}, ("m", "b"): {"m"}},
                          ["m"], ["m"]))
    result = difference(minuend, mixed_ba(), modular=True,
                        simulation_reduction=False)
    assert result.kind is ComplementKind.MODULAR
    # modular off, and the mixed subtrahend would be too big to explore
    # monolithically -- so check the decline paths on a 2-state
    # all-general subtrahend: the heuristic must stay RANK both when
    # disabled and when the condensation has nothing to mix.
    general = ba(SIGMA,
                 {("g0", "a"): {"g0", "g1"}, ("g0", "b"): {"g1"},
                  ("g1", "a"): {"g0"}, ("g1", "b"): {"g1"}},
                 ["g0"], ["g0"])
    cond = condensation(complete(general))
    assert all(c.scc_class is SCCClass.GENERAL
               for c in cond.accepting_components)
    for flag in (True, False):
        result = difference(minuend, general, modular=flag,
                            simulation_reduction=False)
        assert result.kind is ComplementKind.RANK


# -- config / CLI plumbing --------------------------------------------------------


def test_config_roundtrips_modular_fields():
    config = AnalysisConfig(modular_complement=False, complement_kind="modular")
    data = config.to_dict()
    assert data["modular_complement"] is False
    assert data["complement_kind"] == "modular"
    assert AnalysisConfig.from_dict(json.loads(json.dumps(data))) == config
    # every ComplementKind value is a valid pin and round-trips
    for kind in ComplementKind:
        pinned = AnalysisConfig(complement_kind=kind.value)
        assert AnalysisConfig.from_dict(pinned.to_dict()) == pinned


def test_config_rejects_unknown_complement_kind():
    with pytest.raises(ValueError):
        AnalysisConfig(complement_kind="superfast")


def test_config_describe_only_names_non_defaults():
    assert "modular" not in AnalysisConfig().describe()
    assert "comp=" not in AnalysisConfig().describe()
    assert "nomodular" in AnalysisConfig(modular_complement=False).describe()
    assert "comp=modular" in AnalysisConfig(complement_kind="modular").describe()


def test_cli_complement_flag(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "prog.t"
    path.write_text("program t(x):\n    while x > 0:\n        x := x - 1\n")
    verdicts = {}
    for flag in (["--complement", "modular"], ["--complement", "rank"],
                 ["--no-modular"]):
        code = main(["--quiet", *flag, str(path)])
        verdicts[tuple(flag)] = capsys.readouterr().out.strip()
        assert code == 0
    assert set(verdicts.values()) == {"TERMINATING"}


# -- repro report: every counter is summed ----------------------------------------


def test_report_sums_unknown_counters(tmp_path, capsys):
    from repro.runner.report import aggregate_rows, main
    rows = [{
        "program": "p", "config_name": "c", "status": "terminating",
        "verdict": "terminating", "expected": "terminating", "seconds": 0.1,
        "metrics": {"counters": {
            "refinement.rounds": 2,
            "difference.calls": 3,
            "from.a.future.schema": 7,
        }},
    } for _ in range(2)]
    store = tmp_path / "results.jsonl"
    store.write_text("".join(json.dumps(r) + "\n" for r in rows))
    agg = aggregate_rows(rows)["c"]
    assert agg.counters == {"refinement.rounds": 4, "difference.calls": 6,
                            "from.a.future.schema": 14}
    assert main([str(store)]) == 0
    out = capsys.readouterr()
    assert "from.a.future.schema=14" in out.out
    assert "warning" not in out.err


def test_report_no_warning_when_all_counters_known(tmp_path, capsys):
    from repro.runner.report import main
    rows = [{
        "program": "p", "config_name": "c", "status": "terminating",
        "verdict": "terminating", "expected": "terminating", "seconds": 0.1,
        "metrics": {"counters": {"refinement.rounds": 1}},
    }]
    store = tmp_path / "results.jsonl"
    store.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main([str(store)]) == 0
    assert "warning" not in capsys.readouterr().err
