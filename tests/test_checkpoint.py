"""Durable refinement checkpoints: round-trips, trust model, crash-resume.

Three layers of coverage:

- serialization round-trips for every layer of the portable-dict
  encoding (fractions up to whole certified modules),
- the trust model: tampered, mis-keyed, and alphabet-skewed checkpoint
  records must reject into a *cold start with the correct verdict* --
  never an unsound one, never a crash -- while a torn last record costs
  that record only,
- the recovery contract end to end: a SIGKILLed analysis resumes from
  its checkpoint with the restored rounds credited, not recomputed,
  and reaches the verdict of an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import repro.faults as faults
from repro.benchgen.scaled import sequential_loops
from repro.core import refinement
from repro.core.api import prove_termination
from repro.core.budget import ResourceExhausted
from repro.core.checkpoint import Checkpointer
from repro.core.codec import (CodecError, atom_from_dict, atom_to_dict,
                              conj_from_dict, conj_to_dict, frac_from_dict,
                              frac_to_dict, gba_from_dict, gba_to_dict,
                              module_from_dict, module_to_dict,
                              pred_from_dict, pred_to_dict, symbol_table,
                              term_from_dict, term_to_dict, word_from_dict,
                              word_to_dict)
from repro.core.config import AnalysisConfig
from repro.faults import FaultPlan
from repro.program.parser import parse_program
from repro.runner.store import job_key, read_rows

NESTED = """
program nested(x, y):
    while x > 0:
        y := x
        while y > 0:
            y := y - 1
        x := x - 1
"""

DIVERGING = """
program up(x):
    while x > 0:
        x := x + 1
"""


def analyze(source: str, checkpoint_dir, config: AnalysisConfig | None = None,
            key: str | None = None):
    """One checkpointed analysis; returns (result, checkpointer)."""
    config = config or AnalysisConfig()
    program = parse_program(source)
    checkpoint = Checkpointer(
        str(checkpoint_dir),
        key or job_key(program.name, source, config.to_dict()),
        program=program.name)
    result = prove_termination(program, config, checkpoint=checkpoint)
    return result, checkpoint


def records(path) -> list[dict]:
    """The intact records of a checkpoint log, in order."""
    return list(read_rows(path))


# -- serialization round-trips -------------------------------------------------


def test_fraction_round_trip_and_rejects():
    assert frac_from_dict(frac_to_dict(Fraction(-7, 3))) == Fraction(-7, 3)
    for bad in (None, [1], [1, 2, 3], ["a", 2], [1, 0], {"n": 1}):
        with pytest.raises(CodecError):
            frac_from_dict(bad)


def test_term_atom_conj_pred_round_trips():
    from repro.logic.atoms import Atom, Rel
    from repro.logic.linconj import LinConj
    from repro.logic.predicates import Pred
    from repro.logic.terms import LinTerm

    term = LinTerm({"x": Fraction(2), "y": Fraction(-1, 3)}, Fraction(5))
    assert term_from_dict(term_to_dict(term)) == term
    atom = Atom(term, Rel.LE)
    assert atom_from_dict(atom_to_dict(atom)) == atom
    conj = LinConj([atom, Atom(LinTerm({"y": Fraction(1)}), Rel.EQ)])
    assert conj_from_dict(conj_to_dict(conj)) == conj
    pred = Pred((conj,), (LinConj([atom]),))
    assert pred_from_dict(pred_to_dict(pred)) == pred
    with pytest.raises(CodecError):
        atom_from_dict({"rel": "??", "term": term_to_dict(term)})


def test_module_round_trip_preserves_language_and_certificate():
    # Build real modules through an actual (uncheckpointed) analysis.
    program = parse_program(NESTED)
    res = prove_termination(program, AnalysisConfig())
    assert res.modules, "analysis produced no modules to round-trip"
    from repro.program.cfg import build_cfg
    alphabet = build_cfg(program).alphabet()
    ordered, index = symbol_table(alphabet)
    for module in res.modules:
        data = json.loads(json.dumps(module_to_dict(module, index)))
        back = module_from_dict(data, ordered)
        assert back.stage == module.stage
        assert back.ranking == module.ranking
        assert len(back.automaton.states) == len(module.automaton.states)
        from repro.core.module import validate_module
        assert validate_module(back) == []
        if module.source_word is not None:
            assert back.language_contains(back.source_word)


def test_word_round_trip():
    from repro.automata.words import UPWord
    ordered, index = symbol_table(["a", "b", "c"])
    word = UPWord(("a", "b"), ("c",))
    assert word_from_dict(word_to_dict(word, index), ordered) == word
    with pytest.raises(CodecError):
        word_from_dict({"prefix": [], "period": [9]}, ordered)


def test_gba_round_trip_rejects_out_of_range():
    ordered, index = symbol_table(["a", "b"])
    with pytest.raises(CodecError):
        gba_from_dict({"states": 2, "initial": [5], "acc": [],
                       "transitions": []}, ordered)
    with pytest.raises(CodecError):
        gba_from_dict({"states": 1, "initial": [0], "acc": [],
                       "transitions": [[0, 7, [0]]]}, ordered)


# -- ints where integral: the store format does not move ---------------------


def _fraction_backed(term):
    """``term`` as stored before ints: every value a ``Fraction``."""
    from repro.logic.terms import LinTerm
    return LinTerm._from_sorted(
        tuple((n, Fraction(c)) for n, c in term._coeffs),
        Fraction(term._constant))


def _fraction_backed_module(module):
    from repro.logic.atoms import Atom
    from repro.logic.linconj import LinConj
    from repro.logic.predicates import Pred

    def conj(c):
        return LinConj(Atom(_fraction_backed(a.term), a.rel) for a in c.atoms)

    certificate = {q: Pred(tuple(map(conj, p.inf_disjuncts)),
                           tuple(map(conj, p.fin_disjuncts)))
                   for q, p in module.certificate.items()}
    return dataclasses.replace(module, ranking=_fraction_backed(module.ranking),
                               certificate=certificate)


def _certificate_atoms(module) -> list:
    return sorted((a for p in module.certificate.values()
                   for d in p.inf_disjuncts + p.fin_disjuncts for a in d.atoms),
                  key=str)


def test_int_backed_terms_encode_as_fraction_pairs():
    from repro.logic.terms import LinTerm
    term = LinTerm({"x": 3, "y": Fraction(-1, 3)}, Fraction(6, 2))
    assert type(term._constant) is int and type(term.coeff("x")) is Fraction
    assert term_to_dict(term) == {"coeffs": {"x": [3, 1], "y": [-1, 3]},
                                  "constant": [3, 1]}
    assert (json.dumps(term_to_dict(term))
            == json.dumps(term_to_dict(_fraction_backed(term))))
    back = term_from_dict(term_to_dict(term))
    assert back == term and type(back._constant) is int


def test_records_of_fraction_built_modules_decode_to_equal_atoms(tmp_path):
    from repro.core.library import binding, decode_record, encode_record
    from repro.program.cfg import build_cfg
    program = parse_program(NESTED)
    result = prove_termination(program, AnalysisConfig())
    alphabet = build_cfg(program).alphabet()
    olds = [_fraction_backed_module(m) for m in result.modules]
    assert olds and any(_certificate_atoms(m) for m in olds)
    for new, old in zip(result.modules, olds):
        # a library entry: same JSON, so the same entry id
        record = encode_record(old, program="p")
        assert record == encode_record(new, program="p")
        back = decode_record(json.loads(json.dumps(record)), binding(alphabet))
        assert back.ranking == old.ranking
        assert _certificate_atoms(back) == _certificate_atoms(old)
    # a checkpoint record
    checkpoint = Checkpointer(str(tmp_path), "fraction-built")
    assert checkpoint.save(olds)
    restored = Checkpointer(str(tmp_path), "fraction-built").restore(alphabet)
    assert ([_certificate_atoms(m) for m in restored]
            == [_certificate_atoms(m) for m in olds])
    assert [m.ranking for m in restored] == [m.ranking for m in olds]


# -- save / restore mechanics --------------------------------------------------


def test_save_is_atomic_and_leaves_no_tmp(tmp_path):
    result, checkpoint = analyze(NESTED, tmp_path)
    assert result.verdict.value == "terminating"
    assert result.stats.counter("checkpoint.saves") >= 1
    assert os.listdir(tmp_path) == [os.path.basename(checkpoint.path)]
    assert checkpoint.path.endswith(".jsonl")
    # one whole record per module, every line terminated, all this key
    text = open(checkpoint.path, encoding="utf-8").read()
    assert text.endswith("\n")
    logged = records(checkpoint.path)
    assert len(logged) == len(text.splitlines()) == len(result.modules)
    assert {row["key"] for row in logged} == {checkpoint.key}


def test_warm_start_restores_rounds_without_recomputing(tmp_path):
    cold, cp_cold = analyze(NESTED, tmp_path)
    warm, cp_warm = analyze(NESTED, tmp_path)
    assert warm.verdict == cold.verdict
    assert cp_warm.restored_rounds == len(cold.modules)
    assert warm.stats.counter("checkpoint.rounds_restored") == \
        cp_warm.restored_rounds
    # a fully checkpointed run replays with zero fresh refinement rounds
    assert warm.stats.iterations == 0
    assert cp_warm.rejected is None


def test_missing_checkpoint_is_cold_start_not_rejection(tmp_path):
    checkpoint = Checkpointer(str(tmp_path), "nothing-here")
    assert checkpoint.restore(["a"]) == []
    assert checkpoint.rejected is None


def test_torn_last_record_restores_intact_prefix(tmp_path):
    cold, checkpoint = analyze(NESTED, tmp_path)
    lines = open(checkpoint.path, encoding="utf-8").read().splitlines(True)
    assert len(lines) >= 2
    # a crash mid-append: the last record is torn, the prefix intact
    with open(checkpoint.path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict == cold.verdict
    assert cp.rejected is None
    assert cp.restored_rounds == len(lines) - 1
    assert warm.stats.iterations > 0  # the lost round is recomputed


def test_only_a_torn_record_is_a_correct_cold_start(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    first = open(checkpoint.path, encoding="utf-8").readline()
    with open(checkpoint.path, "w", encoding="utf-8") as fh:
        fh.write(first[:len(first) // 2])
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict.value == "terminating"
    assert cp.restored_rounds == 0
    assert warm.stats.iterations > 0  # really recomputed


def test_append_after_a_torn_tail_starts_a_clean_record(tmp_path):
    """A run resumed after a kill mid-append ends the torn line before
    its own records, so none of them glues onto the fragment."""
    program = parse_program(NESTED)
    key = job_key(program.name, NESTED, AnalysisConfig().to_dict())
    path = Checkpointer(str(tmp_path), key).path
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"v": 1, "key": "' + key + '", "alph')
    cold, checkpoint = analyze(NESTED, tmp_path)
    assert checkpoint.restored_rounds == 0 and checkpoint.rejected is None
    assert len(records(path)) == len(cold.modules)
    warm, cp = analyze(NESTED, tmp_path)
    assert cp.rejected is None
    assert cp.restored_rounds == len(cold.modules)
    assert warm.verdict == cold.verdict
    assert warm.stats.iterations == 0


def test_tampered_certificate_rejects_whole_checkpoint(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    logged = records(checkpoint.path)
    # Drop one state's predicate from the first module's certificate:
    # the Definition 3.1 re-check must fail and reject everything.
    certificate = logged[0]["module"]["certificate"]
    assert certificate, "module with an empty certificate"
    certificate.pop(next(iter(certificate)))
    with open(checkpoint.path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(row) + "\n" for row in logged))
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict.value == "terminating"
    assert cp.restored_rounds == 0
    assert cp.rejected and "re-validation" in cp.rejected


def test_rejected_checkpoint_is_counted_once_as_an_incident(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    logged = records(checkpoint.path)
    logged[0]["key"] = "some-other-key"
    with open(checkpoint.path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(row) + "\n" for row in logged))
    warm, cp = analyze(NESTED, tmp_path)
    assert cp.rejected and "does not match" in cp.rejected
    assert [i.kind for i in warm.stats.incidents] == ["checkpoint.rejected"]
    # the incident counter is the rejection's one count (skipped
    # powerset builds are the only other rejections a run counts)
    counters = warm.stats.metrics["counters"]
    assert counters["incidents.checkpoint.rejected"] == 1
    assert [n for n in counters
            if "reject" in n and n != "stages.rejected_on_word"] == \
        ["incidents.checkpoint.rejected"]
    assert warm.stats.counter("checkpoint.rounds_restored") == 0


def test_key_mismatch_rejects(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    other = Checkpointer(str(tmp_path), checkpoint.key)
    other.path = checkpoint.path  # same file ...
    other.key = "some-other-key"  # ... different identity
    program = parse_program(NESTED)
    from repro.program.cfg import build_cfg
    assert other.restore(build_cfg(program).alphabet()) == []
    assert other.rejected and "does not match" in other.rejected


def test_alphabet_mismatch_rejects(tmp_path):
    _, checkpoint = analyze(NESTED, tmp_path)
    fresh = Checkpointer(str(tmp_path), checkpoint.key)
    assert fresh.restore(["not", "the", "program"]) == []
    assert fresh.rejected and "alphabet" in fresh.rejected


def test_partial_restore_keeps_seeded_prefix_and_logs_the_rest(
        tmp_path, monkeypatch):
    """Re-subtracting a restored module blows a cap: the modules seeded
    so far stay, a ``budget.degraded`` incident is recorded from
    ``checkpoint``, and the run finishes from there.  The modules it
    adds join the log and come back on the next restore."""
    source = sequential_loops(3).source
    cold = prove_termination(parse_program(source), AnalysisConfig())
    _, first = analyze(source, tmp_path, AnalysisConfig(max_refinements=3),
                       key="partial")
    logged = len(records(first.path))
    assert logged == 3
    # The second restored module's re-subtraction blows the state cap.
    subtractions = itertools.count()
    real = refinement.difference

    def blow_second(*args, **kwargs):
        if next(subtractions) == 1:
            raise ResourceExhausted("difference-states", "restore")
        return real(*args, **kwargs)

    monkeypatch.setattr(refinement, "difference", blow_second)
    warm, cp = analyze(source, tmp_path, key="partial")
    monkeypatch.undo()
    assert cp.rejected is None
    assert cp.restored_rounds == 1
    assert warm.stats.counter("checkpoint.rounds_restored") == \
        cp.restored_rounds
    assert warm.verdict == cold.verdict
    assert any(i.kind == "budget.degraded" and i.component == "checkpoint"
               for i in warm.stats.incidents)
    assert warm.stats.counter("incidents.budget.degraded") == sum(
        i.kind == "budget.degraded" for i in warm.stats.incidents)
    added = len(warm.modules) - cp.restored_rounds
    assert added >= 1
    assert len(records(cp.path)) == logged + added
    again, cp2 = analyze(source, tmp_path, key="partial")
    assert cp2.rejected is None
    assert cp2.restored_rounds == logged + added
    assert again.verdict == cold.verdict
    assert again.stats.iterations == 0


def test_nonterminating_checkpoint_never_flips_verdict(tmp_path):
    cold, _ = analyze(DIVERGING, tmp_path)
    warm, _ = analyze(DIVERGING, tmp_path)
    assert cold.verdict.value == "nonterminating"
    assert warm.verdict == cold.verdict


# -- the checkpoint.write fault site -------------------------------------------


def test_checkpoint_write_fault_degrades_to_no_checkpoint(tmp_path):
    plan = FaultPlan(seed=0, crash_rate=1.0, sites=("checkpoint.write",))
    with faults.use_plan(plan):
        result, checkpoint = analyze(NESTED, tmp_path)
    # the analysis itself is untouched by save failures ...
    assert result.verdict.value == "terminating"
    assert result.stats.counter("checkpoint.saves") == 0
    assert result.stats.counter("checkpoint.save_failures") == \
        len(result.modules)
    # ... and the torn records the fault left must not poison the
    # next run
    warm, cp = analyze(NESTED, tmp_path)
    assert warm.verdict.value == "terminating"
    assert cp.restored_rounds == 0  # nothing trustworthy to restore


def test_checkpoint_write_fault_artifacts_match_real_crashes(tmp_path):
    plan = FaultPlan(seed=1, crash_rate=1.0, sites=("checkpoint.write",))
    with faults.use_plan(plan):
        _, checkpoint = analyze(NESTED, tmp_path)
    leftovers = sorted(os.listdir(tmp_path))
    assert leftovers == [os.path.basename(checkpoint.path)], \
        "the fault should leave torn records in the log, nothing else"
    text = open(checkpoint.path, encoding="utf-8").read()
    # the shape of a crash mid-append: a torn last record, no whole one
    assert text and not text.endswith("\n")
    assert records(checkpoint.path) == []


def test_validation_runs_with_faults_suspended(tmp_path):
    """A flip-everything plan cannot corrupt the restore re-check."""
    _, checkpoint = analyze(NESTED, tmp_path)
    plan = FaultPlan(seed=0, wrong_answer_rate=1.0)
    with faults.use_plan(plan):
        warm, cp = analyze(NESTED, tmp_path)
    # honest validation: the genuine checkpoint restores despite the
    # adversarial plan, because the re-check suspends injection
    assert cp.restored_rounds >= 1
    assert warm.verdict.value in ("terminating", "unknown")


# -- crash-resume, end to end --------------------------------------------------


def _run_checkpointed_cli(source_file, checkpoint_dir, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "--checkpoint-dir",
         str(checkpoint_dir), str(source_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@pytest.mark.parametrize("k", [5])
def test_sigkill_mid_analysis_then_resume_matches_uninterrupted(tmp_path, k):
    """The acceptance scenario: kill -9 mid-analysis, resume, same verdict,
    restored rounds credited instead of recomputed."""
    bench = sequential_loops(k)  # ~31 rounds, a few seconds: plenty of
    # mid-flight wall-clock to land a SIGKILL in
    source_file = tmp_path / "prog.t"
    source_file.write_text(bench.source, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"), os.path.abspath("src")) if p])
    env["REPRO_CODE_VERSION"] = "crash-resume-test"

    # the uninterrupted reference run (no checkpointing)
    reference = prove_termination(parse_program(bench.source),
                                  AnalysisConfig())
    cold_rounds = len(reference.modules)
    assert cold_rounds >= 2, "need a multi-round program to interrupt"

    checkpoint_dir = tmp_path / "ckpt"
    interrupted = False
    for attempt in range(4):
        proc = _run_checkpointed_cli(source_file, checkpoint_dir, env)
        deadline = time.time() + 120
        path = None
        while time.time() < deadline:
            found = (sorted(checkpoint_dir.glob("checkpoint_*.jsonl"))
                     if checkpoint_dir.exists() else [])
            if found:
                path = found[0]
                break
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        if path is not None and proc.poll() is None:
            time.sleep(0.4)  # let a few more rounds checkpoint
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            interrupted = True
            break
        proc.wait()
        if path is not None:
            # the run finished before we could kill it: its full
            # checkpoint still proves restore works, but prefer a real
            # mid-flight kill -- retry with the next attempt
            interrupted = True
            break
    assert interrupted, "analysis never produced a checkpoint to interrupt"

    logged = records(path)
    rounds = len(logged)
    assert 1 <= rounds <= cold_rounds

    # resume against the same key: restored rounds are credited, the
    # remaining rounds are computed fresh, and the verdict matches the
    # uninterrupted reference
    checkpoint = Checkpointer(str(checkpoint_dir), logged[0]["key"],
                              program=bench.name)
    resumed = prove_termination(parse_program(bench.source),
                                AnalysisConfig(), checkpoint=checkpoint)
    assert checkpoint.rejected is None
    assert checkpoint.restored_rounds == rounds
    assert resumed.verdict == reference.verdict
    assert resumed.stats.counter("checkpoint.rounds_restored") == rounds
    # zero recomputation of the restored prefix: fresh rounds make up
    # exactly the difference
    assert resumed.stats.iterations == cold_rounds - rounds
