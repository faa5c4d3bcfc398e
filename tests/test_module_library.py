"""Cross-program certified-module library (:mod:`repro.core.library`).

Contract under test: the library is a pure optimization with the
checkpoint trust model -- reused modules are re-validated against
Definition 3.1 before subtraction, rejected entries cost work but
never soundness, and verdicts with a library attached are identical
to verdicts without one.
"""

import json
import os

from repro.benchgen.scaled import sequential_loops
from repro.core.api import prove_termination, prove_termination_source
from repro.core.config import AnalysisConfig
from repro.core.library import RECORD_VERSION, ModuleLibrary, entry_id
from repro.obs.metrics import MetricsRegistry, use_registry

TIMEOUT = 30.0

COUNTDOWN = """
program countdown(x):
    while x > 0:
        x := x - 1
"""

#: Same shape as COUNTDOWN but a disjoint alphabet (different variable
#: -> different statement strings), so no COUNTDOWN entry prefilters in.
COUNTDOWN_Y = """
program countdown_y(y):
    while y > 0:
        y := y - 1
"""


def config(**kwargs) -> AnalysisConfig:
    return AnalysisConfig(timeout=TIMEOUT, **kwargs)


def syntheses(result) -> int:
    return result.stats.counter("ranking.syntheses")


def run(source_or_program, library):
    if isinstance(source_or_program, str):
        return prove_termination_source(source_or_program, config(),
                                        library=library)
    return prove_termination(source_or_program, config(), library=library)


# -- publish / reuse ------------------------------------------------------------

def test_same_program_rerun_needs_zero_synthesis(tmp_path):
    path = tmp_path / "lib.jsonl"
    cold = run(COUNTDOWN, ModuleLibrary(path))
    assert cold.verdict.value == "terminating"
    assert cold.stats.counter("library.hits") == 0
    assert cold.stats.counter("library.misses") == cold.stats.iterations
    assert path.exists()

    warm = run(COUNTDOWN, ModuleLibrary(path))
    assert warm.verdict.value == "terminating"
    assert warm.stats.counter("library.hits") == warm.stats.iterations > 0
    assert warm.stats.counter("library.misses") == 0
    assert syntheses(warm) == 0


def test_cross_program_reuse_in_scaled_family(tmp_path):
    path = tmp_path / "lib.jsonl"
    small = run(sequential_loops(2).parse(), ModuleLibrary(path))
    assert small.verdict.value == "terminating"

    baseline = prove_termination(sequential_loops(3).parse(), config())
    warm = run(sequential_loops(3).parse(), ModuleLibrary(path))
    # Same verdict, measurably less synthesis: the k=2 sibling's loop
    # modules answer the shared counterexamples of k=3.
    assert warm.verdict.value == baseline.verdict.value == "terminating"
    assert warm.stats.counter("library.hits") >= 2
    assert syntheses(warm) < syntheses(baseline)


def test_published_entries_use_minimal_symbol_tables(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(sequential_loops(3).parse(), ModuleLibrary(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows
    for row in rows:
        assert row["v"] == RECORD_VERSION
        assert row["id"] == entry_id(row)
        assert row["alphabet"] == sorted(row["alphabet"])
    # An early loop's module must span strictly fewer symbols than a
    # later one -- the symbol table is per module (its *used* symbols),
    # not the fixed program alphabet; that is what makes entries from
    # small programs reusable by larger siblings.
    sizes = {len(row["alphabet"]) for row in rows}
    assert len(sizes) >= 2


def test_alphabet_prefilter_keeps_disjoint_programs_apart(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(COUNTDOWN, ModuleLibrary(path))
    library = ModuleLibrary(path)
    result = run(COUNTDOWN_Y, library)
    # Disjoint statement strings: every query misses, nothing is even
    # decoded, and the run is simply a cold one.
    assert result.verdict.value == "terminating"
    assert result.stats.counter("library.hits") == 0
    assert library.rejected == 0


def test_dedup_republish_adds_no_rows(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(COUNTDOWN, ModuleLibrary(path))
    lines = path.read_text().splitlines()
    run(COUNTDOWN, ModuleLibrary(path))  # all hits: nothing new published
    assert path.read_text().splitlines() == lines
    # Force a republish attempt with a fresh handle and a fresh run of
    # the same program without the library warm path.
    library = ModuleLibrary(path)
    cold = prove_termination_source(COUNTDOWN, config())
    registry = MetricsRegistry()
    with use_registry(registry):
        for module in cold.modules:
            library.publish(module, program="countdown")
    # every record already in the file
    assert registry.counts().get("library.published", 0) == 0
    assert path.read_text().splitlines() == lines


# -- trust model ----------------------------------------------------------------

def test_tampered_certificate_is_rejected_not_believed(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(COUNTDOWN, ModuleLibrary(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        certificate = row["module"]["certificate"]
        certificate.pop(sorted(certificate)[0])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))

    library = ModuleLibrary(path)
    result = run(COUNTDOWN, library)
    # Every candidate accepts its counterexample but fails Definition
    # 3.1: rejected with a structured reason, run falls back to
    # synthesis, verdict unchanged.
    assert result.verdict.value == "terminating"
    assert result.stats.counter("library.hits") == 0
    assert library.rejected >= 1
    assert library.rejections[0]["reason"].startswith("failed re-validation")
    assert result.stats.counter("library.rejected") == library.rejected


def test_torn_tail_and_garbage_lines_are_tolerated(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(COUNTDOWN, ModuleLibrary(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write('{"v": 1, "code_version": ')  # torn mid-record, no newline
    warm = run(COUNTDOWN, ModuleLibrary(path))
    assert warm.verdict.value == "terminating"
    assert warm.stats.counter("library.hits") == warm.stats.iterations > 0


def test_publish_after_a_torn_tail_is_not_swallowed(tmp_path):
    """A writer that died mid-record leaves a torn last line; the next
    publish ends it first, so its own record stays readable."""
    path = tmp_path / "lib.jsonl"
    path.write_text('{"v": 1, "code_version": "t", "alph')
    writer = ModuleLibrary(path, code_version="t")
    cold = prove_termination_source(COUNTDOWN, config(), library=writer)
    published = cold.stats.counter("library.published")
    assert published >= 1
    reader = ModuleLibrary(path, code_version="t")
    reader.refresh()
    assert len(reader) == published
    warm = prove_termination_source(COUNTDOWN, config(), library=reader)
    assert warm.verdict == cold.verdict
    assert warm.stats.counter("library.hits") == warm.stats.iterations > 0


def test_entries_are_keyed_by_code_version(tmp_path):
    path = tmp_path / "lib.jsonl"
    writer = ModuleLibrary(path, code_version="vA")
    cold = prove_termination_source(COUNTDOWN, config(), library=writer)
    assert cold.stats.counter("library.published") == \
        cold.stats.iterations > 0

    other = ModuleLibrary(path, code_version="vB")
    result = prove_termination_source(COUNTDOWN, config(), library=other)
    # entries are invisible across versions
    assert result.stats.counter("library.hits") == 0

    same = ModuleLibrary(path, code_version="vA")
    result = prove_termination_source(COUNTDOWN, config(), library=same)
    assert result.stats.counter("library.hits") == result.stats.iterations > 0


def test_publish_fault_writes_rejected_tampered_entry(tmp_path):
    path = tmp_path / "lib.jsonl"
    plan = json.dumps({"seed": 3, "crash_rate": 1.0,
                       "sites": ["library.publish"]})
    poisoned = ModuleLibrary(path)
    first = prove_termination_source(COUNTDOWN, config(fault_plan=plan),
                                     library=poisoned)
    assert first.verdict.value == "terminating"
    assert first.stats.counter("library.published") == 0
    assert first.stats.counter("library.publish_failures") > 0
    assert path.exists()  # the tampered records landed

    library = ModuleLibrary(path)
    second = prove_termination_source(COUNTDOWN, config(fault_plan=plan),
                                      library=library)
    # Tampered entries accept the counterexamples but fail the
    # Definition 3.1 re-check: rejection, never a verdict flip.
    assert second.verdict.value == "terminating"
    assert second.stats.counter("library.hits") == 0
    assert library.rejected >= 1


# -- the shared-file mechanics --------------------------------------------------

def test_second_handle_sees_published_entries_via_stat_refresh(tmp_path):
    path = tmp_path / "lib.jsonl"
    reader = ModuleLibrary(path)
    reader.refresh()
    assert len(reader) == 0
    run(COUNTDOWN, ModuleLibrary(path))  # another "worker" publishes
    reader.refresh()
    assert len(reader) > 0
    warm = run(COUNTDOWN, reader)
    assert warm.stats.counter("library.hits") == warm.stats.iterations > 0


def test_refresh_is_cached_until_the_file_changes(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(COUNTDOWN, ModuleLibrary(path))
    library = ModuleLibrary(path)
    library.refresh()
    parsed = library._entries
    library.refresh()
    assert library._entries is parsed  # same (size, mtime): no re-parse
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    os.utime(path, ns=(1, 1))  # force an mtime change either way
    library.refresh()
    assert library._entries is not parsed


def test_missing_file_is_an_empty_library(tmp_path):
    library = ModuleLibrary(tmp_path / "never_written.jsonl")
    result = run(COUNTDOWN, library)
    assert result.verdict.value == "terminating"
    assert result.stats.counter("library.hits") == 0
    assert result.stats.counter("library.misses") == result.stats.iterations


# -- plumbing -------------------------------------------------------------------

def test_stats_round_trip_carries_library_counters(tmp_path):
    path = tmp_path / "lib.jsonl"
    run(COUNTDOWN, ModuleLibrary(path))
    warm = run(COUNTDOWN, ModuleLibrary(path))
    from repro.core.stats import AnalysisStats
    data = warm.stats.to_dict()
    hits = warm.stats.counter("library.hits")
    assert data["metrics"]["counters"]["library.hits"] == hits > 0
    rebuilt = AnalysisStats.from_dict(data)
    assert rebuilt.counter("library.hits") == hits
    assert rebuilt.counter("library.misses") == \
        warm.stats.counter("library.misses")


def test_corpus_run_threads_library_and_counts_hits(tmp_path):
    from repro.runner.corpus import run_corpus
    from repro.runner.pool import WorkerPool, analysis_task

    manifest = {
        "name": "library-smoke",
        "task_timeout": TIMEOUT,
        "programs": [
            {"name": "countdown", "expected": "terminating",
             "source": COUNTDOWN},
        ],
        "configs": [{"name": "default"}],
    }
    library_path = tmp_path / "lib.jsonl"

    pool = WorkerPool(workers=1, task=analysis_task, inprocess=True)
    run_corpus(manifest, tmp_path / "pass1.jsonl", pool=pool,
               module_library=library_path)
    assert library_path.exists()

    pool = WorkerPool(workers=1, task=analysis_task, inprocess=True)
    summary = run_corpus(manifest, tmp_path / "pass2.jsonl", pool=pool,
                         module_library=library_path)

    row = summary.rows[0]
    assert row["status"] == "terminating"
    assert "library" not in row  # the row's metrics are the one count
    assert row["stats"]["metrics"]["counters"]["library.hits"] > 0
