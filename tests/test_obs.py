"""Tests for the observability layer: tracer, metrics, report, CLI wiring."""

import json
import time

from repro.core.api import (prove_termination, prove_termination_portfolio,
                            prove_termination_source)
from repro.core.config import AnalysisConfig
from repro.core.stats import AnalysisStats
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import aggregate, load_records, render
from repro.obs.trace import (NULL_TRACER, Tracer, get_tracer, set_tracer,
                             use_tracer)
from repro.program.parser import parse_program

TERMINATING = """
program t(x, y):
    while x > 0:
        y := x
        while y > 0:
            y := y - 1
        x := x - 1
"""

DIVERGING = """
program u(x):
    while x > 0:
        x := x + 1
"""


# -- tracer -------------------------------------------------------------------


def test_span_nesting_and_ordering_in_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(str(path)) as tracer:
        with tracer.span("outer", label="o"):
            with tracer.span("inner-1"):
                time.sleep(0.001)
            with tracer.span("inner-2") as inner:
                inner.set(extra=42)
    records = load_records(str(path))
    spans = {r["name"]: r for r in records if r["type"] == "span"}
    assert set(spans) == {"outer", "inner-1", "inner-2"}
    outer = spans["outer"]
    assert outer["parent"] is None
    assert outer["attrs"] == {"label": "o"}
    for name in ("inner-1", "inner-2"):
        child = spans[name]
        assert child["parent"] == outer["id"]
        # temporal containment within the parent
        assert child["t0"] >= outer["t0"]
        assert child["t0"] + child["dur"] <= outer["t0"] + outer["dur"] + 1e-9
    assert spans["inner-2"]["attrs"] == {"extra": 42}
    # children close (and are written) before their parent
    order = [r["name"] for r in records if r["type"] == "span"]
    assert order.index("inner-1") < order.index("outer")
    assert order.index("inner-2") < order.index("outer")
    # ids are unique
    ids = [r["id"] for r in records if r["type"] == "span"]
    assert len(ids) == len(set(ids))


def test_span_records_error_attribute(tmp_path):
    tracer = Tracer()
    try:
        with tracer.span("fails"):
            raise ValueError("boom")
    except ValueError:
        pass
    (record,) = tracer.records
    assert record["attrs"]["error"] == "ValueError"


def test_null_tracer_is_allocation_free_and_default(tmp_path):
    assert get_tracer() is NULL_TRACER
    assert NULL_TRACER.enabled is False
    # one shared span instance: no per-call allocation
    s1 = NULL_TRACER.span("a", attr=1)
    s2 = NULL_TRACER.span("b")
    assert s1 is s2
    with s1 as entered:
        assert entered is s1
        entered.set(anything="goes")
    NULL_TRACER.close()
    # no files appear anywhere
    assert list(tmp_path.iterdir()) == []


def test_use_tracer_scopes_and_restores():
    tracer = Tracer()
    with use_tracer(tracer) as installed:
        assert installed is tracer
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER
    previous = set_tracer(tracer)
    assert previous is NULL_TRACER
    assert set_tracer(previous) is tracer


def test_traced_run_has_no_file_when_tracing_off(tmp_path):
    # the no-op overhead path: a full analysis under the default tracer
    # produces no events and touches no files
    result = prove_termination_source(TERMINATING)
    assert result.verdict.value == "terminating"
    assert get_tracer() is NULL_TRACER
    assert list(tmp_path.iterdir()) == []


# -- metrics ------------------------------------------------------------------


def test_metrics_registry_instruments():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").max_of(3)
    reg.gauge("g").max_of(2)
    reg.histogram("h").observe(1.0)
    reg.histogram("h").observe(3.0)
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 3
    assert snap["histograms"]["h"] == {"count": 2, "total": 4.0, "mean": 2.0,
                                       "min": 1.0, "max": 3.0}


def test_use_registry_scopes_increments():
    reg = MetricsRegistry()
    with obs_metrics.use_registry(reg):
        obs_metrics.inc("scoped.counter", 2)
        assert obs_metrics.registry() is reg
    assert reg.counter("scoped.counter").value == 2
    assert obs_metrics.registry() is not reg


def round_totals(rounds) -> dict:
    totals: dict = {}
    for round_stats in rounds:
        for name, value in round_stats.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def test_run_metrics_agree_with_round_counters():
    result = prove_termination_source(TERMINATING)
    assert result.verdict.value == "terminating"
    counters = result.stats.metrics["counters"]
    rounds = result.stats.rounds
    # every recorded round has a positive wall-clock and counted work
    assert rounds and all(r.seconds > 0 and r.counters for r in rounds)
    assert counters["refinement.rounds"] == result.stats.iterations
    # with nothing restored, the rounds' deltas add up to the run's
    # totals of the difference and ranking work
    totals = round_totals(rounds)
    for name, value in counters.items():
        if name.startswith(("difference.", "ranking.")):
            assert totals.get(name, 0) == value, name
    # the logic substrate was exercised and counted
    assert counters["logic.entailment_calls"] > 0
    assert counters["logic.fm.eliminations"] > 0


def test_restored_work_counts_in_the_run_and_in_no_round(tmp_path):
    from repro.core.checkpoint import Checkpointer
    program = parse_program(TERMINATING)
    partial = AnalysisConfig(max_refinements=2)
    prove_termination(program, partial,
                      checkpoint=Checkpointer(str(tmp_path), "k"))
    result = prove_termination(program,
                               checkpoint=Checkpointer(str(tmp_path), "k"))
    assert result.verdict.value == "terminating"
    counters = result.stats.metrics["counters"]
    totals = round_totals(result.stats.rounds)
    restored = counters["checkpoint.rounds_restored"]
    assert restored == 2 and "checkpoint.rounds_restored" not in totals
    # each restored module is re-subtracted outside any round
    assert counters["difference.calls"] == \
        totals.get("difference.calls", 0) + restored


def test_nonterminating_round_has_positive_seconds():
    result = prove_termination_source(DIVERGING)
    assert result.verdict.value == "nonterminating"
    assert result.stats.rounds
    assert all(r.seconds > 0 for r in result.stats.rounds)


def test_runs_get_isolated_registries():
    first = prove_termination_source(TERMINATING)
    second = prove_termination_source(TERMINATING)
    assert first.stats.metrics["counters"]["refinement.rounds"] == \
        second.stats.metrics["counters"]["refinement.rounds"]


def test_consecutive_runs_do_the_same_solver_work():
    # the solver memo lives for one run: the first run of a program
    # does not warm the second
    first = prove_termination_source(TERMINATING).stats.metrics["counters"]
    second = prove_termination_source(TERMINATING).stats.metrics["counters"]
    assert first["logic.fm.memo_hits"] > 0
    for name in ("logic.fm.eliminations", "logic.fm.memo_hits",
                 "logic.fm.sat_checks", "logic.entailment_calls"):
        assert first[name] == second[name], name


# -- stats round-trip ---------------------------------------------------------


def test_analysis_stats_to_dict_round_trip():
    result = prove_termination_source(TERMINATING)
    payload = json.loads(json.dumps(result.stats.to_dict()))
    restored = AnalysisStats.from_dict(payload)
    assert restored.program == result.stats.program
    assert restored.config == result.stats.config
    assert restored.total_seconds == result.stats.total_seconds
    assert restored.peak_difference_states == result.stats.peak_difference_states
    assert restored.gave_up_reason == result.stats.gave_up_reason
    assert restored.modules_by_stage == result.stats.modules_by_stage
    assert restored.iterations == result.stats.iterations
    assert restored.rounds == result.stats.rounds
    assert restored.metrics == result.stats.metrics
    # a second trip is a fixpoint
    assert restored.to_dict() == result.stats.to_dict()


def test_from_dict_ignores_extra_keys():
    stats = AnalysisStats.from_dict({"program": "p", "verdict": "terminating",
                                     "unknown_future_key": 1})
    assert stats.program == "p"
    assert stats.rounds == []
    # ... in rounds too
    stats = AnalysisStats.from_dict(
        {"rounds": [{"word": "w", "proof_kind": "ranked", "future": 1}]})
    assert stats.rounds[0].word == "w" and stats.rounds[0].counters == {}


# -- portfolio attempts -------------------------------------------------------


def test_portfolio_records_all_attempts():
    program = parse_program(TERMINATING)
    # one round is too few for the first config; the second decides
    configs = (AnalysisConfig(max_refinements=1), AnalysisConfig())
    result = prove_termination_portfolio(program, configs=configs)
    assert result.verdict.value == "terminating"
    assert len(result.attempts) == 2
    assert result.attempts[-1] is result.stats
    assert all(a.rounds for a in result.attempts)


# -- report -------------------------------------------------------------------


def _traced_analysis(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(str(path)) as tracer:
        with use_tracer(tracer):
            result = prove_termination_source(TERMINATING)
        tracer.record_metrics(result.stats.metrics)
    return result, path


def test_traced_analysis_report_accounts_wall_clock(tmp_path):
    result, path = _traced_analysis(tmp_path)
    assert result.verdict.value == "terminating"
    report = aggregate(load_records(str(path)))
    # the acceptance bar: the per-phase breakdown accounts for >= 90%
    # of the traced wall-clock
    assert report.accounted >= 0.9
    assert report.phases["analysis"].calls == 1
    assert report.phases["round"].calls == result.stats.iterations
    assert report.phases["difference"].calls == result.stats.iterations
    # self-times partition cumulative root time
    total_self = sum(p.self_seconds for p in report.phases.values())
    assert abs(total_self - report.phases["analysis"].cumulative) < 1e-6
    rendered = render(report)
    assert "accounted:" in rendered
    assert "analysis" in rendered and "difference" in rendered
    assert "metrics (counters):" in rendered


def test_report_cli_main(tmp_path, capsys):
    from repro.obs.report import main as report_main
    _, path = _traced_analysis(tmp_path)
    assert report_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "accounted:" in out
    assert report_main([str(path), "--json", "--top", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accounted"] >= 0.9
    assert "analysis" in payload["phases"]
    assert len(payload["hottest"]) <= 3
    assert payload["metrics"]["counters"]["refinement.rounds"] >= 1


def test_report_cli_empty_trace(tmp_path, capsys):
    from repro.obs.report import main as report_main
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert report_main([str(empty)]) == 1
    assert "no span records" in capsys.readouterr().err


# -- CLI wiring ---------------------------------------------------------------


def test_cli_trace_stats_json_and_profile(tmp_path, capsys):
    from repro.__main__ import main
    program = tmp_path / "prog.t"
    program.write_text(TERMINATING)
    trace = tmp_path / "trace.jsonl"
    stats = tmp_path / "stats.json"
    code = main(["--trace", str(trace), "--stats-json", str(stats),
                 "--profile", str(program)])
    out = capsys.readouterr().out
    assert code == 0
    assert "TERMINATING" in out
    assert "per-phase time breakdown" in out
    assert "accounted:" in out

    report = aggregate(load_records(str(trace)))
    assert report.accounted >= 0.9
    assert report.metrics["counters"]["refinement.rounds"] >= 1

    payload = json.loads(stats.read_text())
    assert payload["verdict"] == "terminating"
    assert payload["iterations"] >= 1
    assert payload["metrics"]["counters"]["difference.calls"] >= 1
    restored = AnalysisStats.from_dict(payload)
    assert restored.iterations == payload["iterations"]
    # the CLI restores the no-op tracer afterwards
    assert get_tracer() is NULL_TRACER


def test_cli_stats_json_without_trace(tmp_path, capsys):
    from repro.__main__ import main
    program = tmp_path / "prog.t"
    program.write_text(TERMINATING)
    stats = tmp_path / "stats.json"
    assert main(["--quiet", "--stats-json", str(stats), str(program)]) == 0
    capsys.readouterr()
    payload = json.loads(stats.read_text())
    assert payload["verdict"] == "terminating"
    assert payload["rounds"]
    assert all(r["seconds"] > 0 for r in payload["rounds"])


# -- durability: flush-per-record, truncated spans ----------------------------


def test_trace_file_is_readable_before_close(tmp_path):
    # flush-per-record: a SIGKILL at any point loses at most the record
    # being written, so the file must be complete up to the last close
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(str(path))
    with tracer.span("done"):
        pass
    records = load_records(str(path))   # tracer still open
    assert [r["name"] for r in records] == ["done"]
    tracer.close()


def test_close_emits_open_spans_as_truncated(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(str(path))
    outer = tracer.span("analysis", program="p")
    outer.__enter__()
    inner = tracer.span("difference")
    inner.__enter__()
    time.sleep(0.002)
    tracer.close()                      # both spans still open
    records = load_records(str(path))
    spans = {r["name"]: r for r in records}
    assert spans["difference"]["truncated"] is True
    assert spans["analysis"]["truncated"] is True
    # innermost first: children still precede parents in the file
    names = [r["name"] for r in records]
    assert names.index("difference") < names.index("analysis")
    # observed-so-far durations, parent linkage and attrs survive
    assert spans["difference"]["parent"] == spans["analysis"]["id"]
    assert spans["analysis"]["attrs"] == {"program": "p"}
    assert spans["difference"]["dur"] > 0

    report = aggregate(records)
    assert report.truncated == 2
    rendered = render(report)
    assert "truncated: 2 span(s)" in rendered
    assert "(truncated)" in rendered


def test_load_records_skips_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(str(path)) as tracer:
        with tracer.span("whole"):
            pass
    with open(path, "ab") as fh:
        fh.write(b"not json at all\n")
        fh.write(b'["a", "list"]\n')                 # non-dict JSON
        fh.write(b'{"type": "span", "name": "caf\xc3')  # torn mid-UTF-8
    records = load_records(str(path))
    assert [r.get("name") for r in records] == ["whole"]


def test_aggregate_tolerates_partial_span_records():
    # a truncated trace can carry spans missing dur/t0/id; the report
    # must default them instead of crashing
    records = [
        {"type": "span", "id": 0, "parent": None, "name": "a",
         "t0": 0.0, "dur": 0.5, "attrs": {}},
        {"type": "span", "name": "b", "attrs": {}, "truncated": True},
        {"type": "span", "id": 2, "name": None},     # nameless: dropped
    ]
    report = aggregate(records)
    assert set(report.phases) == {"a", "b"}
    assert report.truncated == 1
    assert report.phases["b"].cumulative == 0.0
    assert report.hottest(1)[0]["name"] == "a"
    render(report)                                   # renders cleanly
