"""Tests for the ``python -m repro`` command-line interface."""

import io
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SORT = Path(__file__).resolve().parent.parent / "examples" / "sort.t"

TERMINATING = """
program t(x):
    while x > 0:
        x := x - 1
"""

DIVERGING = """
program u(x):
    while x > 0:
        x := x + 1
"""


def run_cli(argv, stdin: str | None = None, capsys=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            return main(argv)
        finally:
            sys.stdin = old
    return main(argv)


def test_cli_terminating_file(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    code = main([str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "TERMINATING" in out
    assert "certified modules" in out
    assert "f(v)" in out


def test_cli_nonterminating_stdin(capsys):
    code = run_cli(["-"], stdin=DIVERGING)
    out = capsys.readouterr().out
    assert code == 0
    assert "NONTERMINATING" in out
    assert "witness" in out


def test_cli_quiet(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    assert main(["--quiet", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "TERMINATING"


def test_cli_unknown_exit_code(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text("""
program m(x, y):
    while x > 0:
        x := x + y
        y := y - 1
""")
    assert main(["--quiet", str(path)]) == 2
    assert "UNKNOWN" in capsys.readouterr().out


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text("program broken(x)\n  oops")
    assert main([str(path)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_cli_missing_file_is_an_error(tmp_path, capsys):
    """One ``run: ...`` line on stderr and exit 3, not a traceback."""
    missing = tmp_path / "missing.t"
    assert main(["run", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("run: ") and "missing.t" in captured.err


@pytest.mark.parametrize("flag, value, named", [
    ("--max-refinements", "-1", "max_refinements"),
    ("--timeout", "-2", "timeout"),
])
def test_cli_negative_budget_is_an_error(tmp_path, capsys, flag, value, named):
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    for extra in ([], ["--portfolio"]):
        assert main(["run", flag, value, *extra, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("run: ") and named in captured.err


@pytest.mark.parametrize("target", ["no_such_dir/s.json", "."])
def test_cli_bad_stats_json_path_fails_before_the_run(tmp_path, capsys,
                                                      monkeypatch, target):
    """One ``run: ...`` line and exit 3, and no analysis is started."""
    import repro.__main__ as cli_main

    def never(*args, **kwargs):
        raise AssertionError("the analysis ran before the path check")

    monkeypatch.setattr(cli_main, "prove_termination", never)
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    assert main(["run", "--stats-json", str(tmp_path / target),
                 str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("run: --stats-json "), captured.err


def test_cli_configuration_flags(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    code = main(["--single-stage", "--no-lazy", "--no-subsumption",
                 "--timeout", "20", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "single+ncsb-original" in out


def test_cli_sequence_flag(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    assert main(["--sequence", "iii", str(path)]) == 0
    assert "multi(iii)" in capsys.readouterr().out


def test_cli_run_subcommand_is_default_mode(tmp_path, capsys):
    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    assert main(["run", "--quiet", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "TERMINATING"


def test_cli_json_output(tmp_path, capsys):
    import json

    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    assert main(["run", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "terminating"
    assert len(payload["rounds"]) >= 1
    assert payload["seconds"] > 0
    assert [m["stage"] for m in payload["modules"]]
    assert payload["metrics"]["counters"]["refinement.rounds"] == \
        len(payload["rounds"])
    assert "attempts" not in payload


def test_cli_record_is_the_bench_row_record(tmp_path, capsys):
    """``--json`` prints exactly the record ``--stats-json`` writes, and
    a ``bench`` row of the same program and config is that record plus
    the job's own fields."""
    import json

    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    stats = tmp_path / "s.json"
    assert main(["run", "--json", "--stats-json", str(stats),
                 str(path)]) == 0
    printed = capsys.readouterr().out
    assert printed == stats.read_text()
    record = json.loads(printed)

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "record", "task_timeout": 60,
        "programs": [{"file": "prog.t", "expected": "terminating"}],
        "configs": [{"name": "default"}],
    }))
    store = tmp_path / "results.jsonl"
    assert main(["bench", str(manifest), "--inprocess", "--quiet",
                 "--store", str(store)]) == 0
    capsys.readouterr()
    (row,) = [json.loads(line) for line in store.read_text().splitlines()]
    job = {"key", "name", "family", "expected", "config_name", "status",
           "executions", "wall_seconds", "error"}
    assert set(row) == set(record) | job
    assert not set(record) & job
    assert row["status"] == "terminating" and row["error"] is None
    for key in ("program", "config", "verdict", "reason", "modules"):
        assert row[key] == record[key], key
    assert row["metrics"]["counters"] == record["metrics"]["counters"]


def test_cli_json_nonterminating_witness(capsys):
    import json

    assert run_cli(["--json", "-"], stdin=DIVERGING) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "nonterminating"
    assert "witness_word" in payload


def test_cli_bench_and_report_subcommands(tmp_path, capsys):
    import json

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "cli-tiny",
        "task_timeout": 30,
        "programs": [
            {"name": "a", "expected": "terminating", "source": TERMINATING},
            {"name": "b", "expected": "nonterminating", "source": DIVERGING},
        ],
        "configs": [{"name": "default"}],
    }))
    store = tmp_path / "results.jsonl"
    report = tmp_path / "report.json"
    code = main(["bench", str(manifest), "--inprocess", "--store", str(store),
                 "--report-json", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 jobs" in out and "0 resumed" in out
    payload = json.loads(report.read_text())
    assert payload["by_status"] == {"terminating": 1, "nonterminating": 1}
    assert payload["configs"]["default"]["solved"] == 2

    # resume: the second invocation recomputes nothing
    assert main(["bench", str(manifest), "--inprocess", "--quiet",
                 "--store", str(store)]) == 0
    assert "2 resumed, 0 run" in capsys.readouterr().out

    # the report subcommand reads the same store
    assert main(["report", str(store)]) == 0
    assert "default" in capsys.readouterr().out


def test_cli_bench_error_rows_exit_3(tmp_path, capsys):
    import json

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "broken", "task_timeout": 30,
        "programs": [{"name": "bad", "source": "program bad(\n"}],
    }))
    store = tmp_path / "results.jsonl"
    code = main(["bench", str(manifest), "--inprocess", "--quiet",
                 "--store", str(store)])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("config, named", [
    ({"stages": "iv"}, "stages"),
    ({"bogus_knob": 1}, "bogus_knob"),
    ({"timeout": "5"}, "timeout"),
    ([1], "JSON object"),
    ({"fault_plan": '{"sed": 1}'}, "fault_plan"),
])
def test_cli_bench_rejects_malformed_config(tmp_path, capsys, config, named):
    """One stderr line naming the key and exit 3, before any job runs."""
    import json

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "malformed", "task_timeout": 30,
        "programs": [{"name": "a", "source": TERMINATING}],
        "configs": [config],
    }))
    store = tmp_path / "results.jsonl"
    code = main(["bench", str(manifest), "--inprocess", "--quiet",
                 "--store", str(store)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and named in err, err
    assert not store.exists()


@pytest.mark.parametrize("manifest, named", [
    ({"programs": [{"bogus": 1}]}, "program entry"),
    (["x"], "JSON object"),
    ({"programs": ["suite"]}, "program entry"),
    ({"programs": [{"scaled": "nested_loops", "k": "2"}]}, "'k'"),
    ({"programs": [{"glob": "no_such_dir/*.t"}]}, "matched no files"),
    ({"programs": [{"suite": "count_down"}]}, "unknown suite family"),
    ({"programs": [{"suite": "*"}], "task_timeout": -1}, "task timeout"),
    ({"programs": [{"suite": "*"}], "task_timeout": "5"}, "task timeout"),
])
def test_cli_bench_rejects_malformed_manifest(tmp_path, capsys, manifest,
                                              named):
    """One stderr line and exit 3, before any job runs."""
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    store = tmp_path / "results.jsonl"
    code = main(["bench", str(path), "--inprocess", "--quiet",
                 "--store", str(store)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("bench: "), err
    assert named in err, err
    assert not store.exists()


def test_cli_bench_rejects_negative_task_timeout(tmp_path, capsys):
    """One stderr line and exit 3, before any job runs."""
    import json

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "t", "programs": [{"name": "a", "source": TERMINATING}],
    }))
    store = tmp_path / "results.jsonl"
    code = main(["bench", str(manifest), "--inprocess", "--quiet",
                 "--store", str(store), "--task-timeout", "-1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("bench: "), err
    assert "task timeout" in err
    assert not store.exists()


@pytest.mark.parametrize("plan", ['{"sed": 1}', "not json",
                                  '{"sites": 5}', '{"crash_rate": "high"}'])
def test_cli_bench_rejects_malformed_fault_plan(tmp_path, capsys, plan):
    """One stderr line and exit 3, before any job runs."""
    import json

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "plan", "task_timeout": 30,
        "programs": [{"name": "a", "source": TERMINATING}],
    }))
    store = tmp_path / "results.jsonl"
    code = main(["bench", str(manifest), "--inprocess", "--quiet",
                 "--store", str(store), "--fault-plan", plan])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("bench: "), err
    assert not store.exists()


def test_cli_bench_prints_one_progress_line_per_row(tmp_path, capsys):
    import json
    import re

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "cli-progress", "task_timeout": 30,
        "programs": [
            {"name": "a", "expected": "terminating", "source": TERMINATING},
            {"name": "b", "expected": "nonterminating", "source": DIVERGING},
        ],
        "configs": [{"name": "default"}],
    }))
    progress = re.compile(r"^  (\S+)\s+\[default\] (\S+)\s+\d+\.\d\ds$",
                          re.MULTILINE)
    argv = ["bench", str(manifest), "--inprocess", "--no-resume",
            "--store", str(tmp_path / "results.jsonl")]
    assert main(argv) == 0
    lines = progress.findall(capsys.readouterr().out)
    assert sorted(lines) == [("a", "terminating"), ("b", "nonterminating")]
    assert main(argv + ["--quiet"]) == 0
    assert not progress.findall(capsys.readouterr().out)


def test_cli_run_portfolio(tmp_path, capsys):
    import json

    path = tmp_path / "prog.t"
    path.write_text(TERMINATING)
    code = main(["run", "--portfolio", str(path), "--timeout", "60",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "terminating"
    assert payload["attempts"]
    assert payload["attempts"][-1]["rounds"] == payload["rounds"]


def _restored_rounds(argv, capsys) -> int:
    import json

    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    return payload["metrics"]["counters"].get(
        "checkpoint.rounds_restored", 0)


def test_cli_rerun_with_bigger_timeout_resumes(tmp_path, capsys):
    """A re-run with a bigger --timeout resumes the first run's rounds:
    the wall-clock budget is not part of the checkpoint key."""
    ckpt = str(tmp_path / "ckpt")
    first = ["run", "--checkpoint-dir", ckpt, str(SORT)]
    assert _restored_rounds(first + ["--timeout", "20"], capsys) == 0
    assert _restored_rounds(first + ["--timeout", "60"], capsys) >= 1
    assert len(list((tmp_path / "ckpt").glob("checkpoint_*.jsonl"))) == 1


def test_cli_portfolio_and_run_share_checkpoints(tmp_path, capsys):
    """The portfolio keys its attempts on the source text, as ``run``
    does, so a plain run resumes what a portfolio run certified."""
    ckpt = str(tmp_path / "ckpt")
    portfolio = ["run", "--portfolio", "--checkpoint-dir", ckpt, str(SORT)]
    assert _restored_rounds(portfolio, capsys) == 0
    plain = ["run", "--checkpoint-dir", ckpt, str(SORT)]
    assert _restored_rounds(plain, capsys) >= 1
