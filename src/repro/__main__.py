"""Command-line interface:  python -m repro [run|bench|report|trajectory] ...

Single-program analysis (``run``, also the default when the first
argument is a file): analyzes a program of the mini-language of
:mod:`repro.program.parser` and prints the verdict, the
certified-module decomposition, and per-round statistics.

Options mirror the paper's evaluation axes::

    python -m repro examples.t                     # multi-stage, all opts
    python -m repro run --json examples.t          # one JSON object
    python -m repro --single-stage examples.t      # the [33] baseline
    python -m repro --sequence iii examples.t      # stage sequence (iii)
    python -m repro --no-lazy --no-subsumption ... # NCSB-Original, no antichain
    python -m repro --timeout 30 examples.t
    python -m repro --portfolio examples.t         # configs in turn

The evaluation runner (see DESIGN.md, "Evaluation runner")::

    python -m repro bench manifest.json --workers 4 --task-timeout 5
    python -m repro report results.jsonl

Observability (see DESIGN.md, "Observability" and "Perf
trajectory")::

    python -m repro --trace trace.jsonl examples.t   # JSONL span trace
    python -m repro.obs.report trace.jsonl           # per-phase breakdown
    python -m repro --profile examples.t             # breakdown inline
    python -m repro --stats-json stats.json examples.t
    python -m repro bench ... --trace-dir traces/    # per-job traces
    python -m repro trajectory benchmarks/baselines bench-out
                                                     # perf regressions?

Every subcommand shares one deterministic exit-code scheme so CI and
scripts can branch on the outcome without scraping output:

- **0** -- conclusive: a verdict was produced (``run``), or
  every row of the corpus is conclusive (``bench``/``report``),
- **2** -- inconclusive: verdict UNKNOWN or timeout, or some corpus
  row is,
- **3** -- error: an unparsable or unreadable program, a bad option
  value, error rows, or an empty store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.config import AnalysisConfig, StageSequence
from repro.core.api import prove_termination
from repro.obs.trace import Tracer, use_tracer
from repro.program.parser import ParseError, parse_program


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Automata-based program termination checking (PLDI'18).",
        epilog="exit codes: 0 = conclusive verdict, 2 = unknown/timeout, "
               "3 = parse error, unreadable file or bad option value")
    parser.add_argument("file", help="program file ('-' reads stdin)")
    parser.add_argument("--single-stage", action="store_true",
                        help="always generalize to M_nondet (baseline of [33])")
    parser.add_argument("--sequence", choices=("i", "ii", "iii"), default="i",
                        help="multi-stage sequence of Section 7 (default: i)")
    parser.add_argument("--no-lazy", action="store_true",
                        help="use NCSB-Original instead of NCSB-Lazy")
    parser.add_argument("--no-subsumption", action="store_true",
                        help="disable the ceil(emp) antichain")
    parser.add_argument("--no-simulation-reduction", action="store_true",
                        help="disable simulation-based reduction (module "
                             "quotienting + coarsened antichain)")
    parser.add_argument("--interpolants", action="store_true",
                        help="generalize infeasible counterexamples through "
                             "interpolant modules")
    parser.add_argument("--via-semidet", action="store_true",
                        help="complement general modules via "
                             "semi-determinization + NCSB")
    parser.add_argument("--complement", default="auto",
                        choices=("auto", "finite-trace", "dba", "ncsb",
                                 "ncsb-original", "ncsb-lazy", "semidet+ncsb",
                                 "rank", "rank-based", "modular"),
                        help="pin one complementation procedure for every "
                             "module subtraction (default: class-aware "
                             "dispatch; modules a pinned kind cannot handle "
                             "fall back to the dispatch)")
    parser.add_argument("--no-modular", action="store_true",
                        help="disable modular (per-SCC mix-and-match) "
                             "complementation of general modules")
    parser.add_argument("--portfolio", action="store_true",
                        help="run the default configuration portfolio "
                             "(multi-stage, then interpolant modules)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--max-refinements", type=int, default=60,
                        help="refinement-round budget (default 60)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the verdict")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a JSONL span trace of the run "
                             "(render with python -m repro.obs.report)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="durable refinement checkpoints: certified "
                             "rounds are persisted there after each round "
                             "and a re-run of the same program + config "
                             "warm-starts from them (see README 'Resuming "
                             "a killed analysis')")
    parser.add_argument("--module-library", metavar="PATH", default=None,
                        help="cross-program certified-module library "
                             "(append-only JSONL): reuse published modules "
                             "before synthesizing, publish what this run "
                             "certifies (see README 'Warm-starting a corpus "
                             "from a module library')")
    parser.add_argument("--stats-json", metavar="FILE", default=None,
                        help="write the run's JSON record (the one "
                             "--json prints) to FILE")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase time breakdown after "
                             "the run")
    parser.add_argument("--json", action="store_true",
                        help="print the run's JSON record (verdict, "
                             "reason, modules, rounds, metrics) to stdout")
    return parser


#: Subcommands of ``python -m repro``; anything else is a program file
#: for the (default) single-run analysis.
_SUBCOMMANDS = ("run", "bench", "report", "trajectory")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
        if command == "bench":
            from repro.runner.cli import bench_main
            return bench_main(rest)
        if command == "report":
            from repro.runner.report import main as report_main
            return report_main(rest)
        if command == "trajectory":
            from repro.obs.trajectory import main as trajectory_main
            return trajectory_main(rest)
        argv = rest  # "run" is the explicit name of the default mode
    return run_single(argv)


def _check_stats_path(path: str) -> None:
    """Raise ``OSError`` unless the ``--stats-json`` file can be written."""
    if os.path.isdir(path):
        raise OSError(f"--stats-json {path!r} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise OSError(f"--stats-json {path!r}: no such directory "
                      f"{directory!r}")
    if not os.access(directory, os.W_OK):
        raise OSError(f"--stats-json {path!r}: directory {directory!r} "
                      f"is not writable")


def run_single(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    stages = (StageSequence.SINGLE if args.single_stage
              else StageSequence.BY_NAME[args.sequence])
    aliases = {"auto": None, "rank": "rank-based", "ncsb": "ncsb-lazy"}
    try:
        if args.file == "-":
            source = sys.stdin.read()
        else:
            with open(args.file, encoding="utf-8") as fh:
                source = fh.read()
        program = parse_program(source)
        config = AnalysisConfig(stages=stages,
                                lazy_complement=not args.no_lazy,
                                subsumption=not args.no_subsumption,
                                simulation_reduction=(
                                    not args.no_simulation_reduction),
                                interpolant_modules=args.interpolants,
                                via_semidet=args.via_semidet,
                                modular_complement=not args.no_modular,
                                complement_kind=aliases.get(args.complement,
                                                            args.complement),
                                timeout=args.timeout,
                                max_refinements=args.max_refinements)
        if args.stats_json:
            # checked before the analysis, so a bad path costs no run
            _check_stats_path(args.stats_json)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        print(f"run: {err}", file=sys.stderr)
        return 3

    def analyze():
        if args.portfolio:
            from repro.core.api import prove_termination_portfolio
            return prove_termination_portfolio(
                source, timeout=config.timeout,
                checkpoint_dir=args.checkpoint_dir,
                module_library=args.module_library)
        checkpoint = None
        if args.checkpoint_dir:
            # Keyed without the wall-clock budget, like the portfolio
            # and the corpus: a re-run with a bigger --timeout resumes.
            from repro.core.checkpoint import Checkpointer
            from repro.runner.store import job_key
            checkpoint = Checkpointer(
                args.checkpoint_dir,
                job_key(program.name, source,
                        config.with_(timeout=None).to_dict()),
                program=program.name)
        return prove_termination(program, config, checkpoint=checkpoint,
                                 library=args.module_library)

    tracer: Tracer | None = None
    if args.trace or args.profile:
        tracer = Tracer(args.trace)
        try:
            with use_tracer(tracer):
                result = analyze()
        finally:
            tracer.close()
    else:
        result = analyze()
    code = 0 if result.verdict.value != "unknown" else 2

    if args.stats_json or args.json:
        record = json.dumps(result.to_dict(), indent=2)
        if args.stats_json:
            with open(args.stats_json, "w", encoding="utf-8") as fh:
                fh.write(record + "\n")
        if args.json:
            print(record)
            return code

    print(result.verdict.value.upper())
    if args.quiet:
        return code
    if result.reason:
        print(f"reason: {result.reason}")
    if result.witness is not None:
        print(f"witness: {result.witness}")
        print(f"witness word: {result.witness_word}")
    if result.modules:
        print(f"\ncertified modules ({len(result.modules)}):")
        for k, module in enumerate(result.modules):
            print(f"  [{k}] stage={module.stage:7s} "
                  f"|Q|={len(module.automaton.states):3d}  f(v) = {module.ranking}")
    print(f"\n{result.summary()}")
    if args.profile and tracer is not None:
        from repro.obs.report import aggregate, render
        print("\nper-phase time breakdown:")
        print(render(aggregate(tracer.records)))
    return code


if __name__ == "__main__":
    sys.exit(main())
