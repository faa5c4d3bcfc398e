"""One workload in its own process: set up, report ready, measure, check.

``run.py`` starts this script, times it from spawn to the ``READY``
line, then sends ``go`` (run the timed passes) or ``stop`` (set-up was
only being timed).  The ``READY`` line carries the yardstick readings
taken during set-up (see ``yardstick.py``), from the script's first
lines on.  After ``go`` it prints one JSON report line and exits.  A
pass runs every job of the workload once, one after another from a
single client.  ``--seconds`` becomes a whole number of passes through
:data:`PASSES`, so every run does the same work however fast the
machine happens to be.  Each output is checked right after its job,
outside the job's timing, and then dropped; the garbage of both is
collected before the next job starts its clock.  Every job's time is
calibrated with yardstick readings before, during and after it.
"""

from __future__ import annotations

import yardstick

#: Reads the yardstick through set-up, the imports below included.
SETUP = (yardstick.Sampler(yardstick.SETUP_INTERVAL_S).start()
         if __name__ == "__main__" else None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import repro.core.api as api  # noqa: E402
from repro.automata.gba import GBA  # noqa: E402
from repro.benchgen import program_suite  # noqa: E402
from repro.benchgen.scaled import (interleaved_counters,  # noqa: E402
                                   nested_loops, phase_chain,
                                   sequential_loops)
from repro.benchgen.sdba_corpus import random_sdba  # noqa: E402
from repro.core.checkpoint import Checkpointer  # noqa: E402
from repro.core.config import AnalysisConfig  # noqa: E402
from repro.core.library import ModuleLibrary  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Deadline that marks a job as failed rather than slow.
SAFETY_S = 60.0

#: The suite's programs that time out under the paper's 5 s budget; the
#: ``deep`` workload runs them for a fixed number of rounds instead.
DEEP = ("nested_reset", "triple_nest", "alternate_guarded", "two_phase")

SCALED = (sequential_loops(4), sequential_loops(5), nested_loops(2),
          interleaved_counters(4), interleaved_counters(5), phase_chain(8))

#: Smaller siblings of the ``scaled`` programs whose modules ``warm``
#: finds in its library.
SIBLINGS = (sequential_loops(2), sequential_loops(3), interleaved_counters(2),
            interleaved_counters(3), nested_loops(1))

#: Passes per 10 s of ``--seconds``; a run makes
#: ``round(PASSES * seconds / 10)`` passes, at least one.  On a 2-vCPU
#: VM a ``suite`` pass takes about 3.5 s, and four of them give the 112
#: jobs a p90 needs; a pass of any other workload takes 7 to 17 s.
PASSES = {"suite": 4, "deep": 1, "scaled": 1, "warm": 1, "automata": 1}

#: Fixed seed of the random SDBA pair corpus; ``--seed`` renames and
#: reorders it (see :class:`Automata`).
PAIR_CORPUS_SEED = 2018
PAIRS = 100
WORDS_PER_PAIR = 20
#: One pair in this many, chosen by the seed, is also checked on the
#: result's own accepting lasso, which costs half as much to find as
#: the difference itself.
LASSO_CHECK_EVERY = 10

COUNTERS = ("refinement.rounds", "ranking.syntheses", "logic.fm.eliminations",
            "logic.entailment_calls", "logic.lp.pivots", "difference.calls",
            "difference.explored_states", "difference.subsumption_hits",
            "difference.cache.hits", "difference.cache.misses",
            "simulation.pairs", "library.hits", "library.misses",
            "checkpoint.rounds_restored")


def _zero_counts() -> dict:
    return dict.fromkeys(COUNTERS + ("complement.macrostates",
                                     "difference.antichain.peak"), 0)


class Stopwatch:
    """Times one job after a collection, with yardstick readings before,
    during and after it; ``raw`` excludes the readings taken during it."""

    raw = seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        gc.collect()
        self.before = yardstick.reading()
        self.sampler = yardstick.Sampler().start()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.sampler.stop()
        self.raw = time.perf_counter() - self.start - self.sampler.spent
        self.seconds = yardstick.calibrate(
            self.raw,
            [self.before, *self.sampler.samples, yardstick.reading()])
        return False


@dataclass
class Pass:
    #: Calibrated job time (see ``yardstick.py``) and raw job time; the
    #: readings taken during the jobs took ``sampled_seconds`` more.
    seconds: float = 0.0
    raw_seconds: float = 0.0
    sampled_seconds: float = 0.0
    #: ``[name, seconds, units, status, raw_seconds]``; units are
    #: refinement rounds, or difference calls on ``automata``.
    jobs: list = field(default_factory=list)
    counts: dict = field(default_factory=_zero_counts)

    def add(self, name: str, clock: Stopwatch, units: int,
            status: str) -> None:
        self.seconds += clock.seconds
        self.raw_seconds += clock.raw
        self.sampled_seconds += clock.sampler.spent
        self.jobs.append([name, clock.seconds, units, status, clock.raw])

    def add_metrics(self, snapshot: dict) -> None:
        """Fold one metrics-registry snapshot into the pass's counts."""
        counters = snapshot.get("counters", {})
        for name in COUNTERS:
            self.counts[name] += counters.get(name, 0)
        self.counts["complement.macrostates"] += sum(
            value for name, value in counters.items()
            if name.startswith("complement.") and name.endswith(".macrostates"))
        peak = snapshot.get("gauges", {}).get("difference.antichain.peak", 0)
        self.counts["difference.antichain.peak"] = max(
            self.counts["difference.antichain.peak"], peak)


class Analysis:
    """Each job parses one program and runs the full analysis on it."""

    def __init__(self, programs, config: AnalysisConfig):
        self.programs = list(programs)
        self.config = config
        #: Failed checks, with enough detail to reproduce them.
        self.problems: list[str] = []

    def job_stores(self, bench) -> dict:
        return {}

    def end_pass(self) -> None:
        pass

    def run_pass(self) -> Pass:
        record = Pass()
        for bench in self.programs:
            stores = self.job_stores(bench)
            clock = Stopwatch()
            try:
                with clock:
                    result = api.prove_termination_source(
                        bench.source, self.config, **stores)
            except Exception as exc:  # noqa: BLE001 - a job failure is data
                record.add(bench.name, clock, 0, checks.FAILED)
                self.problems.append(f"{bench.name}: raised {exc!r}")
                continue
            record.add_metrics(result.stats.metrics)
            if result.reason == "timeout" and self.config.timeout == SAFETY_S:
                status = checks.FAILED
            else:
                status = checks.verdict_status(bench.expected,
                                               result.verdict.value)
            if status == checks.WRONG:
                self.problems.append(f"{bench.name}: expected {bench.expected},"
                                     f" got {result.verdict.value}")
            record.add(bench.name, clock, result.stats.iterations, status)
        self.end_pass()
        return record


class Warm(Analysis):
    """``scaled`` again, warm-started from a module library and checkpoints.

    Set-up publishes the siblings' modules and checkpoints an 8-round
    run of every program into a pristine store; each pass starts from a
    fresh copy of it, so every pass does the same work.
    """

    VERSION = "bench"

    def __init__(self, work: Path):
        super().__init__(SCALED, AnalysisConfig(timeout=SAFETY_S))
        self.pristine = work / "pristine"
        self.live = work / "live"
        library = ModuleLibrary(self.pristine / "library.jsonl", self.VERSION)
        for bench in SIBLINGS:
            api.prove_termination_source(bench.source, self.config,
                                         library=library)
        partial = self.config.with_(max_refinements=8)
        for bench in self.programs:
            api.prove_termination_source(
                bench.source, partial,
                checkpoint=Checkpointer(self.pristine / "ckpt", bench.name,
                                        program=bench.name))

    def run_pass(self) -> Pass:
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.pristine, self.live)
        self.library = ModuleLibrary(self.live / "library.jsonl", self.VERSION)
        self.checkpoints: list[Checkpointer] = []
        return super().run_pass()

    def job_stores(self, bench) -> dict:
        checkpoint = Checkpointer(self.live / "ckpt", bench.name,
                                  program=bench.name)
        self.checkpoints.append(checkpoint)
        return {"checkpoint": checkpoint, "library": self.library}

    def end_pass(self) -> None:
        if self.library.rejected:
            self.problems.append(f"library rejected {self.library.rejected} "
                                 f"entries: {self.library.rejections}")
        if not any(c.restored_rounds for c in self.checkpoints):
            self.problems.append("no checkpointed round was restored")


def subtract_flags(config: AnalysisConfig) -> dict:
    """The flags ``RefinementEngine.subtract`` passes to ``difference``
    under ``config``, which must pin no complement kind."""
    if config.complement_kind is not None:
        raise ValueError("a pinned complement kind is not replayed")
    return {"lazy": config.lazy_complement,
            "subsumption": config.subsumption,
            "via_semidet": config.via_semidet,
            "modular": config.modular_complement,
            "kind": None,
            "cache": config.kernel_cache,
            "simulation_reduction": config.simulation_reduction,
            "state_limit": config.difference_state_limit}


def relabel(auto: GBA, rng: random.Random, symbols: dict) -> GBA:
    """``auto`` with shuffled integer states and symbols renamed by
    ``symbols``: the same language up to renaming, new hash orders."""
    order = sorted(auto.states, key=str)
    names = list(range(len(order)))
    rng.shuffle(names)
    rename = dict(zip(order, names))
    transitions = {(rename[q], symbols[a]): [rename[t] for t in targets]
                   for (q, a), targets in auto.transitions.items()}
    return GBA([symbols[a] for a in auto.alphabet], transitions,
               [rename[q] for q in auto.initial_states()],
               [[rename[q] for q in f] for f in auto.acc_sets], states=names)


def symbol_names(alphabet, rng: random.Random) -> dict:
    symbols = sorted(alphabet, key=str)
    names = [f"a{i}" for i in range(len(symbols))]
    rng.shuffle(names)
    return dict(zip(symbols, names))


def decode(data: dict) -> GBA:
    transitions: dict = {}
    for source, symbol, target in data["edges"]:
        transitions.setdefault((source, symbol), []).append(target)
    return GBA(data["alphabet"], transitions, data["initial"],
               data["acc_sets"], states=range(data["states"]))


class Automata:
    """Difference only: replayed termination module chains and random
    SDBA pairs, every call with the analysis's default flags.

    The pair corpus is fixed (:data:`PAIR_CORPUS_SEED`); ``--seed``
    renames every state and symbol and draws the check words.  Fresh
    random pairs would move the pass time by about 20% from seed to
    seed, which no regression bound survives.  The job order is fixed
    too: shuffling it moved the peak memory by 8% from seed to seed.
    """

    def __init__(self, seed: int):
        self.problems: list[str] = []
        # The package attribute ``repro.automata.difference`` is the
        # function; the module is looked up where the tracer patches it.
        self.module = sys.modules["repro.automata.difference"]
        self.flags = subtract_flags(AnalysisConfig())
        rng = random.Random(seed)
        self.seed = seed
        jobs = []
        data = json.loads((HERE / "chains.json").read_text(encoding="utf-8"))
        for chain in data["chains"]:
            minuend = decode(chain["minuend"])
            symbols = symbol_names(minuend.alphabet, rng)
            jobs.append(("chain", chain["program"],
                         relabel(minuend, rng, symbols),
                         [relabel(decode(m), rng, symbols)
                          for m in chain["modules"]]))
        corpus = random.Random(PAIR_CORPUS_SEED)
        for index in range(PAIRS):
            minuend = random_sdba(corpus.randrange(1 << 30))
            subtrahend = random_sdba(corpus.randrange(1 << 30))
            symbols = symbol_names(minuend.alphabet | subtrahend.alphabet, rng)
            jobs.append(("pair", f"pair_{index}",
                         relabel(minuend, rng, symbols),
                         relabel(subtrahend, rng, symbols)))
        self.jobs = jobs

    def _difference(self, minuend, subtrahend):
        return self.module.difference(
            minuend, subtrahend, **self.flags,
            deadline=time.perf_counter() + SAFETY_S)

    def run_pass(self) -> Pass:
        record = Pass()
        registry = obs_metrics.MetricsRegistry()
        pairs = 0
        with obs_metrics.use_registry(registry):
            for kind, name, minuend, other in self.jobs:
                clock = Stopwatch()
                try:
                    with clock:
                        if kind == "chain":
                            result = minuend
                            for module in other:
                                result = self._difference(result,
                                                          module).automaton
                        else:
                            result = self._difference(minuend, other).automaton
                except Exception as exc:  # noqa: BLE001 - a job failure is data
                    record.add(name, clock, 0, checks.FAILED)
                    self.problems.append(f"{name}: raised {exc!r}")
                    continue
                if kind == "chain":
                    units = len(other)
                    ok = checks.remainder_is_empty(result)
                    if not ok:
                        self.problems.append(f"{name}: remainder not empty")
                else:
                    units = 1
                    words = checks.sample_words(
                        minuend.alphabet,
                        random.Random(f"{self.seed}/{name}"), WORDS_PER_PAIR)
                    pairs += 1
                    bad = checks.difference_mismatches(
                        minuend, other, result, words,
                        result_lasso=(pairs % LASSO_CHECK_EVERY
                                      == self.seed % LASSO_CHECK_EVERY))
                    ok = not bad
                    if bad:
                        self.problems.append(f"{name}: wrong on {bad[0]}")
                record.add(name, clock, units,
                           checks.SOLVED if ok else checks.WRONG)
        record.add_metrics(registry.snapshot())
        return record


def make_workload(name: str, seed: int, work: Path) -> Analysis | Automata:
    if name == "suite":
        return Analysis([p for p in program_suite() if p.name not in DEEP],
                        AnalysisConfig(timeout=5))
    if name == "deep":
        return Analysis([p for p in program_suite() if p.name in DEEP],
                        AnalysisConfig(timeout=SAFETY_S, max_refinements=30))
    if name == "scaled":
        return Analysis(SCALED, AnalysisConfig(timeout=SAFETY_S))
    if name == "warm":
        return Warm(work)
    if name == "automata":
        return Automata(seed)
    raise ValueError(f"unknown workload {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path,
                        help="write the program's trace spans here")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.work)
    SETUP.stop()
    print("READY " + json.dumps({"samples": SETUP.samples,
                                 "spent": SETUP.spent}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = wrapper_ns = None
    if args.trace:
        wrapper_ns = layers.wrapper_ns_per_call()
        tracer = layers.install()
    count = max(1, round(PASSES[args.workload] * args.seconds / 10))
    # Spans stay in memory until the passes are over.
    spans = NULL_TRACER if args.spans is None else Tracer()
    with use_tracer(spans):
        passes = [workload.run_pass() for _ in range(count)]
    if tracer is not None:
        tracer.uninstall()
    if args.spans is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for record in spans.records:
                fh.write(json.dumps(record, default=str) + "\n")

    report = {
        "passes": [{"seconds": p.seconds, "raw_seconds": p.raw_seconds,
                    "sampled_seconds": p.sampled_seconds, "jobs": p.jobs}
                   for p in passes],
        # Later passes can find caches warm in the process; the first
        # pass's counts are the ones that repeat from run to run.
        "counts": passes[0].counts,
        "problems": workload.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": None if tracer is None else {
            "totals": tracer.totals, "wrapper_ns_per_call": wrapper_ns},
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
