"""A multiprocess worker pool with *hard* per-task deadlines.

The cooperative ``AnalysisConfig.timeout`` is honored inside the
refinement loop, but a pathological task can still wedge a worker (a
single enormous SCC sweep, a pathological solver call, a bug).  The
evaluation harness therefore runs every job in its own subprocess and
enforces the budget from outside:

- **hard deadline**: a worker that overruns ``timeout + kill_grace``
  is SIGKILLed and the job recorded as ``timeout`` -- the cooperative
  budget gets ``kill_grace`` seconds to return gracefully first,
- **crash isolation**: a worker death (segfault, OOM kill, interpreter
  abort) never takes the harness down; the job is retried at most
  ``max_retries`` times -- respawns back off exponentially with
  deterministic per-job jitter -- and a job that dies on every allowed
  execution is recorded ``quarantined`` (a poison job, skipped on
  resume instead of retried forever),
- **memory pressure**: with ``max_rss_kb`` set, a parent-side watchdog
  samples worker rss every ``WATCHDOG_INTERVAL_S`` seconds and
  SIGKILLs any worker past the cap, recording the job ``oom`` --
  shedding load *before* the kernel OOM killer does it
  indiscriminately,
- **task exceptions** travel back with their traceback and become
  ``error`` rows immediately (they are deterministic -- retrying is
  waste),
- **graceful degradation**: when ``multiprocessing`` is unusable (no
  start methods, sandboxed platform, ``REPRO_RUNNER_INPROCESS=1``)
  the pool runs tasks in-process -- cooperative timeouts still apply,
  hard kills and crash isolation do not.  A spawn that fails mid-run
  (fd limits) degrades the same way for the payloads still without an
  outcome.

Workers communicate over a one-way pipe; results are whatever the task
returns (pickled by the pipe).  The pool is deliberately generic --
``task`` is any importable callable ``payload -> dict`` -- so the
harness's own failure paths are testable with the fault-injection
tasks of :mod:`repro.runner._testing`.
"""

from __future__ import annotations

import os
import random
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

try:
    import multiprocessing as _mp
    from multiprocessing import connection as _mp_connection
except ImportError:  # pragma: no cover - exotic platforms
    _mp = None
    _mp_connection = None

import repro.faults as _faults
from repro.core.api import prove_termination
from repro.core.config import AnalysisConfig
from repro.core.refinement import Verdict
from repro.program.parser import ParseError, parse_program

#: Seconds between the memory watchdog's rss samples of the workers.
WATCHDOG_INTERVAL_S = 2.0


def rss_kb(pid: int) -> int | None:
    """Resident set size of ``pid`` in kB via /proc; None off-Linux."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return None


@dataclass
class TaskOutcome:
    """What the pool observed for one payload."""

    payload: dict
    index: int
    #: ``ok`` (task returned), ``timeout`` (hard deadline SIGKILL),
    #: ``oom`` (the memory-pressure watchdog SIGKILLed the worker past
    #: ``max_rss_kb``), ``error`` (task raised),
    #: ``quarantined`` (the job killed its worker on every allowed
    #: execution -- a poison job, recorded and never retried again),
    #: ``cancelled`` (an ``on_outcome`` callback stopped the run first,
    #: as ``bench --fail-fast`` does after an error row).
    status: str
    result: dict | None = None
    error: str | None = None
    #: Wall-clock seconds of the *last* execution.
    seconds: float = 0.0
    #: Executions performed (1 + retries).
    executions: int = 1


def analysis_task(payload: dict) -> dict:
    """The worker entry point: analyze one program under one config.

    ``payload`` keys: ``source`` (program text), ``config`` (an
    :meth:`AnalysisConfig.to_dict` dict), ``timeout`` (cooperative
    budget in seconds, intersected with the config's own), plus
    pass-through metadata (``key``/``name``/``family``/``expected``/
    ``config_name``).  Returns a JSON-ready result row.

    With ``trace_dir`` set, the analysis runs under its own JSONL
    tracer writing ``trace_<job id>.jsonl`` into that directory
    (``repro.obs.report`` renders it) -- the tracer flushes per record,
    so even a worker SIGKILLed mid-analysis leaves its closed spans.

    With ``checkpoint_dir`` set, the analysis is crash-recoverable: a
    :class:`~repro.core.checkpoint.Checkpointer` keyed by the job key
    persists the certified decomposition after every round and
    warm-starts from a valid existing checkpoint.

    With ``module_library`` set (a path), the analysis queries the
    shared cross-program certified-module library before each
    synthesis and publishes what it certifies
    (:mod:`repro.core.library`).  Both stores count their work in the
    run's metrics registry, which the row carries under
    ``row["stats"]["metrics"]``.
    """
    t0 = time.perf_counter()
    name = payload.get("name", "<anonymous>")

    def base_row() -> dict:
        return {"key": payload.get("key"), "program": name,
                "family": payload.get("family"),
                "expected": payload.get("expected")}

    tracer = None
    trace_dir = payload.get("trace_dir")
    if trace_dir:
        from repro.obs.trace import Tracer
        os.makedirs(trace_dir, exist_ok=True)
        job_id = str(payload.get("key") or name).replace(os.sep, "_")
        tracer = Tracer(os.path.join(trace_dir, f"trace_{job_id}.jsonl"))
    checkpoint = None
    checkpoint_dir = payload.get("checkpoint_dir")
    if checkpoint_dir:
        from repro.core.checkpoint import Checkpointer
        checkpoint = Checkpointer(
            str(checkpoint_dir),
            str(payload.get("key") or name),
            program=name)
    library = None
    if payload.get("module_library"):
        from repro.core.library import ModuleLibrary
        library = ModuleLibrary(str(payload["module_library"]))
    try:
        config = AnalysisConfig.from_dict(payload.get("config") or {})
        budget = payload.get("timeout")
        if budget is not None:
            budget = (budget if config.timeout is None
                      else min(budget, config.timeout))
            config = config.with_(timeout=budget)
        program = parse_program(payload["source"])
        _maybe_fault_worker(config, same_process=bool(payload.get("_same_process")))
        if tracer is not None:
            from repro.obs.trace import use_tracer
            with use_tracer(tracer):
                result = prove_termination(program, config,
                                           checkpoint=checkpoint,
                                           library=library)
            tracer.record_metrics(result.stats.metrics)
        else:
            result = prove_termination(program, config,
                                       checkpoint=checkpoint,
                                       library=library)
    except ParseError as err:
        row = base_row()
        row.update(config=payload.get("config_name", ""), status="error",
                   error=f"parse error: {err}",
                   seconds=time.perf_counter() - t0)
        return row
    finally:
        if tracer is not None:
            tracer.close()

    stats = result.stats
    status = result.verdict.value
    if result.verdict is Verdict.UNKNOWN and result.reason == "timeout":
        status = "timeout"
    row = base_row()
    row.update(
        config=payload.get("config_name") or config.describe(),
        status=status,
        verdict=result.verdict.value,
        reason=result.reason,
        rounds=stats.iterations,
        seconds=stats.total_seconds,
        modules_by_stage=dict(stats.modules_by_stage),
        stats=stats.to_dict(),
    )
    return row


def _maybe_fault_worker(config: AnalysisConfig, *, same_process: bool) -> None:
    """The ``worker`` fault site: deterministic harness-level failures.

    In a subprocess the injected crash is a real SIGKILL so the pool's
    worker-death retry/record path is exercised end to end; in-process
    (where killing would take the harness down) the fault surfaces as an
    exception and lands in an ``error`` row instead.
    """
    plan = _faults.resolve_plan(config.fault_plan)
    if plan is None:
        return
    with _faults.use_plan(plan):
        try:
            _faults.perturb("worker")
        except _faults.InjectedFault:
            if same_process:
                raise
            os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(task: Callable[[dict], dict], payload: dict, conn) -> None:
    """Subprocess body: run the task, ship the result."""
    try:
        result = task(payload)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - isolate *everything*
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class _Running:
    __slots__ = ("index", "payload", "execution", "proc", "conn",
                 "started", "deadline")

    def __init__(self, index, payload, execution, proc, conn,
                 started, deadline):
        self.index = index
        self.payload = payload
        self.execution = execution
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline = deadline


class WorkerPool:
    """Executes payloads through ``task`` with bounded concurrency.

    ``task_timeout`` is the default cooperative budget; a payload's own
    ``timeout`` key overrides it.  The hard deadline of a job is its
    cooperative budget plus ``kill_grace`` seconds (no budget = no hard
    deadline).  ``on_outcome`` (passed to :meth:`run`) observes every
    outcome as it lands and may return ``False`` to cancel everything
    still queued or running (``bench --fail-fast`` stops this way).

    Worker deaths are retried with capped exponential backoff plus
    deterministic jitter: the delay before execution ``n + 1`` is
    ``retry_backoff * 2^(n-1)`` plus a jitter drawn from
    ``random.Random(f"{job id}:{n}")`` -- reproducible per job, spread
    across jobs so a correlated crash (one bad node, one bad shared
    resource) does not respawn the whole fleet in lockstep.  A job
    whose worker dies on *every* allowed execution is a poison job:
    it is recorded ``quarantined`` (never plain ``error``) so the
    store layer can skip it on resume instead of retrying forever.

    ``max_rss_kb`` arms the memory-pressure watchdog: every
    ``WATCHDOG_INTERVAL_S`` the parent samples each worker's rss from
    ``/proc`` and SIGKILLs any worker past the cap, recording the job
    ``oom`` -- preemptive and attributable, unlike the kernel OOM
    killer it front-runs.  ``oom`` jobs are not retried (the same input would
    balloon again deterministically); a durable checkpoint, if the
    task keeps one, preserves the rounds finished before the kill.
    """

    def __init__(self, workers: int | None = None,
                 task: Callable[[dict], dict] = analysis_task,
                 task_timeout: float | None = None,
                 kill_grace: float = 1.0,
                 max_retries: int = 1,
                 inprocess: bool | None = None,
                 max_rss_kb: int | None = None,
                 retry_backoff: float = 0.1,
                 retry_backoff_cap: float = 5.0):
        self.workers = max(1, workers if workers is not None
                           else min(os.cpu_count() or 1, 8))
        self.task = task
        self.task_timeout = task_timeout
        self.kill_grace = kill_grace
        self.max_retries = max_retries
        self.max_rss_kb = max_rss_kb
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        if inprocess is None:
            inprocess = (os.environ.get("REPRO_RUNNER_INPROCESS") == "1"
                         or _mp is None)
        self._ctx = None
        if not inprocess:
            try:
                methods = _mp.get_all_start_methods()
                method = "fork" if "fork" in methods else methods[0]
                self._ctx = _mp.get_context(method)
            except Exception:
                inprocess = True
        self.inprocess = inprocess

    # -- public API -------------------------------------------------------------

    def run(self, payloads: Sequence[dict],
            on_outcome: Callable[[TaskOutcome], bool | None] | None = None,
            ) -> list[TaskOutcome]:
        """Execute every payload; outcomes are returned in payload order.

        ``on_outcome`` sees each payload's outcome exactly once, even
        when a failed spawn sends the rest of the run in-process.
        """
        payloads = list(payloads)
        outcomes: dict[int, TaskOutcome] = {}
        if not self.inprocess:
            try:
                self._run_pool(payloads, on_outcome, outcomes)
            except (OSError, ValueError):
                # Process creation failed (fd limits, sandboxes): degrade
                # rather than die, and finish in-process only what has
                # no outcome yet.
                self.inprocess = True
        self._run_inprocess(payloads, on_outcome, outcomes)
        return [outcomes[i] for i in range(len(payloads))]

    def budget_of(self, payload: dict) -> float | None:
        timeout = payload.get("timeout", self.task_timeout)
        return timeout

    # -- retry backoff ----------------------------------------------------------

    def retry_delay(self, payload: dict, execution: int) -> float:
        """Backoff before respawning a job whose execution ``execution``
        died: capped exponential base plus deterministic full jitter.

        The jitter stream is seeded by ``(job id, execution)`` -- the
        same job retries after the same delay on every replay (chaos
        runs stay reproducible), while different jobs de-correlate so
        a mass worker death does not respawn everything at once.
        """
        base = self.retry_backoff * (2 ** max(execution - 1, 0))
        job_id = payload.get("key") or payload.get("name")
        rng = random.Random(f"{job_id}:{execution}")
        return min(base + rng.uniform(0.0, base), self.retry_backoff_cap)

    # -- in-process degradation -------------------------------------------------

    def _run_inprocess(self, payloads, on_outcome, outcomes) -> None:
        """Run, in order, every payload that has no entry in ``outcomes``."""
        stopped = False
        for index, payload in enumerate(payloads):
            if index in outcomes:
                continue
            if stopped:
                outcomes[index] = TaskOutcome(payload, index, "cancelled",
                                              executions=0)
                continue
            start = time.perf_counter()
            payload = dict(self._with_budget(payload))
            payload["_same_process"] = True
            try:
                result = self.task(payload)
                outcome = TaskOutcome(payload, index, "ok", result=result,
                                      seconds=time.perf_counter() - start)
            except Exception as exc:  # noqa: BLE001 - isolate the harness
                outcome = TaskOutcome(
                    payload, index, "error",
                    error=f"{type(exc).__name__}: {exc}",
                    seconds=time.perf_counter() - start)
            outcomes[index] = outcome
            if on_outcome is not None and on_outcome(outcome) is False:
                stopped = True

    def _with_budget(self, payload: dict) -> dict:
        if "timeout" not in payload and self.task_timeout is not None:
            payload = dict(payload)
            payload["timeout"] = self.task_timeout
        return payload

    # -- the subprocess scheduler -----------------------------------------------

    def _run_pool(self, payloads, on_outcome, outcomes) -> None:
        """Fill ``outcomes`` through worker subprocesses.

        A failed spawn (``OSError``/``ValueError``) kills and reaps the
        running workers and propagates, leaving in ``outcomes`` exactly
        the outcomes already delivered.
        """
        queue: deque[tuple[int, dict, int]] = deque(
            (i, self._with_budget(p), 1) for i, p in enumerate(payloads))
        #: Respawns waiting out their backoff: (ready_at, index,
        #: payload, execution), moved into ``queue`` when due.
        pending: list[tuple[float, int, dict, int]] = []
        running: dict[object, _Running] = {}
        stopped = False
        next_sample = (time.perf_counter() + WATCHDOG_INTERVAL_S
                       if self.max_rss_kb is not None else None)

        def deliver(outcome: TaskOutcome) -> None:
            nonlocal stopped
            outcomes[outcome.index] = outcome
            if on_outcome is not None and on_outcome(outcome) is False:
                stopped = True

        def spawn(index: int, payload: dict, execution: int) -> None:
            parent, child = self._ctx.Pipe(duplex=False)
            try:
                proc = self._ctx.Process(
                    target=_worker_main, args=(self.task, payload, child),
                    daemon=True)
                proc.start()
            except BaseException:
                parent.close()
                raise
            finally:
                child.close()
            now = time.perf_counter()
            budget = self.budget_of(payload)
            deadline = now + budget + self.kill_grace if budget is not None else None
            running[parent] = _Running(index, payload, execution, proc,
                                       parent, now, deadline)

        def watchdog(now: float) -> None:
            """SIGKILL every worker whose rss is past ``max_rss_kb``."""
            nonlocal next_sample
            if next_sample is None or now < next_sample:
                return
            next_sample = now + WATCHDOG_INTERVAL_S
            for conn, job in list(running.items()):
                rss = rss_kb(job.proc.pid) if job.proc.pid else None
                if rss is not None and rss > self.max_rss_kb:
                    # Preemptive kill: shed the ballooning worker before
                    # the kernel OOM killer picks a victim for us.  Not
                    # retried -- the same job would balloon again.
                    running.pop(conn)
                    job.proc.kill()
                    reap(job)
                    deliver(TaskOutcome(
                        job.payload, job.index, "oom",
                        error=f"worker rss {rss} kB exceeded the "
                              f"{self.max_rss_kb} kB cap (SIGKILLed)",
                        seconds=now - job.started,
                        executions=job.execution))

        def reap(job: _Running) -> None:
            job.proc.join(timeout=5.0)
            if job.proc.is_alive():  # pragma: no cover - stuck after send
                job.proc.kill()
                job.proc.join()
            try:
                job.conn.close()
            except Exception:
                pass

        while queue or pending or running:
            now = time.perf_counter()
            if pending:
                due = sorted(e for e in pending if e[0] <= now)
                if due:
                    pending[:] = [e for e in pending if e[0] > now]
                    for _ready_at, index, payload, execution in due:
                        queue.append((index, payload, execution))
            while queue and len(running) < self.workers and not stopped:
                index, payload, execution = queue.popleft()
                try:
                    spawn(index, payload, execution)
                except (OSError, ValueError):
                    # Out of fds or processes: stop every worker and
                    # let ``run`` finish in-process what has no outcome.
                    for job in running.values():
                        job.proc.kill()
                        reap(job)
                    raise
            if not running:
                if stopped:
                    break
                if pending and not queue:
                    # Every runnable job is waiting out its backoff.
                    earliest = min(e[0] for e in pending)
                    time.sleep(max(0.001,
                                   min(earliest - time.perf_counter(), 0.05)))
                continue

            now = time.perf_counter()
            deadlines = [j.deadline - now for j in running.values()
                         if j.deadline is not None]
            deadlines.extend(e[0] - now for e in pending)
            wait_for = max(0.001, min(deadlines)) if deadlines else 0.2
            if next_sample is not None:
                wait_for = max(0.001, min(wait_for, next_sample - now))
            ready = _mp_connection.wait(list(running), timeout=wait_for)
            now = time.perf_counter()
            watchdog(now)

            for conn in ready:
                if conn not in running:
                    continue  # the watchdog just killed it
                job = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None  # died without a result
                reap(job)
                elapsed = now - job.started
                if message is None:
                    exitcode = job.proc.exitcode
                    if job.execution <= self.max_retries:
                        delay = self.retry_delay(job.payload, job.execution)
                        pending.append((now + delay, job.index, job.payload,
                                        job.execution + 1))
                    else:
                        # Poison job: it killed its worker on every
                        # allowed execution.  Quarantine it -- the store
                        # keeps the row and resume skips it (even under
                        # --retry-errors), so one bad input cannot eat
                        # the fleet's respawn budget forever.
                        deliver(TaskOutcome(
                            job.payload, job.index, "quarantined",
                            error=f"worker died on all {job.execution} "
                                  f"executions (last exit code {exitcode}); "
                                  f"job quarantined",
                            seconds=elapsed, executions=job.execution))
                elif message[0] == "ok":
                    deliver(TaskOutcome(job.payload, job.index, "ok",
                                        result=message[1], seconds=elapsed,
                                        executions=job.execution))
                else:
                    _, summary, tb = message
                    deliver(TaskOutcome(job.payload, job.index, "error",
                                        error=summary + "\n" + tb,
                                        seconds=elapsed,
                                        executions=job.execution))

            for conn, job in list(running.items()):
                if job.deadline is not None and now > job.deadline:
                    running.pop(conn)
                    job.proc.kill()
                    reap(job)
                    deliver(TaskOutcome(job.payload, job.index, "timeout",
                                        error="hard deadline exceeded "
                                              "(worker SIGKILLed)",
                                        seconds=now - job.started,
                                        executions=job.execution))
            if stopped:
                break

        # An on_outcome veto cancels everything still in flight or queued.
        for conn, job in running.items():
            job.proc.kill()
            reap(job)
            outcomes[job.index] = TaskOutcome(
                job.payload, job.index, "cancelled",
                seconds=time.perf_counter() - job.started,
                executions=job.execution)
        for index, payload, execution in queue:
            outcomes.setdefault(index, TaskOutcome(payload, index,
                                                   "cancelled",
                                                   executions=0))
        for _ready_at, index, payload, execution in pending:
            outcomes.setdefault(index, TaskOutcome(payload, index,
                                                   "cancelled",
                                                   executions=execution - 1))
