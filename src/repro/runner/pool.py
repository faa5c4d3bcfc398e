"""A multiprocess worker pool with *hard* per-task deadlines.

The cooperative ``AnalysisConfig.timeout`` is honored inside the
refinement loop, but a pathological task can still wedge a worker (a
single enormous SCC sweep, a pathological solver call, a bug).  The
evaluation harness therefore runs every job in its own subprocess and
enforces the budget from outside:

- **hard deadline**: a worker that overruns its ``timeout``, the
  firewall's screening allowance for that timeout and ``kill_grace``
  is SIGKILLed and the job recorded as ``timeout`` -- a verdict reached
  at the budget still gets screened and returned first,
- **no orphans**: a worker exits as soon as the pool's process is
  gone, so a SIGKILLed harness leaves no job running behind it,
- **crash isolation**: a worker death (segfault, kernel OOM kill,
  interpreter abort) never takes the harness down; the job is
  respawned once, immediately, and a second death is recorded as an
  ``error`` naming the worker's exit code,
- **task exceptions** travel back with their traceback and become
  ``error`` rows immediately (they are deterministic -- retrying is
  waste),
- **graceful degradation**: when ``multiprocessing`` is unusable (no
  start methods, sandboxed platform, ``REPRO_RUNNER_INPROCESS=1``)
  the pool runs tasks in-process -- cooperative timeouts still apply,
  hard kills and crash isolation do not.  A spawn that fails mid-run
  (fd limits) degrades the same way for the payloads still without an
  outcome.

Memory is bounded inside the engine (its state and constraint caps),
not by the pool.  Workers communicate over a one-way pipe; results are
whatever the task returns (pickled by the pipe).  The pool is
deliberately generic -- ``task`` is any importable callable
``payload -> dict`` -- so the harness's own failure paths are testable
with the fault-injection tasks of :mod:`repro.runner._testing`.
"""

from __future__ import annotations

import os
import signal
import threading
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
from repro.core.firewall import allowance
from repro.core.refinement import Verdict
from repro.program.parser import ParseError, parse_program


@dataclass
class TaskOutcome:
    """What the pool observed for one payload."""

    payload: dict
    index: int
    #: ``ok`` (task returned), ``timeout`` (hard deadline SIGKILL) or
    #: ``error`` (task raised, or the worker died on both executions).
    status: str
    result: dict | None = None
    error: str | None = None
    #: Wall-clock seconds of the *last* execution.
    seconds: float = 0.0
    #: Executions performed: 2 when the first worker died.
    executions: int = 1


def job_fields(payload: dict, status: str, error: str | None = None) -> dict:
    """A store row's own fields beside the run's record: the job's
    identity from its payload and how the job ended."""
    return {"key": payload.get("key"), "name": payload.get("name"),
            "family": payload.get("family"),
            "expected": payload.get("expected"),
            "config_name": payload.get("config_name"),
            "status": status, "error": error}


def analysis_task(payload: dict) -> dict:
    """The worker entry point: analyze one program under one config.

    ``payload`` keys: ``source`` (program text), ``config`` (an
    :meth:`AnalysisConfig.to_dict` dict), ``timeout`` (cooperative
    budget in seconds, intersected with the config's own), plus
    the job's own fields (``key``/``name``/``family``/``expected``/
    ``config_name``).  Returns the run's record
    (:meth:`~repro.core.refinement.TerminationResult.to_dict`) plus
    :func:`job_fields`; a program that does not parse has no record,
    only an ``error`` row.

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
    ``row["metrics"]``.
    """
    name = payload.get("name", "<anonymous>")
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
        else:
            result = prove_termination(program, config,
                                       checkpoint=checkpoint,
                                       library=library)
    except ParseError as err:
        return job_fields(payload, "error", f"parse error: {err}")
    finally:
        if tracer is not None:
            tracer.close()

    status = result.verdict.value
    if result.verdict is Verdict.UNKNOWN and result.reason == "timeout":
        status = "timeout"
    return {**result.to_dict(), **job_fields(payload, status)}


def _maybe_fault_worker(config: AnalysisConfig, *, same_process: bool) -> None:
    """The ``worker`` fault site: deterministic harness-level failures.

    In a subprocess the injected crash is a real SIGKILL so the pool's
    worker-death respawn/record path is exercised end to end; in-process
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


def _worker_main(task: Callable[[dict], dict], payload: dict, conn,
                 parent: int) -> None:
    """Subprocess body: run the task, ship the result.  The worker
    exits as soon as the pool's process ``parent`` is gone: a daemon
    child is reaped only at its parent's normal exit, so a SIGKILLed
    harness would otherwise leave it running (and checkpointing)."""
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     daemon=True).start()
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


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


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
    ``timeout`` key overrides it.  The hard deadline of a job is
    :meth:`kill_after` its cooperative budget (no budget = no hard
    deadline).  ``on_outcome`` (passed to :meth:`run`) observes every
    outcome as it lands -- the corpus driver streams rows into the
    store this way.

    A job whose worker dies without a result is respawned once, at the
    front of the queue; if the second worker dies too, the job is an
    ``error`` outcome with ``executions == 2``.
    """

    def __init__(self, workers: int | None = None,
                 task: Callable[[dict], dict] = analysis_task,
                 task_timeout: float | None = None,
                 kill_grace: float = 1.0,
                 inprocess: bool | None = None):
        self.workers = max(1, workers if workers is not None
                           else min(os.cpu_count() or 1, 8))
        self.task = task
        self.task_timeout = task_timeout
        self.kill_grace = kill_grace
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
            on_outcome: Callable[[TaskOutcome], None] | None = None,
            ) -> list[TaskOutcome]:
        """Execute every payload; outcomes are returned in payload order.

        ``on_outcome`` sees each payload's outcome exactly once, even
        when a failed spawn sends the rest of the run in-process.
        """
        payloads = list(payloads)
        outcomes: dict[int, TaskOutcome] = {}

        def deliver(outcome: TaskOutcome) -> None:
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        if not self.inprocess:
            try:
                self._run_pool(payloads, deliver)
            except (OSError, ValueError):
                # Process creation failed (fd limits, sandboxes): degrade
                # rather than die, and finish in-process only what has
                # no outcome yet.
                self.inprocess = True
        for index, payload in enumerate(payloads):
            if index not in outcomes:
                deliver(self._run_inprocess(index, payload))
        return [outcomes[i] for i in range(len(payloads))]

    def kill_after(self, budget: float | None) -> float | None:
        """Seconds after spawn at which a job with ``budget`` is
        SIGKILLed: the budget, the firewall's screening allowance for it
        (:func:`repro.core.firewall.allowance`) and ``kill_grace``."""
        if budget is None:
            return None
        return budget + allowance(budget) + self.kill_grace

    # -- in-process degradation -------------------------------------------------

    def _run_inprocess(self, index: int, payload: dict) -> TaskOutcome:
        start = time.perf_counter()
        payload = dict(self._with_budget(payload))
        payload["_same_process"] = True
        try:
            result = self.task(payload)
        except Exception as exc:  # noqa: BLE001 - isolate the harness
            return TaskOutcome(payload, index, "error",
                               error=f"{type(exc).__name__}: {exc}",
                               seconds=time.perf_counter() - start)
        return TaskOutcome(payload, index, "ok", result=result,
                           seconds=time.perf_counter() - start)

    def _with_budget(self, payload: dict) -> dict:
        if "timeout" not in payload and self.task_timeout is not None:
            payload = dict(payload)
            payload["timeout"] = self.task_timeout
        return payload

    # -- the subprocess scheduler -----------------------------------------------

    def _run_pool(self, payloads, deliver) -> None:
        """Deliver one outcome per payload through worker subprocesses.

        A failed spawn (``OSError``/``ValueError``) kills and reaps the
        running workers and propagates, having delivered exactly the
        outcomes of the jobs that finished.
        """
        queue: deque[tuple[int, dict, int]] = deque(
            (i, self._with_budget(p), 1) for i, p in enumerate(payloads))
        running: dict[object, _Running] = {}

        def spawn(index: int, payload: dict, execution: int) -> None:
            parent, child = self._ctx.Pipe(duplex=False)
            try:
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(self.task, payload, child, os.getpid()),
                    daemon=True)
                proc.start()
            except BaseException:
                parent.close()
                raise
            finally:
                child.close()
            now = time.perf_counter()
            kill_after = self.kill_after(payload.get("timeout"))
            deadline = now + kill_after if kill_after is not None else None
            running[parent] = _Running(index, payload, execution, proc,
                                       parent, now, deadline)

        def reap(job: _Running) -> None:
            job.proc.join(timeout=5.0)
            if job.proc.is_alive():  # pragma: no cover - stuck after send
                job.proc.kill()
                job.proc.join()
            try:
                job.conn.close()
            except Exception:
                pass

        while queue or running:
            while queue and len(running) < self.workers:
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

            now = time.perf_counter()
            deadlines = [j.deadline - now for j in running.values()
                         if j.deadline is not None]
            wait_for = max(0.001, min(deadlines)) if deadlines else None
            ready = _mp_connection.wait(list(running), timeout=wait_for)
            now = time.perf_counter()

            for conn in ready:
                job = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None  # died without a result
                reap(job)
                elapsed = now - job.started
                if message is None and job.execution == 1:
                    queue.appendleft((job.index, job.payload, 2))
                elif message is None:
                    deliver(TaskOutcome(
                        job.payload, job.index, "error",
                        error=f"worker died on both executions "
                              f"(last exit code {job.proc.exitcode})",
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
