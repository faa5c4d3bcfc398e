"""Fleet telemetry: the worker-pool event channel and live progress.

During a corpus run the :class:`~repro.runner.pool.WorkerPool` was a
black box -- workers emitted nothing until they finished or were
SIGKILLed.  This module gives the pool a lightweight event channel:

- **lifecycle events** (``spawned`` / ``started`` / ``finished`` /
  ``killed`` / ``retried``) emitted by the parent scheduler as jobs
  move through the pool -- ``started`` is the one event a worker
  reports itself (its first message on the result pipe), so the gap
  between ``spawned`` and ``started`` measures fork/exec latency,
- **heartbeats** sampled by the *parent* for every running job (pid,
  job id, elapsed, rss read cheaply from ``/proc/<pid>/statm`` where
  available).  Sampling in the parent is deliberate: a worker wedged
  in a C-level loop -- exactly the job an operator wants to see --
  cannot report on itself, while the parent always can.

Events are JSON-ready dicts written to a per-run ``events.jsonl``
(flushed per record, so a crashed run leaves a parseable file) and
fanned out to an in-process observer; :class:`FleetState` folds the
stream into running/done/error/timeout counts, throughput, ETA, and
the currently slowest jobs, and :class:`FleetMonitor` renders that as
the live progress display of ``python -m repro bench``.

The channel costs nothing when absent: the pool guards every emission
on ``telemetry is not None``, and heartbeat sampling piggybacks on the
scheduler's existing wakeups.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Callable, Iterator

#: The event taxonomy.  ``meta``/``plan`` frame the run; the rest track
#: one job execution each.  Schema (all fields optional but stable):
#: ``{"type": ..., "t": <seconds since channel open>, "job": <key>,
#:   "name": <program>, "config": <label>, "pid": ..., "execution": ...,
#:   "elapsed": ..., "rss_kb": ..., "status": ..., "reason": ...}``.
EVENT_TYPES = frozenset({
    "meta",       # channel opened: unix_time, parent pid
    "plan",       # the run's job matrix: total/skipped/to_run
    "spawned",    # parent forked a worker for the job
    "started",    # the worker reported it began executing
    "heartbeat",  # periodic: pid, elapsed, rss_kb of a running job
    "finished",   # terminal: the job produced an outcome (status=...)
    "killed",     # terminal: SIGKILLed (reason=deadline|cancelled|oom)
    "retried",    # the worker died; the job was requeued (delay=backoff)
})

#: Terminal event types -- exactly one per job execution that ends.
TERMINAL_TYPES = frozenset({"finished", "killed"})


def rss_kb(pid: int) -> int | None:
    """Resident set size of ``pid`` in kB via /proc; None off-Linux.

    Shared by the heartbeat sampler here and the worker pool's
    memory-pressure watchdog (``WorkerPool(max_rss_kb=...)``), which
    SIGKILLs workers past the cap before the kernel OOM killer picks a
    victim of its own choosing.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        return None


#: Backward-compatible alias (the sampler predates its public use).
_rss_kb = rss_kb


class Telemetry:
    """One run's event channel: JSONL sink plus observer fan-out.

    ``path`` (optional) receives one JSON object per line, flushed per
    record so a SIGKILLed run still leaves every event emitted so far.
    ``on_event`` (optional) observes each event dict as it is emitted
    -- the hook the live progress renderer uses.  All emission happens
    on the parent/scheduler thread; the channel is not thread-safe and
    does not need to be.
    """

    def __init__(self, path: str | None = None,
                 on_event: Callable[[dict], None] | None = None):
        self.path = path
        self.on_event = on_event
        self.events: list[dict] = []
        self._epoch = time.monotonic()
        self._file: IO[str] | None = None
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._file = open(path, "w", encoding="utf-8")
        self.emit("meta", unix_time=round(time.time(), 3), pid=os.getpid())

    def emit(self, type_: str, **fields) -> dict:
        """Emit one event; unknown types are rejected to keep the
        schema closed (readers branch on ``type``)."""
        if type_ not in EVENT_TYPES:
            raise ValueError(f"unknown telemetry event type {type_!r} "
                             f"(have {sorted(EVENT_TYPES)})")
        event = {"type": type_,
                 "t": round(time.monotonic() - self._epoch, 6)}
        event.update({k: v for k, v in fields.items() if v is not None})
        self.events.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event, default=str) + "\n")
            self._file.flush()
        if self.on_event is not None:
            self.on_event(event)
        return event

    def heartbeat_job(self, job: str | None, name: str | None,
                      pid: int | None, elapsed: float,
                      rss: int | None = None) -> dict:
        """Emit one heartbeat for a running job, sampling rss if cheap.

        ``rss`` lets a caller that already sampled (the pool's
        memory-pressure watchdog) pass the value through instead of
        reading ``/proc`` twice per beat.
        """
        if rss is None and pid is not None:
            rss = rss_kb(pid)
        return self.emit("heartbeat", job=job, name=name, pid=pid,
                         elapsed=round(elapsed, 3), rss_kb=rss)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_events(path: str) -> Iterator[dict]:
    """Yield the events of an ``events.jsonl``, skipping torn lines
    (:func:`repro.runner.store.read_rows`) and unknown event types."""
    from repro.runner.store import read_rows
    for event in read_rows(path):
        if event.get("type") in EVENT_TYPES:
            yield event


class FleetState:
    """The event stream folded into a live fleet picture.

    Feed events (in emission order) through :meth:`observe`; read off
    running/done/error/timeout counts, throughput, an ETA over the
    planned jobs, and the currently slowest running jobs.  Pure state
    -- rendering lives in :class:`FleetMonitor`, tests drive this
    directly with synthetic streams.
    """

    def __init__(self, total: int | None = None):
        self.total = total
        self.done = 0
        self.by_status: dict[str, int] = {}
        self.retries = 0
        #: job id -> {"name", "pid", "since" (event t), "elapsed", "rss_kb"}
        self.running: dict[str, dict] = {}
        self._started_at: float | None = None
        self._last_t = 0.0

    # -- folding --------------------------------------------------------------

    def observe(self, event: dict) -> None:
        etype = event.get("type")
        t = float(event.get("t", 0.0))
        self._last_t = max(self._last_t, t)
        job = event.get("job") or event.get("name") or "?"
        if etype == "plan":
            self.total = event.get("to_run", event.get("total"))
        elif etype == "spawned" or etype == "started":
            if self._started_at is None:
                self._started_at = t
            entry = self.running.setdefault(
                job, {"name": event.get("name", job), "since": t,
                      "pid": None, "elapsed": 0.0, "rss_kb": None})
            if event.get("pid") is not None:
                entry["pid"] = event["pid"]
        elif etype == "heartbeat":
            entry = self.running.get(job)
            if entry is not None:
                entry["elapsed"] = event.get("elapsed", t - entry["since"])
                if event.get("rss_kb") is not None:
                    entry["rss_kb"] = event["rss_kb"]
        elif etype == "retried":
            self.retries += 1
            self.running.pop(job, None)
        elif etype in TERMINAL_TYPES:
            self.running.pop(job, None)
            self.done += 1
            status = event.get("status")
            if status is None:
                # A kill without an explicit status folds by its reason:
                # deadline kills are timeouts, memory-pressure kills are
                # ``oom`` (the watchdog's preemptive SIGKILL must stay
                # distinguishable from deadline kills), the rest are
                # cancellations by the pool's ``on_outcome`` veto.
                reason = event.get("reason")
                status = ("timeout" if reason == "deadline"
                          else "oom" if reason == "oom"
                          else "cancelled")
            self.by_status[status] = self.by_status.get(status, 0) + 1

    # -- derived views ---------------------------------------------------------

    @property
    def errors(self) -> int:
        return self.by_status.get("error", 0)

    @property
    def timeouts(self) -> int:
        return self.by_status.get("timeout", 0)

    @property
    def ooms(self) -> int:
        return self.by_status.get("oom", 0)

    @property
    def quarantined(self) -> int:
        return self.by_status.get("quarantined", 0)

    def throughput(self) -> float:
        """Finished jobs per second since the first job started."""
        if self._started_at is None or self.done == 0:
            return 0.0
        span = max(self._last_t - self._started_at, 1e-9)
        return self.done / span

    def eta_seconds(self) -> float | None:
        """Seconds to drain the remaining planned jobs at current pace."""
        if self.total is None:
            return None
        rate = self.throughput()
        if rate <= 0.0:
            return None
        remaining = max(self.total - self.done, 0)
        return remaining / rate

    def slowest_running(self, k: int = 3) -> list[tuple[str, dict]]:
        """The ``k`` running jobs with the largest observed elapsed."""
        def age(item):
            entry = item[1]
            return max(entry.get("elapsed", 0.0),
                       self._last_t - entry.get("since", self._last_t))
        return sorted(self.running.items(), key=age, reverse=True)[:k]

    def tally(self) -> str:
        """The compact ``done/total`` + error/timeout summary fragment."""
        total = "?" if self.total is None else str(self.total)
        parts = [f"{self.done}/{total}"]
        if self.errors:
            parts.append(f"{self.errors} err")
        if self.timeouts:
            parts.append(f"{self.timeouts} t/o")
        if self.ooms:
            parts.append(f"{self.ooms} oom")
        if self.quarantined:
            parts.append(f"{self.quarantined} quar")
        rate = self.throughput()
        if rate > 0:
            parts.append(f"{rate:.1f} job/s")
        eta = self.eta_seconds()
        if eta is not None and self.done < (self.total or 0):
            parts.append(f"eta {eta:.0f}s")
        return ", ".join(parts)


class FleetMonitor:
    """Renders a :class:`FleetState` live during a pool run.

    Two output shapes, both suppressible:

    - per-row lines (one per finished job, via :meth:`row`) on
      ``row_stream`` -- the upgraded ``bench`` progress lines with the
      run's elapsed time and the running done/total tally,
    - periodic status lines (driven by heartbeats, rate-limited to one
      per ``status_interval`` seconds, via :meth:`observe`) on
      ``status_stream`` showing the currently slowest jobs and rss --
      the "what is the fleet doing *right now*" view.
    """

    def __init__(self, total: int | None = None,
                 row_stream: IO[str] | None = None,
                 status_stream: IO[str] | None = None,
                 status_interval: float = 5.0):
        self.state = FleetState(total=total)
        self.row_stream = row_stream
        self.status_stream = status_stream
        self.status_interval = status_interval
        self._t0 = time.monotonic()
        self._last_status = 0.0

    def observe(self, event: dict) -> None:
        """The telemetry ``on_event`` hook."""
        self.state.observe(event)
        if (self.status_stream is not None
                and event.get("type") == "heartbeat"):
            now = time.monotonic()
            if now - self._last_status >= self.status_interval:
                self._last_status = now
                line = self.status_line()
                if line:
                    print(line, file=self.status_stream, flush=True)

    def status_line(self) -> str:
        """One line: the slowest running jobs plus the fleet tally."""
        slow = self.state.slowest_running()
        if not slow:
            return ""
        jobs = []
        for _key, entry in slow:
            piece = f"{entry.get('name', '?')} {entry.get('elapsed', 0.0):.1f}s"
            if entry.get("rss_kb"):
                piece += f" rss={entry['rss_kb'] // 1024}MB"
            jobs.append(piece)
        return (f"  ~ running {len(self.state.running)}: "
                f"{', '.join(jobs)}  [{self.state.tally()}]")

    def row(self, row: dict) -> None:
        """Print one finished-job progress line (``bench`` per-row)."""
        if self.row_stream is None:
            return
        elapsed = time.monotonic() - self._t0
        print(f"  {row.get('program', '?'):<24} "
              f"[{row.get('config', '?')}] "
              f"{row.get('status', '?'):<14} "
              f"{float(row.get('seconds') or 0.0):7.2f}s  "
              f"[{self.state.tally()}] +{elapsed:.1f}s",
              file=self.row_stream, flush=True)
