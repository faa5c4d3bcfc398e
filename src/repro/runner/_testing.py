"""Fault-injection tasks for exercising the pool's failure paths.

The pool's interesting behavior is exactly what a real analysis task
makes hard to provoke on demand: workers that hang past the hard
deadline or die mid-job.  These module-level tasks are importable from
spawned workers (a requirement of the ``spawn`` start method) and
deterministic, so the harness's timeout/respawn semantics are testable
without a pathological program corpus.
"""

from __future__ import annotations

import os
import signal
import time


def echo_task(payload: dict) -> dict:
    """Return the payload's ``value`` (optionally after ``delay`` s).
    With ``pid_file`` set, the worker first writes its pid there."""
    if payload.get("pid_file"):
        with open(payload["pid_file"], "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
    delay = payload.get("delay", 0.0)
    if delay:
        time.sleep(delay)
    return {"program": payload.get("name", ""), "status": "ok",
            "value": payload.get("value"), "pid": os.getpid()}


def crash_task(payload: dict) -> dict:
    """Die by SIGKILL without sending a result (simulated worker death,
    e.g. the kernel OOM killer).  In-process (no own pid to kill
    safely), raises instead."""
    if payload.get("inprocess"):
        raise RuntimeError("simulated crash")
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # pragma: no cover - never reached
    return {}


def flaky_task(payload: dict) -> dict:
    """Crash on the first execution, succeed on the respawn.

    Uses a marker file (``payload['marker']``) because worker processes
    share no state -- the first worker creates it and dies, the
    respawned worker finds it and completes.
    """
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("attempt 1\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"program": payload.get("name", ""), "status": "ok",
            "recovered": True}
