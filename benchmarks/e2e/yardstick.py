"""A fixed pure-Python loop that reads how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by up to 2x within seconds to minutes.  Raw job
times follow that drift; the ratio of a job's time to the time this
loop takes beside it, on the same core at the same moment, does not.

Every time the benchmark gates on is therefore *calibrated*: the time
the job would take on a host where one loop takes :data:`NOMINAL_S`.
If the loop takes ``y(t)`` at time ``t``, a job of raw time ``T``
calibrates to ``T * NOMINAL_S * mean(1 / y)``, the mean taken over
readings spread evenly across the job: one just before it, one every
:data:`INTERVAL_S` during it (:class:`Sampler`), and one just after.
The loop is the benchmark's own code and mixes what the checker does
most (rational arithmetic, frozensets, dict and tuple work), so no
change to the checker moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

#: One loop's time on the 2-vCPU VM (Python 3.11) the baselines were
#: taken on, in its quietest periods.  It only sets the scale.
NOMINAL_S = 350e-6
#: Loops per reading before and after a job; a reading is their median,
#: so one interruption does not move it.
REPS = 5
#: Seconds between two readings while a job runs.  A reading takes
#: about 0.35 ms, so sampling costs under 1% of the job's time, and it
#: is taken off the job's time.
INTERVAL_S = 0.05
#: The same while a worker sets up: most set-ups last a quarter second.
SETUP_INTERVAL_S = 0.02


def _loop() -> Fraction:
    table: dict = {}
    total = Fraction(0)
    for i in range(120):
        key = frozenset((i % 17, i % 5, i % 11))
        table[key] = table.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 13 + 1)
        table[tuple(sorted(key))] = len(table)
    return total


def reading(reps: int = REPS) -> float:
    """Median time of one loop over ``reps`` loops (s).

    The collector is off meanwhile, so the size of the checker's heap
    does not enter the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            _loop()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


class Sampler:
    """Times one loop every ``interval`` seconds from a ``SIGALRM``
    handler, which Python runs between the bytecodes of whatever the
    main thread is doing.  ``spent`` is the handler's own wall time,
    for the caller to take off the span it measured."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def calibrate(seconds: float, readings: list[float]) -> float:
    """``seconds``, during which the loop took ``readings``, scaled to a
    host where one loop takes :data:`NOMINAL_S`."""
    return seconds * NOMINAL_S * statistics.fmean(1 / y for y in readings)
