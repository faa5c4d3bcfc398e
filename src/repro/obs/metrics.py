"""A registry of named counters, gauges, and histograms.

Instrumented modules increment metrics through the module-level
*current registry* (:func:`inc` / :func:`observe` / :func:`registry`);
:func:`repro.core.api.prove_termination` installs a fresh
:class:`MetricsRegistry` around the whole run (CFG build, engine and
verdict firewall) and stores its :meth:`~MetricsRegistry.snapshot` in
``AnalysisStats.metrics``, so every run's effort profile (entailment
calls, Fourier--Motzkin eliminations, simplex pivots, macro-states
expanded per complement class, antichain peak, cache hit ratio,
incidents, store traffic, ...) travels with its result.  It is the one
record of a run's counts: each refinement round keeps only the nonzero
:meth:`~MetricsRegistry.counts` deltas over that round.  The
simulation-based reduction layer adds ``simulation.pairs`` (candidate
pairs ``n·n`` per solve of an ``n``-state automaton), ``reduction.quotients`` /
``reduction.states_removed`` (subtrahend quotienting) and
``difference.antichain.sim_hits`` (antichain hits only the
simulation-coarsened order found, over the scans the antichain made).

Instruments are plain ``__slots__`` objects incremented in place --
cheap enough to stay always-on (the paper-faithful counters in
``RemovalStats`` already established the pattern); the metric *names*
are documented in DESIGN.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (with a high-watermark helper)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def max_of(self, value) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Streaming count/total/min/max of observed values."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Lazily creates instruments by name; snapshots to plain dicts."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def counts(self) -> dict[str, int]:
        """Every counter's current value (a cheap copy, for deltas)."""
        return {k: c.value for k, c in self._counters.items()}

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {"count": h.count, "total": h.total, "mean": h.mean,
                    "min": h.minimum if h.count else None,
                    "max": h.maximum if h.count else None}
                for k, h in sorted(self._histograms.items())},
        }


#: The current registry.  A process-global default catches increments
#: outside any analysis run; ``prove_termination`` scopes a fresh one
#: per run.
_CURRENT = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _CURRENT


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Install ``reg`` as current; returns the previous registry."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = reg
    return previous


@contextmanager
def use_registry(reg: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``reg`` as the current registry."""
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


def counter(name: str) -> Counter:
    return _CURRENT.counter(name)


def gauge(name: str) -> Gauge:
    return _CURRENT.gauge(name)


def histogram(name: str) -> Histogram:
    return _CURRENT.histogram(name)


def inc(name: str, n: int = 1) -> None:
    _CURRENT.counter(name).inc(n)


def observe(name: str, value) -> None:
    _CURRENT.histogram(name).observe(value)
