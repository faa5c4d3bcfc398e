"""Nested, timed spans with a JSONL sink.

A span covers one phase of work (``analysis``, ``round``,
``difference``, ``emptiness``, ``solver-call``, ...); spans nest
through a stack kept by the tracer, so every record carries its parent
span id and the report tool can attribute self vs. cumulative time per
phase.  Records are emitted when a span *closes* (children therefore
precede their parents in the file); each is one JSON object per line::

    {"type": "span", "id": 3, "parent": 2, "name": "difference",
     "t0": 0.0123, "dur": 0.0456, "attrs": {"kind": "sdba-lazy"}}

``t0`` is seconds since the tracer's epoch; ``dur`` is the span's
duration.  Traces carry only spans; a run's counts live in its
record (:meth:`repro.core.refinement.TerminationResult.to_dict`).

The *current tracer* is a module-level slot read by instrumented code
via :func:`get_tracer`.  It defaults to :data:`NULL_TRACER`, whose
``span()`` returns one shared, immutable no-op span -- no allocation,
no clock read, no I/O -- so instrumentation is free when tracing is
off.  Hot paths that would pay even for attribute formatting guard on
``tracer.enabled``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import IO, Iterator


class _NullSpan:
    """The shared do-nothing span returned by the no-op tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-allocation no-op tracer (the default current tracer)."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Span:
    """One timed, attributed region; a context manager.

    Created by :meth:`Tracer.span`; the id/parent/start stamp happens
    at ``__enter__`` (when the span actually begins) and the record is
    emitted at ``__exit__``.
    """

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = -1
        self.parent: int | None = None
        self.t0 = 0.0

    def set(self, **attrs) -> None:
        """Attach or update attributes on the span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        return False


class Tracer:
    """Collects span records; optionally streams them to a file.

    Records are always kept in :attr:`records` (so ``--profile`` needs
    no file); with ``path`` given, each record is additionally written
    *and flushed* as it is produced, so a worker SIGKILLed mid-analysis
    still leaves every closed span on disk.  Spans that are open when
    the tracer closes (an exception unwound past them, or a cooperative
    shutdown mid-phase) are emitted with ``"truncated": true`` and the
    duration observed so far -- a trace is never silently missing the
    phase it died in.
    """

    enabled = True

    def __init__(self, path: str | None = None):
        self.path = path
        self.records: list[dict] = []
        self._epoch = time.perf_counter()
        self._stack: list[Span] = []
        self._next_id = 0
        self._file: IO[str] | None = (
            open(path, "w", encoding="utf-8") if path else None)

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _enter(self, span: Span) -> None:
        span.id = self._next_id
        self._next_id += 1
        span.parent = self._stack[-1].id if self._stack else None
        self._stack.append(span)
        span.t0 = time.perf_counter() - self._epoch

    def _exit(self, span: Span) -> None:
        end = time.perf_counter() - self._epoch
        # The stack discipline comes from with-statements; tolerate a
        # span closed out of order by unwinding down to it.
        while self._stack:
            if self._stack.pop() is span:
                break
        self._emit({"type": "span", "id": span.id, "parent": span.parent,
                    "name": span.name, "t0": round(span.t0, 9),
                    "dur": round(end - span.t0, 9), "attrs": span.attrs})

    # -- sink -----------------------------------------------------------------

    def _emit(self, record: dict) -> None:
        self.records.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record, default=str) + "\n")
            # Flush per record: a SIGKILLed worker loses at most the
            # record being written, never the whole trace.
            self._file.flush()

    def close(self) -> None:
        """Emit still-open spans as truncated, then close the file.

        Innermost spans are emitted first, preserving the usual
        children-before-parents file order.
        """
        now = time.perf_counter() - self._epoch
        while self._stack:
            span = self._stack.pop()
            self._emit({"type": "span", "id": span.id,
                        "parent": span.parent, "name": span.name,
                        "t0": round(span.t0, 9),
                        "dur": round(now - span.t0, 9),
                        "attrs": span.attrs, "truncated": True})
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


#: The current tracer, read by every instrumented call site.
_CURRENT: NullTracer | Tracer = NULL_TRACER


def get_tracer() -> NullTracer | Tracer:
    return _CURRENT


def set_tracer(tracer: NullTracer | Tracer) -> NullTracer | Tracer:
    """Install ``tracer`` as current; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    return previous


@contextmanager
def use_tracer(tracer: NullTracer | Tracer) -> Iterator[NullTracer | Tracer]:
    """Scope ``tracer`` as the current tracer."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
