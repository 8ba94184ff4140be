"""Request-scoped trace contexts, the slow-request ring, and the slow log.

Every wire request gets a :class:`TraceContext` (trace id plus timed
spans) installed in a :class:`contextvars.ContextVar` for the duration
of its dispatch, so any layer on the request path can attach spans
without plumbing a handle through every signature.  Span durations come
from ``time.perf_counter()`` only (see ``tests/test_timing_discipline``).

Span-name vocabulary (documented in ``docs/OBSERVABILITY.md``, diffed by
the doc tests):

- ``queue_wait`` — time between submit and the analysis worker taking
  the request's group in the admission batcher.
- ``engine`` — analysis/evaluation work on the analysis thread (for a
  coalesced batch this is the shared flush's engine time).
- ``store`` — verdict/document-store work: group commit for ``analyze``,
  save/load/run_steps for the document ops.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from datetime import datetime, timezone

__all__ = [
    "SPAN_NAMES",
    "TraceContext",
    "SlowRequestLog",
    "start_trace",
    "finish_trace",
    "current_trace",
    "span",
]

#: The closed span-name vocabulary used by the serving stack.
SPAN_NAMES: tuple[str, ...] = ("queue_wait", "engine", "store")

_CURRENT: ContextVar["TraceContext | None"] = ContextVar("repro_trace", default=None)


class TraceContext:
    """One request's trace: an id plus ``(name, seconds)`` spans.

    Spans are appended by whichever layer measured them (always on the
    event loop, so no locking is needed) and rendered into the opt-in
    ``timing`` response field by :meth:`report`.
    """

    __slots__ = ("trace_id", "started", "spans", "_token")

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.started = time.perf_counter()
        self.spans: list[tuple[str, float]] = []
        self._token = None

    def add_span(self, name: str, seconds: float) -> None:
        """Record one timed span."""
        self.spans.append((name, seconds))

    @contextmanager
    def span(self, name: str):
        """Context manager timing its body into a span named ``name``."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add_span(name, time.perf_counter() - t0)

    def report(self) -> dict:
        """The wire-format ``timing`` breakdown for this trace."""
        spans = [{"name": name, "ms": round(seconds * 1000.0, 3)} for name, seconds in self.spans]
        return {
            "trace": self.trace_id,
            "total_ms": round((time.perf_counter() - self.started) * 1000.0, 3),
            "spans": spans,
        }


def start_trace(trace_id: str | None = None) -> TraceContext:
    """Create a trace and install it as the current one; returns it."""
    trace = TraceContext(trace_id)
    trace._token = _CURRENT.set(trace)
    return trace


def finish_trace(trace: TraceContext) -> None:
    """Uninstall ``trace`` (tolerates a trace installed elsewhere)."""
    token = getattr(trace, "_token", None)
    if token is not None:
        try:
            _CURRENT.reset(token)
        except ValueError:  # reset from a different context: just clear
            _CURRENT.set(None)


def current_trace() -> TraceContext | None:
    """The trace installed for the current request, if any."""
    return _CURRENT.get()


@contextmanager
def span(name: str):
    """Time the body into a span on the current trace (no-op without one)."""
    trace = _CURRENT.get()
    if trace is None:
        yield None
        return
    with trace.span(name):
        yield trace


class SlowRequestLog:
    """Bounded ring of slow requests plus an optional JSON-lines file.

    A request whose wall time meets ``threshold_ms`` is recorded as a
    structured entry ``{"ts", "trace", "op", "total_ms", "spans", "ok"}``
    in an in-memory ring (``capacity`` most recent) and, when a path was
    configured, appended as one JSON line to the slow log file.
    """

    def __init__(self, threshold_ms: float = 0.0, path: str = "", capacity: int = 128) -> None:
        self.threshold_ms = threshold_ms
        self.path = path
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._file = None

    @property
    def enabled(self) -> bool:
        """True when a positive threshold was configured."""
        return self.threshold_ms > 0.0

    def record(
        self, op: str, trace: TraceContext, total_ms: float, ok: bool, plan: dict | None = None
    ) -> dict | None:
        """Record one request if it crossed the threshold; returns the entry.

        ``plan`` is the request's rendered plan report (see
        :mod:`repro.obs.plan`), attached when the server captured one so
        slow requests arrive with their EXPLAIN output in hand.
        """
        if not self.enabled or total_ms < self.threshold_ms:
            return None
        entry = {
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "trace": trace.trace_id,
            "op": op,
            "total_ms": round(total_ms, 3),
            "spans": {name: round(seconds * 1000.0, 3) for name, seconds in trace.spans},
            "ok": ok,
        }
        if plan is not None:
            entry["plan"] = plan
        self._ring.append(entry)
        if self.path:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(json.dumps(entry, sort_keys=True) + "\n")
            self._file.flush()
        return entry

    def entries(self) -> list[dict]:
        """The ring contents, oldest first."""
        return list(self._ring)

    def close(self) -> None:
        """Close the slow-log file handle, if one was opened."""
        if self._file is not None:
            self._file.close()
            self._file = None
