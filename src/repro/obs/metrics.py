"""Dependency-free metrics: counters, gauges, log-spaced histograms.

Design constraints (ISSUE 8):

- **Cheap on the hot path.** A histogram observation is one ``bisect``
  over a fixed bucket-bound tuple plus integer increments; a counter is
  a single integer add.  Child handles are cached per label tuple, so
  steady-state instrumentation performs no allocation beyond the label
  lookup.
- **Serializable.**  ``MetricsRegistry.snapshot()`` returns a plain
  JSON-serializable dict (what the ``metrics`` wire op carries).
- **No dependencies.**  Rendering to Prometheus text format lives in
  :mod:`repro.obs.export`; this module knows nothing about wire formats.

All serving-stack instruments are declared at the bottom of this module
as module-level families registered on the process-default
:data:`REGISTRY`.
``docs/OBSERVABILITY.md`` carries a table of these families that the doc
tests diff against the registry, so new instruments must be documented.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "SIZE_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "histogram_quantile",
]

#: Log-spaced latency bucket upper bounds (seconds): 100 µs doubling up
#: to ~52 s, 20 finite buckets.  Chosen so one vocabulary covers a
#: sub-millisecond store lookup and a multi-second cold universe build.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = tuple(0.0001 * 2**i for i in range(20))

#: Log-spaced size bucket upper bounds (counts): 1 doubling to 1024.
SIZE_BOUNDS: tuple[float, ...] = tuple(float(2**i) for i in range(11))


class Counter:
    """A monotonically increasing integer, one per label tuple."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def data(self) -> dict:
        """Serializable state: ``{"value": n}``."""
        return {"value": self.value}


class Gauge:
    """A point-in-time number."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the gauge."""
        self.value += amount

    def data(self) -> dict:
        """Serializable state: ``{"value": x}``."""
        return {"value": self.value}


class Histogram:
    """Fixed-bound bucket histogram: one bisect + int increment per observe.

    ``counts`` holds per-bucket (non-cumulative) counts with one extra
    overflow slot for values above the last bound (the ``+Inf`` bucket);
    the Prometheus cumulative view is computed at export time.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample (``le`` semantics: bucket bound is inclusive)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def data(self) -> dict:
        """Serializable state: bounds, per-bucket counts, sum, count."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric with a fixed label schema and per-label children."""

    def __init__(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.bounds = tuple(bounds)
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def labels(self, **labelvalues: str) -> Counter | Gauge | Histogram:
        """The child for one label-value assignment (created on first use)."""
        try:
            values = tuple(labelvalues[name] for name in self.labelnames)
        except KeyError as missing:
            raise ValueError(f"{self.name}: missing label {missing}") from None
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(f"{self.name}: labels must be exactly {self.labelnames}")
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values, self._make_child())
        return child

    def _make_child(self) -> Counter | Gauge | Histogram:
        if self.kind == "histogram":
            return Histogram(self.bounds)
        return _KINDS[self.kind]()

    # Unlabelled conveniences: families with no labelnames behave like a
    # single instrument.
    def observe(self, value: float) -> None:
        """Observe on the unlabelled child (histogram families only)."""
        self.labels().observe(value)

    def inc(self, amount: float = 1) -> None:
        """Increment the unlabelled child (counter/gauge families)."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Set the unlabelled child (gauge families only)."""
        self.labels().set(value)

    def data(self) -> dict:
        """Serializable family state, children keyed by JSON label tuple."""
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "children": {
                json.dumps(list(values)): child.data()
                for values, child in sorted(self._children.items())
            },
        }


class MetricsRegistry:
    """A named collection of metric families with serializable snapshots."""

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    def _register(self, kind: str, name: str, help: str, labelnames, bounds) -> Family:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise ValueError(f"metric {name!r} re-registered with a different schema")
            return existing
        family = Family(kind, name, help, tuple(labelnames), tuple(bounds))
        self._families[name] = family
        return family

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Family:
        """Register (or fetch) a counter family."""
        return self._register("counter", name, help, labelnames, ())

    def gauge(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Family:
        """Register (or fetch) a gauge family."""
        return self._register("gauge", name, help, labelnames, ())

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    ) -> Family:
        """Register (or fetch) a histogram family with fixed bucket bounds."""
        return self._register("histogram", name, help, labelnames, bounds)

    def families(self) -> dict[str, Family]:
        """Registered families by name (live objects, do not mutate)."""
        return dict(self._families)

    def snapshot(self) -> dict:
        """A JSON-serializable snapshot: ``{"families": {name: ...}}``."""
        return {"families": {name: f.data() for name, f in sorted(self._families.items())}}


def histogram_quantile(child: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) from a histogram child snapshot.

    Linear interpolation inside the bucket that contains the target
    rank, Prometheus ``histogram_quantile`` style.  Samples in the
    overflow (``+Inf``) bucket clamp to the last finite bound (0.0 when
    the histogram has no finite bounds at all).  ``q`` outside [0, 1]
    clamps to the range; an empty histogram returns 0.0; ``q=0.0``
    returns the lower edge of the first occupied bucket.
    """
    total = child["count"]
    if total <= 0:
        return 0.0
    q = min(max(q, 0.0), 1.0)
    rank = q * total
    bounds = child["bounds"]
    seen = 0.0
    for i, n in enumerate(child["counts"]):
        if n == 0:
            continue
        lower = bounds[i - 1] if 0 < i <= len(bounds) else 0.0
        if i >= len(bounds):  # overflow bucket: clamp, no upper bound
            return float(bounds[-1]) if bounds else 0.0
        if seen + n >= rank:
            upper = bounds[i]
            fraction = (rank - seen) / n
            return lower + fraction * (upper - lower)
        seen += n
    return float(bounds[-1]) if bounds else 0.0


#: Process-default registry.
REGISTRY = MetricsRegistry()

# --- Serving-stack instrument inventory (documented in
# --- docs/OBSERVABILITY.md; the doc test diffs that table against this
# --- registry, so additions here must be documented there).

REQUEST_SECONDS = REGISTRY.histogram(
    "repro_request_seconds",
    "Wire request latency by op.",
    ("op",),
)
REQUEST_ERRORS = REGISTRY.counter(
    "repro_request_errors_total",
    "Error responses by op and error code.",
    ("op", "code"),
)
CONNECTIONS = REGISTRY.counter(
    "repro_connections_total",
    "Accepted wire connections.",
)
SLOW_REQUESTS = REGISTRY.counter(
    "repro_slow_requests_total",
    "Requests slower than the --slow-ms threshold.",
    ("op",),
)
BATCH_QUEUE_WAIT = REGISTRY.histogram(
    "repro_batch_queue_wait_seconds",
    "Time a request waits for the analysis worker to take its group.",
)
BATCH_FLUSH_SECONDS = REGISTRY.histogram(
    "repro_batch_flush_seconds",
    "Wall time of one admission-batch flush (analysis plus store commit).",
)
BATCH_SIZE = REGISTRY.histogram(
    "repro_batch_size_requests",
    "Coalesced requests per admission-batch flush.",
    bounds=SIZE_BOUNDS,
)
ENGINE_UNIVERSE_SECONDS = REGISTRY.histogram(
    "repro_engine_universe_build_seconds",
    "Type-universe construction time per (schema, k) state.",
)
ENGINE_INFERENCE_SECONDS = REGISTRY.histogram(
    "repro_engine_inference_seconds",
    "Chain-inference time per uncached expression, by expression kind.",
    ("kind",),
)
ENGINE_STORE_SECONDS = REGISTRY.histogram(
    "repro_engine_store_lookup_seconds",
    "Persistent verdict-store lookup time in analyze_pair, by outcome.",
    ("outcome",),
)
STORE_OP_SECONDS = REGISTRY.histogram(
    "repro_store_op_seconds",
    "Document-store operation latency (save, load, run_steps).",
    ("op",),
)
DOC_QUERY_SECONDS = REGISTRY.histogram(
    "repro_doc_query_seconds",
    "doc.query evaluation latency by execution mode (materialized, pushdown, fallback).",
    ("mode",),
)
DOCUMENTS_LOADED = REGISTRY.gauge(
    "repro_documents_loaded",
    "Documents currently resident in the in-process document cache.",
)
PLAN_DECISIONS_TOTAL = REGISTRY.counter(
    "repro_plan_decisions_total",
    "Plan decisions by layer; the closed vocabulary lives in repro.obs.plan.",
    ("layer", "decision"),
)
