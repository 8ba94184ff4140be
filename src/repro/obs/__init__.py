"""Observability layer: metrics registry, request tracing, Prometheus export.

``repro.obs`` is dependency-free (standard library only) and imported by
every layer of the serving stack:

- :mod:`repro.obs.metrics` — counters, gauges, and log-spaced-bucket
  latency histograms in a process-wide registry whose snapshots are
  JSON-serializable.
- :mod:`repro.obs.tracing` — request-scoped trace contexts with timed
  spans, plus the bounded slow-request ring and JSON-lines slow log.
- :mod:`repro.obs.plan` — request-scoped query plans (EXPLAIN): every
  layer attaches structured decision records to a ``PlanContext``.
- :mod:`repro.obs.export` — Prometheus text-format exposition of a
  registry snapshot and the tiny ``/metrics`` HTTP listener.

The instrument inventory (one module-level family per metric) lives in
:mod:`repro.obs.metrics` so that ``docs/OBSERVABILITY.md`` can be diffed
against it by the doc tests.
"""

from .metrics import REGISTRY, MetricsRegistry
from .plan import PlanContext, current_plan, decision, finish_plan, render_plan, start_plan
from .tracing import TraceContext, current_trace, span, start_trace

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "PlanContext",
    "current_plan",
    "decision",
    "finish_plan",
    "render_plan",
    "start_plan",
    "TraceContext",
    "current_trace",
    "span",
    "start_trace",
]
