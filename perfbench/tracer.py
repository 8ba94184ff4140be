"""Out-of-process span recording for the benchmark's traced run.

The service under test carries no benchmark hooks.  Instead the
launcher (:mod:`launcher`) replaces selected functions of the program,
*where their caller looks them up*, with thin wrappers that record one
span per call.  Every span keeps its name, start and end
(``time.perf_counter_ns``, which on Linux reads the same monotonic
clock in every process), the thread it ran on, its parent span, its
wall time and its ``time.thread_time`` (CPU) cost.  Parents follow a
context variable, so they survive ``await`` points and the service's
context-copying executor hand-offs.

Spans stay in memory while the service runs and are written out once,
at shutdown (:meth:`Recorder.dump`).  :mod:`ledger` turns them into the
per-layer table.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time

_PARENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_parent", default=0
)

#: Fields of one recorded span, in tuple order (the dump's ``fields``).
FIELDS = ("id", "parent", "name", "thread", "start_ns", "end_ns",
          "cpu_ns", "ok", "extra")


class Recorder:
    """Collects spans from wrapped functions; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def wrap_sync(self, fn, name: str, extra=None):
        """Wrap a plain callable.  ``extra(args, kwargs, result)``
        returns a small JSON-able value stored with the span."""
        spans, ids = self.spans, self._ids
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(span_id)
            ok, result = False, None
            start, cpu = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                cpu = cpu_clock() - cpu
                end = clock()
                _PARENT.reset(token)
                info = extra(args, kwargs, result) \
                    if ok and extra is not None else None
                spans.append((span_id, parent, name, ident(), start, end,
                              cpu, ok, info))

        return wrapper

    def wrap_async(self, fn, name: str, extra=None):
        """Wrap a coroutine function.  CPU time is not recorded (-1):
        the thread runs other tasks while the coroutine awaits."""
        spans, ids = self.spans, self._ids
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(span_id)
            ok, result = False, None
            start = clock()
            try:
                result = await fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                _PARENT.reset(token)
                info = extra(args, kwargs, result) \
                    if ok and extra is not None else None
                spans.append((span_id, parent, name, ident(), start, end,
                              -1, ok, info))

        return wrapper

    def wrap_exit(self, fn, name: str):
        """Wrap a function returning a context manager so that only
        its ``__exit__`` (e.g. a group commit) is recorded as a span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedExit(fn(*args, **kwargs), recorder, name)

        return wrapper

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle,
                      separators=(",", ":"))


class _TimedExit:
    """Context-manager proxy timing only the inner ``__exit__``."""

    def __init__(self, inner, recorder: Recorder, name: str):
        self._inner = inner
        self._exit = recorder.wrap_sync(inner.__exit__, name)

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._exit(*exc_info)


def _request_op(args, kwargs, result):
    return result.op


def _line_bytes(args, kwargs, result):
    return len(args[1])


def _batch_shape(args, kwargs, result):
    # args: (batcher, engine, entries, k); each entry ends with its
    # perf_counter enqueue time (seconds).
    return [entry[-1] for entry in args[2]]


def _verdict_hit(args, kwargs, result):
    return result is not None


def _load_counts(args, kwargs, result):
    keep = kwargs.get("keep", args[1] if len(args) > 1 else None)
    return [result.nodes_seen, result.nodes_kept, keep is not None]


def _result_len(args, kwargs, result):
    return len(result)


#: What the traced run wraps: ``(module, attribute path, span name,
#: kind, extra)``.  The attribute path is looked up in ``module`` --
#: the module whose code *calls* the function -- so patching it
#: reroutes exactly the calls the service makes.  ``kind`` is
#: ``sync``, ``async`` or ``exit`` (time a context manager's exit).
TARGETS: tuple[tuple, ...] = (
    # serve.server: the front door and the analysis-thread hand-off.
    ("repro.serve.server", "JsonLinesFront._serve_line",
     "server.request", "async", _line_bytes),
    ("repro.serve.server", "IndependenceService._in_analysis_thread",
     "server.executor", "async", None),
    # serve.protocol: decode and encode of every line.
    ("repro.serve.server", "decode_request", "protocol.decode", "sync",
     _request_op),
    ("repro.serve.server", "ok_response", "protocol.encode", "sync",
     _result_len),
    ("repro.serve.server", "error_response", "protocol.encode", "sync",
     _result_len),
    # serve.batching: admission and the worker-thread flush body.
    ("repro.serve.batching", "MicroBatcher.submit", "batching.submit",
     "async", None),
    ("repro.serve.batching", "MicroBatcher._analyze_batch",
     "batching.flush", "sync", _batch_shape),
    # analysis.engine and the inference it drives.
    ("repro.analysis.engine", "AnalysisEngine.analyze_matrix",
     "engine.matrix", "sync", None),
    ("repro.analysis.engine", "AnalysisEngine.analyze_many",
     "engine.many", "sync", None),
    ("repro.analysis.engine", "AnalysisEngine.analyze_pair",
     "engine.pair", "sync", None),
    ("repro.analysis.engine", "AnalysisEngine.query_chains",
     "engine.chains", "sync", None),
    ("repro.analysis.engine", "AnalysisEngine.update_chains",
     "engine.chains", "sync", None),
    ("repro.analysis.engine", "Universe", "engine.universe", "sync",
     None),
    ("repro.analysis.infer_query", "QueryInference.infer_root",
     "analysis.infer", "sync", None),
    ("repro.analysis.infer_update", "UpdateInference.infer_root",
     "analysis.infer", "sync", None),
    ("repro.analysis.engine", "check_conflicts", "analysis.conflict",
     "sync", None),
    # storage: the SQLite verdict KV and document store.
    ("repro.storage.sqlite", "SqliteVerdictKV.get", "storage.verdict_get",
     "sync", _verdict_hit),
    ("repro.storage.sqlite", "SqliteVerdictKV.put", "storage.verdict_put",
     "sync", None),
    ("repro.storage.sqlite", "SqliteVerdictKV.deferred", "storage.commit",
     "exit", None),
    ("repro.storage.sqlite", "SqliteDocumentStore.save", "storage.save",
     "sync", None),
    ("repro.storage.sqlite", "SqliteDocumentStore.load", "storage.load",
     "sync", None),
    ("repro.storage.sqlite", "SqliteDocumentStore.describe",
     "storage.describe", "sync", None),
    ("repro.storage.sqlite", "SqliteDocumentStore.run_steps",
     "storage.run_steps", "sync", _result_len),
    ("repro.storage.sqlite", "SqliteDocumentStore.subtree_rows",
     "storage.subtree_rows", "sync", _result_len),
    ("repro.storage.sqlite", "materialize", "storage.materialize", "sync",
     None),
    # docstore: streaming loader, pushdown compiler, answer serializer.
    ("repro.serve.server", "load_xml", "docstore.load", "sync",
     _load_counts),
    ("repro.serve.server", "compile_query_explain", "docstore.compile",
     "sync", None),
    ("repro.serve.server", "serialize_answers", "docstore.serialize",
     "sync", _result_len),
    ("repro.serve.server", "serialize", "docstore.serialize_one", "sync",
     None),
    # analysis.project and xquery.
    ("repro.serve.server", "chain_keep_for_queries", "project.keep",
     "sync", None),
    ("repro.serve.server", "evaluate_query", "xquery.evaluate", "sync",
     None),
    # obs: registry instruments, plan decisions, request tracing.
    ("repro.obs.metrics", "Family.labels", "obs.labels", "sync", None),
    ("repro.obs.metrics", "Histogram.observe", "obs.observe", "sync",
     None),
    ("repro.obs.metrics", "Counter.inc", "obs.inc", "sync", None),
    ("repro.obs.metrics", "Gauge.set", "obs.set", "sync", None),
    ("repro.serve.server", "plan_decision", "obs.plan", "sync", None),
    ("repro.serve.batching", "plan_decision", "obs.plan", "sync", None),
    ("repro.serve.batching", "count_decision", "obs.plan", "sync", None),
    ("repro.analysis.engine", "plan_decision", "obs.plan", "sync", None),
    ("repro.serve.server", "start_trace", "obs.trace", "sync", None),
    ("repro.serve.server", "finish_trace", "obs.trace", "sync", None),
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(recorder: Recorder, targets=TARGETS) -> None:
    """Replace every target with its recording wrapper."""
    wrappers = {"sync": recorder.wrap_sync, "async": recorder.wrap_async,
                "exit": recorder.wrap_exit}
    for module_name, path, name, kind, extra in targets:
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if kind == "exit":
            wrapped = recorder.wrap_exit(original, name)
        else:
            wrapped = wrappers[kind](original, name, extra)
        setattr(owner, attribute, wrapped)
