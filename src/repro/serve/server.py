"""The independence service: an asyncio JSON-lines-over-TCP server.

Architecture of one service instance, top to bottom::

    connections (asyncio streams, one task per connection,
                 concurrent per-request dispatch, responses tagged by id)
      -> MicroBatcher admission queue        (analyze)
      -> SchemaRegistry (LRU of per-schema AnalysisEngines)
      -> storage backend (verdict KV: write-through, group commit;
         memory / SQLite / PostgreSQL, picked by the store URL)

plus direct endpoints over the same engines for ``matrix``,
``schedule`` (:class:`~repro.viewmaint.scheduler.IsolationScheduler`
waves), and materialized-view maintenance
(:class:`~repro.viewmaint.cache.ViewCache`) over documents loaded per
connection-independent doc ids.  All engine work runs on the batcher's
single analysis worker thread; the event loop only parses, dispatches,
and writes.

``analysis_mode`` selects how ``analyze`` requests are served:

* ``"batched"`` (default) -- through the micro-batching admission
  queue: requests that arrive while the analysis worker is busy
  coalesce into one deduplicated flush, taken the moment the worker is
  free (no timer), with group-committed store writes;
* ``"engine"`` -- batching disabled, but each request still served by
  the shared per-schema engine (per-request executor hand-off and
  per-verdict commit);
* ``"oneshot"`` -- batching and the engine layer disabled: every
  request pays the full one-shot :func:`repro.analysis.analyze` cost
  (universe + inference tables rebuilt per call).  This is the naive
  stateless request handler the benchmark gate compares against.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..analysis.engine import schema_digest
from ..analysis.independence import analyze as oneshot_analyze
from ..analysis.project import chain_keep_for_queries
from ..docstore.adapter import to_indexed
from ..docstore.pushdown import (
    compile_query_explain,
    serialize_answers,
    step_label,
)
from ..docstore.streamload import load_path, load_xml
from ..viewmaint.cache import ViewCache
from ..viewmaint.scheduler import IsolationScheduler
from ..xmldm.generator import generate_document
from ..xmldm.projection import keep_set_for_chains, project
from ..xmldm.serialize import serialize
from ..obs import metrics as obs_metrics
from ..obs.export import render, serve_metrics_http
from ..obs.metrics import REGISTRY
from ..obs.plan import (
    current_plan,
    finish_plan,
    start_plan,
)
from ..obs.plan import decision as plan_decision
from ..obs.tracing import (
    SlowRequestLog,
    finish_trace,
    span,
    start_trace,
)
from ..xquery.ast import ROOT_VAR
from ..xquery.evaluator import evaluate_query
from ..xquery.parser import parse_query
from .batching import MicroBatcher, wire_verdict
from .protocol import (
    BAD_PARAMS,
    INTERNAL,
    MAX_LINE_BYTES,
    OPS,
    UNKNOWN_DOC,
    UNKNOWN_OP,
    UNKNOWN_SCHEMA,
    UNKNOWN_VIEW,
    ProtocolError,
    Request,
    decode_request,
    error_response,
    ok_response,
    require,
)
from ..storage import open_store, parse_store_url
from .registry import SchemaRegistry, UnknownSchemaError

ANALYSIS_MODES = ("batched", "engine", "oneshot")


@dataclass
class ServeConfig:
    """Knobs of one service instance (CLI flags map 1:1).

    ``store_path`` is a **store URL** (``memory://``,
    ``sqlite:///path.db``, ``postgresql://host/db`` -- see
    :mod:`repro.storage` and ``docs/STORAGE.md``).  ``memory://`` (the
    default) keeps verdicts in a private in-memory SQLite database and
    runs without a document store.  A file or server URL persists
    verdicts *and* documents in one backend: loaded documents are
    saved as node tables and served from the table after a restart
    instead of being re-parsed.  Anything that is not a store URL (a
    plain path, ``":memory:"``) or is ``sqlite:///:memory:`` is a
    :class:`ValueError` at construction.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    store_path: str = "memory://"
    max_batch: int = 512
    analysis_mode: str = "batched"
    max_schemas: int = 256
    max_documents: int = 64
    pair_cache_size: int | None = None
    preload: tuple[str, ...] = ()
    #: Requests at least this many milliseconds of wall time are
    #: recorded in the in-memory slow-request ring (surfaced by the
    #: ``metrics`` op) and, with ``slow_log_path``, appended as JSON
    #: lines to the slow log.  0 disables slow-request capture.
    slow_ms: float = 0.0
    slow_log_path: str = ""
    #: Extra HTTP listener answering ``GET /metrics`` with Prometheus
    #: text exposition (0 disables).
    metrics_port: int = 0

    def __post_init__(self) -> None:
        if self.analysis_mode not in ANALYSIS_MODES:
            raise ValueError(
                f"analysis_mode must be one of {ANALYSIS_MODES}"
            )
        parse_store_url(self.store_path)


@dataclass
class _ServiceStats:
    """Front-door counters of one service."""

    started: float = field(default_factory=time.perf_counter)
    connections: int = 0
    requests: int = 0
    errors: int = 0
    ops: dict[str, int] = field(default_factory=dict)


class JsonLinesFront:
    """The TCP front: line framing, concurrent dispatch, errors.

    This base owns everything protocol-shaped -- accepting connections,
    reading one JSON request per line, dispatching requests
    concurrently (responses may be answered out of order; clients match
    on ``id``), mapping exceptions to error responses, and orderly
    shutdown -- while :class:`IndependenceService` implements
    ``_dispatch``.
    """

    def __init__(self, host: str, port: int, *, slow_ms: float = 0.0,
                 slow_log_path: str = "", metrics_port: int = 0):
        self._host = host
        self._port = port
        self.stats = _ServiceStats()
        self.slow = SlowRequestLog(slow_ms, slow_log_path)
        self._metrics_port = metrics_port
        self._metrics_server: asyncio.Server | None = None
        self._server: asyncio.Server | None = None
        self._stopping = asyncio.Event()
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_LINE_BYTES,
        )
        if self._metrics_port:
            self._metrics_server = await serve_metrics_http(
                self._host, self._metrics_port,
                lambda: render(REGISTRY.snapshot()),
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def metrics_port(self) -> int:
        """The bound ``/metrics`` HTTP port (0 when not enabled)."""
        if self._metrics_server is None:
            return 0
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        """The bound TCP port (valid once :meth:`start` returned)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Request shutdown (what the ``shutdown`` op calls)."""
        self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop`, then tear everything down."""
        assert self._server is not None, "service not started"
        async with self._server:
            await self._stopping.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Close the front door, live connections, then backend state."""
        self._stopping.set()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Connections idling in readline never observe _stopping on
        # their own; cancel them so shutdown is prompt and quiet.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self.slow.close()
        await self._close_backend()

    async def _close_backend(self) -> None:
        """Release subclass-owned resources (overridden)."""

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One task per client connection: frame lines, spawn dispatch."""
        self.stats.connections += 1
        obs_metrics.CONNECTIONS.inc()
        self._connections.add(asyncio.current_task())
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line: the stream cannot be resynced
                    # reliably, so answer and drop the connection.
                    async with write_lock:
                        writer.write(error_response(
                            None, BAD_PARAMS, "request line too long"))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Concurrent dispatch: requests on one connection may be
                # answered out of order (clients match on "id"), which
                # lets pipelined analyze calls coalesce in the batcher.
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        """Decode, dispatch, and answer one request line.

        Every request is timed into the per-op latency histogram
        (``op`` label clamped to the known op vocabulary so a hostile
        client cannot grow label cardinality) and runs under a
        :class:`~repro.obs.tracing.TraceContext` so downstream layers
        can attach spans.  ``timing: true`` requests get the span
        breakdown attached to the success response; ``explain: true``
        requests additionally run under a
        :class:`~repro.obs.plan.PlanContext` and get the decision plan
        attached; requests over the ``--slow-ms`` threshold land in the
        slow ring/log, with their plan when one was captured.
        """
        self.stats.requests += 1
        request_id = None
        op_label = "unknown"
        trace = None
        plan = None
        plan_report = None
        error_code = None
        started = time.perf_counter()
        try:
            request = decode_request(line)
            request_id = request.id
            if request.op in _KNOWN_OPS:
                op_label = request.op
            trace = start_trace(request.trace)
            # Slow-request capture wants a plan even when the client did
            # not ask for one, so plans piggyback on the slow threshold.
            if request.explain or self.slow.enabled:
                plan = start_plan()
            result = await self._dispatch(request)
            if request.timing or request.explain:
                result = dict(result)
                if request.timing:
                    result["timing"] = trace.report()
                if request.explain and plan is not None:
                    plan_report = plan.report()
                    result["plan"] = plan_report
            response = ok_response(request_id, result)
        except ProtocolError as error:
            self.stats.errors += 1
            error_code = error.code
            response = error_response(request_id, error.code, error.message)
        except UnknownSchemaError as error:
            self.stats.errors += 1
            error_code = UNKNOWN_SCHEMA
            response = error_response(
                request_id, UNKNOWN_SCHEMA,
                f"schema not registered: {error.args[0]!r}",
            )
        except Exception as error:  # noqa: BLE001 -- wire boundary
            self.stats.errors += 1
            error_code = INTERNAL
            response = error_response(
                request_id, INTERNAL, f"{type(error).__name__}: {error}"
            )
        finally:
            if trace is not None:
                finish_trace(trace)
            if plan is not None:
                finish_plan(plan)
        elapsed = time.perf_counter() - started
        obs_metrics.REQUEST_SECONDS.labels(op=op_label).observe(elapsed)
        if error_code is not None:
            obs_metrics.REQUEST_ERRORS.labels(
                op=op_label, code=error_code
            ).inc()
        if trace is not None and self.slow.enabled:
            if plan is not None and plan_report is None:
                plan_report = plan.report()
            if self.slow.record(op_label, trace, elapsed * 1000.0,
                                ok=error_code is None, plan=plan_report):
                obs_metrics.SLOW_REQUESTS.labels(op=op_label).inc()
        try:
            async with write_lock:
                writer.write(response)
                await writer.drain()
        except ConnectionError:
            pass

    async def _dispatch(self, request: Request) -> dict:
        """Serve one decoded request (implemented by the subclass)."""
        raise NotImplementedError


#: Known op names, for clamping the request histogram's ``op`` label.
_KNOWN_OPS = frozenset(OPS)


def _answer_in_memory(query, tree, limit):
    """Evaluate ``query`` on a materialized tree: ``(locs, answers)``
    with at most ``limit`` serialized answers (the ``materialized``
    and ``fallback`` doc.query paths)."""
    locs = evaluate_query(query, tree.store, {ROOT_VAR: [tree.root]})
    take = locs if limit is None else locs[:limit]
    return locs, [serialize(tree.store, loc) for loc in take]


class IndependenceService(JsonLinesFront):
    """One service instance: registry + store + batcher + TCP."""

    #: op name -> handler method name; the dispatch table is built from
    #: this mapping, and ``tests/docs/test_protocol_doc.py`` diffs its
    #: keys against :data:`repro.serve.protocol.OPS`.
    OP_HANDLERS = {
        "ping": "_op_ping",
        "schema.register": "_op_schema_register",
        "schema.evict": "_op_schema_evict",
        "schema.list": "_op_schema_list",
        "analyze": "_op_analyze",
        "matrix": "_op_matrix",
        "schedule": "_op_schedule",
        "doc.load": "_op_doc_load",
        "doc.query": "_op_doc_query",
        "doc.unload": "_op_doc_unload",
        "view.register": "_op_view_register",
        "view.result": "_op_view_result",
        "update.apply": "_op_update_apply",
        "stats": "_op_stats",
        "metrics": "_op_metrics",
        "shutdown": "_op_shutdown",
    }

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        super().__init__(
            self.config.host, self.config.port,
            slow_ms=self.config.slow_ms,
            slow_log_path=self.config.slow_log_path,
            metrics_port=self.config.metrics_port,
        )
        self._backend = open_store(self.config.store_path)
        self.store = self._backend.verdicts
        self.registry = SchemaRegistry(
            store=self.store,
            max_schemas=self.config.max_schemas,
            pair_cache_size=self.config.pair_cache_size,
        )
        self.batcher = MicroBatcher(
            self.registry,
            max_batch=self.config.max_batch,
            enabled=self.config.analysis_mode == "batched",
        )
        # LRU like the schema registry: loaded documents (tree + view
        # materializations) are the service's largest per-tenant state
        # and must not accumulate for its lifetime.
        self._documents: OrderedDict[str, ViewCache] = OrderedDict()
        #: Per-document load accounting (kept vs skipped-by-projection,
        #: provenance), mirrored into ``/stats``.
        self._doc_meta: dict[str, dict] = {}
        # Only a shared backend (file or server) persists documents;
        # memory:// is private to this process: no document store.
        self.docstore = self._backend.documents \
            if self._backend.shared else None
        self._next_doc = 0
        self.document_evictions = 0
        #: ``doc.query`` answer-path counters (mirrored into
        #: ``/stats``): ``pushed_down`` answered inside the store via
        #: SQL pushdown, ``fallback`` materialized transiently because
        #: the query fell outside the pushdown fragment,
        #: ``materialized`` answered from an already-loaded tree.
        self.doc_queries = {
            "pushed_down": 0, "fallback": 0, "materialized": 0,
        }
        self._ops = {
            op: getattr(self, method)
            for op, method in self.OP_HANDLERS.items()
        }
        for name in self.config.preload:
            self.registry.register_builtin(name)

    # -- lifecycle -----------------------------------------------------------

    async def _close_backend(self) -> None:
        """Drain the admission queue, stop the worker, close the stores."""
        await self.batcher.drain()
        self.batcher.close()
        self._backend.close()

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, request: Request) -> dict:
        handler = self._ops.get(request.op)
        if handler is None:
            raise ProtocolError(UNKNOWN_OP, f"unknown op {request.op!r}")
        self.stats.ops[request.op] = self.stats.ops.get(request.op, 0) + 1
        return await handler(request.params)

    async def _in_analysis_thread(self, fn, *args):
        """Run engine-touching work on the single analysis worker.

        The caller's context is copied into the worker (executors do
        not propagate contextvars on their own), so engine decisions
        recorded on the thread land on this request's plan.
        """
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            self.batcher._executor, ctx.run, fn, *args
        )

    # -- ops: basics ---------------------------------------------------------

    async def _op_ping(self, params: dict) -> dict:
        """Liveness probe; carries no state."""
        return {"pong": True}

    async def _op_stats(self, params: dict) -> dict:
        """Service counters: front door, registry, batcher, store."""
        # store.stats() scans the verdicts table; keep that off the
        # event loop so a monitoring poller can't stall live traffic.
        store_stats = await self._in_analysis_thread(self.store.stats)
        store_stats["path"] = self.config.store_path
        if self.docstore is not None:
            docstore_stats = await self._in_analysis_thread(
                self.docstore.stats
            )
            docstore_stats["path"] = self.config.store_path
            docstore_stats["enabled"] = True
        else:
            docstore_stats = {"enabled": False}
        return {
            "uptime_seconds": time.perf_counter() - self.stats.started,
            "analysis_mode": self.config.analysis_mode,
            "connections": self.stats.connections,
            "requests": self.stats.requests,
            "errors": self.stats.errors,
            "ops": dict(self.stats.ops),
            "documents": len(self._documents),
            "document_evictions": self.document_evictions,
            "doc_queries": dict(self.doc_queries),
            "documents_detail": {
                doc: dict(meta) for doc, meta in self._doc_meta.items()
            },
            "docstore": docstore_stats,
            "registry": self.registry.stats(),
            "batcher": self.batcher.stats(),
            "store": store_stats,
        }

    async def _op_metrics(self, params: dict) -> dict:
        """The observability surface of this process.

        Returns the Prometheus ``text`` exposition, the registry
        ``snapshot`` it was rendered from, and the ``slow`` request ring.
        """
        snapshot = REGISTRY.snapshot()
        return {
            "text": render(snapshot),
            "snapshot": snapshot,
            "slow": self.slow.entries(),
        }

    async def _op_shutdown(self, params: dict) -> dict:
        """Stop serving (the response is written before teardown)."""
        # Respond first; serve_until_stopped tears the service down.
        asyncio.get_running_loop().call_soon(self.stop)
        return {"stopping": True}

    # -- ops: schema registry ------------------------------------------------

    async def _op_schema_register(self, params: dict) -> dict:
        """Register a builtin or ``<!ELEMENT ...>`` schema; returns its
        digest (the canonical schema ref for later requests)."""
        name = params.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError(BAD_PARAMS, 'parameter "name" must be str')
        if "builtin" in params:
            digest = self.registry.register_builtin(
                require(params, "builtin")
            )
        else:
            try:
                digest = self.registry.register_text(
                    require(params, "root"),
                    require(params, "dtd"),
                    name=name,
                )
            except ProtocolError:
                raise
            except Exception as error:
                raise ProtocolError(
                    BAD_PARAMS, f"unparsable DTD: {error}"
                ) from error
        schema = self.registry.schema(digest)
        return {
            "schema": digest,
            "tags": len(schema.alphabet),
            "start": schema.start,
        }

    async def _op_schema_evict(self, params: dict) -> dict:
        """Drop a schema's warm engine (verdicts stay in the store)."""
        return {
            "evicted": self.registry.evict(require(params, "schema"))
        }

    async def _op_schema_list(self, params: dict) -> dict:
        """Describe every registered schema (digest, aliases, size)."""
        return {"schemas": self.registry.describe()}

    # -- ops: analysis -------------------------------------------------------

    @staticmethod
    def _optional_k(params: dict) -> int | None:
        """Validate the optional explicit ``k`` override."""
        k = params.get("k")
        if k is not None and not isinstance(k, int):
            raise ProtocolError(BAD_PARAMS, 'parameter "k" must be int')
        return k

    async def _op_analyze(self, params: dict) -> dict:
        """One independence verdict, via the admission queue."""
        schema_ref = require(params, "schema")
        query = require(params, "query")
        update = require(params, "update")
        k = self._optional_k(params)
        if self.config.analysis_mode == "oneshot":
            schema = self.registry.schema(schema_ref)
            plan_decision("batcher", "oneshot", schema=schema_ref)
            report = await self._in_analysis_thread(
                lambda: oneshot_analyze(query, update, schema, k=k,
                                        collect_witnesses=False)
            )
            verdict = wire_verdict(report)
        else:
            verdict = await self.batcher.submit(
                schema_ref, query, update, k=k
            )
        return verdict.as_dict()

    async def _op_matrix(self, params: dict) -> dict:
        """A full queries x updates verdict grid in one round trip."""
        engine = self.registry.engine(require(params, "schema"))
        queries = require(params, "queries", list)
        updates = require(params, "updates", list)
        k = self._optional_k(params)
        if not all(isinstance(q, str) for q in queries) or \
                not all(isinstance(u, str) for u in updates):
            raise ProtocolError(
                BAD_PARAMS, "queries/updates must be lists of strings"
            )

        def run():
            with self.store.deferred():
                return engine.analyze_matrix(queries, updates, k=k)

        matrix = await self._in_analysis_thread(run)
        return {
            "independent": [list(row) for row in matrix.verdict_rows()],
            "pairs": matrix.pairs,
            "independent_pairs": matrix.independent_pairs,
            "wall_seconds": matrix.wall_seconds,
        }

    async def _op_schedule(self, params: dict) -> dict:
        """Conflict-free execution waves for a mixed operation batch."""
        schema_ref = require(params, "schema")
        operations = require(params, "operations", list)
        schema = self.registry.schema(schema_ref)
        engine = self.registry.engine(schema_ref)
        scheduler = IsolationScheduler(schema, engine=engine)
        for index, operation in enumerate(operations):
            if not isinstance(operation, dict) or \
                    "name" not in operation or \
                    ("query" in operation) == ("update" in operation):
                raise ProtocolError(
                    BAD_PARAMS,
                    f"operation #{index} needs a name and exactly one "
                    'of "query"/"update"',
                )
            try:
                if "query" in operation:
                    scheduler.add_query(operation["name"],
                                        operation["query"])
                else:
                    scheduler.add_update(operation["name"],
                                         operation["update"])
            except Exception as error:
                raise ProtocolError(
                    BAD_PARAMS,
                    f"operation #{index} does not parse: {error}",
                ) from error
        waves = await self._in_analysis_thread(scheduler.schedule)
        return {"waves": waves}

    # -- ops: view maintenance -----------------------------------------------

    def _document(self, params: dict) -> ViewCache:
        """Resolve the ``doc`` param to a loaded document (LRU touch)."""
        doc_id = require(params, "doc")
        cache = self._documents.get(doc_id)
        if cache is None:
            raise ProtocolError(UNKNOWN_DOC,
                                f"document not loaded: {doc_id!r}")
        self._documents.move_to_end(doc_id)
        return cache

    @staticmethod
    def _validated_project_for(params: dict) -> list[str] | None:
        """The ``project_for`` parameter, shape-checked (every branch
        of ``doc.load`` consumes it, so every branch must reject a
        malformed value with ``bad-params``, not a stack trace)."""
        queries = params.get("project_for")
        if queries is None:
            return None
        if not isinstance(queries, list) or \
                not all(isinstance(q, str) for q in queries):
            raise ProtocolError(
                BAD_PARAMS, '"project_for" must be a list of query strings'
            )
        return queries

    def _projection_keep(self, engine, queries: list[str] | None):
        """The union :class:`ChainKeep` of the ``project_for`` queries.

        Returns None when no projection was requested *or* when some
        query's chain sets are too large to enumerate (the sound
        fallback is loading everything).  Runs chain inference, so it
        must be called on the analysis worker thread.
        """
        if queries is None:
            return None
        try:
            return chain_keep_for_queries(queries, engine=engine)
        except Exception as error:
            raise ProtocolError(
                BAD_PARAMS,
                f"project_for query does not parse: {error}",
            ) from error

    def _fresh_doc_name(self) -> str:
        """An anonymous doc name that cannot clobber an existing one.

        Skips names already loaded in this service or persisted in the
        document store (a client-supplied ``doc: "d1"`` must never be
        silently overwritten by a later anonymous load).
        """
        while True:
            self._next_doc += 1
            name = f"d{self._next_doc}"
            if name in self._documents:
                continue
            if self.docstore is not None and \
                    self.docstore.describe(name) is not None:
                continue
            return name

    async def _op_doc_load(self, params: dict) -> dict:
        """Load a document; returns its doc id and load accounting.

        Sources, in precedence order: inline ``xml`` text, a
        server-local file ``path`` (both streamed through the indexed
        bulk loader, with projection pushdown when ``project_for``
        names the queries that will run), the persisted node table
        (when ``doc`` names a previously persisted document and no
        source is given -- no re-parse), or schema-driven generation
        (``bytes``/``seed``).  With a document store configured, parsed
        and generated documents persist under their doc id.
        """
        schema_ref = require(params, "schema")
        schema = self.registry.schema(schema_ref)
        engine = self.registry.engine(schema_ref)
        name = params.get("doc")
        if name is not None and (not isinstance(name, str) or not name):
            raise ProtocolError(BAD_PARAMS,
                                'parameter "doc" must be a non-empty str')
        if name is None:
            name = await self._in_analysis_thread(self._fresh_doc_name)
        meta = {
            "projected": False,
            "from_store": False,
            "subtrees_skipped": 0,
        }
        provenance = "unprojected"
        depth_cap = None
        # project_for named queries, but their chain sets were too
        # large to enumerate, so the load keeps every node.
        chain_limit = False
        requested = self._validated_project_for(params)
        if "xml" in params or "path" in params:
            keep = await self._in_analysis_thread(
                self._projection_keep, engine, requested
            )
            meta["projected"] = keep is not None
            provenance = "projected" if keep is not None else "unprojected"
            depth_cap = keep.truncation if keep is not None else None
            chain_limit = bool(requested) and keep is None
            if "xml" in params:
                xml = require(params, "xml")
                loader = lambda: load_xml(xml, keep=keep)  # noqa: E731
            else:
                path = require(params, "path")
                loader = lambda: load_path(path, keep=keep)  # noqa: E731

            def run():
                # Off the event loop: documents may be megabytes.
                try:
                    return loader()
                except OSError as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"unreadable document: {error}"
                    ) from error
                except Exception as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"unparsable document: {error}"
                    ) from error

            result = await self._in_analysis_thread(run)
            tree = result.tree
            meta["nodes_seen"] = result.nodes_seen
            meta["subtrees_skipped"] = result.subtrees_skipped
            persist = True
        else:
            reload_request = params.get("doc") is not None and \
                "bytes" not in params and "seed" not in params
            if reload_request and self.docstore is None:
                # Naming a document with no source reads as "reload
                # the persisted copy"; without a document store that
                # would silently generate a random document under the
                # client's name.
                raise ProtocolError(
                    BAD_PARAMS,
                    f"doc {name!r} given without a source, but the "
                    "service has no document store (start it with a "
                    "file or server --store URL); pass xml/path or "
                    "explicit bytes/seed",
                )
            loaded = None
            # Only a reload request consults the store: explicit
            # bytes/seed is a generation request that must not be
            # shadowed by a stale persisted document, and anonymous
            # names were just invented (a lookup would only pollute
            # the miss counter).
            if reload_request and self.docstore is not None:
                # One load() call: a hit re-materializes the node
                # table with a range scan (no re-parse), a miss counts
                # in the docstore miss counter.
                loaded = await self._in_analysis_thread(
                    self.docstore.load, name
                )
            if loaded is None and reload_request:
                # A reload of a name the store does not hold is a
                # client error (likely a typo), not a license to
                # generate and persist a random document under it.
                raise ProtocolError(
                    BAD_PARAMS,
                    f"doc {name!r} is not persisted in the document "
                    "store; pass xml/path or explicit bytes/seed",
                )
            if loaded is not None:
                tree, stored = loaded
                if stored.schema_digest != schema_digest(schema):
                    raise ProtocolError(
                        BAD_PARAMS,
                        f"document {name!r} was persisted under a "
                        "different schema (digest "
                        f"{stored.schema_digest[:12]}...); pass the "
                        "matching schema or reload from a source",
                    )
                # A persisted *projection* only answers the queries it
                # was projected for (Theorem 3.2); a reload asking for
                # queries outside the recorded set must not silently
                # get the narrower tree.
                recorded = stored.meta.get("project_for")
                if stored.meta.get("projected") and \
                        requested is not None and recorded is not None \
                        and not set(requested) <= set(recorded):
                    raise ProtocolError(
                        BAD_PARAMS,
                        f"persisted document {name!r} is projected for "
                        f"{sorted(recorded)}, which does not cover "
                        "project_for; reload it from a source",
                    )
                meta.update(
                    from_store=True,
                    projected=stored.meta.get("projected", False),
                    nodes_seen=stored.nodes_seen,
                    subtrees_skipped=stored.subtrees_skipped,
                )
                provenance = "from_store"
                persist = False
            else:
                target = params.get("bytes", 10_000)
                seed = params.get("seed", 0)
                if not isinstance(target, int) or \
                        not isinstance(seed, int):
                    raise ProtocolError(
                        BAD_PARAMS, '"bytes" and "seed" must be ints'
                    )
                keep = await self._in_analysis_thread(
                    self._projection_keep, engine, requested
                )
                meta["projected"] = keep is not None
                provenance = "generated"
                depth_cap = keep.truncation if keep is not None else None
                chain_limit = bool(requested) and keep is None

                def generate():
                    document = generate_document(schema, target,
                                                 seed=seed)
                    if keep is None:
                        return to_indexed(document), document.size()
                    # Generated documents project post-hoc (there is
                    # no parse stream to push the projection into).
                    projected = project(
                        document, keep_set_for_chains(document, keep)
                    )
                    return to_indexed(projected), document.size()

                tree, seen = await self._in_analysis_thread(generate)
                meta["nodes_seen"] = seen
                persist = True
        meta["nodes"] = tree.size()
        if persist and self.docstore is not None:
            with span("store"):
                await self._in_analysis_thread(
                    lambda: self.docstore.save(
                        name, tree, schema_digest(schema),
                        nodes_seen=meta["nodes_seen"],
                        subtrees_skipped=meta["subtrees_skipped"],
                        meta={
                            "projected": meta["projected"],
                            "project_for": requested
                            if meta["projected"] else None,
                        },
                    )
                )
        self._documents[name] = ViewCache(schema, tree, engine=engine)
        # Reloads must count as a fresh touch, or a just-reloaded doc
        # keeps its old LRU position and can be evicted immediately.
        self._documents.move_to_end(name)
        self._doc_meta[name] = meta
        while len(self._documents) > self.config.max_documents:
            evicted, _ = self._documents.popitem(last=False)
            self._doc_meta.pop(evicted, None)
            self.document_evictions += 1
        obs_metrics.DOCUMENTS_LOADED.set(len(self._documents))
        detail = {
            "doc": name,
            "nodes": meta["nodes"],
            "nodes_seen": meta["nodes_seen"],
            "subtrees_skipped": meta["subtrees_skipped"],
            "projected": meta["projected"],
        }
        if depth_cap is not None:
            detail["depth_cap"] = depth_cap
        if chain_limit:
            detail["reason"] = "chain_limit"
        plan_decision("docstore", provenance, **detail)
        return {"doc": name, **meta}

    async def _op_doc_query(self, params: dict) -> dict:
        """Answer a query over a loaded *or persisted* document.

        The answer path is picked per request and reported back as
        ``mode`` (and counted in the ``doc_queries`` stats section):

        * ``"materialized"`` -- the document is already loaded in this
          service; evaluate on the in-memory tree.
        * ``"pushdown"`` -- the document is only persisted and the
          query compiles into the supported step fragment
          (:func:`repro.docstore.pushdown.compile_query`); the document
          store answers it *inside the database* and answers serialize
          straight from node-row range scans -- the document is never
          materialized.
        * ``"fallback"`` -- persisted only, but the query falls outside
          the fragment; the tree is materialized transiently (not
          admitted to the document LRU) and evaluated in memory.

        A persisted *projection* only answers the queries it was
        projected for (Theorem 3.2): a query outside the recorded
        ``project_for`` set is refused with ``bad-params`` instead of
        being silently answered from the narrower node table.
        """
        schema_ref = require(params, "schema")
        schema = self.registry.schema(schema_ref)
        name = require(params, "doc")
        query_text = require(params, "query")
        limit = params.get("limit")
        if limit is not None and \
                (not isinstance(limit, int) or limit < 0):
            raise ProtocolError(
                BAD_PARAMS, '"limit" must be a non-negative int'
            )
        try:
            query = parse_query(query_text)
        except Exception as error:
            raise ProtocolError(
                BAD_PARAMS, f"query does not parse: {error}"
            ) from error
        cache = self._documents.get(name)
        if cache is not None:
            self._documents.move_to_end(name)
            t0 = time.perf_counter()
            with span("engine"):
                locs, answers = await self._in_analysis_thread(
                    _answer_in_memory, query, cache.tree, limit
                )
            obs_metrics.DOC_QUERY_SECONDS.labels(
                mode="materialized"
            ).observe(time.perf_counter() - t0)
            self.doc_queries["materialized"] += 1
            plan_decision("answer", "materialized",
                          doc=name, count=len(locs))
            return {"doc": name, "count": len(locs),
                    "answers": answers, "mode": "materialized",
                    "from_store": False}
        if self.docstore is None:
            raise ProtocolError(
                UNKNOWN_DOC,
                f"document not loaded: {name!r} (and the service "
                "has no document store to answer from)",
            )
        stored = await self._in_analysis_thread(
            self.docstore.describe, name
        )
        if stored is None:
            raise ProtocolError(
                UNKNOWN_DOC,
                f"document not loaded or persisted: {name!r}",
            )
        if stored.schema_digest != schema_digest(schema):
            raise ProtocolError(
                BAD_PARAMS,
                f"document {name!r} was persisted under a different "
                f"schema (digest {stored.schema_digest[:12]}...); "
                "pass the matching schema",
            )
        recorded = stored.meta.get("project_for")
        if stored.meta.get("projected") and recorded is not None \
                and query_text not in set(recorded):
            raise ProtocolError(
                BAD_PARAMS,
                f"persisted document {name!r} is projected for "
                f"{sorted(recorded)}, which does not cover this "
                "query; reload it from a source",
            )
        steps, why = compile_query_explain(query)
        if steps is not None:
            if current_plan() is not None:
                # explain_steps only *compiles* (no table access), so
                # it is safe off the analysis thread.
                explained = self.docstore.explain_steps(name, steps)
                plan_decision(
                    "pushdown", "compiled",
                    steps=[step_label(spec) for spec in steps],
                    **explained,
                )
            else:
                plan_decision("pushdown", "compiled")

            def run_pushdown():
                locs = self.docstore.run_steps(name, steps)
                return locs, serialize_answers(
                    self.docstore, name, locs, limit
                )

            t0 = time.perf_counter()
            with span("store"):
                locs, answers = await self._in_analysis_thread(
                    run_pushdown
                )
            obs_metrics.DOC_QUERY_SECONDS.labels(
                mode="pushdown"
            ).observe(time.perf_counter() - t0)
            self.doc_queries["pushed_down"] += 1
            mode = "pushdown"
        else:
            plan_decision("pushdown", "ineligible", **(why or {}))

            def run_fallback():
                loaded = self.docstore.load(name)
                if loaded is None:
                    raise ProtocolError(
                        UNKNOWN_DOC,
                        f"document not persisted: {name!r}",
                    )
                return _answer_in_memory(query, loaded[0], limit)

            t0 = time.perf_counter()
            with span("engine"):
                locs, answers = await self._in_analysis_thread(
                    run_fallback
                )
            obs_metrics.DOC_QUERY_SECONDS.labels(
                mode="fallback"
            ).observe(time.perf_counter() - t0)
            self.doc_queries["fallback"] += 1
            mode = "fallback"
        plan_decision("answer", mode, doc=name, count=len(locs))
        return {"doc": name, "count": len(locs),
                "answers": answers, "mode": mode, "from_store": True}

    async def _op_doc_unload(self, params: dict) -> dict:
        """Drop a loaded document (idempotent; the persisted node
        table, if any, keeps its copy)."""
        doc_id = require(params, "doc")
        self._doc_meta.pop(doc_id, None)
        unloaded = self._documents.pop(doc_id, None) is not None
        obs_metrics.DOCUMENTS_LOADED.set(len(self._documents))
        return {"unloaded": unloaded}

    async def _op_view_register(self, params: dict) -> dict:
        """Materialize a named view over a loaded document."""
        cache = self._document(params)
        name = require(params, "name")
        query = require(params, "query")

        def run():
            try:
                cache.register(name, query)
            except Exception as error:
                raise ProtocolError(
                    BAD_PARAMS, f"view does not parse: {error}"
                ) from error
            return len(cache.result(name))

        return {"count": await self._in_analysis_thread(run)}

    async def _op_view_result(self, params: dict) -> dict:
        """Current size of a materialized view."""
        cache = self._document(params)
        name = require(params, "name")
        if name not in cache.view_names():
            raise ProtocolError(UNKNOWN_VIEW,
                                f"view not registered: {name!r}")
        return {"count": len(cache.result(name))}

    async def _op_update_apply(self, params: dict) -> dict:
        """Apply an update; refresh only the views it may affect."""
        cache = self._document(params)
        update = require(params, "update")

        def run():
            with self.store.deferred():
                try:
                    return cache.apply(update)
                except ProtocolError:
                    raise
                except Exception as error:
                    raise ProtocolError(
                        BAD_PARAMS, f"update failed: {error}"
                    ) from error

        refreshed = await self._in_analysis_thread(run)
        return {
            "refreshed": refreshed,
            "skipped": len(cache.view_names()) - len(refreshed),
            "skip_ratio": cache.stats.skip_ratio,
        }


async def run_service(config: ServeConfig, ready=None) -> None:
    """Start a service and block until a ``shutdown`` op (CLI body)."""
    service = IndependenceService(config)
    host, port = await service.start()
    if ready is not None:
        ready(service, host, port)
    await service.serve_until_stopped()
