"""Closed-loop load generator for the independence service.

``clients`` concurrent connections each run a send-one/await-one loop
drawing ``(schema, query, update)`` triples from seeded workload pools,
so offered load is bounded by service latency (closed loop), and the
report contains both sides of that coin: throughput and latency
percentiles.

The workload may span **several schemas**, each with its own engine
and admission groups in the service.  Each schema ref in
:attr:`LoadgenConfig.schema` gets its own query/update pool:

* ``"xmark"`` with ``source="bench"`` -- the paper's benchmark views
  and updates (the 20x20 default of the serve benchmark gate);
* ``"gen:<seed>"`` -- a deterministic random DTD from the testkit
  schema generator, registered over the wire before the run starts,
  with schema-aware random expressions drawn for it;
* any other builtin (or any ref with ``source="exprgen"``) -- seeded
  schema-aware random expressions.

The generator also snapshots the service's ``stats`` endpoint before
and after the run, so a report shows how many admission batches the
traffic coalesced into -- the CI smoke job asserts this is nonzero.
It cross-checks that every verdict for one ``(schema, pair)`` is
identical across clients and repeats (any divergence counts as an
error).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..obs.metrics import histogram_quantile
from ..schema.dtd import DTD
from ..testkit.dtdgen import SchemaGenerator, SchemaSpec
from ..testkit.exprgen import random_query, random_update
from .protocol import MAX_LINE_BYTES, encode
from .registry import BUILTIN_SCHEMAS


@dataclass
class LoadgenConfig:
    """One load-generation run (CLI flags map 1:1).

    ``schema`` is one ref or a sequence of refs; multi-schema runs
    interleave requests across all of them (uniformly at random, per
    client, seeded).  ``requests`` is the total across all clients.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    schema: str | Sequence[str] = "xmark"
    source: str = "bench"          # "bench" | "exprgen"
    n_queries: int = 20
    n_updates: int = 20
    clients: int = 16
    requests: int = 2000           # total, split across clients
    seed: int = 0
    expr_depth: int = 2
    #: Scrape the ``metrics`` op before and after the run, cross-check
    #: the server-side per-op histogram counts against the client-side
    #: request counts, and report server percentiles next to the
    #: client-side ones (``--scrape-metrics``).
    scrape_metrics: bool = False
    #: Send ``timing: true`` on every Nth request per client (0 = never)
    #: and aggregate the per-layer span breakdown into the report.
    timing_sample: int = 0
    #: Extra ``doc.query`` requests per client (against one generated
    #: document loaded before the run) so traced runs cover the
    #: document path as well as ``analyze``.
    doc_queries: int = 0

    @property
    def schemas(self) -> tuple[str, ...]:
        """The workload's schema refs as a tuple (order preserved)."""
        if isinstance(self.schema, str):
            return (self.schema,)
        return tuple(self.schema)


def generated_schema(seed: int) -> SchemaSpec:
    """The deterministic ``gen:<seed>`` workload schema.

    A pure function of ``seed``: the loadgen process, the benchmark,
    and any test all derive the same spec (and therefore the same
    content digest).
    """
    return SchemaGenerator(
        random.Random(seed), min_tags=5, max_tags=7,
        recursion_probability=0.5,
    ).generate()


def dtd_text(spec: SchemaSpec) -> str:
    """Render a :class:`SchemaSpec` as ``<!ELEMENT ...>`` declarations
    (the ``schema.register`` wire format)."""
    return "\n".join(
        f"<!ELEMENT {tag} {model}>" for tag, model in spec.rules
    )


def _schema_dtd(ref: str) -> tuple[DTD, SchemaSpec | None]:
    """The DTD behind a workload schema ref (and its spec if generated)."""
    if ref.startswith("gen:"):
        spec = generated_schema(int(ref[4:]))
        return spec.to_dtd(), spec
    factory = BUILTIN_SCHEMAS.get(ref)
    if factory is None:
        raise ValueError(
            f"workload schema must be a builtin or 'gen:<seed>', "
            f"not {ref!r}"
        )
    return factory(), None


def workload_pool(config: LoadgenConfig,
                  ref: str | None = None) -> tuple[list[str], list[str]]:
    """The seeded query/update pools clients draw pairs from.

    ``ref`` defaults to the first workload schema.  The XMark benchmark
    pool is used for ``"xmark"`` under ``source="bench"``; every other
    ref gets schema-aware random expressions seeded per ``(seed, ref)``
    so multi-schema pools are independent but reproducible.
    """
    if ref is None:
        ref = config.schemas[0]
    if config.source == "bench" and ref == "xmark":
        from ..bench.updates import ALL_UPDATES
        from ..bench.views import ALL_VIEWS
        queries = list(ALL_VIEWS.values())[:config.n_queries]
        updates = list(ALL_UPDATES.values())[:config.n_updates]
        if len(queries) < config.n_queries or \
                len(updates) < config.n_updates:
            raise ValueError(
                f"bench workload has only {len(ALL_VIEWS)} views / "
                f"{len(ALL_UPDATES)} updates"
            )
        return queries, updates
    if config.source not in ("bench", "exprgen"):
        raise ValueError(f"unknown workload source {config.source!r}")
    dtd, _ = _schema_dtd(ref)
    rng = random.Random(f"{config.seed}/{ref}")
    queries = [random_query(rng, dtd, max_depth=config.expr_depth)
               for _ in range(config.n_queries)]
    updates = [random_update(rng, dtd, max_depth=config.expr_depth)
               for _ in range(config.n_updates)]
    return queries, updates


def workload_pools(
    config: LoadgenConfig,
) -> dict[str, tuple[list[str], list[str]]]:
    """One ``(queries, updates)`` pool per workload schema ref."""
    return {ref: workload_pool(config, ref) for ref in config.schemas}


async def _request(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter, payload: dict) -> dict:
    """One send-one/await-one wire round trip."""
    writer.write(encode(payload))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("service closed the connection")
    return json.loads(line)


async def _register_generated(config: LoadgenConfig) -> None:
    """Register every ``gen:<seed>`` workload schema over the wire.

    Registration is idempotent (content digests), so concurrent or
    repeated loadgen runs against one service are safe.  The generated
    ref itself becomes the schema's alias, so clients can use it
    directly in requests.
    """
    generated = [ref for ref in config.schemas if ref.startswith("gen:")]
    if not generated:
        return
    reader, writer = await asyncio.open_connection(
        config.host, config.port, limit=MAX_LINE_BYTES
    )
    try:
        for ref in generated:
            _, spec = _schema_dtd(ref)
            assert spec is not None
            response = await _request(reader, writer, {
                "id": f"register-{ref}",
                "op": "schema.register",
                "root": spec.start,
                "dtd": dtd_text(spec),
                "name": ref,
            })
            if not response.get("ok"):
                raise RuntimeError(
                    f"registering {ref} failed: {response.get('error')}"
                )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def _record_spans(spans: dict, op: str, timing: dict | None) -> None:
    """Fold one response's ``timing`` breakdown into the span aggregate."""
    if not timing:
        return
    per_op = spans.setdefault(op, {})
    for entry in timing.get("spans", ()):
        per_op.setdefault(entry["name"], []).append(entry["ms"])
    per_op.setdefault("total", []).append(timing.get("total_ms", 0.0))


async def _client(config: LoadgenConfig, index: int, count: int,
                  pools: dict[str, tuple[list[str], list[str]]],
                  latencies: list[float], verdicts: dict,
                  errors: list[str], spans: dict,
                  doc_latencies: list[float], doc_name: str | None) -> None:
    """One closed-loop connection: draw, send, await, record."""
    rng = random.Random(f"{config.seed}/{index}")
    schemas = config.schemas
    sample = config.timing_sample
    reader, writer = await asyncio.open_connection(
        config.host, config.port, limit=MAX_LINE_BYTES
    )
    try:
        for sequence in range(count):
            ref = schemas[rng.randrange(len(schemas))]
            queries, updates = pools[ref]
            qi = rng.randrange(len(queries))
            ui = rng.randrange(len(updates))
            payload = {
                "id": f"c{index}-{sequence}",
                "op": "analyze",
                "schema": ref,
                "query": queries[qi],
                "update": updates[ui],
            }
            if sample and sequence % sample == 0:
                payload["timing"] = True
            started = time.perf_counter()
            response = await _request(reader, writer, payload)
            if not response.get("ok"):
                # Failed requests count as errors only: their latency
                # must not pollute the percentiles or the completed
                # count the throughput figure is computed from.
                errors.append(str(response.get("error")))
                continue
            latencies.append(time.perf_counter() - started)
            _record_spans(spans, "analyze", response.get("timing"))
            verdict = {key: response[key] for key in
                       ("independent", "k", "k_query", "k_update")}
            previous = verdicts.setdefault((ref, qi, ui), verdict)
            if previous != verdict:
                errors.append(
                    f"verdict divergence on {ref} pair ({qi}, {ui}): "
                    f"{previous} vs {verdict}"
                )
        for sequence in range(config.doc_queries if doc_name else 0):
            ref = config.schemas[0]
            queries, _ = pools[ref]
            payload = {
                "id": f"c{index}-doc{sequence}",
                "op": "doc.query",
                "schema": ref,
                "doc": doc_name,
                "query": queries[sequence % len(queries)],
                "limit": 1,
            }
            if sample and sequence % sample == 0:
                payload["timing"] = True
            started = time.perf_counter()
            response = await _request(reader, writer, payload)
            if not response.get("ok"):
                errors.append(str(response.get("error")))
                continue
            doc_latencies.append(time.perf_counter() - started)
            _record_spans(spans, "doc.query", response.get("timing"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _stats(config: LoadgenConfig) -> dict:
    """One ``stats`` snapshot (empty dict when the call fails)."""
    reader, writer = await asyncio.open_connection(
        config.host, config.port, limit=MAX_LINE_BYTES
    )
    try:
        response = await _request(
            reader, writer, {"op": "stats", "id": "loadgen-stats"}
        )
        return response if response.get("ok") else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Percentile of an ascending list, interpolating linearly between
    the two nearest order statistics (0.0 when empty).

    This is the "linear" (R-7 / numpy default) definition: the rank
    ``fraction * (n - 1)`` is split into its integer part and remainder,
    and the value is the convex combination of the neighbors -- so
    ``p50`` of ``[1, 2, 3, 4]`` is 2.5, not a rounded pick of 2 or 3.

    >>> _percentile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.5
    """
    if not sorted_values:
        return 0.0
    rank = fraction * (len(sorted_values) - 1)
    lower = int(rank)
    weight = rank - lower
    if weight == 0.0 or lower + 1 >= len(sorted_values):
        return sorted_values[lower]
    return (sorted_values[lower] * (1.0 - weight)
            + sorted_values[lower + 1] * weight)


async def _metrics(config: LoadgenConfig) -> dict:
    """One ``metrics`` snapshot (empty dict when the call fails)."""
    reader, writer = await asyncio.open_connection(
        config.host, config.port, limit=MAX_LINE_BYTES
    )
    try:
        response = await _request(
            reader, writer, {"op": "metrics", "id": "loadgen-metrics"}
        )
        return response if response.get("ok") else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _load_document(config: LoadgenConfig) -> str:
    """Load the run's shared workload document; returns its doc name."""
    name = f"lg{config.seed}"
    reader, writer = await asyncio.open_connection(
        config.host, config.port, limit=MAX_LINE_BYTES
    )
    try:
        response = await _request(reader, writer, {
            "id": "loadgen-doc",
            "op": "doc.load",
            "schema": config.schemas[0],
            "doc": name,
            "bytes": 20_000,
            "seed": config.seed,
        })
        if not response.get("ok"):
            raise RuntimeError(
                f"loading workload document failed: "
                f"{response.get('error')}"
            )
        return name
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def _request_seconds_delta(before: dict, after: dict) -> dict[str, dict]:
    """Per-op delta of the server's ``repro_request_seconds`` family.

    Returns ``{op: histogram_child}`` holding the run's own
    observations (after minus before).
    """
    family_after = after.get("families", {}).get(
        "repro_request_seconds", {}
    )
    family_before = before.get("families", {}).get(
        "repro_request_seconds", {}
    )
    children_after = family_after.get("children", {})
    children_before = family_before.get("children", {})
    deltas: dict[str, dict] = {}
    for key, child in children_after.items():
        (op,) = json.loads(key)
        previous = children_before.get(key)
        counts = list(child["counts"])
        total = child["sum"]
        count = child["count"]
        if previous is not None:
            counts = [now - then for now, then
                      in zip(counts, previous["counts"])]
            total -= previous["sum"]
            count -= previous["count"]
        if count:
            deltas[op] = {"bounds": list(child["bounds"]),
                          "counts": counts, "sum": total,
                          "count": count}
    return deltas


def _span_breakdown(spans: dict) -> dict:
    """Aggregate sampled span timings into per-op count/mean rows."""
    return {
        op: {
            name: {
                "count": len(values),
                "mean_ms": sum(values) / len(values),
            }
            for name, values in sorted(per_op.items())
        }
        for op, per_op in sorted(spans.items())
    }


async def run_loadgen(config: LoadgenConfig) -> dict:
    """Drive the service; returns the JSON-ready report."""
    pools = workload_pools(config)
    await _register_generated(config)
    doc_name = (await _load_document(config)
                if config.doc_queries else None)
    before = await _stats(config)
    metrics_before = (await _metrics(config)
                      if config.scrape_metrics else {})
    latencies: list[float] = []
    doc_latencies: list[float] = []
    verdicts: dict = {}
    errors: list[str] = []
    spans: dict = {}
    per_client = [config.requests // config.clients] * config.clients
    for index in range(config.requests % config.clients):
        per_client[index] += 1
    started = time.perf_counter()
    await asyncio.gather(*(
        _client(config, index, count, pools, latencies, verdicts, errors,
                spans, doc_latencies, doc_name)
        for index, count in enumerate(per_client) if count
    ))
    wall_seconds = time.perf_counter() - started
    after = await _stats(config)
    metrics_after = (await _metrics(config)
                     if config.scrape_metrics else {})

    ordered = sorted(latencies)
    extras: dict = {}
    if config.scrape_metrics and metrics_after:
        deltas = _request_seconds_delta(
            metrics_before.get("snapshot", {}),
            metrics_after.get("snapshot", {}),
        )
        analyze_count = deltas.get("analyze", {}).get("count", 0)
        extras["server_metrics"] = {
            "per_op": {
                op: {
                    "count": child["count"],
                    "p50_ms": histogram_quantile(child, 0.50) * 1e3,
                    "p99_ms": histogram_quantile(child, 0.99) * 1e3,
                }
                for op, child in sorted(deltas.items())
            },
            # The server saw exactly the requests the clients sent:
            # every attempted analyze lands in the histogram whether it
            # succeeded or errored.
            "counts_match": analyze_count == config.requests,
        }
    if spans:
        extras["span_breakdown"] = _span_breakdown(spans)
    if doc_name is not None:
        doc_ordered = sorted(doc_latencies)
        extras["doc_query"] = {
            "doc": doc_name,
            "completed": len(doc_ordered),
            "latency_ms": {
                "mean": (sum(doc_ordered) / len(doc_ordered) * 1e3
                         if doc_ordered else 0.0),
                "p50": _percentile(doc_ordered, 0.50) * 1e3,
                "p99": _percentile(doc_ordered, 0.99) * 1e3,
            },
        }
    batcher_before = before.get("batcher", {})
    batcher_after = after.get("batcher", {})
    coalesced = (batcher_after.get("coalesced_requests", 0)
                 - batcher_before.get("coalesced_requests", 0))
    batches = (batcher_after.get("batches", 0)
               - batcher_before.get("batches", 0))
    return {
        "workload": {
            "schema": ",".join(config.schemas),
            "schemas": list(config.schemas),
            "source": config.source,
            "n_queries": config.n_queries,
            "n_updates": config.n_updates,
            "clients": config.clients,
            "requests": config.requests,
            "seed": config.seed,
        },
        "completed": len(latencies),
        "errors": len(errors),
        "error_samples": errors[:10],
        "wall_seconds": wall_seconds,
        "throughput_rps": (len(latencies) / wall_seconds
                           if wall_seconds else 0.0),
        "latency_ms": {
            "mean": (sum(ordered) / len(ordered) * 1e3
                     if ordered else 0.0),
            "p50": _percentile(ordered, 0.50) * 1e3,
            "p90": _percentile(ordered, 0.90) * 1e3,
            "p99": _percentile(ordered, 0.99) * 1e3,
            "max": ordered[-1] * 1e3 if ordered else 0.0,
        },
        "distinct_pairs": len(verdicts),
        "independent_pairs": sum(
            1 for verdict in verdicts.values() if verdict["independent"]
        ),
        "verdicts": {
            f"{ref}|q{qi}|u{ui}": verdict
            for (ref, qi, ui), verdict in sorted(verdicts.items())
        },
        "service": {
            "analysis_mode": after.get("analysis_mode"),
            "coalesced_requests": coalesced,
            "batches": batches,
            "store_verdicts": after.get("store", {}).get("verdicts"),
            "engine_stats_after": after.get("registry", {})
            .get("engines", {}),
        },
        **extras,
    }


def run_loadgen_sync(config: LoadgenConfig) -> dict:
    """Blocking wrapper around :func:`run_loadgen` (CLI body)."""
    return asyncio.run(run_loadgen(config))
