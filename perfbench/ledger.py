"""The per-layer ledger: turn recorded spans into a cost table.

Input is the span dump of one traced launch (:mod:`tracer`), the time
window of its open-loop phase, and the client-observed latencies of
that phase.  Output is one row per layer -- calls, self time and wait
per request, failures, ratios -- and the named metrics of the
benchmark's ``per_layer`` list.

Accounting.  A span's *self* time is its wall time minus the part of
its interval its child spans cover.  Every request's ``server.request``
span decomposes exactly into the self times of the spans below it,
with one exception: an ``analyze`` request waits for a micro-batch
flush that runs on the analysis thread outside its span tree.  Each
member of a flush of ``n`` requests experiences the whole flush, so a
flush subtree's self times count ``n`` times, and the batching layer's
wait is what remains of the requests' ``batching.submit`` time (queue
wait plus the hop back).  Self time of the asynchronous spans
(``server.executor``, ``batching.submit``) is waiting, not working, and
goes in the wait column.  The rows therefore add up to the mean
``server.request`` time, and the residual ``server.unattributed_ms``
row is the client-observed latency minus all of them: socket, event
loop scheduling and client time that no layer owns.
"""

from __future__ import annotations

import json
from collections import defaultdict

#: Layer rows in table order, and which span names belong to each.
LAYERS = (
    ("serve.protocol", ("protocol.",)),
    ("serve.server", ("server.",)),
    ("serve.batching", ("batching.",)),
    ("analysis.engine", ("engine.",)),
    ("analysis.infer", ("analysis.infer",)),
    ("analysis.conflict", ("analysis.conflict",)),
    ("storage", ("storage.",)),
    ("docstore", ("docstore.",)),
    ("analysis.project", ("project.",)),
    ("xquery", ("xquery.",)),
    ("obs", ("obs.",)),
)

#: Spans whose self time is waiting (asynchronous hand-offs).
WAIT_SPANS = ("server.executor", "batching.submit")

PATHS = ("pushdown", "materialized", "fallback")


def layer_of(name: str) -> str:
    for layer, prefixes in LAYERS:
        if name.startswith(prefixes):
            return layer
    raise KeyError(name)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "cpu",
                 "ok", "extra", "children")

    def __init__(self, row: list):
        (self.id, self.parent, self.name, self.thread, self.start,
         self.end, self.cpu, self.ok, self.extra) = row
        self.children: list[Span] = []

    @property
    def wall(self) -> int:
        return self.end - self.start

    def self_ns(self) -> int:
        covered = sum(
            max(0, min(child.end, self.end) - max(child.start, self.start))
            for child in self.children
        )
        return max(0, self.wall - covered)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    spans = [Span(row) for row in dump["spans"]]
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            parent.children.append(span)
    return spans


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _ratio(hits: int, total: int) -> float | None:
    return hits / total if total else None


def build(spans: list[Span], window: tuple[int, int],
          client_ms: float) -> dict:
    """The ledger of the spans that started inside ``window`` (ns).

    ``client_ms`` is the mean client-observed latency (from send) of
    the requests of that window.  Returns ``{"rows": [...], "metrics":
    {...}, "requests": N}``.
    """
    lo, hi = window
    inside = [span for span in spans if lo <= span.start <= hi]
    requests = [s for s in inside
                if s.name == "server.request" and s.parent == 0]
    flushes = [s for s in inside
               if s.name == "batching.flush" and s.parent == 0]
    count = len(requests)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in inside:
        by_name[span.name].append(span)

    # Experienced self and wait time per layer (ns, summed over the
    # window's requests), calls and failures.
    self_ns: dict[str, float] = defaultdict(float)
    wait_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    failures: dict[str, int] = defaultdict(int)

    def account(root: Span, weight: int) -> None:
        for span in root.walk():
            layer = layer_of(span.name)
            column = wait_ns if span.name in WAIT_SPANS else self_ns
            column[layer] += weight * span.self_ns()
            calls[layer] += 1
            if not span.ok:
                failures[layer] += 1

    for request in requests:
        account(request, 1)
    shared = 0
    for flush in flushes:
        members = len(flush.extra or ())
        account(flush, members)
        shared += members * flush.wall
    # Each member's submit span contains its flush's whole wall time,
    # now counted in the flush subtree's layers.
    wait_ns["serve.batching"] -= shared

    per_request = max(count, 1) * 1e6  # ns totals -> ms per request
    rows = []
    attributed = 0.0
    for layer, _ in LAYERS:
        self_ms = self_ns[layer] / per_request
        wait_ms = wait_ns[layer] / per_request
        attributed += self_ms + wait_ms
        rows.append({"layer": layer, "calls": calls[layer],
                     "self_ms": self_ms, "wait_ms": wait_ms,
                     "failures": failures[layer]})
    unattributed = client_ms - attributed
    rows.append({"layer": "server.unattributed_ms", "calls": count,
                 "self_ms": unattributed, "wait_ms": 0.0, "failures": 0})

    metrics = _named_metrics(by_name, requests, flushes, count)
    metrics["server.unattributed_ms"] = unattributed
    for row in rows[:-1]:
        metrics[f"share.{row['layer']}"] = \
            (row["self_ms"] + row["wait_ms"]) / client_ms \
            if client_ms else 0.0
    _attach_ratios(rows, metrics)
    return {"rows": rows, "metrics": metrics, "requests": count}


def _named_metrics(by_name, requests, flushes, count) -> dict:
    def wall_mean(name: str, scale: float) -> float | None:
        mean = _mean(s.wall for s in by_name[name])
        return None if mean is None else mean / scale

    us, ms = 1e3, 1e6
    m: dict[str, float | None] = {}
    # serve.protocol
    m["protocol.decode_us"] = wall_mean("protocol.decode", us)
    m["protocol.encode_us"] = wall_mean("protocol.encode", us)
    out_bytes = sum(s.extra or 0 for s in by_name["protocol.encode"])
    in_bytes = sum(s.extra or 0 for s in requests)
    m["protocol.bytes_per_op"] = (in_bytes + out_bytes) / count \
        if count else None
    # serve.batching
    waits = [(flush.start / 1e9 - enqueued) * 1e3
             for flush in flushes for enqueued in (flush.extra or ())]
    m["batching.queue_wait_ms"] = _mean(waits)
    m["batching.batch_size"] = _mean(len(f.extra or ()) for f in flushes)
    m["batching.flush_ms"] = _mean(f.wall / ms for f in flushes)
    # analysis.engine
    pairs = by_name["engine.pair"]
    m["engine.pair_us"] = _mean(s.cpu / us for s in pairs)
    memo_hits = sum(
        1 for s in pairs
        if not any(c.name in ("engine.chains", "storage.verdict_get")
                   for c in s.children)
    )
    m["engine.memo_hit_ratio"] = _ratio(memo_hits, len(pairs))
    chains = by_name["engine.chains"]
    missed = [s for s in chains
              if any(c.name == "analysis.infer" for c in s.children)]
    m["engine.chain_hit_ratio"] = _ratio(len(chains) - len(missed),
                                         len(chains))
    m["engine.universe_builds"] = len(by_name["engine.universe"])
    m["engine.universe_ms"] = wall_mean("engine.universe", ms)
    # analysis.* inference
    m["analysis.infer_us"] = _mean(s.wall / us for s in missed)
    m["analysis.conflict_us"] = wall_mean("analysis.conflict", us)
    # storage
    gets = by_name["storage.verdict_get"]
    m["storage.verdict_get_us"] = wall_mean("storage.verdict_get", us)
    m["storage.verdict_put_us"] = wall_mean("storage.verdict_put", us)
    m["storage.verdict_hit_ratio"] = _ratio(
        sum(1 for s in gets if s.extra), len(gets))
    m["storage.save_ms"] = wall_mean("storage.save", ms)
    m["storage.run_steps_ms"] = wall_mean("storage.run_steps", ms)
    rows = by_name["storage.subtree_rows"]
    m["storage.rows_per_answer"] = _mean(s.extra for s in rows)
    m["storage.materialize_ms"] = wall_mean("storage.materialize", ms)
    # docstore
    loads = by_name["docstore.load"]
    seen = sum(s.extra[0] for s in loads)
    m["docstore.load_us_per_node"] = \
        sum(s.wall for s in loads) / us / seen if seen else None
    projected = [s for s in loads if s.extra[2]]
    p_seen = sum(s.extra[0] for s in projected)
    m["docstore.kept_ratio"] = _ratio(
        sum(s.extra[1] for s in projected), p_seen)
    m["docstore.compile_us"] = wall_mean("docstore.compile", us)
    answers = sum(s.extra for s in by_name["docstore.serialize"]) + \
        len(by_name["docstore.serialize_one"])
    serialize_ns = sum(s.wall for s in by_name["docstore.serialize"]) + \
        sum(s.wall for s in by_name["docstore.serialize_one"])
    m["docstore.serialize_us_per_answer"] = \
        serialize_ns / us / answers if answers else None
    paths = _answer_paths(requests)
    queries = sum(paths.values())
    for path in PATHS:
        m[f"docstore.path_share.{path}"] = _ratio(paths[path], queries)
    # analysis.project, xquery
    m["project.keep_ms"] = wall_mean("project.keep", ms)
    m["xquery.evaluate_ms"] = wall_mean("xquery.evaluate", ms)
    # obs: top-level instrument time per request (an obs span nested
    # in another one is already inside its parent's wall time)
    obs = [s for name, spans in by_name.items() if name.startswith("obs.")
           for s in spans]
    nested = {child.id for s in obs for child in s.children}
    obs_ns = sum(s.wall for s in obs if s.id not in nested)
    m["obs.observe_us"] = obs_ns / us / count if count else None
    return m


def _answer_paths(requests: list[Span]) -> dict[str, int]:
    """Which answer path each ``doc.query`` request took, read off the
    storage calls in its span tree."""
    paths = {path: 0 for path in PATHS}
    for request in requests:
        decode = next((c for c in request.children
                       if c.name == "protocol.decode"), None)
        if decode is None or decode.extra != "doc.query":
            continue
        names = {span.name for span in request.walk()}
        if "storage.run_steps" in names:
            paths["pushdown"] += 1
        elif "storage.load" in names:
            paths["fallback"] += 1
        else:
            paths["materialized"] += 1
    return paths


#: Ratio columns of the printed table, per layer row.
RATIOS = {
    "serve.batching": ("batching.batch_size",),
    "analysis.engine": ("engine.memo_hit_ratio", "engine.chain_hit_ratio"),
    "storage": ("storage.verdict_hit_ratio",),
    "docstore": ("docstore.kept_ratio", "docstore.path_share.pushdown",
                 "docstore.path_share.materialized",
                 "docstore.path_share.fallback"),
}


def _attach_ratios(rows: list[dict], metrics: dict) -> None:
    for row in rows:
        row["ratios"] = {
            name: metrics[name] for name in RATIOS.get(row["layer"], ())
            if metrics.get(name) is not None
        }


def render(ledger: dict, client_ms: float) -> str:
    """The per-layer table as text."""
    lines = [f"{'layer':<24}{'calls':>8}{'self ms/op':>12}"
             f"{'wait ms/op':>12}{'fail':>6}  ratios"]
    for row in ledger["rows"]:
        ratios = " ".join(f"{name.split('.', 1)[1]}={value:.3f}"
                          for name, value in row.get("ratios", {}).items())
        lines.append(
            f"{row['layer']:<24}{row['calls']:>8}{row['self_ms']:>12.4f}"
            f"{row['wait_ms']:>12.4f}{row['failures']:>6}  {ratios}"
        )
    lines.append(f"{'client latency (mean)':<24}{ledger['requests']:>8}"
                 f"{client_ms:>12.4f}")
    return "\n".join(lines)
