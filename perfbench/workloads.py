"""The benchmark's three workloads: seeded inputs and reference checks.

Every input is generated here, in the generator process, from the
workload seed; the service only ever receives the generated requests.
``README.md`` beside this file states why each workload exists, which
layers it loads and which it bypasses.

A workload builds, per service launch:

* ``register`` -- schema registrations sent before anything else;
* ``warmup``   -- untimed traffic whose cost counts in ``setup_s``;
* ``closed`` and ``open`` -- the two timed phases' requests.

The documents workload additionally has a ``corpus`` persisted by a
preparation launch before the measured launches start.

:func:`check_verdict` and :meth:`Documents.check_answer` compare a
reply with an in-process reference computed without the service: a
one-shot :func:`repro.analysis.analyze` for verdicts, and
``parse_xml`` + ``evaluate_query`` + ``serialize`` over the very XML
that was sent for ``doc.query`` answers.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from repro.analysis import analyze
from repro.analysis.engine import normalize_source
from repro.analysis.kbound import multiplicity
from repro.bench.docstore_bench import BENCH_QUERIES
from repro.bench.updates import ALL_UPDATES
from repro.bench.views import ALL_VIEWS
from repro.schema.catalog import xmark_dtd
from repro.serve.loadgen import dtd_text, generated_schema
from repro.testkit.exprgen import random_query, random_update
from repro.xmldm.generator import generate_document
from repro.xmldm.parse import parse_xml
from repro.xmldm.serialize import serialize
from repro.xquery.ast import ROOT_VAR
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_query
from repro.xupdate.parser import parse_update
from wire import Req

#: Replies checked against the in-process reference, per run.
SAMPLE_SIZE = 48


def encode(payload: dict) -> bytes:
    """One compact request line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def request_ids():
    """A fresh source of request ids (unique within one launch)."""
    return itertools.count(1).__next__


@dataclass
class Launch:
    """The requests of one service launch."""

    register: list[Req] = field(default_factory=list)
    #: Warm-up steps, each sent (pipelined) after the previous one has
    #: been answered in full.
    warmup: list[list[Req]] = field(default_factory=list)
    closed: list[Req] = field(default_factory=list)
    open: list[Req] = field(default_factory=list)


@dataclass(frozen=True)
class Spec:
    """Fixed shape of a workload (recorded with every result)."""

    name: str
    #: Open-loop arrival rate, requests per second.
    rate: float
    #: Closed-loop requests in flight per connection.
    depth: int
    #: The op whose open-loop latency is the workload's p50/p90.
    primary_op: str
    why: str


SPECS = {
    "analyze-warm": Spec(
        "analyze-warm", rate=250.0, depth=32, primary_op="analyze",
        why="XMark 20x20 views x updates, all pairs analyzed in "
            "warm-up: every timed analyze is a pair-memo hit",
    ),
    "analyze-cold": Spec(
        "analyze-cold", rate=25.0, depth=8, primary_op="analyze",
        why="every timed analyze carries a never-seen query and update "
            "(exprgen over XMark and recursive generated DTDs)",
    ),
    "documents": Spec(
        "documents", rate=10.0, depth=4, primary_op="doc.query",
        why="doc.query over a persisted ~100 KB XMark corpus plus a "
            "steady share of inline doc.load, some projected",
    ),
}


# ---------------------------------------------------------------------------
# analyze workloads
# ---------------------------------------------------------------------------


def _analyze_req(ids, schema: str, query: str, update: str) -> Req:
    request_id = ids()
    return Req(request_id, "analyze", encode({
        "id": request_id, "op": "analyze", "schema": schema,
        "query": query, "update": update,
    }), (schema, query, update))


class AnalyzeWarm:
    """All 400 pairs of the XMark benchmark pool are analyzed in
    warm-up, so every timed request is a pair-memo hit."""

    spec = SPECS["analyze-warm"]
    POOL = 20

    def __init__(self, seed: int, closed_cap: int, open_count: int):
        queries = list(ALL_VIEWS.values())[:self.POOL]
        updates = list(ALL_UPDATES.values())[:self.POOL]
        self.pairs = [(q, u) for q in queries for u in updates]
        rng = random.Random(f"analyze-warm/{seed}")
        self.closed_pairs = [rng.choice(self.pairs)
                             for _ in range(closed_cap)]
        self.open_pairs = [rng.choice(self.pairs)
                           for _ in range(open_count)]
        self.schemas = {"xmark": xmark_dtd()}

    def launch(self, tag: str) -> Launch:
        ids = request_ids()
        return Launch(
            warmup=[[_analyze_req(ids, "xmark", q, u)
                     for q, u in self.pairs]],
            closed=[_analyze_req(ids, "xmark", q, u)
                    for q, u in self.closed_pairs],
            open=[_analyze_req(ids, "xmark", q, u)
                  for q, u in self.open_pairs],
        )


def _is_recursive(dtd) -> bool:
    """Does some element type reach itself?"""
    edges = {tag: [c for c in dtd.children_of(tag) if c in dtd.alphabet]
             for tag in dtd.alphabet}
    for start in edges:
        stack, seen = list(edges[start]), set()
        while stack:
            tag = stack.pop()
            if tag == start:
                return True
            if tag not in seen:
                seen.add(tag)
                stack.extend(edges[tag])
    return False


def recursive_generated_schemas(count: int) -> list[int]:
    """The first ``count`` ``gen:<seed>`` schemas that are recursive."""
    seeds, candidate = [], 0
    while len(seeds) < count:
        candidate += 1
        if _is_recursive(generated_schema(candidate).to_dtd()):
            seeds.append(candidate)
    return seeds


class AnalyzeCold:
    """Every timed request carries a query *and* an update the service
    has never seen, so the pair memo, the chain caches and the verdict
    store all miss.  Schemas rotate in a fixed order; expressions are
    drawn by seed from :mod:`repro.testkit.exprgen` and deduplicated
    (after whitespace normalisation) across the whole run."""

    spec = SPECS["analyze-cold"]
    GENERATED = 3
    WARMUP_PER_SCHEMA = 24
    EXPR_DEPTH = 1
    #: Largest pair multiplicity ``k = k_q + k_u`` drawn.  Inference
    #: cost grows steeply with ``k``; the cap keeps one run's sample of
    #: pairs representative of the next run's.
    MAX_K = 6

    def __init__(self, seed: int, closed_cap: int, open_count: int):
        self.generated = {}
        self.schemas = {"xmark": xmark_dtd()}
        for gen_seed in recursive_generated_schemas(self.GENERATED):
            spec = generated_schema(gen_seed)
            ref = f"gen:{gen_seed}"
            self.generated[ref] = spec
            self.schemas[ref] = spec.to_dtd()
        self.order = list(self.schemas)
        # The warm-up pairs are the same for every seed (so set-up
        # does the same work); the timed pairs are drawn by seed.
        rng = random.Random("analyze-cold/warm-up")
        seen: dict[str, set[str]] = {ref: set() for ref in self.schemas}

        def fresh(ref: str) -> tuple[str, str]:
            dtd, used = self.schemas[ref], seen[ref]
            while True:
                query = random_query(rng, dtd, max_depth=self.EXPR_DEPTH)
                update = random_update(rng, dtd,
                                       max_depth=self.EXPR_DEPTH)
                q_key, u_key = normalize_source(query), \
                    normalize_source(update)
                k = multiplicity(parse_query(query)) + \
                    multiplicity(parse_update(update))
                if k <= self.MAX_K and q_key not in used \
                        and u_key not in used:
                    used.update((q_key, u_key))
                    return query, update

        def stream(count: int) -> list[tuple[str, str, str]]:
            out = []
            for index in range(count):
                ref = self.order[index % len(self.order)]
                out.append((ref, *fresh(ref)))
            return out

        self.warm = stream(self.WARMUP_PER_SCHEMA * len(self.order))
        rng = random.Random(f"analyze-cold/{seed}")
        self.closed_triples = stream(closed_cap)
        self.open_triples = stream(open_count)

    def launch(self, tag: str) -> Launch:
        ids = request_ids()
        register = []
        for ref, spec in self.generated.items():
            request_id = ids()
            register.append(Req(request_id, "schema.register", encode({
                "id": request_id, "op": "schema.register",
                "root": spec.start, "dtd": dtd_text(spec),
                "name": ref,
            })))
        return Launch(
            register=register,
            warmup=[[_analyze_req(ids, *t) for t in self.warm]],
            closed=[_analyze_req(ids, *t) for t in self.closed_triples],
            open=[_analyze_req(ids, *t) for t in self.open_triples],
        )


def check_verdict(schemas: dict, req: Req, response: dict) -> str | None:
    """Compare one analyze reply with a one-shot in-process analysis."""
    schema, query, update = req.info
    report = analyze(query, update, schemas[schema],
                     collect_witnesses=False)
    expected = {"independent": report.independent, "k": report.k,
                "k_query": report.k_query, "k_update": report.k_update}
    got = {key: response.get(key) for key in expected}
    if got != expected:
        return f"verdict {got} != reference {expected}"
    return None


# ---------------------------------------------------------------------------
# documents workload
# ---------------------------------------------------------------------------


class Documents:
    """``doc.query`` over a persisted corpus plus inline ``doc.load``.

    The document set is fixed (generated from :attr:`DATA_SEED`); the
    workload seed draws the request stream over it.  Set-up persists
    :attr:`CORPUS` XMark documents of ~100 KB through a preparation
    launch.  Every measured launch starts on that store and, in
    warm-up, reloads the first :attr:`BALLAST` corpus documents (never
    queried: the loads later push them out of the service's
    64-document LRU), reloads and then unloads the next
    :attr:`EVICTED` ones, and loads :attr:`WARMUP_LOADS` inline
    documents.

    In the timed phases one request in :attr:`LOAD_EVERY` is a
    ``doc.load`` of fresh client-generated XML, every other one
    projected with ``project_for`` a seeded subset of the query pool.
    The rest are ``doc.query`` requests rotating over the query pool
    and over three target classes, so every answer path keeps a fixed
    share: *resident* documents (among the :attr:`RECENT` latest
    inline loads, queried only inside their ``project_for`` set),
    *evicted* ones (reloaded, then unloaded) and *never-resident*
    corpus documents.
    """

    spec = SPECS["documents"]
    DATA_SEED = "documents/data"
    CORPUS = 48
    #: Resident from warm-up on and never queried: with the warm-up's
    #: and the run's loads they overflow the 64-document LRU, which
    #: then evicts them (least recently used) during the closed loop.
    BALLAST = 32
    EVICTED = 8
    WARMUP_LOADS = 8
    LOAD_EVERY = 20
    RECENT = 20
    #: A query names a document loaded at least this many requests
    #: earlier, so the load has long completed.
    LOAD_GAP = 40
    DOC_BYTES = 200_000
    PROJECT_FOR = 3

    def __init__(self, seed: int, closed_cap: int, open_count: int):
        self.queries = [query for _, query, _ in BENCH_QUERIES]
        self.schemas = {"xmark": xmark_dtd()}
        data = random.Random(self.DATA_SEED)
        self.xml: dict[str, str] = {}
        self.corpus = [f"c{i}" for i in range(self.CORPUS)]
        for name in self.corpus:
            self.xml[name] = self._generate(data)
        loads = self.WARMUP_LOADS + (closed_cap + open_count) \
            // self.LOAD_EVERY + 2
        self.load_xml = [self._generate(data) for _ in range(loads)]
        # Every other load is projected for PROJECT_FOR queries taken
        # in turn from a shuffled pool, so each query is in the same
        # share of projections whatever the seed (planning cost varies
        # a lot by query).  The warm-up's shuffle is the same for every
        # seed (set-up does the same work); the timed loads' is seeded.
        self.rng = random.Random(f"documents/{seed}")
        warm = self._projections(data, self.WARMUP_LOADS // 2)
        timed = self._projections(self.rng, loads // 2)
        plans = warm + timed
        self.load_plan = [plans.pop(0) if index % 2 else None
                          for index in range(loads)]
        self.closed_cap, self.open_count = closed_cap, open_count
        self._parsed: dict = {}

    def _projections(self, rng: random.Random,
                     count: int) -> list[list[str]]:
        order = rng.sample(self.queries, len(self.queries))
        width = self.PROJECT_FOR
        return [sorted(order[(width * i + t) % len(order)]
                       for t in range(width))
                for i in range(count)]

    def _generate(self, rng: random.Random) -> str:
        tree = generate_document(self.schemas["xmark"], self.DOC_BYTES,
                                 seed=rng.randrange(2**31))
        return serialize(tree.store, tree.root)

    def corpus_reqs(self) -> list[Req]:
        """Persist the corpus (sent to the preparation launch)."""
        ids = request_ids()
        return [self._load(ids, name, self.xml[name], None)
                for name in self.corpus]

    @staticmethod
    def _load(ids, name: str, xml: str | None,
              project_for: list[str] | None) -> Req:
        request_id = ids()
        payload = {"id": request_id, "op": "doc.load", "schema": "xmark",
                   "doc": name}
        if xml is not None:
            payload["xml"] = xml
        if project_for is not None:
            payload["project_for"] = project_for
        return Req(request_id, "doc.load", encode(payload),
                   (name, project_for, xml is not None))

    @staticmethod
    def _query(ids, name: str, query: str) -> Req:
        request_id = ids()
        return Req(request_id, "doc.query", encode({
            "id": request_id, "op": "doc.query", "schema": "xmark",
            "doc": name, "query": query,
        }), (name, query))

    def launch(self, tag: str) -> Launch:
        """The requests of one launch; ``tag`` keeps load names apart
        between launches that share the store."""
        ids = request_ids()
        rng = random.Random(f"{self.rng.random()}/{tag}")
        loads = iter(zip(self.load_xml, self.load_plan))
        count = [0]

        def load(loaded: list, position: int) -> Req:
            xml, plan = next(loads)
            name = f"{tag}-l{count[0]}"
            count[0] += 1
            self.xml[name] = xml
            loaded.append((name, plan, position))
            return self._load(ids, name, xml, plan)

        ballast = self.corpus[:self.BALLAST]
        evicted = self.corpus[self.BALLAST:self.BALLAST + self.EVICTED]
        never = self.corpus[self.BALLAST + self.EVICTED:]
        # Reloads come from the persisted node table (no xml).
        reloads = [self._load(ids, name, None, None)
                   for name in ballast + evicted]
        unloads = []
        for name in evicted:
            request_id = ids()
            unloads.append(Req(request_id, "doc.unload", encode({
                "id": request_id, "op": "doc.unload", "doc": name,
            })))
        #: (name, project_for, stream position) of inline loads; the
        #: warm-up's are queryable from the first timed request on.
        warm_loaded: list[tuple[str, list | None, int]] = []
        loads_now = [load(warm_loaded, -self.LOAD_GAP)
                     for _ in range(self.WARMUP_LOADS)]
        queries = [self._query(ids, never[0], query)
                   for query in self.queries]
        warmup = [reloads, unloads, loads_now, queries]

        evicted_order = rng.sample(evicted, len(evicted))
        never_order = rng.sample(never, len(never))

        def stream(count: int) -> list[Req]:
            # Each phase names only its own loads (and the warm-up's):
            # a closed loop may stop before sending its whole list.
            loaded = list(warm_loaded)
            out = []
            for index in range(1, count + 1):
                if index % self.LOAD_EVERY == 0:
                    out.append(load(loaded, index))
                    continue
                query = self.queries[index % len(self.queries)]
                target = (index // len(self.queries)) % 3
                if target == 0:
                    done = [entry for entry in loaded
                            if entry[2] <= index - self.LOAD_GAP]
                    name = rng.choice([
                        name for name, plan, _ in done[-self.RECENT:]
                        if plan is None or query in plan
                    ])
                else:
                    # Round-robin over a seeded order: every document
                    # of the class meets every query equally often.
                    pool = evicted_order if target == 1 else never_order
                    turn = index // (3 * len(self.queries))
                    name = pool[turn % len(pool)]
                out.append(self._query(ids, name, query))
            return out

        return Launch(warmup=warmup, closed=stream(self.closed_cap),
                      open=stream(self.open_count))

    def check_answer(self, req: Req, response: dict) -> str | None:
        """Compare one doc.query reply with an in-process evaluation
        over the XML the generator sent."""
        name, query = req.info
        tree = self._parsed.get(name)
        if tree is None:
            tree = self._parsed[name] = parse_xml(self.xml[name])
        locs = evaluate_query(parse_query(query), tree.store,
                              {ROOT_VAR: [tree.root]})
        expected = [serialize(tree.store, loc) for loc in locs]
        if response.get("count") != len(expected) or \
                response.get("answers") != expected:
            return (f"doc.query {query!r} on {name}: "
                    f"{response.get('count')} answers differ from the "
                    f"reference's {len(expected)}")
        return None


WORKLOAD_CLASSES = {
    "analyze-warm": AnalyzeWarm,
    "analyze-cold": AnalyzeCold,
    "documents": Documents,
}
