"""Document-store acceptance numbers: dict store vs indexed vs
indexed+projected.

One generated ~100k-node XMark document is pushed through three
loading/evaluation stacks:

* ``dict`` -- :func:`repro.xmldm.parse.parse_xml` into the Section-2
  dict store, generic evaluation (the pre-docstore baseline);
* ``indexed`` -- :func:`repro.docstore.streamload.load_xml` into the
  interval-encoded store, axis-accelerated evaluation;
* ``projected`` -- per query, a *projected* load driven by the query's
  inferred chains (:func:`repro.analysis.project.chain_keep_for_query`)
  followed by evaluation on ``t|L``.

For every query the three answer sequences must serialize
byte-identically (Theorem 3.2 made operational); the gate in
``benchmarks/test_docstore_gate.py`` additionally requires projected
loads to keep <= 25% of nodes on the chain-selective pool and the
accelerated descendant-axis queries to beat the dict-store walk by
>= 3x.  ``repro docstore-bench --json BENCH_docstore.json`` appends a
trajectory point.

A fourth, *cold-start* leg persists the indexed corpus into a SQLite
node table and measures first-query latency on a fresh connection two
ways: SQL pushdown (:mod:`repro.docstore.pushdown` -- the query runs
inside the database and answers serialize from row range scans, no
materialization) versus materialize-then-evaluate.  The gate requires
pushdown to win by >= 5x with byte-identical answers.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

from ..analysis.project import chain_keep_for_query
from ..docstore.pushdown import compile_query, serialize_answers
from ..docstore.streamload import load_xml
from ..schema.catalog import xmark_dtd
from ..xmldm.generator import generate_document
from ..xmldm.parse import parse_xml
from ..xmldm.serialize import serialize
from ..xquery.ast import ROOT_VAR
from ..xquery.evaluator import evaluate_query
from ..xquery.parser import parse_query
from .serve_bench import append_trajectory_point

#: The benchmark query pool.  ``descendant`` entries exercise the
#: interval-index range scans (the >= 3x gate); ``selective`` entries
#: are chain-selective enough that projection must keep <= 25%.
BENCH_QUERIES: tuple[tuple[str, str, frozenset[str]], ...] = (
    ("q1", "/site/people/person/name", frozenset({"selective"})),
    ("q5", "/site/closed_auctions/closed_auction/price",
     frozenset({"selective"})),
    # q6 returns whole ``item`` subtrees, so its keep ratio tracks the
    # answer mass -- descendant-accelerated but not chain-selective.
    ("q6", "/site/regions//item", frozenset({"descendant"})),
    ("emails", "//emailaddress",
     frozenset({"descendant", "selective"})),
    ("person-names", "//person/name",
     frozenset({"descendant", "selective"})),
    ("increases", "//open_auction/bidder/increase",
     frozenset({"descendant", "selective"})),
    ("guarded", "for $a in /site/open_auctions/open_auction return "
                "if ($a/bidder/increase) then $a/current else ()",
     frozenset({"selective"})),
    ("all-text", "//text()", frozenset({"descendant"})),
)


def _answers_digest(store, answers) -> str:
    """A canonical rendering of an answer sequence (order included)."""
    return "\x1e".join(serialize(store, loc) for loc in answers)


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


#: The cold-start query: pushdown-eligible, selective, and the same
#: ``//emailaddress`` shape the hot-path bench already tracks.
COLD_START_QUERY = "//emailaddress"


def _cold_start_leg(indexed, say) -> dict:
    """Persist the corpus, then race first-query-on-a-fresh-connection:
    SQL pushdown vs materialize-then-evaluate.

    Both sides pay the connection open; the pushdown side answers with
    one SQL query plus per-answer row range scans (the document is
    never rebuilt in memory), the materialize side re-materializes all
    rows and evaluates in memory -- the cost the pushdown exists to
    avoid on restart.
    """
    from ..storage import open_store

    query = parse_query(COLD_START_QUERY)
    reference = [
        serialize(indexed.store, loc)
        for loc in evaluate_query(query, indexed.store,
                                  {ROOT_VAR: [indexed.root]})
    ]
    steps = compile_query(query)
    assert steps is not None, "cold-start query must be pushdown-eligible"
    with tempfile.TemporaryDirectory() as tmp:
        url = "sqlite:///" + os.path.join(tmp, "corpus.db")
        with open_store(url) as backend:
            started = time.perf_counter()
            backend.documents.save("corpus", indexed, "bench")
            save_seconds = time.perf_counter() - started

        started = time.perf_counter()
        fresh = open_store(url)
        locs = fresh.documents.run_steps("corpus", steps)
        pushdown_answers = serialize_answers(fresh.documents, "corpus",
                                             locs)
        pushdown_seconds = time.perf_counter() - started
        fresh.close()

        started = time.perf_counter()
        fresh = open_store(url)
        tree, _ = fresh.documents.load("corpus")
        materialized_answers = [
            serialize(tree.store, loc)
            for loc in evaluate_query(query, tree.store,
                                      {ROOT_VAR: [tree.root]})
        ]
        materialize_seconds = time.perf_counter() - started
        fresh.close()

    identical = pushdown_answers == materialized_answers == reference
    cold = {
        "query": COLD_START_QUERY,
        "answers": len(pushdown_answers),
        "answers_identical": identical,
        "save_ms": save_seconds * 1e3,
        "pushdown_ms": pushdown_seconds * 1e3,
        "materialize_ms": materialize_seconds * 1e3,
        "speedup": materialize_seconds / pushdown_seconds
        if pushdown_seconds else float("inf"),
    }
    say(f"cold start ({COLD_START_QUERY}): pushdown "
        f"{cold['pushdown_ms']:.2f}ms vs materialize "
        f"{cold['materialize_ms']:.2f}ms ({cold['speedup']:.1f}x), "
        f"{cold['answers']} answers"
        + ("" if identical else "  ANSWERS DIFFER"))
    return cold


def run_docstore_bench(target_bytes: int = 4_500_000, seed: int = 7,
                       repeats: int = 3, out=sys.stdout) -> dict:
    """Run the three-stack comparison; returns the results dict."""

    def say(message: str) -> None:
        if out is not None:
            print(message, file=out, flush=True)

    schema = xmark_dtd()
    say(f"generating XMark document (~{target_bytes:,} bytes, "
        f"seed {seed})...")
    generated = generate_document(schema, target_bytes, seed=seed)
    text = serialize(generated.store, generated.root)

    started = time.perf_counter()
    dict_tree = parse_xml(text)
    dict_load = time.perf_counter() - started
    nodes = dict_tree.size()

    started = time.perf_counter()
    indexed = load_xml(text).tree
    indexed_load = time.perf_counter() - started
    say(f"document: {nodes:,} nodes; dict parse {dict_load:.2f}s, "
        f"indexed load {indexed_load:.2f}s")

    queries = []
    answers_identical = True
    for name, source, kinds in BENCH_QUERIES:
        query = parse_query(source)

        def run_dict():
            return evaluate_query(query, dict_tree.store,
                                  {ROOT_VAR: [dict_tree.root]})

        def run_indexed():
            return evaluate_query(query, indexed.store,
                                  {ROOT_VAR: [indexed.root]})

        dict_answers = run_dict()
        indexed_answers = run_indexed()  # warms the rank index
        dict_seconds = _median_seconds(run_dict, repeats)
        indexed_seconds = _median_seconds(run_indexed, repeats)

        keep = chain_keep_for_query(source, schema)
        started = time.perf_counter()
        projected_result = load_xml(text, keep=keep)
        projected_load = time.perf_counter() - started
        projected_tree = projected_result.tree

        def run_projected():
            return evaluate_query(
                query, projected_tree.store,
                {ROOT_VAR: [projected_tree.root]},
            )

        projected_answers = run_projected()
        projected_seconds = _median_seconds(run_projected, repeats)

        reference = _answers_digest(dict_tree.store, dict_answers)
        identical = (
            _answers_digest(indexed.store, indexed_answers) == reference
            and _answers_digest(projected_tree.store,
                                projected_answers) == reference
        )
        answers_identical &= identical
        entry = {
            "name": name,
            "query": source,
            "kinds": sorted(kinds),
            "answers": len(dict_answers),
            "answers_identical": identical,
            "dict_ms": dict_seconds * 1e3,
            "indexed_ms": indexed_seconds * 1e3,
            "projected_ms": projected_seconds * 1e3,
            "projected_load_ms": projected_load * 1e3,
            "speedup": dict_seconds / indexed_seconds
            if indexed_seconds else float("inf"),
            "nodes_kept": projected_result.nodes_kept,
            "kept_ratio": projected_result.nodes_kept / nodes,
            "subtrees_skipped": projected_result.subtrees_skipped,
        }
        queries.append(entry)
        say(f"  {name:13s} dict {entry['dict_ms']:8.2f}ms  indexed "
            f"{entry['indexed_ms']:7.2f}ms ({entry['speedup']:6.1f}x)  "
            f"kept {entry['kept_ratio']:6.1%}  "
            f"answers {entry['answers']}"
            + ("" if identical else "  ANSWERS DIFFER"))

    cold = _cold_start_leg(indexed, say)

    descendant = [q for q in queries if "descendant" in q["kinds"]]
    selective = [q for q in queries if "selective" in q["kinds"]]
    results = {
        "bench": "docstore",
        "target_bytes": target_bytes,
        "seed": seed,
        "repeats": repeats,
        "nodes": nodes,
        "dict_load_seconds": dict_load,
        "indexed_load_seconds": indexed_load,
        "answers_identical": answers_identical,
        "min_descendant_speedup": min(q["speedup"] for q in descendant),
        "max_selective_kept_ratio": max(
            q["kept_ratio"] for q in selective
        ),
        "peak_nodes_kept": max(q["nodes_kept"] for q in selective),
        "cold_start": cold,
        "queries": queries,
    }
    say(f"descendant-axis speedup >= "
        f"{results['min_descendant_speedup']:.1f}x; selective "
        f"projections keep <= "
        f"{results['max_selective_kept_ratio']:.1%} of {nodes:,} nodes; "
        f"answers {'identical' if answers_identical else 'DIFFER'}")
    return results


__all__ = ["BENCH_QUERIES", "append_trajectory_point",
           "run_docstore_bench"]
