"""Differential property suite for SQL pushdown (ISSUE 7).

Hypothesis drives fuzzer-generated schemas, documents, and
pushdown-eligible queries through three evaluators:

1. the dict-store evaluator (the Section-2 reference semantics),
2. the indexed in-memory evaluator (axis accelerators),
3. ``SqliteDocumentStore.run_steps`` (the SQL pushdown itself, answers
   serialized straight from node-row range scans),

and asserts byte-identical serialized answers *in identical document
order* -- including the nested-loop duplicate multiplicity the
desugared For-chains produce.  The pushdown's locations are also
diffed against ``run_steps_on_tree`` (the axis accelerators answering
the same step chain), and positional predicates and dedup get their
own differential legs against it.

When a differential fails, the (Hypothesis-shrunk) counterexample is
written to ``tests/corpus/pushdown-<digest>.json``; committing such a
file makes ``test_corpus_replays_agree`` guard it forever.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.pushdown import (
    compile_query,
    run_steps_on_tree,
    serialize_answers,
)
from repro.docstore.streamload import load_xml
from repro.storage import open_store
from repro.xmldm.parse import parse_xml
from repro.xmldm.serialize import serialize
from repro.xquery.ast import ROOT_VAR
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_query

from ..strategies import trees

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

KIND = "pushdown-divergence"


@st.composite
def eligible_queries(draw, dtd) -> str:
    """A surface query inside the pushdown fragment: 1-3 downward
    steps over the schema's alphabet (``/`` or ``//``, names or
    wildcards), optionally ending in a ``text()``/``node()`` step."""
    tags = sorted(dtd.alphabet)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        separator = draw(st.sampled_from(["/", "//"]))
        test = draw(st.sampled_from(tags + ["*"]))
        parts.append(separator + test)
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(
            ["/text()", "//text()", "//node()"]
        )))
    return "".join(parts)


def _evaluated(tree, query) -> list[str]:
    """Serialized evaluator answers on an in-memory tree."""
    return [
        serialize(tree.store, loc)
        for loc in evaluate_query(query, tree.store,
                                  {ROOT_VAR: [tree.root]})
    ]


def _dump_counterexample(xml: str, query_text: str,
                         note: str) -> Path:
    """Persist a shrunk counterexample for corpus replay."""
    digest = hashlib.sha256(
        f"{query_text}\x1e{xml}".encode()
    ).hexdigest()[:12]
    path = CORPUS_DIR / f"pushdown-{digest}.json"
    path.write_text(json.dumps({
        "kind": KIND,
        "query": query_text,
        "xml": xml,
        "provenance": {"origin": "hypothesis", "note": note},
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _assert_differential(xml: str, query_text: str) -> None:
    """The differential byte-identity check one corpus entry pins."""
    query = parse_query(query_text)
    steps = compile_query(query)
    assert steps is not None, (
        f"query left the pushdown fragment: {query_text!r}"
    )
    expected = _evaluated(parse_xml(xml), query)
    indexed = load_xml(xml).tree
    assert _evaluated(indexed, query) == expected

    with open_store("memory://") as backend:
        sqlite = backend.documents
        sqlite.save("d", indexed, "g")
        sqlite_locs = sqlite.run_steps("d", steps)
        # Same locations (hence same document order), then same bytes.
        assert sqlite_locs == run_steps_on_tree(indexed, steps)
        assert serialize_answers(sqlite, "d", sqlite_locs) == expected

        # Dedup leg: distinct locations in document order, everywhere.
        deduped = sqlite.run_steps("d", steps, dedup=True)
        assert deduped == sorted(set(sqlite_locs))
        assert run_steps_on_tree(indexed, steps, dedup=True) == deduped

        # Positional leg: keep each context's n-th match of the final
        # step; the backend must agree with the in-memory reference.
        for position in (1, 2):
            positional = steps[:-1] + [
                replace(steps[-1], position=position)
            ]
            reference = run_steps_on_tree(indexed, positional)
            assert sqlite.run_steps("d", positional) == reference


@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=trees())
def test_pushdown_differential(data, case):
    dtd, dict_tree = case
    xml = serialize(dict_tree.store, dict_tree.root)
    query_text = data.draw(eligible_queries(dtd))
    try:
        _assert_differential(xml, query_text)
    except AssertionError:
        # Hypothesis shrinks through repeated calls; the last write is
        # the shrunk counterexample, ready to commit for replay.
        _dump_counterexample(
            xml, query_text,
            "pushdown answers diverged from the evaluator",
        )
        raise


CORPUS_FILES = sorted(
    path for path in CORPUS_DIR.glob("pushdown-*.json")
    if json.loads(path.read_text(encoding="utf-8")).get("kind") == KIND
)


def test_corpus_exists():
    assert CORPUS_FILES, "pushdown regression corpus must not be empty"


def test_corpus_replays_agree():
    """Every committed counterexample must stay fixed: the differential
    that once failed now passes."""
    for path in CORPUS_FILES:
        entry = json.loads(path.read_text(encoding="utf-8"))
        _assert_differential(entry["xml"], entry["query"])
