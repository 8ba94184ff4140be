"""Document backend: node-table round trips, restart behavior,
compaction of mutated trees, and counters."""

import sqlite3
from contextlib import contextmanager

import pytest

from repro.docstore.adapter import apply_update_indexed
from repro.storage import open_store
from repro.docstore.streamload import load_xml
from repro.schema import bib_dtd, xmark_dtd
from repro.xmldm import generate_document, serialize
from repro.xquery.ast import ROOT_VAR
from repro.xquery.evaluator import evaluate_query
from repro.xquery.parser import parse_query


def _indexed(dtd, byts, seed):
    tree = generate_document(dtd, byts, seed=seed)
    return load_xml(serialize(tree.store, tree.root)).tree


@contextmanager
def _documents(path: str):
    """The document facet of the SQLite store at ``path`` (closed on
    exit)."""
    with open_store(f"sqlite:///{path}") as backend:
        yield backend.documents


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "docs.sqlite")


class TestRoundTrip:
    def test_save_load_identical(self, db_path):
        tree = _indexed(xmark_dtd(), 20_000, 3)
        with _documents(db_path) as backend:
            rows = backend.save("doc", tree, "digest-a",
                                nodes_seen=999, subtrees_skipped=7,
                                meta={"projected": True})
            assert rows == len(tree.store)
            loaded, stored = backend.load("doc")
        assert serialize(loaded.store, loaded.root) == \
            serialize(tree.store, tree.root)
        assert stored.schema_digest == "digest-a"
        assert stored.nodes_seen == 999
        assert stored.subtrees_skipped == 7
        assert stored.meta == {"projected": True}

    def test_survives_restart(self, db_path):
        tree = _indexed(bib_dtd(), 6_000, 5)
        with _documents(db_path) as backend:
            backend.save("doc", tree, "digest-b")
        with _documents(db_path) as backend:
            loaded, _ = backend.load("doc")
            assert serialize(loaded.store, loaded.root) == \
                serialize(tree.store, tree.root)
            # The restored index answers accelerated queries directly.
            query = parse_query("//title")
            answers = evaluate_query(query, loaded.store,
                                     {ROOT_VAR: [loaded.root]})
            assert answers

    def test_mutated_tree_compacts_on_save(self, db_path):
        tree = _indexed(xmark_dtd(), 20_000, 3)
        apply_update_indexed("delete //emailaddress", tree)
        live = tree.size()
        assert live < len(tree.store)  # garbage exists pre-compaction
        with _documents(db_path) as backend:
            rows = backend.save("doc", tree, "digest-c")
            assert rows == live
            loaded, _ = backend.load("doc")
        assert serialize(loaded.store, loaded.root) == \
            serialize(tree.store, tree.root)

    def test_overwrite_replaces_rows(self, db_path):
        small = _indexed(bib_dtd(), 2_000, 5)
        big = _indexed(bib_dtd(), 8_000, 6)
        with _documents(db_path) as backend:
            backend.save("doc", big, "d")
            backend.save("doc", small, "d")
            loaded, _ = backend.load("doc")
            assert serialize(loaded.store, loaded.root) == \
                serialize(small.store, small.root)
            with sqlite3.connect(db_path) as conn:
                count = conn.execute(
                    "SELECT COUNT(*) FROM nodes WHERE doc='doc'"
                ).fetchone()[0]
            assert count == len(loaded.store)


class TestCatalog:
    def test_miss_and_counters(self, db_path):
        with _documents(db_path) as backend:
            assert backend.load("missing") is None
            tree = _indexed(bib_dtd(), 2_000, 5)
            backend.save("a", tree, "d")
            backend.load("a")
            stats = backend.stats()
        assert stats["documents"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["saves"] == 1
        assert stats["nodes"] == len(tree.store)

    def test_list_and_delete(self, db_path):
        tree = _indexed(bib_dtd(), 2_000, 5)
        with _documents(db_path) as backend:
            backend.save("a", tree, "d1")
            backend.save("b", tree, "d2")
            docs = backend.list_documents()
            assert [d.doc for d in docs] == ["a", "b"]
            assert backend.delete("a") is True
            assert backend.delete("a") is False
            assert backend.describe("a") is None
            assert backend.describe("b") is not None
