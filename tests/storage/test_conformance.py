"""Backend-agnostic storage conformance suite.

Every test in this module runs identically against ``memory://`` (a
private in-memory SQLite database) and a ``sqlite:///`` file (tier-1),
and against PostgreSQL when ``REPRO_PG_DSN`` is set (the CI
service-container leg).  The suite pins the storage
interface of :mod:`repro.storage.base`: verdict round-trips and
engine warm-starts, node-table save/load/compact, in-database axis
traversals, catalog operations, cross-instance visibility, and
busy-writer behavior under a held group-commit transaction.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.analysis.engine import AnalysisEngine, PairVerdict
from repro.docstore.adapter import apply_update_indexed
from repro.docstore.streamload import load_xml
from repro.docstore.pushdown import (
    compile_query,
    run_steps_on_tree,
    serialize_answers,
)
from repro.schema import bib_dtd, xmark_dtd
from repro.storage import StepSpec, open_store
from repro.xmldm import generate_document, serialize

PG_DSN = os.environ.get("REPRO_PG_DSN", "")

BACKENDS = [
    "memory",
    "sqlite",
    pytest.param(
        "postgres",
        marks=pytest.mark.skipif(
            not PG_DSN, reason="REPRO_PG_DSN not set"
        ),
    ),
]

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("/bib/book/author", "delete //editor"),
]


def _verdict(independent: bool = True) -> PairVerdict:
    return PairVerdict(independent=independent, k=3, k_query=1,
                       k_update=2, analysis_seconds=0.123)


def _indexed(dtd, byts, seed):
    tree = generate_document(dtd, byts, seed=seed)
    return load_xml(serialize(tree.store, tree.root)).tree


def _reset_postgres(dsn: str) -> None:
    """Drop the suite's tables so every test starts from nothing."""
    backend = open_store(dsn)
    try:
        connection = backend._connection
        for table in ("verdicts", "nodes", "documents"):
            connection.execute(f"DROP TABLE IF EXISTS {table}")
        connection.commit()
    finally:
        backend.close()


@pytest.fixture(params=BACKENDS)
def make_backend(request, tmp_path):
    """A factory opening (and re-opening) one backend target.

    Calling it twice models a restart: sqlite/postgres reopen the same
    durable target; memory -- per-process by design -- returns the
    same live object, which preserves the restart *semantics* the
    tests exercise (two engine instances over one store).
    """
    kind = request.param
    opened = []
    if kind == "memory":
        shared = open_store("memory://")
        opened.append(shared)

        def factory():
            return shared
    elif kind == "sqlite":
        url = f"sqlite:///{tmp_path}/store.db"

        def factory():
            backend = open_store(url)
            opened.append(backend)
            return backend
    else:
        _reset_postgres(PG_DSN)

        def factory():
            backend = open_store(PG_DSN)
            opened.append(backend)
            return backend

    factory.kind = kind
    yield factory
    for backend in opened:
        backend.close()


class TestVerdictConformance:
    def test_miss_returns_none(self, make_backend):
        assert make_backend().verdicts.get("d", 1, "q", "u") is None

    def test_put_then_get_fields(self, make_backend):
        kv = make_backend().verdicts
        kv.put("d", 3, "q", "u", _verdict())
        verdict = kv.get("d", 3, "q", "u")
        assert verdict.independent is True
        assert (verdict.k, verdict.k_query, verdict.k_update) == (3, 1, 2)
        # Timing is not persisted: stored verdicts are free.
        assert verdict.analysis_seconds == 0.0

    def test_key_is_four_dimensional(self, make_backend):
        kv = make_backend().verdicts
        kv.put("d", 3, "q", "u", _verdict(True))
        kv.put("d", 4, "q", "u", _verdict(False))
        kv.put("e", 3, "q", "u", _verdict(False))
        assert kv.get("d", 3, "q", "u").independent
        assert not kv.get("d", 4, "q", "u").independent
        assert not kv.get("e", 3, "q", "u").independent
        assert kv.get("d", 3, "q", "other") is None

    def test_overwrite_updates_in_place(self, make_backend):
        kv = make_backend().verdicts
        kv.put("d", 3, "q", "u", _verdict(True))
        kv.put("d", 3, "q", "u", _verdict(False))
        assert kv.count() == 1
        assert not kv.get("d", 3, "q", "u").independent

    def test_count_stats_and_scan(self, make_backend):
        kv = make_backend().verdicts
        kv.put("d", 3, "q", "u", _verdict())
        kv.put("d", 3, "q2", "u", _verdict())
        kv.put("e", 3, "q", "u", _verdict(False))
        assert kv.count() == 3
        assert kv.count("d") == 2
        assert kv.stats()["verdicts"] == 3
        rows = list(kv.scan())
        assert len(rows) == 3
        assert rows[0][:4] == ("d", 3, "q", "u")
        assert all(isinstance(r[4], PairVerdict) for r in rows)
        only_e = list(kv.scan("e"))
        assert len(only_e) == 1 and not only_e[0][4].independent

    def test_deferred_commits_once_and_nests(self, make_backend):
        kv = make_backend().verdicts
        with kv.deferred():
            with kv.deferred():
                kv.put("d", 3, "q", "u", _verdict())
            kv.put("d", 3, "q2", "u", _verdict())
        assert kv.count() == 2

    def test_rows_survive_reopen(self, make_backend):
        make_backend().verdicts.put("d", 3, "q", "u", _verdict(False))
        reopened = make_backend().verdicts
        verdict = reopened.get("d", 3, "q", "u")
        assert verdict is not None and not verdict.independent

    def test_engine_warm_start(self, make_backend, bib):
        """The acceptance pin: a cold engine attached to a warm store
        serves every already-seen pair without building a universe."""
        warm_backend = make_backend()
        warm = AnalysisEngine(bib)
        warm.attach_store(warm_backend.verdicts)
        expected = [
            warm.analyze_pair(q, u, collect_witnesses=False).independent
            for q, u in PAIRS
        ]
        assert warm.stats.store_writes == len(PAIRS)
        assert warm.stats.universes_built >= 1

        cold = AnalysisEngine(bib)
        cold.attach_store(make_backend().verdicts)
        served = [
            cold.analyze_pair(q, u, collect_witnesses=False).independent
            for q, u in PAIRS
        ]
        assert served == expected
        assert cold.stats.store_hits == len(PAIRS)
        assert cold.stats.universes_built == 0

    def test_engine_accepts_whole_backend(self, make_backend, bib):
        """attach_store unwraps a StorageBackend to its verdict KV."""
        backend = make_backend()
        engine = AnalysisEngine(bib)
        engine.attach_store(backend)
        assert engine.store is backend.verdicts
        engine.analyze_pair(*PAIRS[0], collect_witnesses=False)
        assert backend.verdicts.count() == 1

    def test_busy_writer_waits_out_a_held_transaction(self,
                                                      make_backend):
        """A writer arriving while another connection holds a deferred
        group-commit transaction must wait it out (not fail), and both
        writes must land."""
        first = make_backend().verdicts
        second = make_backend().verdicts
        entered = threading.Event()

        def competing_write():
            entered.wait(5)
            second.put("d", 3, "q2", "u", _verdict(False))

        thread = threading.Thread(target=competing_write)
        thread.start()
        with first.deferred():
            first.put("d", 3, "q1", "u", _verdict())
            entered.set()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert first.count() == 2
        assert second.get("d", 3, "q1", "u") is not None


class TestDocumentConformance:
    def test_save_load_round_trip(self, make_backend):
        tree = _indexed(xmark_dtd(), 20_000, 3)
        documents = make_backend().documents
        rows = documents.save("doc", tree, "digest-a", nodes_seen=999,
                              subtrees_skipped=7,
                              meta={"projected": True})
        assert rows == len(tree.store)
        loaded, stored = make_backend().documents.load("doc")
        assert serialize(loaded.store, loaded.root) == \
            serialize(tree.store, tree.root)
        assert stored.schema_digest == "digest-a"
        assert stored.nodes_seen == 999
        assert stored.subtrees_skipped == 7
        assert stored.meta == {"projected": True}

    def test_loaded_tree_does_not_alias_saved_tree(self, make_backend):
        tree = _indexed(bib_dtd(), 4_000, 5)
        documents = make_backend().documents
        documents.save("doc", tree, "d")
        loaded, _ = documents.load("doc")
        before = serialize(tree.store, tree.root)
        apply_update_indexed("delete //title", loaded)
        # Mutating the loaded copy must not corrupt the persisted one.
        again, _ = documents.load("doc")
        assert serialize(again.store, again.root) == before

    def test_mutated_tree_compacts_on_save(self, make_backend):
        tree = _indexed(xmark_dtd(), 20_000, 3)
        apply_update_indexed("delete //emailaddress", tree)
        live = tree.size()
        assert live < len(tree.store)  # garbage exists pre-compaction
        documents = make_backend().documents
        rows = documents.save("doc", tree, "digest-c")
        assert rows == live
        loaded, _ = documents.load("doc")
        assert serialize(loaded.store, loaded.root) == \
            serialize(tree.store, tree.root)

    def test_overwrite_replaces_rows(self, make_backend):
        small = _indexed(bib_dtd(), 2_000, 5)
        big = _indexed(bib_dtd(), 8_000, 6)
        documents = make_backend().documents
        documents.save("doc", big, "d")
        documents.save("doc", small, "d")
        loaded, stored = documents.load("doc")
        assert serialize(loaded.store, loaded.root) == \
            serialize(small.store, small.root)
        assert stored.nodes == len(small.store)

    def test_catalog_miss_counters_list_delete(self, make_backend):
        documents = make_backend().documents
        assert documents.load("missing") is None
        tree = _indexed(bib_dtd(), 2_000, 5)
        documents.save("a", tree, "d1")
        documents.save("b", tree, "d2")
        documents.load("a")
        stats = documents.stats()
        assert stats["documents"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["saves"] == 2
        assert stats["nodes"] == 2 * len(tree.store)
        assert [d.doc for d in documents.list_documents()] == ["a", "b"]
        assert documents.delete("a") is True
        assert documents.delete("a") is False
        assert documents.describe("a") is None
        assert documents.describe("b") is not None


class TestTraversalConformance:
    """In-database axis traversals over the persisted node table
    (recursive CTE / interval range scan in the SQL backends) must
    agree with the materialized tree's own structure."""

    @pytest.fixture()
    def persisted(self, make_backend):
        tree = _indexed(xmark_dtd(), 12_000, 4)
        documents = make_backend().documents
        documents.save("doc", tree, "d")
        return documents, tree

    def test_descendants_match_interval_encoding(self, persisted):
        documents, tree = persisted
        store = tree.store
        for loc in (tree.root, 1, len(store) // 2):
            size = store._size[loc]
            expected = list(range(loc + 1, loc + size))
            assert documents.descendants("doc", loc) == expected

    def test_descendants_tag_filter(self, persisted):
        documents, tree = persisted
        store = tree.store
        got = documents.descendants("doc", tree.root, tag="emailaddress")
        expected = [loc for loc in range(1, len(store))
                    if store._tags[loc] == "emailaddress"]
        assert got == expected and got  # non-trivial on xmark

    def test_ancestors_match_parent_chain(self, persisted):
        documents, tree = persisted
        store = tree.store
        leaf = max(range(len(store)), key=lambda loc: store._level[loc])
        chain = []
        parent = store._parent[leaf]
        while parent is not None:
            chain.append(parent)
            parent = store._parent[parent]
        assert documents.ancestors("doc", leaf) == sorted(chain)
        assert documents.ancestors("doc", tree.root) == []


class TestRunStepsConformance:
    """The ``run_steps`` backend op (SQL pushdown) must agree across
    backends and with the in-memory reference on nested-loop order,
    duplicate multiplicity, positional predicates, dedup, and empty
    results."""

    #: Pushdown-eligible surface queries exercised against xmark.
    QUERIES = (
        "//emailaddress",
        "/site/people/person/name",
        "//person/name",
        "//text()",
        "//open_auction//increase",
        "/site/regions//item",
        "//*",
    )

    #: Nested same-tag document: ``//a//c`` has real duplicates.
    NESTED = ("<r><a>one<a><c>x</c><a><c>deep</c></a></a><c>top</c></a>"
              "<b><c>bc</c></b><a><c>last</c></a></r>")

    @pytest.fixture()
    def persisted(self, make_backend):
        tree = _indexed(xmark_dtd(), 12_000, 4)
        documents = make_backend().documents
        documents.save("doc", tree, "d")
        return documents, tree

    def test_queries_match_reference_and_serialize(self, persisted):
        documents, tree = persisted
        for source in self.QUERIES:
            steps = compile_query(source)
            assert steps is not None, source
            expected = run_steps_on_tree(tree, steps)
            got = documents.run_steps("doc", steps)
            assert got == expected, source
            head = got[:5]
            assert serialize_answers(documents, "doc", head) == \
                [serialize(tree.store, loc) for loc in head], source

    def test_duplicates_preserved_and_dedup_collapses(self,
                                                      make_backend):
        tree = load_xml(self.NESTED).tree
        documents = make_backend().documents
        documents.save("nested", tree, "d")
        steps = compile_query("//a//c")
        expected = run_steps_on_tree(tree, steps)
        # The nested-loop semantics really produce duplicates here.
        assert len(expected) > len(set(expected))
        assert documents.run_steps("nested", steps) == expected
        deduped = documents.run_steps("nested", steps, dedup=True)
        assert deduped == sorted(set(expected))  # document order
        assert deduped == run_steps_on_tree(tree, steps, dedup=True)

    def test_positional_predicates(self, persisted):
        documents, tree = persisted
        chains = (
            [StepSpec("descendant", "name", "person"),
             StepSpec("child", "node", position=1)],
            [StepSpec("descendant", "name", "person", position=2)],
            [StepSpec("descendant-child", "name", "person"),
             StepSpec("child", "name", "name", position=1)],
        )
        for steps in chains:
            expected = run_steps_on_tree(tree, steps)
            assert expected, steps  # non-trivial on xmark
            assert documents.run_steps("doc", steps) == expected, steps

    def test_empty_results(self, persisted):
        documents, _ = persisted
        ghost = [StepSpec("descendant", "name", "no-such-tag")]
        assert documents.run_steps("doc", ghost) == []
        assert documents.run_steps("doc", ghost, dedup=True) == []
        # A position past the last match is empty, not an error.
        past = [StepSpec("child", "node", position=99)]
        assert documents.run_steps("doc", past) == []

    def test_missing_document_raises_keyerror(self, make_backend):
        documents = make_backend().documents
        with pytest.raises(KeyError):
            documents.run_steps("ghost", [StepSpec("child", "name", "a")])
        with pytest.raises(KeyError):
            documents.subtree_rows("ghost", 0)

    def test_malformed_chains_rejected(self, make_backend):
        documents = make_backend().documents
        documents.save("doc", _indexed(bib_dtd(), 2_000, 5), "d")
        for bad in ([],
                    [StepSpec("parent", "name", "a")],
                    [StepSpec("child", "bogus")],
                    [StepSpec("child", "name")],
                    [StepSpec("child", "text", "a")],
                    [StepSpec("child", "name", "a", position=0)]):
            with pytest.raises(ValueError):
                documents.run_steps("doc", bad)

    def test_subtree_rows_round_trip(self, persisted):
        documents, tree = persisted
        rows = documents.subtree_rows("doc", 0)
        assert [r[0] for r in rows] == list(range(len(tree.store)))
        some = documents.run_steps(
            "doc", compile_query("//emailaddress"))[0]
        slice_rows = documents.subtree_rows("doc", some)
        assert slice_rows[0][0] == some
        assert len(slice_rows) == slice_rows[0][3]  # size includes self


class TestSqlitePragmas:
    """The one connection factory gives every file-backed sqlite
    store the same pragmas, and both facets run on that connection."""

    def _pragmas(self, connection):
        from repro.storage.sqlite import PRAGMAS

        return {
            pragma: connection.execute(
                f"PRAGMA {pragma}"
            ).fetchone()[0]
            for pragma, _ in PRAGMAS
        }

    def test_pinned_values(self):
        from repro.storage.sqlite import PRAGMAS

        assert dict(PRAGMAS) == {
            "journal_mode": "wal",
            "busy_timeout": 10000,
            "synchronous": 1,  # NORMAL
            "mmap_size": 268435456,
        }

    def test_every_file_connection_gets_them(self, tmp_path):
        from repro.storage.sqlite import PRAGMAS

        with open_store(f"sqlite:///{tmp_path / 'a.db'}") as backend:
            assert self._pragmas(backend._connection) == dict(PRAGMAS)
            # The facets open nothing of their own.
            assert backend.verdicts._connection is backend._connection
            assert backend.documents._conn is backend._connection

    def test_memory_connections_skip_file_pragmas(self):
        with open_store("memory://") as backend:
            mode = backend._connection.execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
            assert mode == "memory"

    def test_memory_url_is_private_and_unshared(self):
        """``memory://`` is the SQLite backend over a private
        ``:memory:`` database: unshared, and two opens see nothing of
        each other."""
        with open_store("memory://") as one, \
                open_store("memory://") as two:
            assert (one.kind, one.shared, one.url) == \
                ("memory", False, "memory://")
            one.verdicts.put("d", 3, "q", "u", _verdict())
            assert one.verdicts.count() == 1
            assert two.verdicts.get("d", 3, "q", "u") is None
            assert two.verdicts.count() == 0


class TestSqliteCrossProcess:
    """The multi-process sharing property ``repro load`` beside a
    running service relies on: a second *process* opening the same
    sqlite store URL sees committed rows and can write alongside a busy
    writer."""

    def test_second_process_reads_and_writes(self, tmp_path):
        import subprocess
        import sys

        db = str(tmp_path / "shared.db")
        with open_store(f"sqlite:///{db}") as backend:
            backend.verdicts.put("d", 3, "q", "u", _verdict())
            script = (
                "from repro.storage import open_store\n"
                "from repro.analysis.engine import PairVerdict\n"
                f"backend = open_store('sqlite:///{db}')\n"
                "assert backend.verdicts.get('d', 3, 'q', 'u') "
                "is not None\n"
                "backend.verdicts.put('d', 3, 'q2', 'u', PairVerdict("
                "independent=False, k=3, k_query=1, k_update=1, "
                "analysis_seconds=0.0))\n"
                "backend.close()\n"
            )
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            assert backend.verdicts.count() == 2
            assert not backend.verdicts.get("d", 3, "q2", "u").independent
