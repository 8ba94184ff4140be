"""In-memory storage backend: per-process dicts, full interface.

``memory://`` gives the exact storage semantics of the SQL backends --
same row codec, same counters, same traversals -- without any file, so
tests and ephemeral services (``--store memory://``) exercise identical
code paths.  State is per-process: two processes opening ``memory://``
see independent stores (``shared = False``), which is why the sharded
router aggregates memory-store stats by *sum* and shared-store stats
by *max*.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import replace

from .base import (
    DocumentStore,
    StorageBackend,
    StoredDocument,
    VerdictKV,
    check_steps,
    materialize,
    node_rows,
    timed_store_op,
)


class MemoryVerdictKV(VerdictKV):
    """Dict-backed verdict map (ephemeral, thread-safe)."""

    def __init__(self):
        self.path = ":memory:"
        self._lock = threading.Lock()
        self._rows: dict[tuple, object] = {}

    def get(self, schema_digest, k, query_digest, update_digest):
        """The stored verdict for one pair key, or ``None``."""
        with self._lock:
            return self._rows.get(
                (schema_digest, k, query_digest, update_digest)
            )

    def put(self, schema_digest, k, query_digest, update_digest,
            verdict) -> None:
        """Store one verdict (a dict write *is* the commit).

        Timing is dropped like the SQL backends drop it: a stored
        verdict reads back with ``analysis_seconds == 0.0``.
        """
        with self._lock:
            self._rows[
                (schema_digest, k, query_digest, update_digest)
            ] = replace(verdict, analysis_seconds=0.0)

    def scan(self, schema_digest=None):
        """Iterate stored ``(schema_digest, k, query_digest,
        update_digest, verdict)`` rows in key order."""
        with self._lock:
            items = sorted(self._rows.items())
        for (digest, k, q, u), verdict in items:
            if schema_digest is None or digest == schema_digest:
                yield digest, k, q, u, verdict

    @contextmanager
    def deferred(self):
        """Group-commit scope; a no-op here (writes are immediate)."""
        yield self

    def count(self, schema_digest=None) -> int:
        """Stored verdicts, optionally restricted to one schema."""
        with self._lock:
            if schema_digest is None:
                return len(self._rows)
            return sum(1 for key in self._rows
                       if key[0] == schema_digest)

    def stats(self) -> dict:
        """Path and size (the ``/stats`` store section)."""
        return {"path": self.path, "verdicts": self.count()}

    def close(self) -> None:
        """Nothing to release (idempotent)."""


class MemoryDocumentStore(DocumentStore):
    """Dict-backed node table + catalog (ephemeral, thread-safe).

    Persists the same row tuples as the SQL backends and rebuilds
    through :func:`repro.storage.base.materialize`, so a loaded tree
    never aliases the saved one and round-trips identically.
    """

    def __init__(self):
        super().__init__()
        self.path = ":memory:"
        self._lock = threading.Lock()
        self._catalog: dict[str, StoredDocument] = {}
        self._nodes: dict[str, list[tuple]] = {}
        # Materialized trees backing run_steps (the rows already live
        # in RAM here, so answering through the in-memory accelerators
        # is the honest equivalent of the SQL backends' pushdown);
        # invalidated whenever the document is rewritten.
        self._steps_trees: dict[str, object] = {}

    @timed_store_op("save")
    def save(self, doc, tree, schema_digest, nodes_seen=0,
             subtrees_skipped=0, meta=None) -> int:
        """Persist ``tree`` under ``doc`` as canonical row tuples."""
        rows = node_rows(tree)
        with self._lock:
            self._nodes[doc] = rows
            self._steps_trees.pop(doc, None)
            self._catalog[doc] = StoredDocument(
                doc, schema_digest, len(rows),
                nodes_seen or len(rows), subtrees_skipped,
                dict(meta or {}),
            )
        self.saves += 1
        return len(rows)

    def delete(self, doc: str) -> bool:
        """Drop a persisted document; returns whether it existed."""
        with self._lock:
            existed = doc in self._catalog
            self._catalog.pop(doc, None)
            self._nodes.pop(doc, None)
            self._steps_trees.pop(doc, None)
        return existed

    def describe(self, doc: str) -> StoredDocument | None:
        """The catalog row of ``doc``, or None."""
        with self._lock:
            return self._catalog.get(doc)

    @timed_store_op("load")
    def load(self, doc: str):
        """Re-materialize ``doc`` from its stored rows, or None."""
        with self._lock:
            described = self._catalog.get(doc)
            rows = self._nodes.get(doc)
        if described is None:
            self.misses += 1
            return None
        tree = materialize(rows, doc)
        self.hits += 1
        return tree, described

    def list_documents(self) -> list[StoredDocument]:
        """Catalog rows of every persisted document."""
        with self._lock:
            return [self._catalog[doc] for doc in sorted(self._catalog)]

    def ancestors(self, doc: str, loc: int) -> list[int]:
        """Ancestor locations of ``loc``, root first, chased through
        the stored parent column."""
        with self._lock:
            rows = self._nodes.get(doc)
        if rows is None:
            raise KeyError(doc)
        chain = []
        parent = rows[loc][1]
        while parent is not None:
            chain.append(parent)
            parent = rows[parent][1]
        return sorted(chain)

    def descendants(self, doc: str, loc: int,
                    tag: str | None = None) -> list[int]:
        """Proper-descendant locations of ``loc`` in document order
        (interval scan over the stored pre-order rows)."""
        with self._lock:
            rows = self._nodes.get(doc)
        if rows is None:
            raise KeyError(doc)
        size = rows[loc][3]
        return [
            x for x in range(loc + 1, loc + size)
            if tag is None or rows[x][4] == tag
        ]

    @timed_store_op("run_steps")
    def run_steps(self, doc: str, steps, *,
                  dedup: bool = False) -> list[int]:
        """Answer a compiled step chain via the in-memory axis
        accelerators (the rows already live in this process, so the
        conformance suite stays three-way against the SQL pushdown)."""
        from ..docstore.pushdown import run_steps_on_tree

        check_steps(steps)
        with self._lock:
            rows = self._nodes.get(doc)
            tree = self._steps_trees.get(doc)
        if rows is None:
            raise KeyError(doc)
        if tree is None:
            tree = materialize(rows, doc)
            with self._lock:
                self._steps_trees[doc] = tree
        return run_steps_on_tree(tree, steps, dedup=dedup)

    def explain_steps(self, doc: str, steps, *,
                      dedup: bool = False) -> dict:
        """In-process answering via the axis accelerators: a tree walk,
        no SQL (the base default, made explicit here)."""
        check_steps(steps)
        return {"engine": "tree", "dialect": "memory", "sql": None,
                "params": []}

    def subtree_rows(self, doc: str, loc: int) -> list[tuple]:
        """The pre-order row slice of the subtree at ``loc`` (one
        list slice: rows are stored in canonical pre-order)."""
        with self._lock:
            rows = self._nodes.get(doc)
        if rows is None:
            raise KeyError(doc)
        size = rows[loc][3]
        return rows[loc:loc + size]

    def stats(self) -> dict:
        """Backend counters plus table sizes."""
        with self._lock:
            documents = len(self._catalog)
            nodes = sum(d.nodes for d in self._catalog.values())
        return {
            "path": self.path,
            "documents": documents,
            "nodes": nodes,
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
        }

    def close(self) -> None:
        """Nothing to release (idempotent)."""


class MemoryBackend(StorageBackend):
    """Both facets over per-process dicts (``memory://``)."""

    kind = "memory"
    shared = False

    def __init__(self):
        self.verdicts = MemoryVerdictKV()
        self.documents = MemoryDocumentStore()

    @property
    def url(self) -> str:
        """The canonical ``memory://`` URL."""
        return "memory://"

    def close(self) -> None:
        """Close both facets (a no-op for dicts)."""
        self.verdicts.close()
        self.documents.close()
