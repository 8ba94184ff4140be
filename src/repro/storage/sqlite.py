"""SQLite storage backend: one WAL database for verdicts + documents.

This module owns every pragma the repo applies to a SQLite store in
one :func:`connect` factory.  WAL keeps
readers unblocked and makes group commit cheap; it also supports
writers in *separate processes*, which is what lets ``repro load`` and
a running service write one store file.  A process holding a
:meth:`~SqliteVerdictKV.deferred` group-commit transaction briefly
blocks the other's commits, so the write lock gets a generous
``busy_timeout`` instead of surfacing ``SQLITE_BUSY``; ``mmap_size``
lets node-table range scans come straight from page-cache mappings.

Both facets share one connection (and one lock) opened by
:class:`SqliteBackend`, so ``sqlite:///x.db`` holds verdicts *and*
documents in a single file; :class:`SqliteMemoryBackend` serves
``memory://`` from a private ``:memory:`` database the same way.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager

from ..analysis.engine import PairVerdict
from .base import (
    DocumentStore,
    StorageBackend,
    StoredDocument,
    VerdictKV,
    compile_steps_sql,
    materialize,
    node_rows,
    timed_store_op,
)

#: Pragmas applied to every file-backed connection (``":memory:"``
#: databases skip them: WAL and mmap are meaningless without a file).
#: Pinned by ``tests/storage/test_conformance.py`` so the verdict and
#: document stores can never drift apart again.
PRAGMAS = (
    ("journal_mode", "wal"),
    ("busy_timeout", 10000),
    ("synchronous", 1),  # NORMAL
    ("mmap_size", 268435456),
)

_VERDICT_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    schema_digest TEXT NOT NULL,
    k             INTEGER NOT NULL,
    query_digest  TEXT NOT NULL,
    update_digest TEXT NOT NULL,
    independent   INTEGER NOT NULL,
    k_query       INTEGER NOT NULL,
    k_update      INTEGER NOT NULL,
    PRIMARY KEY (schema_digest, k, query_digest, update_digest)
) WITHOUT ROWID;
"""

_DOCUMENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    doc            TEXT PRIMARY KEY,
    schema_digest  TEXT NOT NULL,
    nodes          INTEGER NOT NULL,
    nodes_seen     INTEGER NOT NULL,
    subtrees_skipped INTEGER NOT NULL,
    meta           TEXT NOT NULL DEFAULT '{}',
    created        REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    doc    TEXT NOT NULL,
    loc    INTEGER NOT NULL,
    parent INTEGER,
    level  INTEGER NOT NULL,
    size   INTEGER NOT NULL,
    tag    TEXT,
    text   TEXT,
    PRIMARY KEY (doc, loc)
) WITHOUT ROWID;
"""

_ANCESTORS_SQL = """
WITH RECURSIVE up(loc) AS (
    SELECT parent FROM nodes WHERE doc = ? AND loc = ?
    UNION ALL
    SELECT n.parent FROM nodes n JOIN up ON n.loc = up.loc
        WHERE n.doc = ? AND up.loc IS NOT NULL
)
SELECT loc FROM up WHERE loc IS NOT NULL ORDER BY loc
"""

_DESCENDANTS_SQL = """
SELECT n.loc FROM nodes n JOIN nodes s
    ON n.doc = s.doc AND n.loc > s.loc AND n.loc < s.loc + s.size
WHERE s.doc = ? AND s.loc = ?{tag_filter} ORDER BY n.loc
"""


def connect(path: str) -> sqlite3.Connection:
    """The one SQLite connection factory every store goes through.

    ``check_same_thread=False`` because the asyncio service touches
    stores from the event loop (stats) and from the analysis worker
    thread (engine write-through); callers serialize access with a
    lock.  File-backed databases get :data:`PRAGMAS` applied.
    """
    connection = sqlite3.connect(path, check_same_thread=False)
    if path != ":memory:":
        for pragma, value in PRAGMAS:
            connection.execute(f"PRAGMA {pragma}={value}")
    return connection


class SqliteVerdictKV(VerdictKV):
    """SQLite-backed map from pair keys to slim verdicts.

    Opened by :class:`SqliteBackend` over its connection and lock (the
    same shape as :class:`~repro.storage.postgres.PgVerdictKV`), so the
    verdicts share a database and transaction scope with the sibling
    :class:`SqliteDocumentStore`.  Thread-safe: every connection
    access holds the lock.
    """

    def __init__(self, connection: sqlite3.Connection,
                 lock: threading.Lock, path: str):
        self.path = path
        self._lock = lock
        self._connection = connection
        self._deferred_depth = 0
        self._closed = False
        with self._lock:
            self._connection.execute(_VERDICT_SCHEMA)
            self._connection.commit()

    def get(self, schema_digest: str, k: int, query_digest: str,
            update_digest: str) -> PairVerdict | None:
        """The stored verdict for one pair key, or ``None``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT independent, k_query, k_update FROM verdicts"
                " WHERE schema_digest=? AND k=? AND query_digest=?"
                " AND update_digest=?",
                (schema_digest, k, query_digest, update_digest),
            ).fetchone()
        if row is None:
            return None
        independent, k_query, k_update = row
        return PairVerdict(
            independent=bool(independent),
            k=k,
            k_query=k_query,
            k_update=k_update,
            analysis_seconds=0.0,
        )

    def put(self, schema_digest: str, k: int, query_digest: str,
            update_digest: str, verdict: PairVerdict) -> None:
        """Write one verdict through (committed unless deferred)."""
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO verdicts VALUES (?,?,?,?,?,?,?)",
                (schema_digest, k, query_digest, update_digest,
                 int(verdict.independent), verdict.k_query,
                 verdict.k_update),
            )
            if self._deferred_depth == 0:
                self._connection.commit()

    def scan(self, schema_digest: str | None = None):
        """Iterate stored ``(schema_digest, k, query_digest,
        update_digest, verdict)`` rows in key order."""
        sql = ("SELECT schema_digest, k, query_digest, update_digest,"
               " independent, k_query, k_update FROM verdicts")
        params: tuple = ()
        if schema_digest is not None:
            sql += " WHERE schema_digest=?"
            params = (schema_digest,)
        with self._lock:
            rows = self._connection.execute(
                sql + " ORDER BY schema_digest, k, query_digest,"
                " update_digest", params
            ).fetchall()
        for digest, k, q, u, independent, k_query, k_update in rows:
            yield digest, k, q, u, PairVerdict(
                independent=bool(independent), k=k, k_query=k_query,
                k_update=k_update, analysis_seconds=0.0,
            )

    @contextmanager
    def deferred(self):
        """Group-commit scope: writes inside commit once at exit.

        Nests; only the outermost exit commits.  Entered by the
        micro-batcher around one coalesced ``analyze_matrix`` flush.
        """
        with self._lock:
            self._deferred_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._deferred_depth -= 1
                if self._deferred_depth == 0:
                    self._connection.commit()

    def count(self, schema_digest: str | None = None) -> int:
        """Stored verdicts, optionally restricted to one schema."""
        with self._lock:
            if schema_digest is None:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM verdicts"
                ).fetchone()
            else:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM verdicts WHERE schema_digest=?",
                    (schema_digest,),
                ).fetchone()
        return row[0]

    def stats(self) -> dict:
        """Path and size (the ``/stats`` store section)."""
        return {"path": self.path, "verdicts": self.count()}

    def close(self) -> None:
        """Commit pending writes (idempotent; the backend owns the
        connection)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._connection.commit()


class SqliteDocumentStore(DocumentStore):
    """The node-table database behind a service's loaded documents.

    Opened by :class:`SqliteBackend` over the connection and lock it
    shares with the sibling :class:`SqliteVerdictKV`.
    """

    def __init__(self, connection: sqlite3.Connection,
                 lock: threading.Lock, path: str):
        super().__init__()
        self.path = path
        self._lock = lock
        self._conn = connection
        with self._lock:
            self._conn.executescript(_DOCUMENT_SCHEMA)
            self._conn.commit()

    @timed_store_op("save")
    def save(self, doc, tree, schema_digest, nodes_seen=0,
             subtrees_skipped=0, meta=None) -> int:
        """Persist ``tree`` under ``doc`` (replacing any prior version).

        The tree is first compacted to canonical pre-order (location id
        == pre rank over the reachable nodes, root at location 0), so
        the row order *is* the document order and loading is a single
        range scan.  Returns the number of node rows written.
        """
        rows = [(doc,) + row for row in node_rows(tree)]
        with self._lock:
            with self._conn:  # one transaction: doc row + node rows
                self._conn.execute("DELETE FROM nodes WHERE doc = ?",
                                   (doc,))
                self._conn.execute(
                    "INSERT OR REPLACE INTO documents VALUES "
                    "(?, ?, ?, ?, ?, ?, strftime('%s', 'now'))",
                    (doc, schema_digest, len(rows),
                     nodes_seen or len(rows), subtrees_skipped,
                     json.dumps(meta or {})),
                )
                self._conn.executemany(
                    "INSERT INTO nodes VALUES (?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
        self.saves += 1
        return len(rows)

    def delete(self, doc: str) -> bool:
        """Drop a persisted document; returns whether it existed."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "DELETE FROM documents WHERE doc = ?", (doc,)
            )
            self._conn.execute("DELETE FROM nodes WHERE doc = ?", (doc,))
            return cursor.rowcount > 0

    def describe(self, doc: str) -> StoredDocument | None:
        """The catalog row of ``doc``, or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT doc, schema_digest, nodes, nodes_seen, "
                "subtrees_skipped, meta FROM documents WHERE doc = ?",
                (doc,),
            ).fetchone()
        if row is None:
            return None
        return StoredDocument(row[0], row[1], row[2], row[3], row[4],
                              json.loads(row[5]))

    @timed_store_op("load")
    def load(self, doc: str):
        """Re-materialize ``doc`` from its node table, or None.

        One ordered scan rebuilds the columnar arrays directly; child
        lists fill in document order because the rows *are* pre-order.
        """
        described = self.describe(doc)
        if described is None:
            self.misses += 1
            return None
        with self._lock:
            rows = self._conn.execute(
                "SELECT loc, parent, level, size, tag, text FROM nodes "
                "WHERE doc = ? ORDER BY loc", (doc,),
            ).fetchall()
        tree = materialize(rows, doc)
        self.hits += 1
        return tree, described

    def list_documents(self) -> list[StoredDocument]:
        """Catalog rows of every persisted document."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT doc, schema_digest, nodes, nodes_seen, "
                "subtrees_skipped, meta FROM documents ORDER BY doc"
            ).fetchall()
        return [StoredDocument(r[0], r[1], r[2], r[3], r[4],
                               json.loads(r[5])) for r in rows]

    def ancestors(self, doc: str, loc: int) -> list[int]:
        """Ancestor locations of ``loc``, root first, via a recursive
        CTE chasing the parent column -- no tree materialization."""
        with self._lock:
            rows = self._conn.execute(
                _ANCESTORS_SQL, (doc, loc, doc)
            ).fetchall()
        return [r[0] for r in rows]

    def descendants(self, doc: str, loc: int,
                    tag: str | None = None) -> list[int]:
        """Proper-descendant locations of ``loc`` in document order:
        one interval range scan (``loc < x < loc + size``) over the
        pre-ordered node table, optionally filtered by ``tag``."""
        tag_filter = "" if tag is None else " AND n.tag = ?"
        params = (doc, loc) if tag is None else (doc, loc, tag)
        with self._lock:
            rows = self._conn.execute(
                _DESCENDANTS_SQL.format(tag_filter=tag_filter), params
            ).fetchall()
        return [r[0] for r in rows]

    @timed_store_op("run_steps")
    def run_steps(self, doc: str, steps, *,
                  dedup: bool = False) -> list[int]:
        """Answer a compiled step chain with ONE SQL query over the
        node table -- range predicates on ``(pre, pre + size)`` for
        descendant steps, a parent-join for child steps, window
        functions for positional predicates -- without materializing
        the tree (see :func:`repro.storage.base.compile_steps_sql`)."""
        self._require_document(doc)
        sql, params = compile_steps_sql(doc, steps, placeholder="?",
                                        dedup=dedup)
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [r[0] for r in rows]

    def explain_steps(self, doc: str, steps, *,
                      dedup: bool = False) -> dict:
        """The exact parameterized SQL :meth:`run_steps` would execute
        (``?`` placeholders), without touching the database."""
        sql, params = compile_steps_sql(doc, steps, placeholder="?",
                                        dedup=dedup)
        return {"engine": "sql", "dialect": "sqlite", "sql": sql,
                "params": list(params)}

    def subtree_rows(self, doc: str, loc: int) -> list[tuple]:
        """The pre-order row slice of the subtree at ``loc``: one
        interval range scan ``loc <= x < loc + size``."""
        self._require_document(doc)
        with self._lock:
            rows = self._conn.execute(
                "SELECT n.loc, n.parent, n.level, n.size, n.tag, n.text"
                " FROM nodes n JOIN nodes s ON n.doc = s.doc"
                " AND n.loc >= s.loc AND n.loc < s.loc + s.size"
                " WHERE s.doc = ? AND s.loc = ? ORDER BY n.loc",
                (doc, loc),
            ).fetchall()
        return [tuple(row) for row in rows]

    def _require_document(self, doc: str) -> None:
        """Raise :class:`KeyError` when ``doc`` is not persisted."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM documents WHERE doc = ?", (doc,)
            ).fetchone()
        if row is None:
            raise KeyError(doc)

    def stats(self) -> dict:
        """Backend counters plus table sizes (one aggregate scan)."""
        with self._lock:
            documents, nodes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nodes), 0) FROM documents"
            ).fetchone()
        return {
            "path": self.path,
            "documents": documents,
            "nodes": nodes,
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
        }

    def close(self) -> None:
        """Nothing to release: the backend owns the connection."""


class SqliteBackend(StorageBackend):
    """One SQLite file holding both facets.

    The verdict KV and document store share one connection and one
    lock, so a unified ``sqlite:///x.db`` URL gives a service verdicts
    *and* documents in a single WAL database that several processes
    can write.
    """

    kind = "sqlite"
    shared = True

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._connection = connect(path)
        self._closed = False
        self.verdicts = SqliteVerdictKV(self._connection, self._lock, path)
        self.documents = SqliteDocumentStore(
            self._connection, self._lock, path
        )

    @property
    def url(self) -> str:
        """The canonical ``sqlite:///`` URL of this database."""
        return f"sqlite:///{self.path}"

    def close(self) -> None:
        """Flush both facets and close the shared connection."""
        self.verdicts.close()
        self.documents.close()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.close()


class SqliteMemoryBackend(SqliteBackend):
    """``memory://``: both facets over a private ``:memory:`` database.

    Per-process and unshared -- two opens share nothing -- which is
    why a service on it keeps no document store.
    """

    kind = "memory"
    shared = False

    def __init__(self):
        super().__init__(":memory:")

    @property
    def url(self) -> str:
        """The canonical ``memory://`` URL."""
        return "memory://"
