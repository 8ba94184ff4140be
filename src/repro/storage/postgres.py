"""PostgreSQL storage backend: one server shared by many hosts.

Several hosts (services, ``repro load`` runs) can share one server.
Same interface, same row codec as the
SQLite backend, with the server doing the heavy lifting:

* **server-side group commit** -- :meth:`PgVerdictKV.deferred` holds
  one transaction open across a coalesced micro-batch flush, so a
  batch of verdict upserts costs a single ``COMMIT`` (and a single
  WAL fsync) on the server;
* **advisory-lock guarded compaction** -- :meth:`PgDocumentStore.save`
  takes ``pg_advisory_xact_lock(hashtext(doc))`` before rewriting a
  document's node rows, so two hosts saving the same document serialize
  on the server without table-level locking (different documents never
  contend);
* **recursive-CTE traversals** -- :meth:`~PgDocumentStore.ancestors`
  chases the parent column and :meth:`~PgDocumentStore.descendants`
  range-scans the interval encoding entirely inside the database, so
  axis queries on persisted documents need no re-materialization.

The dependency is gated: ``psycopg`` (v3) is only required when a
``postgresql://`` URL is actually opened.  Install with
``pip install repro-bidoit-tollu[postgres]``.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager

try:  # psycopg (v3) is an optional extra; see pyproject [postgres]
    import psycopg
except ImportError:  # pragma: no cover - exercised via _require_psycopg
    psycopg = None

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
)
"""

_DOCUMENT_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    doc            TEXT PRIMARY KEY,
    schema_digest  TEXT NOT NULL,
    nodes          INTEGER NOT NULL,
    nodes_seen     INTEGER NOT NULL,
    subtrees_skipped INTEGER NOT NULL,
    meta           TEXT NOT NULL DEFAULT '{}',
    created        DOUBLE PRECISION NOT NULL
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
)
"""

_UPSERT_VERDICT = """
INSERT INTO verdicts VALUES (%s, %s, %s, %s, %s, %s, %s)
ON CONFLICT (schema_digest, k, query_digest, update_digest)
DO UPDATE SET independent = EXCLUDED.independent,
              k_query = EXCLUDED.k_query,
              k_update = EXCLUDED.k_update
"""

_ANCESTORS_SQL = """
WITH RECURSIVE up(loc) AS (
    SELECT parent FROM nodes WHERE doc = %s AND loc = %s
    UNION ALL
    SELECT n.parent FROM nodes n JOIN up ON n.loc = up.loc
        WHERE n.doc = %s AND up.loc IS NOT NULL
)
SELECT loc FROM up WHERE loc IS NOT NULL ORDER BY loc
"""

_DESCENDANTS_SQL = """
SELECT n.loc FROM nodes n JOIN nodes s
    ON n.doc = s.doc AND n.loc > s.loc AND n.loc < s.loc + s.size
WHERE s.doc = %s AND s.loc = %s{tag_filter} ORDER BY n.loc
"""


def _require_psycopg():
    """The psycopg module, or a clear error naming the install extra."""
    if psycopg is None:
        raise RuntimeError(
            "postgresql:// store URLs require the psycopg package; "
            "install the optional extra: pip install "
            "'repro-bidoit-tollu[postgres]'"
        )
    return psycopg


class PgVerdictKV(VerdictKV):
    """Postgres-backed verdict map over a shared connection.

    Writes upsert (``ON CONFLICT DO UPDATE``); :meth:`deferred` holds
    one server-side transaction open so a coalesced batch commits (and
    fsyncs) once.
    """

    def __init__(self, connection, lock: threading.Lock, dsn: str):
        self.path = dsn
        self._lock = lock
        self._connection = connection
        self._deferred_depth = 0
        with self._lock:
            self._connection.execute(_VERDICT_SCHEMA)
            self._connection.commit()

    def get(self, schema_digest, k, query_digest, update_digest):
        """The stored verdict for one pair key, or ``None``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT independent, k_query, k_update FROM verdicts"
                " WHERE schema_digest=%s AND k=%s AND query_digest=%s"
                " AND update_digest=%s",
                (schema_digest, k, query_digest, update_digest),
            ).fetchone()
            if self._deferred_depth == 0:
                self._connection.commit()
        if row is None:
            return None
        independent, k_query, k_update = row
        return PairVerdict(
            independent=bool(independent), k=k, k_query=k_query,
            k_update=k_update, analysis_seconds=0.0,
        )

    def put(self, schema_digest, k, query_digest, update_digest,
            verdict) -> None:
        """Upsert one verdict (committed unless deferred)."""
        with self._lock:
            self._connection.execute(
                _UPSERT_VERDICT,
                (schema_digest, k, query_digest, update_digest,
                 int(verdict.independent), verdict.k_query,
                 verdict.k_update),
            )
            if self._deferred_depth == 0:
                self._connection.commit()

    def scan(self, schema_digest=None):
        """Iterate stored ``(schema_digest, k, query_digest,
        update_digest, verdict)`` rows in key order."""
        sql = ("SELECT schema_digest, k, query_digest, update_digest,"
               " independent, k_query, k_update FROM verdicts")
        params: tuple = ()
        if schema_digest is not None:
            sql += " WHERE schema_digest=%s"
            params = (schema_digest,)
        with self._lock:
            rows = self._connection.execute(
                sql + " ORDER BY schema_digest, k, query_digest,"
                " update_digest", params
            ).fetchall()
            if self._deferred_depth == 0:
                self._connection.commit()
        for digest, k, q, u, independent, k_query, k_update in rows:
            yield digest, k, q, u, PairVerdict(
                independent=bool(independent), k=k, k_query=k_query,
                k_update=k_update, analysis_seconds=0.0,
            )

    @contextmanager
    def deferred(self):
        """Server-side group commit: one open transaction across the
        scope; only the outermost exit issues ``COMMIT``."""
        with self._lock:
            self._deferred_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._deferred_depth -= 1
                if self._deferred_depth == 0:
                    self._connection.commit()

    def count(self, schema_digest=None) -> int:
        """Stored verdicts, optionally restricted to one schema."""
        with self._lock:
            if schema_digest is None:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM verdicts"
                ).fetchone()
            else:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM verdicts"
                    " WHERE schema_digest=%s", (schema_digest,),
                ).fetchone()
            if self._deferred_depth == 0:
                self._connection.commit()
        return row[0]

    def stats(self) -> dict:
        """Target DSN and size (the ``/stats`` store section)."""
        return {"path": self.path, "verdicts": self.count()}

    def close(self) -> None:
        """Commit pending writes (the backend owns the connection)."""
        with self._lock:
            if not self._connection.closed:
                self._connection.commit()


class PgDocumentStore(DocumentStore):
    """Postgres-backed node table + catalog over a shared connection.

    Document rewrites are guarded by a per-document advisory lock so
    concurrent hosts saving the same document serialize on the server;
    traversals run as recursive-CTE / interval-range SQL.
    """

    def __init__(self, connection, lock: threading.Lock, dsn: str):
        super().__init__()
        self.path = dsn
        self._lock = lock
        self._conn = connection
        with self._lock:
            for statement in _DOCUMENT_SCHEMA.split(";"):
                if statement.strip():
                    self._conn.execute(statement)
            self._conn.commit()

    @timed_store_op("save")
    def save(self, doc, tree, schema_digest, nodes_seen=0,
             subtrees_skipped=0, meta=None) -> int:
        """Persist ``tree`` under ``doc`` in one transaction.

        ``pg_advisory_xact_lock(hashtext(doc))`` serializes concurrent
        rewrites of the *same* document across hosts (the lock releases
        with the commit); different documents never contend.
        """
        rows = [(doc,) + row for row in node_rows(tree)]
        with self._lock:
            try:
                self._conn.execute(
                    "SELECT pg_advisory_xact_lock(hashtext(%s))", (doc,)
                )
                self._conn.execute(
                    "DELETE FROM nodes WHERE doc = %s", (doc,)
                )
                self._conn.execute(
                    "INSERT INTO documents VALUES (%s, %s, %s, %s, %s,"
                    " %s, EXTRACT(EPOCH FROM now()))"
                    " ON CONFLICT (doc) DO UPDATE SET"
                    " schema_digest = EXCLUDED.schema_digest,"
                    " nodes = EXCLUDED.nodes,"
                    " nodes_seen = EXCLUDED.nodes_seen,"
                    " subtrees_skipped = EXCLUDED.subtrees_skipped,"
                    " meta = EXCLUDED.meta,"
                    " created = EXCLUDED.created",
                    (doc, schema_digest, len(rows),
                     nodes_seen or len(rows), subtrees_skipped,
                     json.dumps(meta or {})),
                )
                with self._conn.cursor() as cursor:
                    cursor.executemany(
                        "INSERT INTO nodes VALUES"
                        " (%s, %s, %s, %s, %s, %s, %s)",
                        rows,
                    )
                self._conn.commit()
            except Exception:
                self._conn.rollback()
                raise
        self.saves += 1
        return len(rows)

    def delete(self, doc: str) -> bool:
        """Drop a persisted document; returns whether it existed."""
        with self._lock:
            try:
                cursor = self._conn.execute(
                    "DELETE FROM documents WHERE doc = %s", (doc,)
                )
                existed = cursor.rowcount > 0
                self._conn.execute(
                    "DELETE FROM nodes WHERE doc = %s", (doc,)
                )
                self._conn.commit()
            except Exception:
                self._conn.rollback()
                raise
        return existed

    def describe(self, doc: str) -> StoredDocument | None:
        """The catalog row of ``doc``, or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT doc, schema_digest, nodes, nodes_seen,"
                " subtrees_skipped, meta FROM documents WHERE doc = %s",
                (doc,),
            ).fetchone()
            self._conn.commit()
        if row is None:
            return None
        return StoredDocument(row[0], row[1], row[2], row[3], row[4],
                              json.loads(row[5]))

    @timed_store_op("load")
    def load(self, doc: str):
        """Re-materialize ``doc`` with one ordered range scan, or
        None."""
        described = self.describe(doc)
        if described is None:
            self.misses += 1
            return None
        with self._lock:
            rows = self._conn.execute(
                "SELECT loc, parent, level, size, tag, text FROM nodes"
                " WHERE doc = %s ORDER BY loc", (doc,),
            ).fetchall()
            self._conn.commit()
        tree = materialize(rows, doc)
        self.hits += 1
        return tree, described

    def list_documents(self) -> list[StoredDocument]:
        """Catalog rows of every persisted document."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT doc, schema_digest, nodes, nodes_seen,"
                " subtrees_skipped, meta FROM documents ORDER BY doc"
            ).fetchall()
            self._conn.commit()
        return [StoredDocument(r[0], r[1], r[2], r[3], r[4],
                               json.loads(r[5])) for r in rows]

    def ancestors(self, doc: str, loc: int) -> list[int]:
        """Ancestor locations of ``loc``, root first, via a recursive
        CTE chasing the parent column on the server."""
        with self._lock:
            rows = self._conn.execute(
                _ANCESTORS_SQL, (doc, loc, doc)
            ).fetchall()
            self._conn.commit()
        return [r[0] for r in rows]

    def descendants(self, doc: str, loc: int,
                    tag: str | None = None) -> list[int]:
        """Proper-descendant locations of ``loc`` in document order:
        one server-side interval range scan, optionally tag-filtered."""
        tag_filter = "" if tag is None else " AND n.tag = %s"
        params = (doc, loc) if tag is None else (doc, loc, tag)
        with self._lock:
            rows = self._conn.execute(
                _DESCENDANTS_SQL.format(tag_filter=tag_filter), params
            ).fetchall()
            self._conn.commit()
        return [r[0] for r in rows]

    @timed_store_op("run_steps")
    def run_steps(self, doc: str, steps, *,
                  dedup: bool = False) -> list[int]:
        """Answer a compiled step chain with ONE server-side SQL query
        over the node table -- the same shapes as SQLite (range
        predicates, parent-joins, window functions), ``%s``
        placeholders (see
        :func:`repro.storage.base.compile_steps_sql`)."""
        self._require_document(doc)
        sql, params = compile_steps_sql(doc, steps, placeholder="%s",
                                        dedup=dedup)
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
            self._conn.commit()
        return [r[0] for r in rows]

    def explain_steps(self, doc: str, steps, *,
                      dedup: bool = False) -> dict:
        """The exact parameterized SQL :meth:`run_steps` would execute
        (``%s`` placeholders), without touching the server."""
        sql, params = compile_steps_sql(doc, steps, placeholder="%s",
                                        dedup=dedup)
        return {"engine": "sql", "dialect": "postgresql", "sql": sql,
                "params": list(params)}

    def subtree_rows(self, doc: str, loc: int) -> list[tuple]:
        """The pre-order row slice of the subtree at ``loc``: one
        server-side interval range scan ``loc <= x < loc + size``."""
        self._require_document(doc)
        with self._lock:
            rows = self._conn.execute(
                "SELECT n.loc, n.parent, n.level, n.size, n.tag, n.text"
                " FROM nodes n JOIN nodes s ON n.doc = s.doc"
                " AND n.loc >= s.loc AND n.loc < s.loc + s.size"
                " WHERE s.doc = %s AND s.loc = %s ORDER BY n.loc",
                (doc, loc),
            ).fetchall()
            self._conn.commit()
        return [tuple(row) for row in rows]

    def _require_document(self, doc: str) -> None:
        """Raise :class:`KeyError` when ``doc`` is not persisted."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM documents WHERE doc = %s", (doc,)
            ).fetchone()
            self._conn.commit()
        if row is None:
            raise KeyError(doc)

    def stats(self) -> dict:
        """Backend counters plus table sizes (one aggregate scan)."""
        with self._lock:
            documents, nodes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nodes), 0)"
                " FROM documents"
            ).fetchone()
            self._conn.commit()
        return {
            "path": self.path,
            "documents": documents,
            "nodes": int(nodes),
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
        }

    def close(self) -> None:
        """Commit pending work (the backend owns the connection)."""
        with self._lock:
            if not self._conn.closed:
                self._conn.commit()


class PgBackend(StorageBackend):
    """Both facets over one psycopg connection to a shared server."""

    kind = "postgresql"
    shared = True

    def __init__(self, dsn: str):
        pg = _require_psycopg()
        self.dsn = dsn
        self._lock = threading.Lock()
        self._connection = pg.connect(dsn, autocommit=False)
        self._closed = False
        self.verdicts = PgVerdictKV(self._connection, self._lock, dsn)
        self.documents = PgDocumentStore(
            self._connection, self._lock, dsn
        )

    @property
    def url(self) -> str:
        """The DSN this backend was opened from."""
        return self.dsn

    def close(self) -> None:
        """Flush both facets and close the server connection."""
        self.verdicts.close()
        self.documents.close()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connection.close()
