"""Serving over one PostgreSQL store (live-server gated).

Verdicts computed by one service through a PostgreSQL server must
warm-start a later service's replay of the same workload -- every
pair served from the store (``store_hits == pairs``), zero universes
rebuilt.  This mirrors
``tests/serve/test_two_schemas.py::test_restart_warm_starts_from_the_store``
with the WAL file swapped for a server, so the two backends are
interchangeable.

Runs only when ``REPRO_PG_DSN`` points at a live server (the CI
postgres job sets it); the tables are dropped first so every run
starts cold.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from tests.serve.test_two_schemas import PAIRS, analyze_both_schemas
from tests.serve.util import ServiceClient, running_service

PG_DSN = os.environ.get("REPRO_PG_DSN", "")

pytestmark = pytest.mark.skipif(
    not PG_DSN, reason="REPRO_PG_DSN not set (no live PostgreSQL)"
)


@pytest.fixture()
def cold_pg_store() -> str:
    """The live server's DSN with this suite's tables dropped."""
    from repro.storage import open_store

    backend = open_store(PG_DSN)
    try:
        with backend._lock:
            with backend._connection.cursor() as cursor:
                for table in ("verdicts", "nodes", "documents"):
                    cursor.execute(f"DROP TABLE IF EXISTS {table}")
            backend._connection.commit()
    finally:
        backend.close()
    return PG_DSN


def test_pg_restart_warm_starts_replay(cold_pg_store):
    """One service writes a PostgreSQL store; a later service replays
    the workload entirely from it."""
    first = asyncio.run(analyze_both_schemas(cold_pg_store))
    assert first["store"]["verdicts"] >= 2 * len(PAIRS)

    replay = asyncio.run(analyze_both_schemas(cold_pg_store))
    engines = replay["registry"]["engines"].values()
    pairs = 2 * len(PAIRS)
    assert sum(engine["store_hits"] for engine in engines) == pairs
    # The warm-start property: store hits never build universes.
    assert all(engine["universes_built"] == 0 for engine in engines)


def test_pg_document_persists_across_services(cold_pg_store):
    """A document persisted through one service is served
    ``from_store`` by a fresh service over the same server."""

    async def save() -> dict:
        async with running_service(
            store_path=cold_pg_store, preload=("xmark",),
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                loaded = await client.call(
                    "doc.load", schema="xmark", doc="pg-doc",
                    bytes=2000, seed=3,
                )
                assert loaded["ok"], loaded
                return loaded

    async def reload() -> dict:
        async with running_service(
            store_path=cold_pg_store, preload=("xmark",),
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                reloaded = await client.call(
                    "doc.load", schema="xmark", doc="pg-doc",
                )
                assert reloaded["ok"], reloaded
                return reloaded

    saved = asyncio.run(save())
    served = asyncio.run(reload())
    assert served["from_store"] is True
    assert served["nodes"] == saved["nodes"]
