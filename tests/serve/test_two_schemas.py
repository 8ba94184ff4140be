"""Two schemas on one service: restart warm starts, multi-schema
loadgen, and evicting one tenant.

Verdicts are pure functions of ``(schema digest, k, query, update)``,
so a restarted service over the same store must serve every pair it
has seen from the store without rebuilding a type universe.  The
workload spans the XMark builtin and a generated schema registered
over the wire, so both registration paths warm-start.
"""

from __future__ import annotations

import asyncio

from repro.serve.loadgen import (
    LoadgenConfig,
    dtd_text,
    generated_schema,
    run_loadgen,
)

from .util import ServiceClient, running_service

#: A generated workload schema beside the XMark builtin.
GEN_REF = "gen:11"

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("/site/people/person/name", "delete //bidder"),
]


def _gen_register_params() -> dict:
    spec = generated_schema(int(GEN_REF.split(":")[1]))
    return {"root": spec.start, "dtd": dtd_text(spec), "name": GEN_REF}


async def analyze_both_schemas(store: str) -> dict:
    """Register ``GEN_REF``, analyze every pair on both schemas through
    one service over ``store``, and return its ``stats`` payload."""
    async with running_service(
        store_path=store, preload=("xmark",)
    ) as (_, host, port):
        async with ServiceClient(host, port) as client:
            await client.call("schema.register", **_gen_register_params())
            for ref in ("xmark", GEN_REF):
                for query, update in PAIRS:
                    response = await client.call(
                        "analyze", schema=ref,
                        query=query, update=update,
                    )
                    assert response["ok"], response
            stats = await client.call("stats")
            assert stats["ok"], stats
            return stats


def test_restart_warm_starts_from_the_store(tmp_path):
    """A second service over the same store answers every pair from it
    without rebuilding universes."""
    store = f"sqlite:///{tmp_path / 'verdicts.sqlite'}"
    first = asyncio.run(analyze_both_schemas(store))
    assert first["store"]["verdicts"] >= 2 * len(PAIRS)

    replay = asyncio.run(analyze_both_schemas(store))
    engines = replay["registry"]["engines"].values()
    assert len(engines) == 2
    assert sum(engine["store_hits"] for engine in engines) \
        == 2 * len(PAIRS)
    # The warm-start property: store hits never build universes.
    assert all(engine["universes_built"] == 0 for engine in engines)


def test_schema_evict_reports():
    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call("schema.register",
                                  **_gen_register_params())
                evicted = await client.call("schema.evict",
                                            schema=GEN_REF)
                again = await client.call("schema.evict",
                                          schema=GEN_REF)
                unknown = await client.call("schema.evict",
                                            schema="never-was")
                return evicted, again, unknown

    evicted, again, unknown = asyncio.run(run())
    assert evicted["ok"] and evicted["evicted"]
    assert again["ok"] and not again["evicted"]
    assert unknown["ok"] and not unknown["evicted"]


def test_loadgen_multischema_run(tmp_path):
    """The two-schema loadgen workload runs with zero errors and warms
    one engine per schema."""
    store = f"sqlite:///{tmp_path / 'verdicts.sqlite'}"

    async def run():
        async with running_service(
            store_path=store, preload=("xmark",)
        ) as (_, host, port):
            return await run_loadgen(LoadgenConfig(
                host=host, port=port,
                schema=("xmark", GEN_REF), source="bench",
                n_queries=3, n_updates=3,
                clients=4, requests=40, seed=5,
            ))

    report = asyncio.run(run())
    assert report["errors"] == 0, report["error_samples"]
    assert report["completed"] == 40
    assert report["workload"]["schemas"] == ["xmark", GEN_REF]
    assert {key.split("|")[0] for key in report["verdicts"]} == \
        {"xmark", GEN_REF}
    assert len(report["service"]["engine_stats_after"]) == 2
