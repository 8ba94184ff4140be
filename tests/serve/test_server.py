"""End-to-end service tests over loopback TCP: every endpoint, the
protocol-error contract, and wire-vs-engine verdict agreement."""

from __future__ import annotations

import asyncio
import json

from repro.analysis.engine import AnalysisEngine
from repro.serve.protocol import encode

from .util import ServiceClient, running_service

BIB_PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("/bib/book/author", "delete //editor"),
    ("//last", "delete //author"),
]


def test_analyze_matches_engine_ground_truth(bib):
    async def run():
        async with running_service(preload=("bib",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                return [
                    await client.call("analyze", schema="bib",
                                      query=query, update=update)
                    for query, update in BIB_PAIRS
                ]

    responses = asyncio.run(run())
    engine = AnalysisEngine(bib)
    for (query, update), response in zip(BIB_PAIRS, responses):
        assert response["ok"], response
        report = engine.analyze_pair(query, update,
                                     collect_witnesses=False)
        assert response["independent"] == report.independent
        assert response["k"] == report.k
        assert response["k_query"] == report.k_query
        assert response["k_update"] == report.k_update


def test_concurrent_clients_coalesce_into_batches(bib):
    async def run():
        async with running_service() as (_, host, port):
            async def one(query, update):
                async with ServiceClient(host, port) as client:
                    return await client.call("analyze", schema="bib",
                                             query=query, update=update)

            responses = await asyncio.gather(*(
                one(query, update) for query, update in BIB_PAIRS * 3
            ))
            async with ServiceClient(host, port) as client:
                stats = await client.call("stats")
            return responses, stats

    responses, stats = asyncio.run(run())
    assert all(response["ok"] for response in responses)
    batcher = stats["batcher"]
    assert batcher["batches"] >= 1
    assert batcher["coalesced_requests"] > 0
    assert batcher["requests"] == len(BIB_PAIRS) * 3


def test_pipelined_requests_on_one_connection_coalesce():
    async def run():
        async with running_service() as (_, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            for index, (query, update) in enumerate(BIB_PAIRS):
                writer.write(encode({
                    "op": "analyze", "id": index, "schema": "bib",
                    "query": query, "update": update,
                }))
            await writer.drain()
            responses = {}
            for _ in BIB_PAIRS:
                response = json.loads(await reader.readline())
                responses[response["id"]] = response
            writer.close()
            await writer.wait_closed()
            async with ServiceClient(host, port) as client:
                stats = await client.call("stats")
            return responses, stats

    responses, stats = asyncio.run(run())
    assert set(responses) == set(range(len(BIB_PAIRS)))
    assert all(response["ok"] for response in responses.values())
    assert stats["batcher"]["coalesced_requests"] > 0


def test_matrix_and_schedule_endpoints(bib):
    async def run():
        async with running_service() as (_, host, port):
            async with ServiceClient(host, port) as client:
                matrix = await client.call(
                    "matrix", schema="bib",
                    queries=["//title", "//price"],
                    updates=["delete //price"],
                )
                schedule = await client.call(
                    "schedule", schema="bib",
                    operations=[
                        {"name": "q-titles", "query": "//title"},
                        {"name": "u-prices", "update": "delete //price"},
                        {"name": "q-prices", "query": "//price"},
                    ],
                )
                return matrix, schedule

    matrix, schedule = asyncio.run(run())
    assert matrix["ok"]
    engine = AnalysisEngine(bib)
    expected = [
        [engine.analyze_pair(q, "delete //price",
                             collect_witnesses=False).independent]
        for q in ("//title", "//price")
    ]
    assert matrix["independent"] == expected
    assert matrix["pairs"] == 2
    assert schedule["ok"]
    waves = schedule["waves"]
    flat = [name for wave in waves for name in wave]
    assert sorted(flat) == ["q-prices", "q-titles", "u-prices"]
    # //title is independent of the delete, //price is not, so q-prices
    # must be separated from u-prices while q-titles can share its wave.
    wave_of = {name: i for i, wave in enumerate(waves) for name in wave}
    assert wave_of["q-prices"] != wave_of["u-prices"]
    assert wave_of["q-titles"] == min(wave_of.values())


def test_view_maintenance_over_the_wire():
    xml = ("<bib><book><title>t</title><author><last>l</last>"
           "<first>f</first></author><publisher>p</publisher>"
           "<price>9</price></book></bib>")

    async def run():
        async with running_service() as (_, host, port):
            async with ServiceClient(host, port) as client:
                doc = await client.call("doc.load", schema="bib", xml=xml)
                titles = await client.call(
                    "view.register", doc=doc["doc"],
                    name="titles", query="//title",
                )
                prices = await client.call(
                    "view.register", doc=doc["doc"],
                    name="prices", query="//price",
                )
                applied = await client.call(
                    "update.apply", doc=doc["doc"],
                    update="delete //price",
                )
                after = await client.call("view.result", doc=doc["doc"],
                                          name="prices")
                return doc, titles, prices, applied, after

    doc, titles, prices, applied, after = asyncio.run(run())
    assert doc["ok"] and doc["nodes"] > 0
    assert titles["count"] == 1 and prices["count"] == 1
    assert applied["ok"]
    # The analysis proves the titles view independent of the delete:
    # only the prices view is refreshed.
    assert applied["refreshed"] == ["prices"]
    assert applied["skipped"] == 1
    assert after["count"] == 0


def test_document_lru_bound_and_unload():
    xml = "<bib></bib>"

    async def run():
        async with running_service(max_documents=2) as (service, host,
                                                        port):
            async with ServiceClient(host, port) as client:
                docs = [
                    (await client.call("doc.load", schema="bib",
                                       xml=xml))["doc"]
                    for _ in range(3)
                ]
                # The oldest document was evicted by the LRU bound.
                oldest = await client.call("view.register", doc=docs[0],
                                           name="v", query="//title")
                newest = await client.call("view.register", doc=docs[2],
                                           name="v", query="//title")
                unloaded = await client.call("doc.unload", doc=docs[2])
                gone = await client.call("view.result", doc=docs[2],
                                         name="v")
                return oldest, newest, unloaded, gone, \
                    service.document_evictions

    oldest, newest, unloaded, gone, evictions = asyncio.run(run())
    assert not oldest["ok"] and oldest["error"]["code"] == "unknown-doc"
    assert newest["ok"]
    assert unloaded["unloaded"] is True
    assert not gone["ok"]
    assert evictions == 1


def test_schema_register_evict_list():
    async def run():
        async with running_service() as (_, host, port):
            async with ServiceClient(host, port) as client:
                registered = await client.call(
                    "schema.register", root="doc",
                    dtd="<!ELEMENT doc (leaf*)><!ELEMENT leaf EMPTY>",
                    name="tiny",
                )
                listed = await client.call("schema.list")
                analyzed = await client.call(
                    "analyze", schema="tiny",
                    query="//leaf", update="delete //leaf",
                )
                evicted = await client.call("schema.evict", schema="tiny")
                gone = await client.call(
                    "analyze", schema="tiny",
                    query="//leaf", update="delete //leaf",
                )
                return registered, listed, analyzed, evicted, gone

    registered, listed, analyzed, evicted, gone = asyncio.run(run())
    assert registered["ok"] and registered["tags"] == 2
    assert any(row["names"] == ["tiny"] for row in listed["schemas"])
    assert analyzed["ok"] and analyzed["independent"] is False
    assert evicted["evicted"] is True
    assert not gone["ok"]
    assert gone["error"]["code"] == "unknown-schema"


def test_protocol_errors_keep_connection_usable():
    async def run():
        async with running_service() as (_, host, port):
            async with ServiceClient(host, port) as client:
                outcomes = []
                outcomes.append(await client.send_raw(b"not json\n"))
                outcomes.append(await client.send_raw(b"[1, 2, 3]\n"))
                outcomes.append(await client.send_raw(b'{"id": 9}\n'))
                outcomes.append(await client.call("frobnicate"))
                outcomes.append(await client.call("analyze",
                                                  schema="bib"))
                outcomes.append(await client.call(
                    "analyze", schema="bib", query="///broken(",
                    update="delete //price",
                ))
                outcomes.append(await client.call(
                    "analyze", schema="no-such-schema",
                    query="//a", update="delete //a",
                ))
                # After six errors, a good request still succeeds.
                outcomes.append(await client.call(
                    "analyze", schema="bib", query="//title",
                    update="delete //price",
                ))
                return outcomes

    outcomes = asyncio.run(run())
    codes = [outcome.get("error", {}).get("code") for outcome in outcomes]
    assert codes[0] == "bad-json"
    assert codes[1] == "bad-request"
    assert codes[2] == "bad-request"
    assert codes[3] == "unknown-op"
    assert codes[4] == "bad-params"
    assert codes[5] == "internal"        # parse failure inside analysis
    assert codes[6] == "unknown-schema"
    assert outcomes[7]["ok"] and outcomes[7]["independent"] is True


def test_stats_endpoint_exposes_all_layers():
    async def run():
        async with running_service(preload=("bib",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call("analyze", schema="bib",
                                  query="//title",
                                  update="delete //price")
                return await client.call("stats")

    stats = asyncio.run(run())
    assert stats["ok"]
    assert stats["analysis_mode"] == "batched"
    assert stats["requests"] >= 2
    assert stats["ops"]["analyze"] == 1
    engines = stats["registry"]["engines"]
    (engine_stats,) = engines.values()
    for key in ("pair_hits", "pair_misses", "pair_evictions",
                "store_hits", "store_misses", "store_writes"):
        assert key in engine_stats
    assert stats["store"]["verdicts"] == 1
    assert stats["batcher"]["requests"] == 1


def test_shutdown_op_stops_the_service():
    async def run():
        async with running_service() as (service, host, port):
            async with ServiceClient(host, port) as client:
                response = await client.call("shutdown")
            await asyncio.wait_for(service._stopping.wait(), timeout=5)
            return response

    response = asyncio.run(run())
    assert response["ok"] and response["stopping"]


def test_oneshot_and_engine_modes_agree_with_batched(bib):
    async def run(mode):
        async with running_service(analysis_mode=mode) as (_, host, port):
            async with ServiceClient(host, port) as client:
                return [
                    await client.call("analyze", schema="bib",
                                      query=query, update=update)
                    for query, update in BIB_PAIRS
                ]

    by_mode = {
        mode: [
            {key: response[key]
             for key in ("independent", "k", "k_query", "k_update")}
            for response in asyncio.run(run(mode))
        ]
        for mode in ("batched", "engine", "oneshot")
    }
    assert by_mode["batched"] == by_mode["engine"] == by_mode["oneshot"]
