"""Wire-level EXPLAIN: the ``explain`` envelope flag and plan reports.

Every layer decision the serving pipeline makes must be readable from
the opt-in ``plan`` response field: the batcher's execution shape, the
engine's verdict source, the docstore's load provenance, pushdown
compilation (or its ineligibility reason), and the answer path.
"""

from __future__ import annotations

import asyncio

from .util import ServiceClient, running_service

ANALYZE = dict(schema="bib", query="//title", update="delete //price")

DTD = """<!ELEMENT bib (book*)>
<!ELEMENT book (title, author*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
"""
XML = ("<bib><book><title>a</title><author>x</author></book>"
       "<book><title>b</title></book></bib>")


def _decisions(plan: dict) -> list[tuple[str, str]]:
    return [(d["layer"], d["decision"]) for d in plan["decisions"]]


def _layer(plan: dict, layer: str) -> dict:
    matches = [d for d in plan["decisions"] if d["layer"] == layer]
    assert matches, f"no {layer!r} decision in {plan}"
    return matches[-1]


def test_explain_is_strictly_opt_in():
    async def run():
        async with running_service(preload=("bib",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                explained = await client.call("analyze", explain=True,
                                              **ANALYZE)
                plain = await client.call("analyze", **ANALYZE)
                off = await client.call("analyze", explain=False,
                                        **ANALYZE)
        return explained, plain, off

    explained, plain, off = asyncio.run(run())
    assert explained["ok"] and "plan" in explained
    # explain:false and an absent flag answer with the exact same
    # response shape as before the flag existed.
    assert "plan" not in plain
    assert "plan" not in off
    assert sorted(plain) == sorted(off)


def test_analyze_verdict_sources_are_distinguishable(tmp_path):
    """memo hit, store hit, and fresh computation all read differently."""
    store = f"sqlite:///{tmp_path}/verdicts.sqlite"

    async def run():
        async with running_service(
            preload=("bib",), store_path=store,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                computed = await client.call("analyze", explain=True,
                                             **ANALYZE)
                memo = await client.call("analyze", explain=True,
                                         **ANALYZE)
                # Dropping the warm engine forgets the pair memo but
                # not the persisted verdict: the next analyze must
                # read back from the store.
                assert (await client.call("schema.evict",
                                          schema="bib"))["evicted"]
                stored = await client.call("analyze", explain=True,
                                           **ANALYZE)
        return computed, memo, stored

    computed, memo, stored = asyncio.run(run())
    first = _layer(computed["plan"], "engine")
    assert first["decision"] == "computed"
    assert first["detail"]["universe"] == "built"
    assert first["detail"]["query"] == "//title"
    assert _layer(memo["plan"], "engine")["decision"] == "pair_memo"
    assert _layer(stored["plan"], "engine")["decision"] == "store"
    # All three rode the micro-batch admission queue.
    for response in (computed, memo, stored):
        batcher = _layer(response["plan"], "batcher")
        assert batcher["decision"] in ("matrix", "sparse")
        assert batcher["detail"]["pairs"] >= 1


def test_analysis_mode_shapes_the_batcher_decision():
    async def run(mode):
        async with running_service(
            preload=("bib",), analysis_mode=mode,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                return await client.call("analyze", explain=True,
                                         **ANALYZE)

    direct = asyncio.run(run("engine"))
    assert _layer(direct["plan"], "batcher")["decision"] == "direct"
    # Batching disabled, but the engine layer still reports its source.
    assert _layer(direct["plan"], "engine")["decision"] == "computed"
    oneshot = asyncio.run(run("oneshot"))
    assert _layer(oneshot["plan"], "batcher")["decision"] == "oneshot"


def test_explained_matrix_reports_per_pair_engine_decisions():
    async def run():
        async with running_service(preload=("bib",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                return await client.call(
                    "matrix", schema="bib", explain=True,
                    queries=["//title", "//author"],
                    updates=["delete //price"],
                )

    response = asyncio.run(run())
    assert response["ok"], response
    engine = [d for d in response["plan"]["decisions"]
              if d["layer"] == "engine"]
    assert len(engine) == 2
    assert {d["detail"]["query"] for d in engine} == \
        {"//title", "//author"}


def test_doc_load_provenance_and_doc_query_answer_paths(tmp_path):
    store = f"sqlite:///{tmp_path}/docs.sqlite"

    async def run():
        async with running_service(
            preload=("bib",), store_path=store,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                loaded = await client.call(
                    "doc.load", schema="bib", doc="bx", xml=XML,
                    project_for=["//title"], explain=True,
                )
                materialized = await client.call(
                    "doc.query", schema="bib", doc="bx",
                    query="//title", explain=True,
                )
                # Unload: the next query must answer from the store.
                await client.call("doc.unload", doc=loaded["doc"])
                pushed = await client.call(
                    "doc.query", schema="bib", doc="bx",
                    query="//title", explain=True,
                )
                reloaded = await client.call(
                    "doc.load", schema="bib", doc="bx", explain=True,
                )
        return loaded, materialized, pushed, reloaded

    loaded, materialized, pushed, reloaded = asyncio.run(run())
    docstore = _layer(loaded["plan"], "docstore")
    assert docstore["decision"] == "projected"
    assert docstore["detail"]["nodes_seen"] == 9
    assert docstore["detail"]["nodes"] == 7
    assert docstore["detail"]["subtrees_skipped"] == 1
    assert docstore["detail"]["depth_cap"] >= 1
    assert "reason" not in docstore["detail"]

    assert materialized["mode"] == "materialized"
    assert _layer(materialized["plan"], "answer")["decision"] == \
        "materialized"

    assert pushed["mode"] == "pushdown"
    compiled = _layer(pushed["plan"], "pushdown")
    assert compiled["decision"] == "compiled"
    assert compiled["detail"]["steps"] == \
        ["descendant-child::name(title)"]
    assert compiled["detail"]["engine"] == "sql"
    assert _layer(pushed["plan"], "answer")["decision"] == "pushdown"

    assert _layer(reloaded["plan"], "docstore")["decision"] == \
        "from_store"


def test_sqlite_pushdown_plan_carries_the_exact_sql(tmp_path):
    store = f"sqlite:///{tmp_path}/docs.sqlite"

    async def run():
        async with running_service(
            preload=("bib",), store_path=store,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                loaded = await client.call("doc.load", schema="bib",
                                           doc="bx", xml=XML)
                await client.call("doc.unload", doc=loaded["doc"])
                pushed = await client.call(
                    "doc.query", schema="bib", doc="bx",
                    query="//title", explain=True,
                )
                fallback = await client.call(
                    "doc.query", schema="bib", doc="bx",
                    query="for $x in //title return <t>n</t>",
                    explain=True,
                )
        return pushed, fallback

    pushed, fallback = asyncio.run(run())
    compiled = _layer(pushed["plan"], "pushdown")
    assert compiled["detail"]["engine"] == "sql"
    assert compiled["detail"]["dialect"] == "sqlite"
    assert "SELECT" in compiled["detail"]["sql"]
    assert "title" in compiled["detail"]["params"]
    assert _layer(pushed["plan"], "answer")["decision"] == "pushdown"

    assert fallback["mode"] == "fallback"
    ineligible = _layer(fallback["plan"], "pushdown")
    assert ineligible["decision"] == "ineligible"
    assert ineligible["detail"]["reason"] == "non-step-source"
    assert _layer(fallback["plan"], "answer")["decision"] == "fallback"


def test_slow_ring_entries_arrive_with_their_plan():
    async def run():
        async with running_service(
            preload=("bib",), slow_ms=0.000001,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                # No explain flag: the slow ring captures plans anyway.
                assert (await client.call("analyze", **ANALYZE))["ok"]
                return await client.call("metrics")

    metrics = asyncio.run(run())
    slow = [e for e in metrics["slow"] if e["op"] == "analyze"]
    assert slow, metrics["slow"]
    plan = slow[-1].get("plan")
    assert plan is not None
    assert ("engine", "computed") in _decisions(plan)


def test_doc_load_names_the_chain_limit_when_projection_gives_up():
    """``project_for`` whose chain sets are too large to enumerate
    loads every node; the plan says why, the response does not change."""
    xml = "<site><people><person><name>n</name></person></people></site>"
    load = dict(schema="xmark", doc="all", xml=xml, project_for=["//*"])

    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                explained = await client.call("doc.load", explain=True,
                                              **load)
                plain = await client.call("doc.load", **load)
        return explained, plain

    explained, plain = asyncio.run(run())
    docstore = _layer(explained["plan"], "docstore")
    assert docstore["decision"] == "unprojected"
    assert docstore["detail"]["reason"] == "chain_limit"
    assert docstore["detail"]["projected"] is False
    assert explained["subtrees_skipped"] == 0
    explained.pop("plan")
    assert explained.keys() == plain.keys()
    assert all(explained[key] == plain[key] for key in plain
               if key != "id")
