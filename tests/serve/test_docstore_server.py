"""``doc.load`` over the indexed document store: file/projection
loading, node-table persistence across restarts, and the ``/stats``
docstore surface."""

import asyncio

import pytest

from repro.schema import xmark_dtd
from repro.xmldm import generate_document, serialize

from .util import ServiceClient, running_service


@pytest.fixture(scope="module")
def xmark_file(tmp_path_factory):
    tree = generate_document(xmark_dtd(), 150_000, seed=3)
    path = tmp_path_factory.mktemp("docs") / "xmark.xml"
    path.write_text(serialize(tree.store, tree.root))
    return str(path)


def test_doc_load_from_path_with_projection(xmark_file):
    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                full = await client.call("doc.load", schema="xmark",
                                         path=xmark_file)
                assert full["ok"] and not full["projected"]
                projected = await client.call(
                    "doc.load", schema="xmark", path=xmark_file,
                    project_for=["//emailaddress",
                                 "/site/people/person/name"],
                )
                assert projected["ok"] and projected["projected"]
                assert projected["nodes"] < full["nodes"] / 4
                assert projected["subtrees_skipped"] > 0
                assert projected["nodes_seen"] == full["nodes"]
                # Views over the projection answer like the full doc.
                for doc in (full["doc"], projected["doc"]):
                    registered = await client.call(
                        "view.register", doc=doc, name="emails",
                        query="//emailaddress",
                    )
                    assert registered["ok"]
                counts = [
                    (await client.call("view.result", doc=doc,
                                       name="emails"))["count"]
                    for doc in (full["doc"], projected["doc"])
                ]
                assert counts[0] == counts[1] > 0
                stats = await client.call("stats")
                detail = stats["documents_detail"]
                assert detail[projected["doc"]]["projected"] is True
                assert detail[projected["doc"]]["nodes"] < \
                    detail[full["doc"]]["nodes"]
                assert stats["docstore"] == {"enabled": False}

    asyncio.run(run())


def test_doc_load_explicit_id_and_bad_params(xmark_file):
    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                named = await client.call("doc.load", schema="xmark",
                                          path=xmark_file, doc="mine")
                assert named["doc"] == "mine"
                bad = await client.call("doc.load", schema="xmark",
                                        path="/nonexistent.xml")
                assert not bad["ok"]
                assert bad["error"]["code"] == "bad-params"
                bad = await client.call("doc.load", schema="xmark",
                                        xml="<site>", doc="broken")
                assert not bad["ok"]
                bad = await client.call(
                    "doc.load", schema="xmark", path=xmark_file,
                    project_for=["not a query ((("],
                )
                assert not bad["ok"]
                assert bad["error"]["code"] == "bad-params"

    asyncio.run(run())


def test_persisted_document_survives_restart(tmp_path, xmark_file):
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def first_run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                loaded = await client.call(
                    "doc.load", schema="xmark", path=xmark_file,
                    doc="persisted", project_for=["//emailaddress"],
                )
                assert loaded["ok"] and not loaded["from_store"]
                registered = await client.call(
                    "view.register", doc="persisted", name="v",
                    query="//emailaddress",
                )
                stats = await client.call("stats")
                assert stats["docstore"]["enabled"]
                assert stats["docstore"]["saves"] == 1
                assert stats["docstore"]["documents"] == 1
                return loaded, registered["count"]

    async def second_run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                # Same doc id, no source: served from the node table.
                reloaded = await client.call("doc.load", schema="xmark",
                                             doc="persisted")
                assert reloaded["ok"] and reloaded["from_store"]
                assert reloaded["projected"] is True
                registered = await client.call(
                    "view.register", doc="persisted", name="v",
                    query="//emailaddress",
                )
                stats = await client.call("stats")
                assert stats["docstore"]["hits"] == 1
                assert stats["docstore"]["saves"] == 0
                detail = stats["documents_detail"]["persisted"]
                assert detail["from_store"] is True
                return reloaded, registered["count"]

    loaded, count_before = asyncio.run(first_run())
    reloaded, count_after = asyncio.run(second_run())
    assert reloaded["nodes"] == loaded["nodes"]
    assert reloaded["nodes_seen"] == loaded["nodes_seen"]
    assert count_after == count_before


def test_generated_documents_persist_too(tmp_path):
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                generated = await client.call(
                    "doc.load", schema="xmark", bytes=4_000, doc="gen",
                )
                assert generated["ok"]
                stats = await client.call("stats")
                assert stats["docstore"]["saves"] == 1
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                reloaded = await client.call("doc.load", schema="xmark",
                                             doc="gen")
                assert reloaded["from_store"]
                assert reloaded["nodes"] == generated["nodes"]

    asyncio.run(run())


def test_anonymous_ids_never_clobber_named_documents(xmark_file):
    """A later anonymous doc.load must not reuse a client's ``d1``."""

    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                named = await client.call("doc.load", schema="xmark",
                                          path=xmark_file, doc="d1")
                assert named["doc"] == "d1"
                await client.call("view.register", doc="d1",
                                  name="v", query="//emailaddress")
                anonymous = await client.call("doc.load",
                                              schema="xmark",
                                              bytes=2_000)
                assert anonymous["ok"]
                assert anonymous["doc"] != "d1"
                view = await client.call("view.result", doc="d1",
                                         name="v")
                assert view["ok"], view  # the named doc survived

    asyncio.run(run())


def test_from_store_rejects_mismatched_schema(tmp_path, xmark_file):
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark", "bib"), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                loaded = await client.call("doc.load", schema="xmark",
                                           path=xmark_file, doc="x")
                assert loaded["ok"]
                wrong = await client.call("doc.load", schema="bib",
                                          doc="x")
                assert not wrong["ok"]
                assert wrong["error"]["code"] == "bad-params"
                assert "different schema" in wrong["error"]["message"]
                right = await client.call("doc.load", schema="xmark",
                                          doc="x")
                assert right["ok"] and right["from_store"]
                stats = await client.call("stats")
                # The mismatch attempt counted as a lookup (hit at the
                # backend layer), the generation-fallback path counts
                # misses; both stay observable.
                assert stats["docstore"]["hits"] == 2

    asyncio.run(run())


def test_named_reload_miss_is_an_error_not_generation(tmp_path):
    """Reloading a name the store does not hold (e.g. a typo) is
    refused -- never silently replaced by a generated document -- and
    the lookup shows up in the docstore miss counter."""
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                missing = await client.call("doc.load", schema="xmark",
                                            doc="typo")
                assert not missing["ok"]
                assert missing["error"]["code"] == "bad-params"
                assert "not persisted" in missing["error"]["message"]
                stats = await client.call("stats")
                assert stats["docstore"]["misses"] == 1
                assert stats["docstore"]["saves"] == 0
                # Anonymous generation (no doc name) still works and
                # never consults the store (no spurious misses).
                anonymous = await client.call("doc.load",
                                              schema="xmark",
                                              bytes=2_000)
                assert anonymous["ok"]
                plain = await client.call("doc.load", schema="xmark")
                assert plain["ok"] and not plain["from_store"]
                stats = await client.call("stats")
                assert stats["docstore"]["misses"] == 1

    asyncio.run(run())


def test_reload_refreshes_lru_position(xmark_file):
    async def run():
        async with running_service(
            preload=("xmark",), max_documents=2,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call("doc.load", schema="xmark",
                                  bytes=2_000, doc="a")
                await client.call("doc.load", schema="xmark",
                                  bytes=2_000, doc="b")
                # Reload "a": it must become most-recently-used...
                await client.call("doc.load", schema="xmark",
                                  bytes=2_000, doc="a")
                await client.call("doc.load", schema="xmark",
                                  bytes=2_000, doc="c")
                # ...so the eviction hits "b", not the fresh "a".
                stats = await client.call("stats")
                assert set(stats["documents_detail"]) == {"a", "c"}

    asyncio.run(run())


def test_generated_documents_honor_project_for():
    """project_for on a generated load must actually prune (and a
    truthful flag must never claim projection that did not happen)."""

    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                full = await client.call("doc.load", schema="xmark",
                                         bytes=20_000, seed=3)
                projected = await client.call(
                    "doc.load", schema="xmark", bytes=20_000, seed=3,
                    project_for=["//emailaddress"],
                )
                assert projected["projected"] is True
                assert full["projected"] is False
                assert projected["nodes"] < projected["nodes_seen"]
                assert projected["nodes"] < full["nodes"] / 4
                for doc in (full["doc"], projected["doc"]):
                    registered = await client.call(
                        "view.register", doc=doc, name="em",
                        query="//emailaddress")
                    assert registered["ok"]
                counts = [
                    (await client.call("view.result", doc=doc,
                                       name="em"))["count"]
                    for doc in (full["doc"], projected["doc"])
                ]
                assert counts[0] == counts[1]

    asyncio.run(run())


def test_store_hit_rejects_uncovered_projection(tmp_path, xmark_file):
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call(
                    "doc.load", schema="xmark", path=xmark_file,
                    doc="proj",
                    project_for=["//emailaddress", "//person/name"],
                )
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                # Covered subset: served from the store.
                covered = await client.call(
                    "doc.load", schema="xmark", doc="proj",
                    project_for=["//emailaddress"],
                )
                assert covered["ok"] and covered["from_store"]
                # Uncovered query: must refuse, not silently serve
                # the narrower tree.
                uncovered = await client.call(
                    "doc.load", schema="xmark", doc="proj",
                    project_for=["//item"],
                )
                assert not uncovered["ok"]
                assert uncovered["error"]["code"] == "bad-params"
                assert "does not cover" in uncovered["error"]["message"]

    asyncio.run(run())


def test_malformed_project_for_rejected_on_every_branch(tmp_path,
                                                        xmark_file):
    """A non-list project_for is bad-params on the from-store branch
    too, not a TypeError surfacing as an internal error."""
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call("doc.load", schema="xmark",
                                  path=xmark_file, doc="p",
                                  project_for=["//emailaddress"])
                for branch_params in (
                    {"path": xmark_file},   # parse branch
                    {},                     # from-store branch
                    {"bytes": 2_000},       # generation branch
                ):
                    bad = await client.call(
                        "doc.load", schema="xmark", doc="p",
                        project_for=5, **branch_params,
                    )
                    assert not bad["ok"], branch_params
                    assert bad["error"]["code"] == "bad-params", bad

    asyncio.run(run())


def test_named_reload_without_docstore_errors(xmark_file):
    """doc.load naming a document with no source on a service without
    a document store (the ``memory://`` default) must refuse, not
    silently generate under that name."""

    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                bad = await client.call("doc.load", schema="xmark",
                                        doc="dblp")
                assert not bad["ok"]
                assert bad["error"]["code"] == "bad-params"
                assert "document store" in bad["error"]["message"]
                # Explicit generation under a name still works.
                ok = await client.call("doc.load", schema="xmark",
                                       doc="dblp", bytes=2_000)
                assert ok["ok"]

    asyncio.run(run())


def test_cli_persisted_projection_guard_over_the_wire(tmp_path,
                                                      xmark_file):
    """`repro load --store URL` and the served reload agree on the
    projection-coverage meta (the two persistence writers share one
    format)."""
    from repro.cli import main as cli_main

    url = f"sqlite:///{tmp_path / 'docs.sqlite'}"
    code = cli_main([
        "load", xmark_file, "--builtin", "xmark",
        "--project", "//emailaddress",
        "--store", url, "--doc", "cli-doc",
    ])
    assert code == 0

    async def run():
        async with running_service(
            preload=("xmark",), store_path=url,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                covered = await client.call(
                    "doc.load", schema="xmark", doc="cli-doc",
                    project_for=["//emailaddress"],
                )
                assert covered["ok"] and covered["from_store"], covered
                uncovered = await client.call(
                    "doc.load", schema="xmark", doc="cli-doc",
                    project_for=["//item"],
                )
                assert not uncovered["ok"]
                assert uncovered["error"]["code"] == "bad-params"

    asyncio.run(run())


def test_explicit_generation_not_shadowed_by_store(tmp_path):
    """doc.load with bytes/seed is a generation request even when a
    document with that id is persisted."""
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                first = await client.call("doc.load", schema="xmark",
                                          bytes=2_000, doc="g")
                assert first["ok"]
                regenerated = await client.call(
                    "doc.load", schema="xmark", bytes=8_000, doc="g",
                )
                assert regenerated["ok"]
                assert not regenerated["from_store"]
                stats = await client.call("stats")
                # Both generations persisted; neither lookup shadowed.
                assert stats["docstore"]["saves"] == 2
                reloaded = await client.call("doc.load",
                                             schema="xmark", doc="g")
                assert reloaded["from_store"]
                assert reloaded["nodes"] == regenerated["nodes"]

    asyncio.run(run())


def test_doc_query_modes_and_stats(tmp_path, xmark_file):
    """doc.query picks its answer path per request: materialized while
    the doc is loaded, SQL pushdown on a restarted service (zero
    materializations -- the docstore hit counter stays at 0), and
    transient materialize-then-evaluate for queries outside the
    fragment."""
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call("doc.load", schema="xmark",
                                  path=xmark_file, doc="corpus")
                warm = await client.call(
                    "doc.query", schema="xmark", doc="corpus",
                    query="//emailaddress",
                )
                assert warm["ok"] and warm["mode"] == "materialized"
                assert not warm["from_store"]
                assert warm["count"] == len(warm["answers"]) > 0
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                pushed = await client.call(
                    "doc.query", schema="xmark", doc="corpus",
                    query="//emailaddress",
                )
                assert pushed["ok"] and pushed["mode"] == "pushdown"
                assert pushed["from_store"]
                # Byte-identical to the materialized-path answers.
                assert pushed["answers"] == warm["answers"]
                stats = await client.call("stats")
                # The pushdown answered without materializing: no
                # docstore load happened, and no document is resident.
                assert stats["docstore"]["hits"] == 0
                assert stats["documents"] == 0
                assert stats["doc_queries"] == {
                    "pushed_down": 1, "fallback": 0, "materialized": 0,
                }
                # Outside the fragment (predicate): honest fallback.
                fell = await client.call(
                    "doc.query", schema="xmark", doc="corpus",
                    query="//person[name]", limit=2,
                )
                assert fell["ok"] and fell["mode"] == "fallback"
                assert fell["count"] >= len(fell["answers"])
                assert len(fell["answers"]) <= 2
                stats = await client.call("stats")
                assert stats["doc_queries"]["fallback"] == 1
                assert stats["docstore"]["hits"] == 1
                # The fallback tree was transient, not admitted to
                # the document LRU.
                assert stats["documents"] == 0

    asyncio.run(run())


def test_doc_query_rejects_uncovered_projection(tmp_path, xmark_file):
    """Satellite 3: a persisted *projection* must refuse queries
    outside its recorded project_for set instead of silently answering
    from the narrower node table (mirrors the doc.load store-hit
    guard)."""
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call(
                    "doc.load", schema="xmark", path=xmark_file,
                    doc="proj", project_for=["//emailaddress"],
                )
        async with running_service(
            preload=("xmark",), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                covered = await client.call(
                    "doc.query", schema="xmark", doc="proj",
                    query="//emailaddress",
                )
                assert covered["ok"] and covered["mode"] == "pushdown"
                uncovered = await client.call(
                    "doc.query", schema="xmark", doc="proj",
                    query="//person/name",
                )
                assert not uncovered["ok"]
                assert uncovered["error"]["code"] == "bad-params"
                assert "does not cover" in \
                    uncovered["error"]["message"]
                stats = await client.call("stats")
                # The refusal happened before any answer path ran.
                assert stats["doc_queries"] == {
                    "pushed_down": 1, "fallback": 0, "materialized": 0,
                }

    asyncio.run(run())


def test_doc_query_error_paths(tmp_path, xmark_file):
    db = f"sqlite:///{tmp_path / 'docs.sqlite'}"

    async def run():
        async with running_service(
            preload=("xmark", "bib"), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                await client.call("doc.load", schema="xmark",
                                  path=xmark_file, doc="corpus")
                missing = await client.call(
                    "doc.query", schema="xmark", doc="ghost",
                    query="//emailaddress",
                )
                assert not missing["ok"]
                assert missing["error"]["code"] == "unknown-doc"
                unparsable = await client.call(
                    "doc.query", schema="xmark", doc="corpus",
                    query="((",
                )
                assert not unparsable["ok"]
                assert unparsable["error"]["code"] == "bad-params"
                bad_limit = await client.call(
                    "doc.query", schema="xmark", doc="corpus",
                    query="//emailaddress", limit=-1,
                )
                assert not bad_limit["ok"]
                assert bad_limit["error"]["code"] == "bad-params"
        async with running_service(
            preload=("xmark", "bib"), store_path=db,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                # Persisted under xmark; querying as bib must refuse
                # (digest mismatch), not answer against the wrong
                # schema's expectations.
                wrong = await client.call(
                    "doc.query", schema="bib", doc="corpus",
                    query="//title",
                )
                assert not wrong["ok"]
                assert wrong["error"]["code"] == "bad-params"
                assert "different schema" in wrong["error"]["message"]
        # No document store at all: nothing to answer from.
        async with running_service(preload=("xmark",)) as (_, host,
                                                           port):
            async with ServiceClient(host, port) as client:
                nowhere = await client.call(
                    "doc.query", schema="xmark", doc="corpus",
                    query="//emailaddress",
                )
                assert not nowhere["ok"]
                assert nowhere["error"]["code"] == "unknown-doc"

    asyncio.run(run())


def test_anonymous_doc_ids_count_up_from_d1():
    """Anonymous loads are named ``d1``, ``d2``, ... in load order."""

    async def run():
        async with running_service(preload=("xmark",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                return [
                    (await client.call("doc.load", schema="xmark",
                                       bytes=1_000, seed=seed))["doc"]
                    for seed in (1, 2)
                ]

    assert asyncio.run(run()) == ["d1", "d2"]
