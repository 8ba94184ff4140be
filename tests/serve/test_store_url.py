"""A store URL is the one way to configure a service's storage.

A file URL (``sqlite:///x.db``) persists verdicts and documents in one
backend and reports its target in ``/stats``; ``memory://`` is the
default and runs without a document store; anything that is not a
store URL is refused when the config is built, before a socket is
bound.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.server import ServeConfig
from repro.storage import parse_store_url

from .util import ServiceClient, running_service

PAIRS = [
    ("//title", "delete //price"),
    ("//price", "delete //price"),
    ("/bib/book/author", "delete //editor"),
]


async def _drive(**config_kwargs) -> dict:
    """One fixed workload: analyses, a generated persisted document,
    a view, a reload; returns the final ``/stats`` payload."""
    async with running_service(preload=("bib",),
                               **config_kwargs) as (_, host, port):
        async with ServiceClient(host, port) as client:
            for query, update in PAIRS:
                response = await client.call(
                    "analyze", schema="bib", query=query, update=update
                )
                assert response["ok"], response
            loaded = await client.call("doc.load", schema="bib",
                                       doc="d", bytes=2000, seed=3)
            assert loaded["ok"], loaded
            view = await client.call("view.register", doc="d",
                                     name="titles", query="//title")
            assert view["ok"], view
            await client.call("doc.unload", doc="d")
            reloaded = await client.call("doc.load", schema="bib",
                                         doc="d")
            assert reloaded["ok"] and reloaded["from_store"], reloaded
            stats = await client.call("stats")
            assert stats["ok"], stats
            return stats


def test_url_reported_paths_echo_the_url(tmp_path):
    """The unified service reports its configured URL targets."""
    url = f"sqlite:///{tmp_path / 'unified.db'}"
    stats = asyncio.run(_drive(store_path=url))
    assert stats["store"]["path"] == url
    assert stats["docstore"]["path"] == url
    assert stats["docstore"]["enabled"] is True


async def _default_stats(**config_kwargs) -> dict:
    """``/stats`` of a service on the default config (or
    ``config_kwargs``), after one analysis."""
    async with running_service(preload=("bib",),
                               **config_kwargs) as (_, host, port):
        async with ServiceClient(host, port) as client:
            response = await client.call(
                "analyze", schema="bib", query=PAIRS[0][0],
                update=PAIRS[0][1],
            )
            assert response["ok"], response
            stats = await client.call("stats")
            assert stats["ok"], stats
            return stats


def test_memory_url_matches_default_ephemeral():
    """The default store is `memory://`: ephemeral verdicts and no
    document store."""
    assert ServeConfig().store_path == "memory://"
    stats = asyncio.run(_default_stats())
    assert stats["docstore"] == {"enabled": False}
    assert stats["store"]["verdicts"] == 1


@pytest.mark.parametrize("url", ["memory://", "sqlite:///{tmp}/echo.db"])
def test_unsharded_stats_echo_the_store_url(tmp_path, url):
    """The service reports the configured store URL in ``/stats`` --
    never a bare file path or ``:memory:``."""
    url = url.format(tmp=tmp_path)
    stats = asyncio.run(_default_stats(store_path=url))
    assert stats["store"]["path"] == url
    if url != "memory://":
        assert stats["docstore"]["path"] == url


@pytest.mark.parametrize("value, hint", [
    ("", "'memory://'"),
    (":memory:", "'memory://'"),
    ("sqlite:///:memory:", "'memory://'"),
    ("verdicts.db", "'sqlite:///verdicts.db'"),
    ("/var/x.db", "'sqlite:////var/x.db'"),
])
def test_non_url_rejected_with_the_url_to_use(value, hint):
    """A plain path, `:memory:` or nothing is not a store URL; the
    error names the URL that replaces it."""
    with pytest.raises(ValueError, match=hint):
        parse_store_url(value)


@pytest.mark.parametrize("config", [
    {"store_path": "verdicts.db"},
    {"store_path": ":memory:"},
    {"store_path": "sqlite:///:memory:"},
    {"store_path": "/var/x.db"},
])
def test_serveconfig_rejects_non_url(config):
    """`ServeConfig` refuses a non-URL store in `__post_init__`, so no
    service object or socket ever exists for it."""
    with pytest.raises(ValueError, match="sqlite:///|memory://"):
        ServeConfig(**config)
