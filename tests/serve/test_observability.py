"""Wire-level observability: the ``metrics`` op, trace/timing fields,
the slow-request log, and the HTTP scrape listener.

The in-process service shares one process-default registry across
tests, so every count assertion works on before/after deltas of two
``metrics`` snapshots rather than absolute values.
"""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.request

from repro.obs.metrics import histogram_quantile

from ..obs.test_export import validate_exposition
from .util import ServiceClient, running_service

ANALYZE = dict(schema="bib", query="//title", update="delete //price")


def _child(snapshot: dict, family: str, *labelvalues: str) -> dict | None:
    children = snapshot["families"].get(family, {}).get("children", {})
    return children.get(json.dumps(list(labelvalues)))


def _count_delta(before: dict, after: dict, family: str,
                 *labelvalues: str) -> int:
    now = _child(after, family, *labelvalues)
    then = _child(before, family, *labelvalues)
    return (now["count"] if now else 0) - (then["count"] if then else 0)


def test_metrics_op_returns_valid_exposition_and_snapshot():
    async def run():
        async with running_service(preload=("bib",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                before = await client.call("metrics")
                for _ in range(3):
                    response = await client.call("analyze", **ANALYZE)
                    assert response["ok"], response
                await client.call("doc.query", schema="bib", doc="nope",
                                  query="//title")  # error: not found
                after = await client.call("metrics")
        return before, after

    before, after = asyncio.run(run())
    assert before["ok"] and after["ok"]
    validate_exposition(after["text"])
    assert isinstance(after["slow"], list)
    delta = _count_delta(before["snapshot"], after["snapshot"],
                         "repro_request_seconds", "analyze")
    assert delta == 3
    errors = _child(after["snapshot"], "repro_request_errors_total",
                    "doc.query", "unknown-doc")
    assert errors and errors["value"] >= 1
    # The scraped histogram carries a usable latency estimate.
    child = _child(after["snapshot"], "repro_request_seconds",
                   "analyze")
    assert histogram_quantile(child, 0.5) > 0.0


def test_timing_field_reports_per_layer_spans():
    async def run():
        async with running_service(preload=("bib",)) as (_, host, port):
            async with ServiceClient(host, port) as client:
                analyze = await client.call(
                    "analyze", trace="trace-42", timing=True, **ANALYZE
                )
                untimed = await client.call("analyze", **ANALYZE)
                load = await client.call("doc.load", schema="bib",
                                         bytes=4000, seed=1)
                doc = await client.call(
                    "doc.query", schema="bib", doc=load["doc"],
                    query="//title", timing=True,
                )
        return analyze, untimed, doc

    analyze, untimed, doc = asyncio.run(run())
    assert analyze["ok"], analyze
    timing = analyze["timing"]
    assert timing["trace"] == "trace-42"
    names = {span["name"] for span in timing["spans"]}
    assert "engine" in names and "queue_wait" in names
    assert timing["total_ms"] >= 0.0
    # timing is strictly opt-in: the response shape without it is
    # unchanged (the serve-bench overhead gate rides on this).
    assert "timing" not in untimed
    assert {span["name"] for span in doc["timing"]["spans"]} >= {"engine"}


def test_slow_log_records_over_threshold_requests(tmp_path):
    slow_path = tmp_path / "slow.jsonl"

    async def run():
        async with running_service(
            preload=("bib",), slow_ms=0.000001,
            slow_log_path=str(slow_path),
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                assert (await client.call("analyze", **ANALYZE))["ok"]
                return await client.call("metrics")

    metrics = asyncio.run(run())
    slow = [entry for entry in metrics["slow"] if entry["op"] == "analyze"]
    assert slow, metrics["slow"]
    entry = slow[-1]
    assert entry["total_ms"] > 0.0
    assert "engine" in entry["spans"]
    logged = [json.loads(line) for line in
              slow_path.read_text().strip().splitlines()]
    assert any(line["op"] == "analyze" for line in logged)
    counted = _child(metrics["snapshot"], "repro_slow_requests_total",
                     "analyze")
    assert counted and counted["value"] >= 1


def test_http_metrics_listener_serves_exposition():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]

    async def run():
        async with running_service(
            preload=("bib",), metrics_port=free_port,
        ) as (service, host, port):
            assert service.metrics_port == free_port
            async with ServiceClient(host, port) as client:
                assert (await client.call("analyze", **ANALYZE))["ok"]

            def scrape():
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{free_port}/metrics", timeout=10
                ) as response:
                    return (response.status,
                            response.headers["Content-Type"],
                            response.read().decode("utf-8"))

            status, ctype, text = await asyncio.get_running_loop() \
                .run_in_executor(None, scrape)

            def miss():
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{free_port}/other", timeout=10
                    ) as response:
                        return response.status
                except urllib.error.HTTPError as error:
                    return error.code

            not_found = await asyncio.get_running_loop() \
                .run_in_executor(None, miss)
        return status, ctype, text, not_found

    status, ctype, text, not_found = asyncio.run(run())
    assert status == 200
    assert ctype.startswith("text/plain; version=0.0.4")
    validate_exposition(text)
    assert "repro_request_seconds_bucket" in text
    assert not_found == 404


def test_metrics_cli_scrapes_the_wire_and_http_listeners(capsys):
    from repro.cli import main

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]

    async def run():
        async with running_service(
            preload=("bib",), metrics_port=free_port,
        ) as (_, host, port):
            async with ServiceClient(host, port) as client:
                assert (await client.call("analyze", **ANALYZE))["ok"]
            # The CLI is synchronous (it owns its own event loop), so
            # it scrapes off-thread while the service keeps serving.
            loop = asyncio.get_running_loop()
            wire = await loop.run_in_executor(
                None, main, ["metrics", f"{host}:{port}"]
            )
            http = await loop.run_in_executor(
                None, main,
                ["metrics", f"http://127.0.0.1:{free_port}", "--raw"],
            )
        return wire, http

    wire, http = asyncio.run(run())
    assert wire == 0 and http == 0
    out = capsys.readouterr().out
    # Wire scrape: the summary table with quantile estimates.
    assert "repro_request_seconds{" in out
    assert "count=" in out and "p50=" in out and "p99=" in out
    # HTTP scrape with --raw: the exposition text verbatim.
    assert "# TYPE repro_request_seconds histogram" in out
