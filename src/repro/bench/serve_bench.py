"""Serve-layer benchmarks: micro-batching and multi-core sharding.

Two experiments share one closed-loop loadgen harness over loopback
TCP:

**Mode comparison** (PR 3's gate): the same 20x20 XMark workload
against three in-process service configurations --

* ``batched``  -- the default: micro-batching admission queue feeding
  coalesced ``analyze_matrix`` calls, group-committed store writes;
* ``engine``   -- batching disabled but the shared per-schema engine
  kept: per-request executor hand-off and per-verdict commit (shows
  how much of the win is the queue vs. the engine itself);
* ``oneshot``  -- batching disabled *and* stateless request handling:
  every request pays the full one-shot analysis (universe + inference
  rebuilt per call), i.e. the service you would write without the
  engine/serving layers of PRs 1-3.

**Shard comparison** (this PR's gate): a *two-schema* workload (the
XMark benchmark pool plus a deterministic generated schema) against a
single-shard service and an N-shard service.  The schemas hash to
different shards, so on a multi-core machine the two admission queues
drain on separate cores; on a >= 2-core runner the acceptance gate
(``benchmarks/test_serve_gate.py``) requires 2-shard throughput >=
1.6x single-shard with byte-identical verdicts across shard counts.

``repro serve-bench`` runs both and appends the JSON trajectory point
committed as ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
from contextlib import contextmanager

from ..serve.loadgen import LoadgenConfig, run_loadgen
from ..serve.server import IndependenceService, ServeConfig, make_service

#: The mode-comparison gate's workload: 20 x 20 XMark views/updates.
DEFAULT_WORKLOAD = dict(n_queries=20, n_updates=20, clients=32,
                        requests=1200, seed=7)

#: The shard-comparison workload: two schemas whose digests hash to
#: different shards in a 2-shard pool (pinned by the sharding tests),
#: so affinity routing actually spreads the traffic.
SHARD_WORKLOAD = dict(schema=("xmark", "gen:11"), n_queries=12,
                      n_updates=12, clients=32, requests=1000, seed=7)

#: Version of the ``BENCH_serve.json`` point layout.  2 added
#: ``schema_version``/``cores`` at the top level and per-mode
#: ``server_latency_ms`` (server-side per-op p50/p99 from the scraped
#: request histograms, so a point records both sides of the wire).
#: 3 dropped ``batch_window_seconds``: batching has no timer.
SCHEMA_VERSION = 3


def _server_latency(report: dict) -> dict:
    """Per-op server-side latency summary of one loadgen report."""
    per_op = report.get("server_metrics", {}).get("per_op", {})
    return {
        op: {"p50_ms": row["p50_ms"], "p99_ms": row["p99_ms"],
             "count": row["count"]}
        for op, row in per_op.items()
    }


def available_cores() -> int:
    """Cores this process may schedule on (the shard gate's skip knob)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover -- non-Linux
        return os.cpu_count() or 1


@contextmanager
def _store_file(tag: str):
    """A throwaway ``sqlite:///`` store URL, its file and WAL
    siblings cleaned up on exit."""
    handle, path = tempfile.mkstemp(prefix=f"repro-serve-{tag}-",
                                    suffix=".sqlite")
    os.close(handle)
    try:
        yield f"sqlite:///{path}"
    finally:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.unlink(path + suffix)


async def _run_config(config: ServeConfig, loadgen: LoadgenConfig) -> dict:
    """Start a service, drive one loadgen run against it, tear down."""
    service = make_service(config)
    host, port = await service.start()
    server_task = asyncio.create_task(service.serve_until_stopped())
    try:
        loadgen.host, loadgen.port = host, port
        report = await run_loadgen(loadgen)
    finally:
        service.stop()
        await server_task
    return report


async def _run_mode(mode: str, store_path: str,
                    workload: dict) -> dict:
    """One mode-comparison leg (always unsharded)."""
    config = ServeConfig(
        port=0,
        store_path=store_path,
        analysis_mode=mode,
        preload=("xmark",),
    )
    assert isinstance(make_service(config), IndependenceService)
    return await _run_config(config, LoadgenConfig(
        schema="xmark", source="bench", scrape_metrics=True, **workload,
    ))


async def run_serve_bench_async(workload: dict | None = None,
                                store: str | None = None) -> dict:
    """The three-mode comparison (the PR 3 acceptance numbers).

    ``store`` overrides the throwaway per-mode SQLite file with one
    store URL (``sqlite:///...``, ``postgresql://...``) so the bench
    can measure a specific backend; the stateful legs then share that
    backend, which warm-starts the later ones.  The oneshot leg never
    touches a store either way.
    """
    workload = {**DEFAULT_WORKLOAD, **(workload or {})}
    reports: dict[str, dict] = {}
    for mode in ("batched", "engine", "oneshot"):
        if mode == "oneshot":
            # Stateless mode never touches the store.
            reports[mode] = await _run_mode(
                mode, "memory://", workload
            )
            continue
        if store is not None:
            reports[mode] = await _run_mode(
                mode, store, workload
            )
            continue
        with _store_file(mode) as store_path:
            reports[mode] = await _run_mode(
                mode, store_path, workload
            )

    verdict_blobs = {
        mode: json.dumps(report["verdicts"], sort_keys=True)
        for mode, report in reports.items()
    }
    identical = len(set(verdict_blobs.values())) == 1
    batched = reports["batched"]["throughput_rps"]
    engine = reports["engine"]["throughput_rps"]
    oneshot = reports["oneshot"]["throughput_rps"]
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": reports["batched"]["workload"],
        "cores": available_cores(),
        "modes": {
            mode: {
                "throughput_rps": report["throughput_rps"],
                "latency_ms": report["latency_ms"],
                "server_latency_ms": _server_latency(report),
                "errors": report["errors"],
                "coalesced_requests": report["service"]
                ["coalesced_requests"],
                "batches": report["service"]["batches"],
            }
            for mode, report in reports.items()
        },
        "verdicts_identical": identical,
        "distinct_pairs": reports["batched"]["distinct_pairs"],
        "independent_pairs": reports["batched"]["independent_pairs"],
        "speedup_vs_oneshot": batched / oneshot if oneshot else 0.0,
        "speedup_vs_engine": batched / engine if engine else 0.0,
    }


async def run_shard_bench_async(shards: int = 2,
                                workload: dict | None = None,
                                store: str | None = None) -> dict:
    """Single-shard vs ``shards``-shard throughput, same workload.

    Both legs run the default batched mode; the single-shard leg is the
    plain in-process service (what ``--shards 1`` deploys), the sharded
    leg is the router + worker-process pool.  Verdicts must be
    byte-identical across shard counts -- the analysis is a pure
    function of ``(schema digest, k, query, update)``, so topology may
    only change speed, never answers.  ``store`` (a store URL)
    replaces the throwaway per-leg SQLite file, so both legs share one
    backend (the second leg warm-starts from the first).
    """
    workload = {**SHARD_WORKLOAD, **(workload or {})}
    reports: dict[int, dict] = {}

    async def leg(count: int, store_path: str) -> dict:
        config = ServeConfig(
            port=0,
            store_path=store_path,
            preload=("xmark",),
            shards=count,
        )
        return await _run_config(
            config, LoadgenConfig(source="bench", scrape_metrics=True,
                                  **workload)
        )

    for count in sorted({1, shards}):
        if store is not None:
            reports[count] = await leg(count, store)
            continue
        with _store_file(f"{count}shard") as store_path:
            reports[count] = await leg(count, store_path)

    verdict_blobs = {
        count: json.dumps(report["verdicts"], sort_keys=True)
        for count, report in reports.items()
    }
    identical = len(set(verdict_blobs.values())) == 1
    single = reports[1]["throughput_rps"]
    sharded = reports[shards]["throughput_rps"]
    return {
        "workload": reports[shards]["workload"],
        "cores": available_cores(),
        "shards": shards,
        "shard_counts": {
            str(count): {
                "throughput_rps": report["throughput_rps"],
                "latency_ms": report["latency_ms"],
                "server_latency_ms": _server_latency(report),
                "errors": report["errors"],
                "coalesced_requests": report["service"]
                ["coalesced_requests"],
                "batches": report["service"]["batches"],
                "shard_routing": report["service"]["shard_routing"],
            }
            for count, report in reports.items()
        },
        "verdicts_identical": identical,
        "distinct_pairs": reports[shards]["distinct_pairs"],
        "shard_speedup": sharded / single if single else 0.0,
    }


def append_trajectory_point(path: str, point: dict) -> None:
    """Append one benchmark point to the ``BENCH_serve.json`` trajectory.

    The file holds ``{"points": [...]}``; a pre-existing single-object
    file (the original PR 3 format) is wrapped as the first point.
    """
    points: list[dict] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and \
                isinstance(existing.get("points"), list):
            points = existing["points"]
        elif isinstance(existing, dict):
            points = [existing]
    points.append(point)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"points": points}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_serve_bench(workload: dict | None = None,
                    shards: int = 2,
                    store: str | None = None,
                    out=sys.stdout) -> dict:
    """Run the mode and shard comparisons; print both (CLI body).

    Pass ``shards <= 1`` to skip the shard comparison (e.g. on a
    single-core box where it only measures router overhead), and
    ``store`` (a store URL) to bench a specific backend instead of
    throwaway SQLite files.
    """
    results = asyncio.run(
        run_serve_bench_async(workload, store=store)
    )
    shape = results["workload"]
    print(f"serve benchmark -- {shape['n_queries']}x{shape['n_updates']} "
          f"XMark pool, {shape['clients']} clients, "
          f"{shape['requests']} requests/mode", file=out)
    print(f"{'mode':>10} {'rps':>9} {'p50-ms':>8} {'p99-ms':>8} "
          f"{'batches':>8} {'coalesced':>10}", file=out)
    for mode, row in results["modes"].items():
        print(f"{mode:>10} {row['throughput_rps']:>9.0f} "
              f"{row['latency_ms']['p50']:>8.2f} "
              f"{row['latency_ms']['p99']:>8.2f} "
              f"{row['batches']:>8} {row['coalesced_requests']:>10}",
              file=out)
    print(f"speedup: {results['speedup_vs_oneshot']:.1f}x vs one-shot, "
          f"{results['speedup_vs_engine']:.2f}x vs engine-no-batching "
          "-- verdicts "
          f"{'identical' if results['verdicts_identical'] else 'DIFFER'} "
          f"({results['independent_pairs']}/"
          f"{results['distinct_pairs']} independent)", file=out)

    if shards > 1:
        sharding = asyncio.run(
            run_shard_bench_async(shards, workload, store=store)
        )
        results["sharding"] = sharding
        print(f"shard comparison -- schemas "
              f"{','.join(sharding['workload']['schemas'])}, "
              f"{sharding['cores']} core(s)", file=out)
        for count, row in sharding["shard_counts"].items():
            routing = row["shard_routing"] or {}
            spread = "+".join(str(routing[key])
                              for key in sorted(routing)) or "-"
            print(f"{count + ' shard':>10} "
                  f"{row['throughput_rps']:>9.0f} "
                  f"{row['latency_ms']['p50']:>8.2f} "
                  f"{row['latency_ms']['p99']:>8.2f} "
                  f"{'routed ' + spread:>19}", file=out)
        print(f"shard speedup: {sharding['shard_speedup']:.2f}x "
              f"({sharding['shards']} shards vs 1) -- verdicts "
              f"{'identical' if sharding['verdicts_identical'] else 'DIFFER'}",
              file=out)
    return results
