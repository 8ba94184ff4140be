"""Serve-layer benchmark: micro-batching against unbatched modes.

One closed-loop loadgen harness over loopback TCP drives the same
20x20 XMark workload against three in-process service configurations:

* ``batched``  -- the default: micro-batching admission queue feeding
  coalesced ``analyze_matrix`` calls, group-committed store writes;
* ``engine``   -- batching disabled but the shared per-schema engine
  kept: per-request executor hand-off and per-verdict commit (shows
  how much of the win is the queue vs. the engine itself);
* ``oneshot``  -- batching disabled *and* stateless request handling:
  every request pays the full one-shot analysis (universe + inference
  rebuilt per call), i.e. the service you would write without the
  engine/serving layers.

The acceptance gate (``benchmarks/test_serve_gate.py``) requires the
batched mode to beat one-shot by >= 3x with byte-identical verdicts
across modes.  ``repro serve-bench`` runs the comparison and appends
the JSON trajectory point committed as ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
from contextlib import contextmanager

from ..serve.loadgen import LoadgenConfig, run_loadgen
from ..serve.server import IndependenceService, ServeConfig

#: The mode-comparison gate's workload: 20 x 20 XMark views/updates.
DEFAULT_WORKLOAD = dict(n_queries=20, n_updates=20, clients=32,
                        requests=1200, seed=7)

#: Version of the ``BENCH_serve.json`` point layout.  2 added
#: ``schema_version``/``cores`` at the top level and per-mode
#: ``server_latency_ms`` (server-side per-op p50/p99 from the scraped
#: request histograms, so a point records both sides of the wire).
#: 3 dropped ``batch_window_seconds``: batching has no timer.  4
#: dropped the multi-process topology comparison: the service has one
#: topology.
SCHEMA_VERSION = 4


def _server_latency(report: dict) -> dict:
    """Per-op server-side latency summary of one loadgen report."""
    per_op = report.get("server_metrics", {}).get("per_op", {})
    return {
        op: {"p50_ms": row["p50_ms"], "p99_ms": row["p99_ms"],
             "count": row["count"]}
        for op, row in per_op.items()
    }


def available_cores() -> int:
    """Cores this process may schedule on (recorded with each point)."""
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


async def _run_mode(mode: str, store_path: str,
                    workload: dict) -> dict:
    """One mode-comparison leg: start a service, drive one loadgen
    run against it, tear down."""
    service = IndependenceService(ServeConfig(
        port=0,
        store_path=store_path,
        analysis_mode=mode,
        preload=("xmark",),
    ))
    host, port = await service.start()
    server_task = asyncio.create_task(service.serve_until_stopped())
    try:
        return await run_loadgen(LoadgenConfig(
            host=host, port=port, schema="xmark", source="bench",
            scrape_metrics=True, **workload,
        ))
    finally:
        service.stop()
        await server_task


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
                    store: str | None = None,
                    out=sys.stdout) -> dict:
    """Run the mode comparison and print it (CLI body).

    ``store`` (a store URL) benches a specific backend instead of
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
    return results
