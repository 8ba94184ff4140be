"""Serving-layer acceptance gate: micro-batching.

On the 20-view x 20-update XMark workload driven closed-loop over
loopback TCP, the micro-batched service must reach >= 3x the throughput of the batching-disabled
configuration (stateless one-shot request handling -- the service you
would run without the engine/serving layers), with byte-identical
verdicts across every mode.  On this workload the typical observed
margin is 6-10x; the engine-no-batching mode is also measured and must
at least not be slower than one-shot, so the report keeps the queue's
own contribution separate from the engine's.
"""

import asyncio
import json

from repro.bench.serve_bench import run_serve_bench_async

#: The micro-batching acceptance threshold from the PR 3 issue.
REQUIRED_SPEEDUP = 3.0

#: Trimmed workload: same 20x20 XMark pool as the committed
#: BENCH_serve.json point, fewer requests to keep the gate quick.
WORKLOAD = dict(n_queries=20, n_updates=20, clients=32,
                requests=800, seed=7)

_RESULTS: dict | None = None


def results() -> dict:
    """The shared three-mode run, executed lazily on first use (module
    import and `--collect-only` stay side-effect free)."""
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = asyncio.run(run_serve_bench_async(WORKLOAD))
    return _RESULTS


def test_all_modes_complete_without_errors():
    for mode, row in results()["modes"].items():
        assert row["errors"] == 0, f"{mode}: {row['errors']} errors"


def test_verdicts_byte_identical_across_modes():
    assert results()["verdicts_identical"], (
        "batched / engine / oneshot services returned different verdicts"
    )


def test_batched_coalesces_and_unbatched_does_not():
    modes = results()["modes"]
    assert modes["batched"]["batches"] > 0
    assert modes["batched"]["coalesced_requests"] > 0
    assert modes["engine"]["batches"] == 0
    assert modes["oneshot"]["batches"] == 0


def test_batched_service_three_x_over_batching_disabled():
    speedup = results()["speedup_vs_oneshot"]
    print("\n" + json.dumps(
        {mode: round(row["throughput_rps"], 1)
         for mode, row in results()["modes"].items()}
    ) + f"  speedup {speedup:.1f}x")
    assert speedup >= REQUIRED_SPEEDUP, (
        f"micro-batched service reached only {speedup:.2f}x the "
        f"batching-disabled throughput (gate: {REQUIRED_SPEEDUP}x)"
    )


def test_engine_mode_not_slower_than_oneshot():
    # Not a timing-sensitive check: the shared engine beats per-request
    # one-shot by ~9x (universe/inference amortization), so this only
    # catches a wiring regression, not scheduler jitter.
    engine = results()["modes"]["engine"]["throughput_rps"]
    oneshot = results()["modes"]["oneshot"]["throughput_rps"]
    assert engine > oneshot, (
        "shared-engine mode should already beat stateless one-shot"
    )

