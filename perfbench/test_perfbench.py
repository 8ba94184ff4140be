"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

The end-to-end tests run the real command briefly against a service
that falsifies one verdict or answer in ten and check that the run is
refused; they take a minute or so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_clean_run_is_correct():
    done = run_bench("--workload", "analyze-warm", "--seed", "3",
                     "--seconds", "2")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_wrong_verdict_fails_the_run():
    done = run_bench("--workload", "analyze-warm", "--seed", "3",
                     "--seconds", "2", "--corrupt", "verdict")
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "verdict" in done.stdout


def test_wrong_answer_fails_the_run():
    done = run_bench("--workload", "documents", "--seed", "3",
                     "--seconds", "2", "--corrupt", "answer")
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_no_program_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "analyze-warm", "--seed", "1",
                     "--seconds", "2", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()


def _span(span_id, parent, name, start, end, extra=None):
    return ledger.Span([span_id, parent, name, 1, start, end, -1, True,
                        extra])


def test_ledger_rows_add_up_to_client_latency():
    # Two analyze requests coalesced into one 6 ms flush; times in ns.
    ms = 1_000_000
    spans = [
        _span(1, 0, "server.request", 0, 10 * ms, 100),
        _span(2, 1, "protocol.decode", ms // 10, 2 * ms // 10, "analyze"),
        _span(3, 1, "batching.submit", 3 * ms // 10, 9 * ms),
        _span(4, 1, "protocol.encode", 91 * ms // 10, 92 * ms // 10, 50),
        _span(11, 0, "server.request", ms, 10 * ms, 100),
        _span(12, 11, "protocol.decode", 11 * ms // 10, 12 * ms // 10,
              "analyze"),
        _span(13, 11, "batching.submit", 13 * ms // 10, 9 * ms),
        _span(14, 11, "protocol.encode", 93 * ms // 10, 94 * ms // 10, 50),
        _span(5, 0, "batching.flush", 2 * ms, 8 * ms, [0.0013, 0.0017]),
        _span(6, 5, "engine.pair", 25 * ms // 10, 75 * ms // 10),
    ]
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent:
            by_id[span.parent].children.append(span)
    table = ledger.build(spans, (0, 10**9), client_ms=12.0)
    rows = {row["layer"]: row for row in table["rows"]}
    attributed = sum(row["self_ms"] + row["wait_ms"]
                     for layer, row in rows.items()
                     if layer != "server.unattributed_ms")
    # The layers account for the mean server.request time (9.5 ms):
    # each member experiences the whole flush, whose engine work is
    # 5 ms; the submits' remaining 2.2 ms per request is batching wait.
    assert attributed == pytest.approx(9.5)
    assert rows["analysis.engine"]["self_ms"] == pytest.approx(5.0)
    assert rows["serve.batching"]["wait_ms"] == pytest.approx(2.2)
    assert rows["server.unattributed_ms"]["self_ms"] == pytest.approx(2.5)
    assert table["metrics"]["batching.batch_size"] == 2
    assert table["metrics"]["batching.queue_wait_ms"] == pytest.approx(0.5)
    assert table["metrics"]["protocol.bytes_per_op"] == 150
