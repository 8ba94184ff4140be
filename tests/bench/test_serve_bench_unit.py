"""Unit tests for the serve-bench helpers (no services spawned)."""

from __future__ import annotations

import json

from repro.bench.serve_bench import append_trajectory_point, available_cores


def test_available_cores_positive():
    assert available_cores() >= 1


class TestTrajectoryFile:
    def test_append_to_missing_file_creates_points(self, tmp_path):
        path = str(tmp_path / "bench.json")
        append_trajectory_point(path, {"speedup": 3.0})
        with open(path) as handle:
            data = json.load(handle)
        assert data == {"points": [{"speedup": 3.0}]}

    def test_append_wraps_legacy_single_object(self, tmp_path):
        """The original PR 3 BENCH_serve.json (one bare object) becomes
        the first point of the trajectory."""
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"speedup_vs_oneshot": 11.6}))
        append_trajectory_point(str(path), {"speedup_vs_engine": 1.7})
        data = json.loads(path.read_text())
        assert data["points"] == [
            {"speedup_vs_oneshot": 11.6},
            {"speedup_vs_engine": 1.7},
        ]

    def test_append_extends_existing_trajectory(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"points": [{"a": 1}]}))
        append_trajectory_point(str(path), {"b": 2})
        append_trajectory_point(str(path), {"c": 3})
        data = json.loads(path.read_text())
        assert data["points"] == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_committed_trajectory_parses(self):
        """The repository's own BENCH_serve.json stays loadable and in
        trajectory shape."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_serve.json"
        data = json.loads(path.read_text())
        assert isinstance(data["points"], list) and data["points"]
        latest = data["points"][-1]
        assert latest["verdicts_identical"] is True
