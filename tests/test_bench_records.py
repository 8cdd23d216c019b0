"""Unit tests for the benchmark record flush guards.

``write_records`` writes only into ``REPRO_BENCH_DIR``, so a plain
``pytest`` run changes no file in the checkout, and it refuses to flush
a failing session, whose numbers ``tools/check_bench_gates.py`` must
not read as a pass.  The benchmarks directory is not a package, so the
module is loaded off its file path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "benchmarks")
)

import bench_report  # noqa: E402


@pytest.fixture
def bench_env(tmp_path, monkeypatch):
    """Fresh record store writing into a temp dir, full (non-smoke) mode."""
    monkeypatch.setattr(bench_report, "_RECORDS", {})
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    return tmp_path


def _write_baseline(tmp_path, *, smoke: bool, benchmarks: dict) -> Path:
    path = tmp_path / "BENCH_fleet.json"
    payload = {
        "meta": {"machine": "x", "python": "3", "smoke": smoke, "unix_time": 1},
        "benchmarks": benchmarks,
    }
    path.write_text(json.dumps(payload))
    return path


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


class TestFailingSessionGuard:
    def test_nonzero_exitstatus_does_not_flush(self, bench_env, capsys):
        baseline = _write_baseline(
            bench_env, smoke=False, benchmarks={"old": {"steps_per_sec": 1.0}}
        )
        before = baseline.read_text()
        bench_report.bench_record("fleet", "new", steps_per_sec=2.0)
        bench_report.write_records(exitstatus=1)
        assert baseline.read_text() == before
        assert "not flushing" in capsys.readouterr().err

    def test_zero_exitstatus_flushes(self, bench_env):
        bench_report.bench_record("fleet", "new", steps_per_sec=2.0)
        bench_report.write_records(exitstatus=0)
        payload = _read(bench_env / "BENCH_fleet.json")
        assert payload["benchmarks"] == {"new": {"steps_per_sec": 2.0}}
        assert payload["meta"]["smoke"] is False

    def test_unset_dir_writes_nothing(self, bench_env, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"wrote {self}")

        monkeypatch.delenv("REPRO_BENCH_DIR")
        monkeypatch.setattr(Path, "write_text", refuse)
        bench_report.bench_record("fleet", "new", steps_per_sec=2.0)
        bench_report.write_records(exitstatus=0)
        assert list(bench_env.iterdir()) == []
