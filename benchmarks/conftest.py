"""Benchmark-suite conftest: wire the perf-record collector.

Ensures :mod:`bench_report` is importable from the benchmark modules
(the benchmarks directory is not a package) and flushes the collected
records to ``BENCH_*.json`` in ``REPRO_BENCH_DIR`` when the session
ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import bench_report  # noqa: E402  (needs the sys.path insert above)


def pytest_sessionfinish(session, exitstatus):
    bench_report.write_records(exitstatus=int(exitstatus))
