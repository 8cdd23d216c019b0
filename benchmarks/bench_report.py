"""Machine-readable perf records for the benchmark suite.

Benchmarks call :func:`bench_record` with their headline numbers
(steps/sec, servers x steps/sec, backend speedups); the benchmarks
conftest writes the collected records to ``BENCH_core.json`` and
``BENCH_fleet.json`` in ``REPRO_BENCH_DIR`` at session end, where
``tools/check_bench_gates.py`` reads them.  With the variable unset
nothing is written, so a plain ``pytest`` run leaves the checkout as it
found it.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1`` - short durations and no speedup assertions;
  CI uses this to catch import/regression breakage without timing
  flakiness.
* ``REPRO_BENCH_DIR`` - the directory to write the JSON files into.

A failing session does not flush at all: its numbers come from a run
that tripped a perf gate, so no gate should read them as a pass.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: file key -> {benchmark name -> fields}
_RECORDS: dict[str, dict[str, dict]] = {}


def smoke_mode() -> bool:
    """True when the suite should run short and skip timing assertions."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def phase_fractions(obs_summary: dict, ndigits: int = 4) -> dict[str, float]:
    """Per-phase share of timed work from an ``extras["obs"]`` summary.

    Benchmarks attach this to their records so the JSON answers *where*
    the time goes, not just how much of it there is.
    """
    phases = obs_summary.get("phases", {})
    return {
        name: round(entry["fraction"], ndigits)
        for name, entry in sorted(phases.items())
    }


def median_of_best(samples: list[float], groups: int = 5) -> float:
    """Robust wall-time aggregate: best within each group, median across.

    Overhead *ratios* built from two plain best-of-N minimums are biased
    by whichever side happens to catch the quietest scheduler slot - a
    single lucky round once put the obs-disabled lane 6% *under* bare
    (``disabled_overhead_ratio`` 0.94), which no real overhead can do.
    Splitting the interleaved rounds into ``groups`` consecutive groups,
    taking the best of each (noise on wall times is one-sided, so a
    group minimum still estimates the true cost), and then the *median*
    across groups bounds any single outlier round's influence to one
    group.  Requires at least one sample per group; a remainder of
    ``len(samples) % groups`` rounds spreads over the leading groups.
    """
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if len(samples) < groups:
        raise ValueError(
            f"need at least {groups} samples for {groups} groups, "
            f"got {len(samples)}"
        )
    base, extra = divmod(len(samples), groups)
    bests = []
    start = 0
    for g in range(groups):
        stop = start + base + (1 if g < extra else 0)
        bests.append(min(samples[start:stop]))
        start = stop
    return statistics.median(bests)


def bench_record(file_key: str, name: str, **fields) -> None:
    """Collect one benchmark's headline numbers.

    ``file_key`` is ``"core"`` or ``"fleet"`` (-> ``BENCH_<key>.json``);
    ``name`` identifies the benchmark within the file.
    """
    _RECORDS.setdefault(file_key, {})[name] = fields


def write_records(exitstatus: int = 0) -> None:
    """Write one ``BENCH_<key>.json`` per populated file key.

    Files go to ``REPRO_BENCH_DIR``; with it unset nothing is written.
    A nonzero *exitstatus* (failed or interrupted pytest session) skips
    the flush entirely.
    """
    out = os.environ.get("REPRO_BENCH_DIR", "")
    if not _RECORDS or not out:
        return
    if exitstatus != 0:
        print(
            "bench_report: session exit status "
            f"{exitstatus} != 0; not flushing benchmark records",
            file=sys.stderr,
        )
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke_mode(),
        "unix_time": int(time.time()),
    }
    for file_key, benchmarks in _RECORDS.items():
        payload = {"meta": meta, "benchmarks": benchmarks}
        (out_dir / f"BENCH_{file_key}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
