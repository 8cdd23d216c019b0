"""Fleet simulation throughput: servers x steps/sec across backends.

The headline benchmarks race the scalar and vectorized
:class:`~repro.fleet.simulator.FleetSimulator` backends on the same
16- and 64-server racks and record both throughputs (plus the speedup)
to ``BENCH_fleet.json`` via the conftest collector (written only into
``REPRO_BENCH_DIR``).  The vectorized rows cover the batch *controller*
backend (the whole DTM advances as array ops), and the **fused**
per-window kernel runs as a third lane with its ratio over vectorized
gated.  The fused rounds assert the two-tier
contract's no-silent-fallback clause in smoke mode too: CI fails if a
"fused" run ever reports a scalar or mixed controller backend.  The
campaign benchmarks time the process-pool fan-out path on top of the
per-rack loop.
"""

from __future__ import annotations

import time

import pytest
from bench_report import bench_record, phase_fractions, smoke_mode

from repro.config import FleetConfig
from repro.fleet import (
    CampaignRunner,
    CampaignTask,
    FleetSimulator,
    homogeneous_rack,
)
from repro.obs import ObsConfig

_N_SERVERS = 4
_DURATION_S = 30.0
_DT_S = 0.5

# Backend shoot-out configuration: the paper's dt (0.1 s), long enough
# that per-step costs dominate construction.  16 servers tracks the PR 2
# baseline; 64 servers is the ROADMAP scale target where the array lanes
# amortize best.
_BACKEND_DT = 0.1
_BACKEND_DURATION_S = 20.0 if smoke_mode() else 120.0
_BACKEND_ROUNDS = 1 if smoke_mode() else 3

#: Regression floors for the vectorized/scalar ratio, with headroom
#: below the measured values (~7x @ 16, ~17x @ 64) so CI noise does not
#: flake the suite; BENCH_fleet.json records the actual ratios.
_MIN_SPEEDUP = {16: 3.5, 64: 6.0}

#: Floors for the fused/vectorized ratio.  Measured: ~1.40x @ 16 (the
#: zero-control NumPy stepping floor caps the lane at ~1.6x here, so the
#: original 2.5x target is out of reach without a compiled kernel -
#: docs/backends.md records the ceiling analysis).  At 64 servers the
#: per-dt dispatch the fused kernel removes is already amortized over
#: more work, so the floor only guards against the fused lane *losing*
#: to vectorized.
_MIN_FUSED_RATIO = {16: 1.15, 64: 1.0}


def _run_rack() -> None:
    rack = homogeneous_rack(
        n_servers=_N_SERVERS,
        duration_s=_DURATION_S,
        seed=1,
        fleet=FleetConfig(n_servers=_N_SERVERS, recirc_fraction=0.25),
    )
    FleetSimulator(rack, dt_s=_DT_S, record_decimation=10).run(_DURATION_S)


def _campaign_tasks() -> list[CampaignTask]:
    return [
        CampaignTask(
            scenario="homogeneous",
            n_servers=_N_SERVERS,
            seed=seed,
            duration_s=_DURATION_S,
            dt_s=_DT_S,
            record_decimation=10,
        )
        for seed in (0, 1)
    ]


def _backend_throughput(backend: str, n_servers: int) -> float:
    """Best-of-N server-steps/sec for one backend on an n-server rack."""
    n_steps = int(round(_BACKEND_DURATION_S / _BACKEND_DT))
    best = float("inf")
    for _ in range(_BACKEND_ROUNDS):
        rack = homogeneous_rack(
            n_servers=n_servers,
            duration_s=_BACKEND_DURATION_S,
            seed=1,
            fleet=FleetConfig(n_servers=n_servers, recirc_fraction=0.25),
        )
        sim = FleetSimulator(
            rack,
            dt_s=_BACKEND_DT,
            record_decimation=10,
            backend=backend,
        )
        start = time.perf_counter()
        result = sim.run(_BACKEND_DURATION_S)
        best = min(best, time.perf_counter() - start)
        assert result.extras["backend"] == backend
        if backend in ("vectorized", "fused"):
            # No silent fallback: a single scalar-looped controller would
            # quietly erase the speedup these rows exist to track.
            assert result.extras["controller_backend"] == "vectorized"
            assert "controller_fallbacks" not in result.extras
    return n_servers * n_steps / best


def _vectorized_phases(n_servers: int) -> dict[str, float]:
    """Phase breakdown from one instrumented (untimed) vectorized run.

    Kept separate from the timed rounds so the recorded throughputs stay
    bare-run numbers; the breakdown rides along as context.
    """
    rack = homogeneous_rack(
        n_servers=n_servers,
        duration_s=_BACKEND_DURATION_S,
        seed=1,
        fleet=FleetConfig(n_servers=n_servers, recirc_fraction=0.25),
    )
    sim = FleetSimulator(
        rack,
        dt_s=_BACKEND_DT,
        record_decimation=10,
        backend="vectorized",
        obs=ObsConfig(trace=False),
    )
    return phase_fractions(sim.run(_BACKEND_DURATION_S).extras["obs"])


@pytest.mark.parametrize("n_servers", [16, 64])
def test_backend_throughput_scalar_vs_vectorized(n_servers):
    """The tentpole numbers: fused vs vectorized vs scalar at rack scale."""
    scalar = _backend_throughput("scalar", n_servers)
    vectorized = _backend_throughput("vectorized", n_servers)
    fused = _backend_throughput("fused", n_servers)
    speedup = vectorized / scalar
    fused_ratio = fused / vectorized
    bench_record(
        "fleet",
        f"rack{n_servers}_backend_throughput",
        n_servers=n_servers,
        n_steps=int(round(_BACKEND_DURATION_S / _BACKEND_DT)),
        dt_s=_BACKEND_DT,
        scalar_server_steps_per_sec=round(scalar, 1),
        vectorized_server_steps_per_sec=round(vectorized, 1),
        fused_server_steps_per_sec=round(fused, 1),
        vectorized_speedup=round(speedup, 2),
        fused_speedup=round(fused / scalar, 2),
        fused_vs_vectorized=round(fused_ratio, 2),
        phases=_vectorized_phases(n_servers),
    )
    if not smoke_mode():
        floor = _MIN_SPEEDUP[n_servers]
        assert speedup >= floor, (
            f"vectorized speedup degraded to {speedup:.2f}x "
            f"(floor {floor}x at {n_servers} servers)"
        )
        fused_floor = _MIN_FUSED_RATIO[n_servers]
        assert fused_ratio >= fused_floor, (
            f"fused/vectorized ratio degraded to {fused_ratio:.2f}x "
            f"(floor {fused_floor}x at {n_servers} servers)"
        )


def test_fleet_simulator_throughput(benchmark):
    """One coupled 4-server rack run (the lockstep loop itself)."""
    benchmark.pedantic(_run_rack, rounds=3, iterations=1)
    server_steps = _N_SERVERS * int(_DURATION_S / _DT_S)
    benchmark.extra_info["server_steps_per_run"] = server_steps
    per_sec = server_steps / benchmark.stats.stats.mean
    benchmark.extra_info["server_steps_per_sec"] = per_sec
    bench_record(
        "fleet",
        "rack4_lockstep_auto",
        n_servers=_N_SERVERS,
        dt_s=_DT_S,
        server_steps_per_sec=round(per_sec, 1),
    )


def test_campaign_serial_throughput(benchmark):
    """Two rack tasks through the serial campaign path."""
    runner = CampaignRunner(workers=None)
    benchmark.pedantic(lambda: runner.run(_campaign_tasks()), rounds=3, iterations=1)


def test_campaign_parallel_throughput(benchmark):
    """The same two rack tasks across a 2-process pool.

    On multi-core hosts this approaches half the serial time; the pool
    spawn overhead dominates for campaigns this small on 1 core.
    """
    runner = CampaignRunner(workers=2)
    benchmark.pedantic(lambda: runner.run(_campaign_tasks()), rounds=3, iterations=1)
