"""Room-scale throughput: one stacked batch vs per-rack vectorized runs.

The room subsystem's performance claim is that R racks of B servers run
faster as **one** ``(R*B,)``-wide stacked batch than as R independent
vectorized rack runs, because the per-``dt`` Python dispatch is paid
once for the whole room.  This benchmark times both sides on the same
4-rack x 16-server uniform room and records the ratio to
``BENCH_fleet.json``; the scaling sweep records how stacked throughput
grows with rack count (the near-linear-scaling check).

The stacked run must stay on an array path end to end - the backend and
controller-backend assertions run in smoke mode too, so CI fails if the
room path ever falls back to scalar.  The fused-vs-vectorized benchmark
races the closed-form fused kernel against the exact vectorized
stepper on the 16x16 room and gates the ratio (measured ~1.3x median
once both lanes ran the block-plan coupling, and a 1.17x median, range
1.12-1.21 over 12 in-process samples, since the vectorized lane applies
it once per window as a stacked gemv; see docs/backends.md for the room
ceilings).
"""

from __future__ import annotations

import time

import pytest
from bench_report import bench_record, phase_fractions, smoke_mode

from repro.config import RoomConfig
from repro.fleet import FleetSimulator, homogeneous_rack
from repro.obs import ObsConfig
from repro.room import RoomSimulator, uniform_room
from repro.room.scenarios import _rack_seed

_N_RACKS = 4
_SERVERS_PER_RACK = 16
_DT_S = 0.1
_DURATION_S = 10.0 if smoke_mode() else 60.0
_ROUNDS = 1 if smoke_mode() else 3


def _room_config(n_racks: int) -> RoomConfig:
    return RoomConfig(
        n_rows=1, racks_per_row=n_racks, servers_per_rack=_SERVERS_PER_RACK
    )


def _stacked_once(n_racks: int, backend: str) -> tuple[float, dict]:
    """Wall time of one stacked room run (asserts no fallback).

    Returns the elapsed time and the run's extras so the recorded JSON
    reflects the backend that *actually* ran, never an assumption.
    """
    room = uniform_room(_room_config(n_racks), duration_s=_DURATION_S, seed=1)
    sim = RoomSimulator(
        room, dt_s=_DT_S, record_decimation=10, backend=backend
    )
    start = time.perf_counter()
    result = sim.run(_DURATION_S)
    elapsed = time.perf_counter() - start
    extras = result.extras
    assert extras["backend"] == backend
    assert extras["controller_backend"] == "vectorized"
    return elapsed, extras


def _stacked_elapsed(
    n_racks: int, backends: tuple[str, ...] = ("vectorized",)
) -> list[tuple[float, dict]]:
    """Best-of-N wall time per backend for one stacked room run.

    Each round runs every backend once, back to back, so a host slowdown
    that spans some rounds lands on all lanes instead of on one lane's
    block of rounds and a ratio of lanes stays comparable.
    """
    best: list[tuple[float, dict]] = [(float("inf"), {})] * len(backends)
    for _ in range(_ROUNDS):
        for j, backend in enumerate(backends):
            elapsed, extras = _stacked_once(n_racks, backend)
            best[j] = (min(best[j][0], elapsed), extras)
    return best


def _per_rack_elapsed(n_racks: int) -> float:
    """Best-of-N wall time for the same racks as independent runs."""
    config = _room_config(n_racks)
    best = float("inf")
    for _ in range(_ROUNDS):
        racks = [
            homogeneous_rack(
                n_servers=_SERVERS_PER_RACK,
                duration_s=_DURATION_S,
                seed=_rack_seed(1, r),
                fleet=config.fleet_config(),
            )
            for r in range(n_racks)
        ]
        start = time.perf_counter()
        for rack in racks:
            result = FleetSimulator(
                rack, dt_s=_DT_S, record_decimation=10, backend="vectorized"
            ).run(_DURATION_S)
            assert result.extras["backend"] == "vectorized"
        best = min(best, time.perf_counter() - start)
    return best


def _stacked_phases(n_racks: int) -> dict[str, float]:
    """Phase breakdown from one instrumented (untimed) stacked run."""
    room = uniform_room(_room_config(n_racks), duration_s=_DURATION_S, seed=1)
    sim = RoomSimulator(
        room, dt_s=_DT_S, record_decimation=10, obs=ObsConfig(trace=False)
    )
    return phase_fractions(sim.run(_DURATION_S).extras["obs"])


def test_room_stacked_vs_per_rack_throughput():
    """The headline room number: stacked batch vs n_racks separate runs."""
    n_steps = int(round(_DURATION_S / _DT_S))
    server_steps = _N_RACKS * _SERVERS_PER_RACK * n_steps
    [(stacked, extras)] = _stacked_elapsed(_N_RACKS)
    per_rack = _per_rack_elapsed(_N_RACKS)
    speedup = per_rack / stacked
    bench_record(
        "fleet",
        "room4x16_stacked",
        n_racks=_N_RACKS,
        servers_per_rack=_SERVERS_PER_RACK,
        n_steps=n_steps,
        dt_s=_DT_S,
        backend=extras["backend"],
        controller_backend=extras["controller_backend"],
        stacked_server_steps_per_sec=round(server_steps / stacked, 1),
        per_rack_server_steps_per_sec=round(server_steps / per_rack, 1),
        stacked_speedup=round(speedup, 2),
        phases=_stacked_phases(_N_RACKS),
    )
    if not smoke_mode():
        assert speedup > 1.0, (
            f"stacked room run slower than {_N_RACKS} independent "
            f"vectorized rack runs ({speedup:.2f}x)"
        )


@pytest.mark.parametrize("n_racks", [1, 4] if smoke_mode() else [1, 4, 8, 16])
def test_room_scaling_with_rack_count(n_racks):
    """Stacked throughput per server should hold up as racks are added."""
    n_steps = int(round(_DURATION_S / _DT_S))
    server_steps = n_racks * _SERVERS_PER_RACK * n_steps
    [(elapsed, _)] = _stacked_elapsed(n_racks)
    bench_record(
        "fleet",
        f"room{n_racks}x{_SERVERS_PER_RACK}_scaling",
        n_racks=n_racks,
        servers_per_rack=_SERVERS_PER_RACK,
        n_steps=n_steps,
        dt_s=_DT_S,
        stacked_server_steps_per_sec=round(server_steps / elapsed, 1),
    )


#: Racks in the fused-vs-vectorized room race (smaller in smoke mode so
#: the CI job stays fast; the assertions still exercise the fused lane).
_FUSED_N_RACKS = 4 if smoke_mode() else 16

#: Floor for the fused/vectorized stacked ratio at room scale, with
#: headroom below the measured ratio so host noise does not flake CI:
#: 0.75x the median of 12 fresh-process runs (1.275x once the block-plan
#: coupling sped up the vectorized lane), rounded down to 0.05.  Since
#: the vectorized lane applies the coupling once per window, 12
#: in-process samples read a 1.17x median (1.12-1.21), 0.81x of which
#: is the floor.  A fused lane that fell back to per-column work would
#: run far below the vectorized lane; absolute fused room speed is
#: guarded by perfbench's room16x16 fused_server_steps_per_s.
_MIN_FUSED_ROOM_RATIO = 0.95


def test_room_fused_vs_vectorized_stacked():
    """The fused-kernel headline at room scale: one (R*B,)-wide window
    kernel vs the per-dt vectorized stepper on the same stacked room."""
    n_steps = int(round(_DURATION_S / _DT_S))
    server_steps = _FUSED_N_RACKS * _SERVERS_PER_RACK * n_steps
    (vectorized, _), (fused, extras) = _stacked_elapsed(
        _FUSED_N_RACKS, ("vectorized", "fused")
    )
    ratio = vectorized / fused
    bench_record(
        "fleet",
        f"room{_FUSED_N_RACKS}x{_SERVERS_PER_RACK}_fused",
        n_racks=_FUSED_N_RACKS,
        servers_per_rack=_SERVERS_PER_RACK,
        n_steps=n_steps,
        dt_s=_DT_S,
        backend=extras["backend"],
        controller_backend=extras["controller_backend"],
        vectorized_server_steps_per_sec=round(server_steps / vectorized, 1),
        fused_server_steps_per_sec=round(server_steps / fused, 1),
        fused_vs_vectorized=round(ratio, 2),
    )
    if not smoke_mode():
        assert ratio >= _MIN_FUSED_ROOM_RATIO, (
            f"fused/vectorized stacked ratio degraded to {ratio:.2f}x "
            f"(floor {_MIN_FUSED_ROOM_RATIO}x at "
            f"{_FUSED_N_RACKS}x{_SERVERS_PER_RACK})"
        )
