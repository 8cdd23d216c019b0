"""The benchmark's four workloads: seeded inputs, lane runs, output checks.

Each workload drives one public entry point on three lanes:

* ``vectorized`` - the ``auto``/default batch lane users get,
* ``fused`` - ``backend="fused"``,
* ``scalar`` - the per-server reference loop.  On ``table3`` it runs the
  whole grid cell by cell through ``run_scheme``; elsewhere the full
  horizon would take ~30 s per run, so it runs the same entry point with
  ``backend="scalar"`` on a shorter horizon (``scalar_horizon_s``) and is
  checked against a vectorized run of that horizon.

A workload object holds only what the seed derives.  ``build`` makes
fresh inputs for one lane run (runs mutate plants, sensors and
controllers), ``run`` makes the lane run and passes each timed call
through ``timer`` (``run.Timer``), and ``check`` compares a lane's output
with the reference (tier A or B, see :mod:`checks`).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import replace
from typing import Any

from repro import (
    SCHEME_NAMES,
    CampaignRunner,
    FleetSimulator,
    RoomSimulator,
    campaign_grid,
    run_batch,
    run_scheme,
    uniform_room,
)
from repro.config import RoomConfig
from repro.faults import FaultEvent, FaultSchedule
from repro.fleet.campaign import DEFAULT_CHUNK_SIZE
from repro.fleet.scenarios import heterogeneous_sensor_rack
from repro.obs import MonitorConfig, ObsConfig
from repro.sim.scenarios import scheme_spec

import checks

LANES = ("vectorized", "fused", "scalar")
DT_S = 0.1
DECIMATION = 10


def n_steps(horizon_s: float) -> int:
    return int(round(horizon_s / DT_S))


def n_records(horizon_s: float) -> int:
    return -(-n_steps(horizon_s) // DECIMATION)


def pool_size() -> int:
    """Campaign pool size: the CPUs this process may run on (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _Workload:
    """Defaults the workloads share."""

    #: Campaign pool size (0: the lane runs never use a pool).
    pool_workers = 0
    #: Lane runs execute in this process: the kernel follows them.
    calibration = "kernel"

    def horizon(self, lane: str) -> float:
        return self.scalar_horizon_s if lane == "scalar" else self.horizon_s

    def counts(self, result: Any) -> dict[str, float]:
        """Result-side per-layer counts of a traced lane run."""
        return {}


class Table3(_Workload):
    """The paper's Table III grid: 5 schemes x 3 seeds, one uncoupled batch."""

    name = "table3"
    why = (
        "the paper's own experiment and the control-heavy case: five DTM "
        "compositions share one uncoupled batch"
    )
    horizon_s = 1800.0
    scalar_horizon_s = 1800.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"table3:{seed}")
        seeds = rng.sample(range(1, 1_000_000), 3)
        self.cells = [(scheme, s) for scheme in SCHEME_NAMES for s in seeds]

    def build(self, lane: str, horizon_s: float) -> Any:
        if lane == "scalar":
            return self.cells
        return [
            scheme_spec(
                scheme,
                duration_s=horizon_s,
                seed=s,
                record_decimation=DECIMATION,
                label=f"{scheme}/s{s}",
            )
            for scheme, s in self.cells
        ]

    def run(self, lane: str, inputs: Any, horizon_s: float, timer) -> Any:
        if lane == "scalar":
            # Cell by cell, so calibration brackets every ~0.4 s part.
            return [
                timer(
                    run_scheme,
                    scheme,
                    duration_s=horizon_s,
                    seed=s,
                    record_decimation=DECIMATION,
                )
                for scheme, s in inputs
            ]
        return timer(run_batch, inputs, backend=lane)

    def server_steps(self, lane: str) -> int:
        return len(self.cells) * n_steps(self.horizon_s)

    def servers(self, result: Any) -> list:
        return list(result)

    def check(self, lane: str, result: Any, reference: Any, tier: str) -> str | None:
        return checks.compare_servers(result, reference, tier)

    def sanity(self, lane: str, result: Any, horizon_s: float) -> str | None:
        return checks.sane_servers(result, n_records(horizon_s), horizon_s)


class _SimulatorWorkload(_Workload):
    """Shared parts of the room and rack workloads (one simulator run)."""

    backend = {"vectorized": "auto", "fused": "fused", "scalar": "scalar"}

    def servers(self, result: Any) -> list:
        return list(result.server_results)

    def sanity(self, lane: str, result: Any, horizon_s: float) -> str | None:
        extras = result.extras
        if extras.get("backend") != lane:
            return f"ran on {extras.get('backend')!r}, expected {lane!r}"
        if lane != "scalar" and extras.get("controller_backend") != "vectorized":
            return f"controller backend {extras.get('controller_backend')!r}"
        return checks.sane_servers(
            self.servers(result), n_records(horizon_s), horizon_s
        )


class Room16x16(_SimulatorWorkload):
    """``uniform_room``: 16 racks x 16 servers, one CRAC, SparseCoupling."""

    name = "room16x16"
    why = (
        "the wide case: 256 servers in one stacked batch, where per-server "
        "workload sampling and room coupling dominate"
    )
    horizon_s = 600.0
    scalar_horizon_s = 30.0
    config = RoomConfig(n_rows=1, racks_per_row=16, servers_per_rack=16)

    def __init__(self, seed: int) -> None:
        self.seed = random.Random(f"room16x16:{seed}").randrange(1, 1_000_000)

    def build(self, lane: str, horizon_s: float) -> Any:
        return uniform_room(self.config, duration_s=self.horizon_s, seed=self.seed)

    def run(self, lane: str, inputs: Any, horizon_s: float, timer) -> Any:
        sim = RoomSimulator(
            inputs, record_decimation=DECIMATION, backend=self.backend[lane]
        )
        return timer(sim.run, horizon_s)

    def server_steps(self, lane: str) -> int:
        return self.config.n_servers * n_steps(self.horizon(lane))

    def servers(self, result: Any) -> list:
        return [s for rack in result.rack_results for s in rack.server_results]

    def check(self, lane: str, result: Any, reference: Any, tier: str) -> str | None:
        return checks.compare_room(result, reference, tier)


#: Fault kinds of the rack workload, in onset order.  Dropout comes first
#: so the short scalar horizon still engages the telemetry failsafe.
RACK_FAULTS = (
    ("dropout", {"duration_s": 240.0}),
    ("stuck", {"duration_s": 300.0}),
    ("offset", {"duration_s": 400.0, "magnitude": 3.0}),
    ("drift", {"duration_s": 400.0, "magnitude": 0.01}),
    ("noise_burst", {"duration_s": 300.0, "magnitude": 1.5}),
    ("fan_seize", {"duration_s": 300.0}),
    ("fan_ceiling", {"duration_s": 500.0, "magnitude": 4000.0}),
    ("tach_misreport", {"duration_s": 400.0, "magnitude": 0.8}),
    ("fouling", {"duration_s": 600.0, "magnitude": 0.05, "ramp_steps": 8}),
)


class Rack16Faults(_SimulatorWorkload):
    """``heterogeneous_sensor_rack`` (16 servers) under staggered faults."""

    name = "rack16_faults"
    why = (
        "the sensing-heavy case: mixed ADC steps, every rack fault kind and "
        "health monitors force the general sensing and failsafe paths"
    )
    horizon_s = 3600.0
    scalar_horizon_s = 450.0
    n_servers = 16

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"rack16_faults:{seed}")
        self.seed = rng.randrange(1, 1_000_000)
        victims = rng.sample(range(self.n_servers), self.n_servers // 2)
        events = []
        for k, (kind, params) in enumerate(RACK_FAULTS):
            # Staggered through the run: one onset every ~370 s.
            start = 100.0 + 370.0 * k + rng.uniform(0.0, 60.0)
            events.append(
                FaultEvent(
                    kind,
                    server=victims[k % len(victims)],
                    start_s=round(start, 1),
                    **params,
                )
            )
        self.schedule = FaultSchedule(
            events=tuple(events), seed=self.seed, label="rack16_faults"
        )

    def build(self, lane: str, horizon_s: float) -> Any:
        return heterogeneous_sensor_rack(
            n_servers=self.n_servers, duration_s=self.horizon_s, seed=self.seed
        )

    def run(self, lane: str, inputs: Any, horizon_s: float, timer) -> Any:
        sim = FleetSimulator(
            inputs,
            record_decimation=DECIMATION,
            backend=self.backend[lane],
            faults=self.schedule,
            obs=ObsConfig(trace=False, monitor=MonitorConfig()),
        )
        return timer(sim.run, horizon_s)

    def server_steps(self, lane: str) -> int:
        return self.n_servers * n_steps(self.horizon(lane))

    def check(self, lane: str, result: Any, reference: Any, tier: str) -> str | None:
        found = checks.compare_fleet(result, reference, tier)
        if found is not None:
            return found
        if result.extras["obs"]["incidents"] != reference.extras["obs"]["incidents"]:
            return "incident lists differ"
        if result.extras["faults"] != reference.extras["faults"]:
            return "fault summaries differ"
        return None

    def counts(self, result: Any) -> dict[str, float]:
        return {
            "faults.failsafe_engagements": float(
                result.extras["faults"]["failsafe"]["engagements"]
            ),
            "monitor.incidents": float(len(result.extras["obs"]["incidents"])),
        }


#: Fleet scenarios of the campaign, in grid order.
CAMPAIGN_SCENARIOS = ("homogeneous", "hetero_sensors", "staggered_waves", "hot_spot")


class Campaign(_Workload):
    """``campaign_grid``: 4 scenarios x 4 seeds of 16-server racks, pooled."""

    name = "campaign"
    why = (
        "the only path through CampaignRunner, the process pool and stacked "
        "racks, where per-worker tuning leaks into throughput"
    )
    horizon_s = 600.0
    scalar_horizon_s = 300.0
    n_servers = 16
    backend = {"vectorized": "auto", "fused": "fused", "scalar": "scalar"}
    #: The work runs in the pool workers, one per CPU.
    calibration = "pool"
    #: Grid positions of the short-horizon scalar slice: the first
    #: homogeneous and the first staggered-waves task (both the default
    #: config, so each worker tunes once).
    scalar_tasks = (0, 8)

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"campaign:{seed}")
        self.seeds = rng.sample(range(1, 1_000_000), 4)
        self.pool_workers = pool_size()

    def tasks(self, lane: str) -> list:
        return campaign_grid(
            CAMPAIGN_SCENARIOS,
            seeds=self.seeds,
            n_servers=self.n_servers,
            duration_s=self.horizon_s,
            backend=self.backend[lane],
        )

    def build(self, lane: str, horizon_s: float) -> Any:
        tasks = self.tasks(lane)
        if horizon_s == self.horizon_s:
            return tasks
        return [replace(tasks[i], duration_s=horizon_s) for i in self.scalar_tasks]

    def run(self, lane: str, inputs: Any, horizon_s: float, timer) -> Any:
        # Full grids use the default stacking; the scalar slice runs one
        # task per chunk so both go to the pool, never the parent (whose
        # tuning cache must stay cold, as in a fresh user process).
        runner = CampaignRunner(
            workers=self.pool_workers,
            chunk_size=None if horizon_s == self.horizon_s else 1,
        )

        def campaign():
            results = runner.run(inputs)
            return results, [result.summary() for result in results]

        results, summaries = timer(campaign)
        return {"tasks": inputs, "results": results, "summaries": summaries}

    def n_tasks(self, lane: str) -> int:
        if lane == "scalar":
            return len(self.scalar_tasks)
        return len(CAMPAIGN_SCENARIOS) * len(self.seeds)

    def pool_processes(self, lane: str) -> int:
        """Workers the lane's pool actually runs (one per chunk at most)."""
        chunk = 1 if lane == "scalar" else DEFAULT_CHUNK_SIZE
        chunks = math.ceil(self.n_tasks(lane) / chunk)
        return max(1, min(self.pool_workers, chunks))

    def server_steps(self, lane: str) -> int:
        return self.n_tasks(lane) * self.n_servers * n_steps(self.horizon(lane))

    def servers(self, result: Any) -> list:
        return [s for r in result["results"] for s in r.server_results]

    def sanity(self, lane: str, result: Any, horizon_s: float) -> str | None:
        for i, (task, res) in enumerate(zip(result["tasks"], result["results"])):
            if res.extras.get("task") != task:
                return f"result {i} is not task {task.label} (task order)"
        if len(result["results"]) != len(result["tasks"]):
            return "result count differs from task count"
        return checks.sane_servers(
            self.servers(result), n_records(horizon_s), horizon_s
        )

    def check(self, lane: str, result: Any, reference: Any, tier: str) -> str | None:
        pairs = zip(result["results"], reference["results"])
        for i, (res, ref) in enumerate(pairs):
            if res.extras["task"].label != ref.extras["task"].label:
                return f"task {i}: {res.extras['task'].label} vs {ref.extras['task'].label}"
            found = checks.compare_fleet(res, ref, tier, where=f"task {i}: ")
            if found is not None:
                return found
        for i, (a, b) in enumerate(zip(result["summaries"], reference["summaries"])):
            found = checks.compare_summaries(a, b, tier, where=f"task {i}: ")
            if found is not None:
                return found
        return None


WORKLOADS = {
    cls.name: cls for cls in (Table3, Room16x16, Rack16Faults, Campaign)
}
