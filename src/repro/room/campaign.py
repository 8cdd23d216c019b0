"""Room-scale campaign tasks: whole rooms over the process pool.

:class:`~repro.fleet.campaign.CampaignTask` fans *racks* out over
workers; a :class:`RoomTask` does the same for whole rooms - seeds x
containment x fault schedule - reusing the exact
:class:`~repro.fleet.campaign.CampaignRunner` machinery.  A task is
picklable and fully self-describing: the worker rebuilds the room from
the scenario registry (a plain :data:`~repro.room.scenarios.ROOM_SCENARIOS`
room, or a room-scoped fault scenario from
:data:`~repro.faults.scenarios.FAULT_SCENARIOS` that brings its own
schedule), runs it through :class:`~repro.room.simulator.RoomSimulator`,
and ships the :class:`~repro.room.result.RoomResult` back.  Because
rooms already execute as one stacked batch internally, room tasks never
chunk - each is its own unit of pool work.

Determinism mirrors the fleet campaign contract: every per-server RNG
stream derives from the task seed, and fault schedules are pure data,
so serial and parallel executions produce identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.config import CRACConfig, RoomConfig
from repro.errors import FleetError
from repro.faults.events import FaultSchedule
from repro.obs.collector import ObsConfig
from repro.room.result import RoomResult
from repro.room.scenarios import ROOM_SCENARIOS, build_room_scenario
from repro.room.simulator import RoomSimulator
from repro.sim.backends import BACKENDS


def _room_fault_scenarios() -> dict:
    """Room-scoped fault scenarios usable as RoomTask scenarios.

    Resolved lazily: :mod:`repro.faults.scenarios` builds rooms, so a
    module-level import here would be circular.
    """
    from repro.faults.scenarios import FAULT_SCENARIOS

    return {
        name: builder
        for name, (builder, scope) in FAULT_SCENARIOS.items()
        if scope == "room"
    }


@dataclass(frozen=True)
class RoomTask:
    """One room run: everything a worker needs to reproduce it exactly.

    ``scenario`` names either a room scenario (``uniform``,
    ``hot_spot_rack``, ``failed_crac``, ``mixed_aisles``) - optionally
    combined with an explicit ``faults`` schedule - or a room-scoped
    fault scenario (``crac_brownout``, ``cascading_failures``) that
    builds both the room and its schedule itself.
    """

    scenario: str
    n_rows: int = 1
    racks_per_row: int = 2
    servers_per_rack: int = 4
    containment: str = "none"
    seed: int = 0
    duration_s: float = 600.0
    dt_s: float = 0.1
    record_decimation: int = 10
    scheme: str = "rcoord"
    backend: str = "auto"
    faults: FaultSchedule | None = None
    crac_tau_s: float = 0.0
    #: Optional :class:`~repro.obs.ObsConfig` profiling the room run;
    #: same contract as :attr:`~repro.fleet.campaign.CampaignTask.obs`
    #: (picklable config, worker collects in memory, summary ships back
    #: as ``extras["obs"]``).
    obs: ObsConfig | None = None

    def __post_init__(self) -> None:
        if self.obs is not None and not isinstance(self.obs, ObsConfig):
            raise FleetError(
                "task obs must be an ObsConfig (picklable), got "
                f"{type(self.obs).__name__}"
            )
        fault_scenarios = _room_fault_scenarios()
        if (
            self.scenario not in ROOM_SCENARIOS
            and self.scenario not in fault_scenarios
        ):
            raise FleetError(
                f"unknown room scenario {self.scenario!r}; choose from "
                f"{sorted(ROOM_SCENARIOS) + sorted(fault_scenarios)}"
            )
        if self.backend not in BACKENDS:
            raise FleetError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.scenario in fault_scenarios and self.faults is not None:
            raise FleetError(
                f"fault scenario {self.scenario!r} builds its own schedule; "
                "drop the explicit faults= to avoid ambiguity"
            )

    @property
    def label(self) -> str:
        """Stable identifier for reports and result lookup."""
        tag = (
            f"{self.scenario}/{self.n_rows}x{self.racks_per_row}"
            f"x{self.servers_per_rack}/{self.containment}/s{self.seed}"
        )
        if self.faults is not None:
            tag += f"/{self.faults.label}"
        return tag

    @property
    def room_config(self) -> RoomConfig:
        """The :class:`~repro.config.RoomConfig` this task describes."""
        return RoomConfig(
            n_rows=self.n_rows,
            racks_per_row=self.racks_per_row,
            servers_per_rack=self.servers_per_rack,
            containment=self.containment,
            crac=CRACConfig(supply_time_constant_s=self.crac_tau_s),
        )


def run_room_task(
    task: RoomTask, queue=None, index: int | None = None
) -> RoomResult:
    """Build and simulate one room task (module-level: pool-picklable).

    ``queue``/``index`` are the streaming-campaign plumbing (see
    :func:`~repro.fleet.campaign.run_campaign_chunk`): snapshots and the
    task's final record flow to the parent's
    :class:`~repro.obs.live.CampaignStream` while the room runs.
    """
    t0 = time.perf_counter()
    faults = task.faults
    fault_scenarios = _room_fault_scenarios()
    if task.scenario in fault_scenarios:
        room, faults = fault_scenarios[task.scenario](
            room=task.room_config,
            duration_s=task.duration_s,
            seed=task.seed,
            scheme=task.scheme,
        )
    else:
        # An explicit schedule with CRAC brownouts needs dynamic supply
        # rows for the targeted units; derive them from the schedule so
        # plain room scenarios compose with CRAC faults out of the box.
        forcing_units = ()
        if faults is not None:
            forcing_units = tuple(
                sorted({e.server for e in faults.events_of("crac_brownout")})
            )
        room = build_room_scenario(
            task.scenario,
            room=task.room_config,
            duration_s=task.duration_s,
            seed=task.seed,
            scheme=task.scheme,
            forcing_units=forcing_units,
        )
    from repro.fleet.campaign import (
        _export_worker_trace,
        _push_task_final,
        _worker_collector,
        _worker_obs,
        worker_info,
    )

    collector, sink = _worker_collector(task, queue)
    sim = RoomSimulator(
        room,
        dt_s=task.dt_s,
        record_decimation=task.record_decimation,
        backend=task.backend,
        faults=faults,
        obs=collector if collector is not None else _worker_obs(task.obs),
    )
    result = sim.run(task.duration_s, label=task.label)
    result.extras["task"] = task
    result.extras["worker"] = worker_info(time.perf_counter() - t0)
    _export_worker_trace(collector, task)
    _push_task_final(queue, index, task, result, sink)
    return result


def room_campaign_grid(
    scenarios,
    seeds,
    containments=("none",),
    **task_kwargs,
) -> list[RoomTask]:
    """The cross product scenario x containment x seed, in order."""
    return [
        RoomTask(
            scenario=scenario,
            containment=containment,
            seed=seed,
            **task_kwargs,
        )
        for scenario in scenarios
        for containment in containments
        for seed in seeds
    ]
