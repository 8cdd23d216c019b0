"""Room-scale campaign tasks: whole rooms over the process pool.

:class:`~repro.fleet.campaign.CampaignTask` fans *racks* out over
workers; a :class:`RoomTask` does the same for whole rooms - seeds x
containment x fault schedule - reusing the exact
:class:`~repro.fleet.campaign.CampaignRunner` machinery.  A task is
picklable and fully self-describing: the worker rebuilds the room from
the scenario registry (a plain :data:`~repro.room.scenarios.ROOM_SCENARIOS`
room, or a room-scoped fault scenario from
:data:`~repro.faults.scenarios.FAULT_SCENARIOS` that brings its own
schedule), runs it through :class:`~repro.room.simulator.RoomSimulator`
on the rack tasks' worker path (:func:`run_room_task` is
:func:`~repro.fleet.campaign.run_campaign_task`), and ships the
:class:`~repro.room.result.RoomResult` back.  Because rooms already
execute as one stacked batch internally, room tasks never chunk - each
is its own unit of pool work.

Determinism mirrors the fleet campaign contract: every per-server RNG
stream derives from the task seed, and fault schedules are pure data,
so serial and parallel executions produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import CRACConfig, RoomConfig
from repro.errors import FleetError
from repro.faults.events import FaultSchedule
from repro.fleet.campaign import check_task, run_campaign_task
from repro.obs.collector import ObsConfig
from repro.room.scenarios import ROOM_SCENARIOS, build_room_scenario
from repro.room.simulator import RoomSimulator


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
        fault_scenarios = _room_fault_scenarios()
        if (
            self.scenario not in ROOM_SCENARIOS
            and self.scenario not in fault_scenarios
        ):
            raise FleetError(
                f"unknown room scenario {self.scenario!r}; choose from "
                f"{sorted(ROOM_SCENARIOS) + sorted(fault_scenarios)}"
            )
        check_task(self)
        if self.scenario in fault_scenarios and self.faults is not None:
            raise FleetError(
                f"fault scenario {self.scenario!r} builds its own schedule; "
                "drop the explicit faults= to avoid ambiguity"
            )
        self.room_config  # its validators reject a bad layout here

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

    @property
    def chunk_key(self) -> None:
        """``None``: a room already runs as one stacked batch, alone."""
        return None

    def build(self) -> tuple[Any, FaultSchedule | None]:
        """The room this task runs, and its fault schedule."""
        fault_scenarios = _room_fault_scenarios()
        if self.scenario in fault_scenarios:
            return fault_scenarios[self.scenario](
                room=self.room_config,
                duration_s=self.duration_s,
                seed=self.seed,
                scheme=self.scheme,
            )
        # An explicit schedule with CRAC brownouts needs dynamic supply
        # rows for the targeted units; derive them from the schedule so
        # plain room scenarios compose with CRAC faults out of the box.
        forcing_units = ()
        if self.faults is not None:
            forcing_units = tuple(
                sorted({e.server for e in self.faults.events_of("crac_brownout")})
            )
        room = build_room_scenario(
            self.scenario,
            room=self.room_config,
            duration_s=self.duration_s,
            seed=self.seed,
            scheme=self.scheme,
            forcing_units=forcing_units,
        )
        return room, self.faults

    @property
    def simulator_type(self) -> type:
        """The simulator class that runs the built room."""
        return RoomSimulator


#: Room tasks run on the rack tasks' worker body; the name stays for callers.
run_room_task = run_campaign_task


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
