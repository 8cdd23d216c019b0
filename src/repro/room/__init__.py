"""Room-scale simulation: multi-rack topologies on the stacked batch.

The fleet package couples servers *within* one rack; this package
composes racks into whole rooms - the unit data-center thermal control
actually optimizes (cf. Van Damme et al., thermal-aware job scheduling
and control of data centers; Fliess et al., HVAC control synthesis) -
while keeping the execution model array-shaped:

* :class:`~repro.room.topology.RoomTopology` - racks on a rows x aisles
  grid with hot-/cold-aisle containment options.
* :class:`~repro.room.coupling.SparseCoupling` - the block-structured
  recirculation operator: dense blocks only within racks, explicit
  CSR-style cross blocks between aisle neighbours, and a low-rank term
  for plenum/CRAC paths.
* :class:`~repro.room.crac.CRACUnit` - the supply-air model closing the
  loop from aggregate exhaust heat back to per-rack inlet ambient.
* :class:`~repro.room.room.Room` - the passive composition (racks +
  topology + coupling + CRACs).
* :mod:`repro.room.simulator` - the one lockstep driver for racks,
  rooms and stacked campaign chunks.
  :class:`~repro.room.simulator.RoomSimulator` runs the whole room as
  **one** ``(n_racks * B,)`` stacked batch, reusing
  :class:`~repro.sim.batch.BatchStepper` and the vectorized controller
  lane unchanged, with a scalar reference backend for equivalence
  testing; :func:`~repro.room.simulator.run_stacked_racks` stacks
  independent racks, which :class:`~repro.fleet.campaign.CampaignRunner`
  uses to chunk same-shape rack tasks into one run.
* :mod:`repro.room.stack` - the stacked-batch building blocks the
  driver calls: the stack check, the stepper build and the per-rack
  split.
* :mod:`repro.room.scenarios` - canned rooms (uniform, hot-spot rack,
  failed CRAC, mixed-scheme aisles).
"""

from repro.room.campaign import RoomTask, room_campaign_grid, run_room_task
from repro.room.coupling import SparseCoupling
from repro.room.crac import CRACUnit
from repro.room.result import RoomResult
from repro.room.room import Room
from repro.room.scenarios import (
    ROOM_SCENARIOS,
    build_room_coupling,
    build_room_scenario,
    failed_crac_room,
    hot_spot_rack_room,
    mixed_aisles_room,
    uniform_room,
)
from repro.room.simulator import RoomSimulator, run_stacked_racks
from repro.room.stack import stacked_unsupported_reason
from repro.room.topology import CONTAINMENT_FACTORS, RoomTopology

__all__ = [
    "CONTAINMENT_FACTORS",
    "CRACUnit",
    "ROOM_SCENARIOS",
    "Room",
    "RoomResult",
    "RoomSimulator",
    "RoomTask",
    "RoomTopology",
    "SparseCoupling",
    "room_campaign_grid",
    "run_room_task",
    "build_room_coupling",
    "build_room_scenario",
    "failed_crac_room",
    "hot_spot_rack_room",
    "mixed_aisles_room",
    "run_stacked_racks",
    "stacked_unsupported_reason",
    "uniform_room",
]
