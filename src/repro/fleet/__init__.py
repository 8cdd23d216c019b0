"""Rack/fleet-scale simulation: coupled servers and parallel campaigns.

The paper evaluates its DTM scheme on one server; this package scales
the reproduction to rack and fleet level, where the premise matters
most - inlet temperatures are not independent inputs but are themselves
coupled across servers through exhaust recirculation (cf. thermal-aware
data-center control, Van Damme et al.).

* :mod:`repro.fleet.coupling` - exhaust rise and recirculation mixing.
* :class:`~repro.fleet.rack.Rack` / :class:`~repro.fleet.rack.ServerSlot`
  - N full server stacks plus the shared inlet-air model.
* :class:`~repro.fleet.simulator.FleetSimulator` - a rack on the
  lockstep driver rooms also use (:mod:`repro.room.simulator`), built
  on the same :class:`~repro.sim.engine.ServerStepper` primitive as
  single-server runs.
* :class:`~repro.fleet.result.FleetResult` - per-server telemetry plus
  fleet metrics.
* :mod:`repro.fleet.scenarios` - canned rack builders (homogeneous,
  heterogeneous sensors, staggered waves, hot spot).
* :class:`~repro.fleet.campaign.CampaignRunner` - process-pool fan-out
  over scenario/seed/coupling grids with deterministic seeding.
"""

from repro.fleet.campaign import (
    CampaignRunner,
    CampaignTask,
    campaign_grid,
    merge_campaign_obs,
    run_campaign_chunk,
    run_campaign_task,
)
from repro.fleet.coupling import ExhaustModel, RecirculationMatrix
from repro.fleet.rack import Rack, ServerSlot
from repro.fleet.result import FleetResult
from repro.fleet.scenarios import (
    FLEET_SCENARIOS,
    build_fleet_scenario,
    build_server_slot,
    heterogeneous_sensor_rack,
    homogeneous_rack,
    hot_spot_rack,
    staggered_waves_rack,
)
from repro.fleet.simulator import FleetSimulator

__all__ = [
    "CampaignRunner",
    "CampaignTask",
    "ExhaustModel",
    "FLEET_SCENARIOS",
    "FleetResult",
    "FleetSimulator",
    "Rack",
    "RecirculationMatrix",
    "ServerSlot",
    "build_fleet_scenario",
    "build_server_slot",
    "campaign_grid",
    "heterogeneous_sensor_rack",
    "homogeneous_rack",
    "hot_spot_rack",
    "merge_campaign_obs",
    "run_campaign_chunk",
    "run_campaign_task",
    "staggered_waves_rack",
]
