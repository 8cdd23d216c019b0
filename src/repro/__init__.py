"""repro: reproduction of Kim et al., "Global Fan Speed Control Considering
Non-Ideal Temperature Measurements in Enterprise Servers" (DATE 2014).

The library models an enterprise server (CPU die + fan-cooled heat sink,
Table I parameters), its non-ideal temperature telemetry (10 s I2C lag,
1 degC ADC quantization), and the paper's dynamic thermal management
stack: an adaptive gain-scheduled PID fan controller robust to those
non-idealities, a deadzone CPU capper, and a rule-based global coordinator
with predictive set-point adaptation and single-step fan scaling.

Quickstart::

    from repro import run_scheme

    result = run_scheme("rcoord_atref_ssfan", duration_s=1800.0, seed=1)
    print(result.summary())

See docs/architecture.md for the system inventory; each script in
:mod:`repro.experiments` prints the paper-vs-measured comparison of its
table or figure.
"""

from repro.config import (
    ControlConfig,
    CpuPowerConfig,
    CRACConfig,
    DieConfig,
    FanConfig,
    FleetConfig,
    HeatSinkConfig,
    RoomConfig,
    SensingConfig,
    ServerConfig,
    default_server_config,
    ideal_sensing_config,
)
from repro.core import (
    AdaptivePIDFanController,
    AdaptiveSetpoint,
    ControlInputs,
    ControlState,
    DeadzoneCpuCapper,
    DeadzoneFanController,
    EnergyAwareCoordinator,
    GainRegion,
    GainSchedule,
    GlobalController,
    PIDController,
    PIDGains,
    QuantizationGuard,
    RuleBasedCoordinator,
    SingleStepFanScaling,
    SingleThresholdFanController,
    StaticFanController,
    UncoordinatedCoordinator,
    ZieglerNicholsRule,
    find_ultimate_gain,
    tune_region,
    ziegler_nichols_gains,
)
from repro.errors import ReproError
from repro.faults import (
    FAULT_SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    TelemetryWatchdog,
    build_fault_scenario,
)
from repro.fleet import (
    CampaignRunner,
    CampaignTask,
    FleetResult,
    FleetSimulator,
    Rack,
    RecirculationMatrix,
    ServerSlot,
    build_fleet_scenario,
    campaign_grid,
    merge_campaign_obs,
)
from repro.obs import (
    ObsCollector,
    ObsConfig,
    merge_summaries,
)
from repro.room import (
    CRACUnit,
    Room,
    RoomResult,
    RoomSimulator,
    RoomTask,
    RoomTopology,
    SparseCoupling,
    build_room_scenario,
    room_campaign_grid,
    run_stacked_racks,
    uniform_room,
)
from repro.sensing import TemperatureSensor
from repro.sim import (
    SCHEME_NAMES,
    BatchGlobalController,
    BatchRunSpec,
    ServerStepper,
    SimulationResult,
    Simulator,
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
    parallel_map,
    run_batch,
    run_fan_only,
    run_scheme,
)
from repro.thermal import ServerThermalModel, SteadyStateServerModel

__version__ = "1.0.0"

__all__ = [
    "AdaptivePIDFanController",
    "AdaptiveSetpoint",
    "BatchGlobalController",
    "BatchRunSpec",
    "CampaignRunner",
    "CampaignTask",
    "ControlConfig",
    "ControlInputs",
    "ControlState",
    "CpuPowerConfig",
    "CRACConfig",
    "CRACUnit",
    "DeadzoneCpuCapper",
    "DeadzoneFanController",
    "DieConfig",
    "EnergyAwareCoordinator",
    "FAULT_SCENARIOS",
    "FanConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "GainRegion",
    "GainSchedule",
    "GlobalController",
    "HeatSinkConfig",
    "ObsCollector",
    "ObsConfig",
    "PIDController",
    "PIDGains",
    "QuantizationGuard",
    "Rack",
    "RecirculationMatrix",
    "ReproError",
    "Room",
    "RoomConfig",
    "RoomResult",
    "RoomSimulator",
    "RoomTask",
    "RoomTopology",
    "RuleBasedCoordinator",
    "SCHEME_NAMES",
    "SensingConfig",
    "ServerConfig",
    "ServerSlot",
    "ServerStepper",
    "ServerThermalModel",
    "SimulationResult",
    "Simulator",
    "SingleStepFanScaling",
    "SingleThresholdFanController",
    "SparseCoupling",
    "StaticFanController",
    "SteadyStateServerModel",
    "TelemetryWatchdog",
    "TemperatureSensor",
    "UncoordinatedCoordinator",
    "ZieglerNicholsRule",
    "build_fault_scenario",
    "build_fleet_scenario",
    "build_global_controller",
    "build_plant",
    "build_room_scenario",
    "build_sensor",
    "campaign_grid",
    "default_server_config",
    "find_ultimate_gain",
    "ideal_sensing_config",
    "merge_campaign_obs",
    "merge_summaries",
    "paper_workload",
    "parallel_map",
    "room_campaign_grid",
    "run_batch",
    "run_fan_only",
    "run_scheme",
    "run_stacked_racks",
    "tune_region",
    "uniform_room",
    "ziegler_nichols_gains",
    "__version__",
]
