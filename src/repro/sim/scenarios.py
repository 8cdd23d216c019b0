"""Canned scenario builders for every paper experiment.

Centralizes the wiring choices (reference temperatures, workloads, scheme
composition) so tests, benchmarks, examples, and the experiment scripts
all run the exact same configurations.

Scheme names follow Table III:

===========================  ================================================
name                         composition
===========================  ================================================
``uncoordinated``            adaptive PID fan + deadzone capper, no
                             coordination (the normalization baseline)
``ecoord``                   same locals, E-coord arbitration [6]
``rcoord``                   same locals, Table II rules, fixed T_ref = 75
``rcoord_atref``             + predictive T_ref adaptation (70-80 degC)
``rcoord_atref_ssfan``       + single-step fan scaling
===========================  ================================================

All schemes share the same adaptive-PID fan controller (the paper: "for
fair comparison, we use the proposed fan speed control scheme in all
solutions") and the same deadzone CPU capper.
"""

from __future__ import annotations

from repro.config import ServerConfig
from repro.core.base import ControlState
from repro.core.cpu_capper import DeadzoneCpuCapper
from repro.core.ecoord import EnergyAwareCoordinator
from repro.core.fan_controller import AdaptivePIDFanController
from repro.core.gain_schedule import GainSchedule
from repro.core.global_controller import GlobalController
from repro.core.quantization import QuantizationGuard
from repro.core.rules import RuleBasedCoordinator
from repro.core.setpoint import AdaptiveSetpoint
from repro.core.single_step import SingleStepFanScaling
from repro.core.tuning import default_gain_schedule
from repro.core.uncoordinated import UncoordinatedCoordinator
from repro.errors import ExperimentError
from repro.sensing.sensor import TemperatureSensor
from repro.sim.batch import BatchRunSpec, run_batch
from repro.sim.result import SimulationResult
from repro.thermal.server import ServerThermalModel
from repro.thermal.steady_state import SteadyStateServerModel
from repro.workload.base import Workload
from repro.workload.spikes import SpikeProcess
from repro.workload.synthetic import (
    CompositeWorkload,
    NoisyWorkload,
    SquareWaveWorkload,
)

#: Table III scheme names, in the paper's row order.
SCHEME_NAMES = (
    "uncoordinated",
    "ecoord",
    "rcoord",
    "rcoord_atref",
    "rcoord_atref_ssfan",
)

#: Human-readable labels matching the paper's rows.
SCHEME_LABELS = {
    "uncoordinated": "w/o coordination (baseline)",
    "ecoord": "E-coord [6]",
    "rcoord": "R-coord(@ Tref = 75C)",
    "rcoord_atref": "R-coord+A-Tref",
    "rcoord_atref_ssfan": "R-coord+A-Tref+SSfan",
}


def build_plant(
    config: ServerConfig | None = None,
    initial_utilization: float = 0.1,
    t_ref_c: float | None = None,
) -> ServerThermalModel:
    """Plant settled at the quiescent point of the given load and T_ref."""
    cfg = config or ServerConfig()
    if t_ref_c is None:
        t_ref_c = cfg.control.t_ref_fan_c
    steady = SteadyStateServerModel(cfg)
    speed = steady.required_fan_speed_rpm(initial_utilization, t_ref_c)
    plant = ServerThermalModel(
        cfg,
        initial_utilization=initial_utilization,
        initial_fan_speed_rpm=speed,
    )
    return plant


def build_sensor(
    config: ServerConfig | None = None, seed: int | None = None
) -> TemperatureSensor:
    """Sensing pipeline from the config (lag, LSB, optional noise)."""
    cfg = config or ServerConfig()
    return TemperatureSensor(cfg.sensing, seed=seed)


def paper_workload(
    duration_s: float,
    seed: int = 0,
    include_spikes: bool = True,
    low: float = 0.1,
    high: float = 0.7,
    half_period_s: float = 300.0,
    noise_std: float = 0.04,
    spike_rate_per_s: float = 1.0 / 180.0,
) -> Workload:
    """The Section VI-A synthetic workload.

    Alternates between ``low`` and ``high`` with Gaussian noise; optional
    Poisson spikes (Section V-C's abrupt load surges) ride on top.
    """
    base: Workload = SquareWaveWorkload(
        low=low, high=high, half_period_s=half_period_s
    )
    if include_spikes:
        spikes = SpikeProcess(
            horizon_s=duration_s,
            rate_per_s=spike_rate_per_s,
            height_range=(0.2, 0.3),
            duration_range_s=(10.0, 30.0),
            seed=seed + 1,
        )
        base = CompositeWorkload([base, spikes])
    if noise_std > 0.0:
        base = NoisyWorkload(base, std=noise_std, seed=seed)
    return base


#: Default per-decision fan slew limit used by the paper scenarios.  Real
#: fan firmware ramps the fan across several decision periods (this is the
#: N_trans transient that motivates single-step scaling, Section V-C).
DEFAULT_SLEW_LIMIT_RPM = 1500.0


def build_fan_controller(
    config: ServerConfig,
    schedule: GainSchedule | None = None,
    t_ref_c: float | None = None,
    initial_speed_rpm: float | None = None,
    with_guard: bool = True,
    slew_limit_rpm: float | None = DEFAULT_SLEW_LIMIT_RPM,
) -> AdaptivePIDFanController:
    """The Section IV adaptive PID fan controller, paper-configured."""
    if schedule is None:
        schedule = default_gain_schedule(config)
    if t_ref_c is None:
        t_ref_c = config.control.t_ref_fan_c
    guard = (
        QuantizationGuard(config.sensing.quantization_step_c) if with_guard else None
    )
    return AdaptivePIDFanController(
        schedule=schedule,
        t_ref_c=t_ref_c,
        fan_limits_rpm=(config.fan.min_speed_rpm, config.fan.max_speed_rpm),
        interval_s=config.control.fan_interval_s,
        initial_speed_rpm=initial_speed_rpm,
        quantization_guard=guard,
        slew_limit_rpm=slew_limit_rpm,
    )


def build_global_controller(
    scheme: str,
    config: ServerConfig | None = None,
    schedule: GainSchedule | None = None,
    initial_utilization: float = 0.1,
) -> GlobalController:
    """Assemble one of the Table III schemes."""
    if scheme not in SCHEME_NAMES:
        raise ExperimentError(
            f"unknown scheme {scheme!r}; choose from {SCHEME_NAMES}"
        )
    cfg = config or ServerConfig()
    control = cfg.control
    steady = SteadyStateServerModel(cfg)
    t_ref = control.t_ref_fan_c
    initial_speed = steady.required_fan_speed_rpm(initial_utilization, t_ref)
    fan_controller = build_fan_controller(
        cfg, schedule=schedule, t_ref_c=t_ref, initial_speed_rpm=initial_speed
    )
    capper = DeadzoneCpuCapper(
        t_low_c=control.t_low_c,
        t_high_c=control.t_high_c,
        step=control.cap_step,
        cap_min=control.cap_min,
    )

    setpoint = None
    single_step = None
    if scheme == "uncoordinated":
        coordinator = UncoordinatedCoordinator()
    elif scheme == "ecoord":
        coordinator = EnergyAwareCoordinator(
            steady,
            t_emergency_c=control.t_critical_c,
            t_comfort_c=control.t_low_c,
        )
    else:
        coordinator = RuleBasedCoordinator()
        if scheme in ("rcoord_atref", "rcoord_atref_ssfan"):
            setpoint = AdaptiveSetpoint(t_min_c=70.0, t_max_c=80.0)
        if scheme == "rcoord_atref_ssfan":
            single_step = SingleStepFanScaling(steady)

    return GlobalController(
        control=control,
        fan_controller=fan_controller,
        coordinator=coordinator,
        cpu_capper=capper,
        setpoint=setpoint,
        single_step=single_step,
        initial_state=ControlState(fan_speed_rpm=initial_speed, cpu_cap=1.0),
    )


def scheme_spec(
    scheme: str,
    duration_s: float = 3600.0,
    seed: int = 0,
    config: ServerConfig | None = None,
    schedule: GainSchedule | None = None,
    include_spikes: bool = True,
    dt_s: float = 0.1,
    record_decimation: int = 10,
    label: str | None = None,
) -> BatchRunSpec:
    """One Table III scheme run as a batchable spec.

    :func:`run_scheme` runs this spec on the scalar lane of
    :func:`~repro.sim.batch.run_batch`; the vectorized lane, alone or
    inside a grid, gives identical results.
    """
    cfg = config or ServerConfig()
    return BatchRunSpec(
        plant=build_plant(cfg),
        sensor=build_sensor(cfg, seed=seed),
        workload=paper_workload(
            duration_s, seed=seed, include_spikes=include_spikes
        ),
        controller=build_global_controller(scheme, cfg, schedule),
        duration_s=duration_s,
        dt_s=dt_s,
        record_decimation=record_decimation,
        label=scheme if label is None else label,
    )


def run_scheme(
    scheme: str,
    duration_s: float = 3600.0,
    seed: int = 0,
    config: ServerConfig | None = None,
    schedule: GainSchedule | None = None,
    include_spikes: bool = True,
    dt_s: float = 0.1,
    record_decimation: int = 10,
) -> SimulationResult:
    """Run one Table III scheme on the paper workload (scalar lane)."""
    spec = scheme_spec(
        scheme,
        duration_s=duration_s,
        seed=seed,
        config=config,
        schedule=schedule,
        include_spikes=include_spikes,
        dt_s=dt_s,
        record_decimation=record_decimation,
    )
    return run_batch([spec], backend="scalar")[0]


def fan_only_spec(
    fan_controller,
    workload: Workload,
    duration_s: float,
    config: ServerConfig | None = None,
    seed: int | None = None,
    initial_utilization: float = 0.1,
    dt_s: float = 0.1,
    record_decimation: int = 10,
    label: str = "fan-only",
) -> BatchRunSpec:
    """A bare fan-controller run (no CPU capper) as a batchable spec.

    The Figs 3 and 4 setup of :func:`run_fan_only`, expressed so ablation
    grids can run on any lane of :func:`~repro.sim.batch.run_batch`.
    """
    cfg = config or ServerConfig()
    controller = GlobalController(
        control=cfg.control,
        fan_controller=fan_controller,
        coordinator=UncoordinatedCoordinator(),
        cpu_capper=None,
        initial_state=ControlState(
            fan_speed_rpm=getattr(
                fan_controller,
                "applied_speed_rpm",
                getattr(fan_controller, "speed_rpm", 4000.0),
            ),
            cpu_cap=1.0,
        ),
    )
    return BatchRunSpec(
        plant=build_plant(cfg, initial_utilization=initial_utilization),
        sensor=build_sensor(cfg, seed=seed),
        workload=workload,
        controller=controller,
        duration_s=duration_s,
        dt_s=dt_s,
        record_decimation=record_decimation,
        label=label,
    )


def run_fan_only(
    fan_controller,
    workload: Workload,
    duration_s: float,
    config: ServerConfig | None = None,
    seed: int | None = None,
    initial_utilization: float = 0.1,
    dt_s: float = 0.1,
    record_decimation: int = 10,
    label: str = "fan-only",
) -> SimulationResult:
    """Run a bare fan controller (no CPU capper) - Figs 3 and 4 setups."""
    spec = fan_only_spec(
        fan_controller,
        workload,
        duration_s,
        config=config,
        seed=seed,
        initial_utilization=initial_utilization,
        dt_s=dt_s,
        record_decimation=record_decimation,
        label=label,
    )
    return run_batch([spec], backend="scalar")[0]
