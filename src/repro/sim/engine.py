"""The closed-loop discrete-time simulation engine.

One :class:`Simulator` wires together the four layers of Fig. 2:

* a **workload** producing demanded utilization,
* the **plant** (:class:`~repro.thermal.server.ServerThermalModel`),
* the **sensing pipeline** degrading the junction temperature before any
  controller sees it, and
* the **DTM** (:class:`~repro.core.global_controller.GlobalController`)
  deciding fan speed and CPU cap.

Loop order per step of ``dt_s``: demand is sampled, capped, applied to
the plant; the sensor observes the new junction temperature; at each CPU
control period boundary the deadline tracker scores the period and the
DTM takes its decision from the *measured* temperature.

The loop body lives in :class:`ServerStepper`, a single-step primitive
that owns the per-run state (applied knob settings, control schedule,
energy accounting, telemetry buffers).  :class:`Simulator` drives one
stepper to completion; :class:`~repro.fleet.simulator.FleetSimulator`
interleaves many steppers in lockstep so coupled servers advance
together.

This scalar loop is the **reference semantics** of the backend
contract (``docs/backends.md``).  Both array lanes run one window
kernel, :class:`~repro.sim.batch.BatchStepper`, which re-executes this
loop element-wise across a rack; they differ only in how a window's
plant steps are evaluated - an exact per-step scan
(``"vectorized"``, tier A, bit-for-bit) or a closed form
(:class:`~repro.sim.fused.FusedStepper`, tier B, exact decisions,
tolerance-bounded thermals).  Behaviour questions are settled here
first; the array lanes follow.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.base import ControlInputs
from repro.core.global_controller import GlobalController
from repro.errors import SimulationError
from repro.power.energy import EnergyAccountant
from repro.sensing.sensor import TemperatureSensor
from repro.sim.result import SimulationResult
from repro.thermal.server import ServerState, ServerThermalModel
from repro.units import check_duration
from repro.workload.base import Workload
from repro.workload.performance import DeadlineTracker

#: Telemetry channels recorded by every run, in recording order.
TELEMETRY_CHANNELS = (
    "time",
    "junction",
    "heatsink",
    "tmeas",
    "fan_speed",
    "cpu_cap",
    "demand",
    "applied",
    "t_ref",
)


def _validate_timing(
    dt_s: float, cpu_interval_s: float, record_decimation: int
) -> float:
    """Shared constructor validation for every simulation driver."""
    dt = check_duration(dt_s, "dt_s")
    if cpu_interval_s + 1e-12 < dt:
        raise SimulationError(
            f"dt_s ({dt_s}) must not exceed the CPU control interval "
            f"({cpu_interval_s})"
        )
    if not isinstance(record_decimation, (int, np.integer)):
        raise SimulationError(
            f"record_decimation must be an integer, got {record_decimation!r}"
        )
    if record_decimation < 1:
        raise SimulationError(
            f"record_decimation must be >= 1, got {record_decimation}"
        )
    return dt


class ServerStepper:
    """Single-step primitive of the closed loop: one server, one ``dt`` per call.

    Construction primes the loop from the plant's and controller's current
    state (the sensor sees the starting junction temperature, the energy
    accountant records the starting powers) and allocates telemetry buffers
    for ``n_steps`` steps.  Each :meth:`step` then advances the full
    workload -> plant -> sensing -> DTM chain by one ``dt`` and returns the
    new plant state, so a fleet driver can read exhaust conditions between
    steps.  :meth:`finish` packages the telemetry into a
    :class:`~repro.sim.result.SimulationResult`.
    """

    def __init__(
        self,
        plant: ServerThermalModel,
        sensor: TemperatureSensor,
        workload: Workload,
        controller: GlobalController,
        n_steps: int,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        tracker: DeadlineTracker | None = None,
        injector=None,
        server_index: int = 0,
        obs=None,
        lockstep_width: int = 1,
    ) -> None:
        self._plant = plant
        self._sensor = sensor
        self._workload = workload
        self._controller = controller
        self._dt = _validate_timing(
            dt_s, controller.control.cpu_interval_s, record_decimation
        )
        if n_steps < 1:
            raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
        self._n_steps = n_steps
        self._decimation = record_decimation
        self._tracker = tracker or DeadlineTracker()
        self._cpu_interval = controller.control.cpu_interval_s
        # Observability (repro.obs): a live ObsCollector or None.  The
        # collector only reads wall clocks and writes its own buffers,
        # so instrumented runs stay bit-for-bit identical; with no
        # collector each hook below is a single ``is not None`` check.
        self._obs = obs
        # Health monitoring (repro.obs.monitor): the simulator arms the
        # monitor on the collector *before* building steppers.  In
        # multi-stepper lanes every stepper samples its own server at a
        # due instant, but only the last stepper closes the lockstep
        # step (lockstep_width = the rack's n, 0 on the others): it
        # commits the sample, so rack-scope checks and the cadence
        # advance run exactly once per step, and it ticks the collector
        # once for all n servers, so a streamed snapshot sees the whole
        # step - the same order the batch lanes produce.  Monitors only
        # read already-computed channel values; monitored runs stay
        # bit-for-bit identical to bare runs.
        self._monitor = None if obs is None else getattr(obs, "monitor", None)
        self._lockstep_width = lockstep_width
        # dt is validated once here, so the stock plant can skip per-step
        # re-validation; subclasses keep their step() override in charge.
        self._plant_step = (
            plant.step_fast
            if type(plant) is ServerThermalModel
            else plant.step
        )

        # Fault-injection hooks (repro.faults): per-server transforms and
        # the telemetry watchdog.  With no injector every hook is None and
        # the loop body is exactly the fault-free one.
        self._server_index = server_index
        if injector is None:
            self._watchdog = None
            self._fault_fan = None
            self._fault_fouling = None
            # A sensor reused from an earlier faulted run must not keep
            # its stale per-run fault pipeline.
            if getattr(sensor, "fault_state", None) is not None:
                sensor.set_fault_state(None)
        else:
            self._watchdog = injector.watchdog
            self._fault_fan = injector.fan_state(server_index)
            self._fault_fouling = injector.fouling_state(server_index)
            sensor.set_fault_state(injector.sensor_state(server_index))
        self._fouling_level = 0.0
        if self._fault_fouling is not None:
            # Fouling schedules are absolute from the run's start; the
            # batch backend seeds its coefficient cache the same way.
            self._fouling_level = self._fault_fouling.level(plant.time_s)
            plant.heatsink.set_fouling_k_per_w(self._fouling_level)

        state = controller.state
        self._fan_speed = state.fan_speed_rpm
        self._cap = state.cpu_cap
        self._energy = EnergyAccountant()
        self._start_time = plant.time_s
        self._sensor.observe(self._start_time, plant.junction_c)
        self._energy.record(
            self._start_time,
            plant.state.cpu_power_w,
            plant.state.fan_power_w,
        )
        self._next_control = self._start_time + self._cpu_interval

        n_records = (n_steps + record_decimation - 1) // record_decimation
        self._channels = {
            name: np.empty(n_records) for name in TELEMETRY_CHANNELS
        }
        self._record_idx = 0
        self._k = 0

    @property
    def plant(self) -> ServerThermalModel:
        """The thermal plant being stepped."""
        return self._plant

    @property
    def controller(self) -> GlobalController:
        """The DTM taking decisions for this server."""
        return self._controller

    @property
    def tracker(self) -> DeadlineTracker:
        """The deadline/performance tracker."""
        return self._tracker

    @property
    def steps_taken(self) -> int:
        """Number of :meth:`step` calls so far."""
        return self._k

    @property
    def done(self) -> bool:
        """True once all ``n_steps`` steps have been taken."""
        return self._k >= self._n_steps

    def step(self) -> ServerState:
        """Advance the closed loop by one ``dt`` and return the plant state."""
        if self.done:
            raise SimulationError(
                f"stepper already completed its {self._n_steps} steps"
            )
        # Phase timing (repro.obs): adjacent phases share boundary
        # timestamps, so each phase costs one clock read.  The workload
        # sample and fault transforms ride in the "plant" phase here;
        # the batch backend, which hoists demand evaluation out of the
        # loop, reports them as a separate "workload" phase.
        obs = self._obs
        if obs is not None:
            _pc = time.perf_counter
            t_prev = _pc()
        k = self._k
        t = self._start_time + (k + 1) * self._dt
        demand = self._workload.demand(t)
        applied = min(demand, self._cap)
        if self._fault_fouling is not None:
            extra = self._fault_fouling.level(t)
            if extra != self._fouling_level:
                self._plant.heatsink.set_fouling_k_per_w(extra)
                self._fouling_level = extra
        if self._fault_fan is None:
            fan_actual = self._fan_speed
        else:
            # The fan achieves what the fault allows, not what the DTM
            # commanded; the batch backend applies the same transform at
            # its cached-coefficient refresh points.
            fan_actual = self._fault_fan.actual(t, self._fan_speed)
        plant_state = self._plant_step(self._dt, applied, fan_actual)
        if obs is not None:
            t_now = _pc()
            obs.phase("plant", t_prev, t_now)
            t_prev = t_now
        self._sensor.observe(t, plant_state.junction_c)
        self._energy.record(t, plant_state.cpu_power_w, plant_state.fan_power_w)

        # One sensor read per step, shared by the controller and telemetry,
        # so both consumers see the same value and sensing work isn't done
        # twice on recorded control steps.
        reading = None
        if obs is not None:
            t_now = _pc()
            obs.phase("sensing", t_prev, t_now)
            t_prev = t_now
        if t + 1e-9 >= self._next_control:
            self._tracker.record(demand, self._cap)
            reading = self._sensor.read(t)
            if self._watchdog is not None and not math.isfinite(
                reading.value_c
            ):
                # Failsafe: invalid telemetry forces max fan this period,
                # bypassing (not reprogramming) the DTM - its state stays
                # untouched until readings recover.
                i = self._server_index
                if not self._watchdog.engaged(i):
                    self._watchdog.engage(i, t, self._fan_speed)
                self._fan_speed = self._watchdog.forced_rpm(i)
            else:
                if self._watchdog is not None and self._watchdog.engaged(
                    self._server_index
                ):
                    self._watchdog.release(self._server_index, t)
                inputs = ControlInputs(
                    time_s=t,
                    tmeas_c=reading.value_c,
                    measured_util=applied,
                    recent_degradation=self._tracker.recent_degradation,
                    demand_estimate=demand,
                )
                new_state = self._controller.step(inputs)
                self._fan_speed = new_state.fan_speed_rpm
                self._cap = new_state.cpu_cap
            while self._next_control <= t + 1e-9:
                self._next_control += self._cpu_interval
            if obs is not None:
                t_now = _pc()
                obs.phase("control", t_prev, t_now)
                t_prev = t_now
                obs.count("control_steps")

        monitor = self._monitor
        if monitor is not None and t + 1e-9 >= monitor.next_due_s:
            if reading is None:
                reading = self._sensor.read(t)
            monitor.sample_server(
                t, self._server_index, reading.value_c, self._fan_speed, applied
            )
            if self._lockstep_width:
                monitor.commit(t)
            t_now = _pc()
            obs.phase("monitor", t_prev, t_now)
            t_prev = t_now

        if k % self._decimation == 0:
            if reading is None:
                reading = self._sensor.read(t)
            idx = self._record_idx
            channels = self._channels
            channels["time"][idx] = t
            channels["junction"][idx] = plant_state.junction_c
            channels["heatsink"][idx] = plant_state.heatsink_c
            channels["tmeas"][idx] = reading.value_c
            if self._fault_fan is None:
                channels["fan_speed"][idx] = self._fan_speed
            else:
                # Telemetry shows what the tachometer reports for the
                # speed the fan actually runs at, not the DTM's command.
                channels["fan_speed"][idx] = self._fault_fan.reported(
                    t, self._fault_fan.actual(t, self._fan_speed)
                )
            channels["cpu_cap"][idx] = self._cap
            channels["demand"][idx] = demand
            channels["applied"][idx] = applied
            channels["t_ref"][idx] = self._controller.t_ref_c
            self._record_idx = idx + 1
            if obs is not None:
                obs.phase("record", t_prev, _pc())

        self._k = k + 1
        if obs is not None and self._lockstep_width:
            obs.tick(t, self._lockstep_width)
        return plant_state

    def finish(self, label: str = "run") -> SimulationResult:
        """Package the telemetry recorded so far into a result."""
        trimmed = {
            name: arr[: self._record_idx] for name, arr in self._channels.items()
        }
        return SimulationResult(
            channels=trimmed,
            performance=self._tracker.summary,
            energy=self._energy.breakdown,
            config=self._plant.config,
            dt_s=self._dt,
            label=label,
        )


class Simulator:
    """Closed-loop simulation of plant + sensing + DTM.

    Parameters
    ----------
    plant, sensor, workload, controller:
        The four layers; see module docstring.
    dt_s:
        Integration step (default 0.1 s - well below every control period
        and exact for the stiff die node thanks to the exponential
        integrator).
    record_decimation:
        Record telemetry every N-th step (1 = every step).
    faults:
        Optional :class:`~repro.faults.events.FaultSchedule`; installs
        the fault-injection hooks and the telemetry watchdog for the run
        (see :mod:`repro.faults`).  What fired lands in
        ``result.extras["faults"]``, as on the rack and room drivers,
        and :attr:`fault_summary` returns the same dict.
    obs:
        Optional :class:`~repro.obs.ObsCollector` or
        :class:`~repro.obs.ObsConfig`; instruments the run with phase
        timing and streaming metrics (see :mod:`repro.obs`) and attaches
        the profile to ``result.extras["obs"]``.  Observation never
        perturbs the simulation: instrumented runs are bit-for-bit
        identical to uninstrumented ones.
    """

    def __init__(
        self,
        plant: ServerThermalModel,
        sensor: TemperatureSensor,
        workload: Workload,
        controller: GlobalController,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        faults=None,
        obs=None,
    ) -> None:
        self._plant = plant
        self._sensor = sensor
        self._workload = workload
        self._controller = controller
        self._dt = _validate_timing(
            dt_s, controller.control.cpu_interval_s, record_decimation
        )
        self._decimation = record_decimation
        self._tracker = DeadlineTracker()
        self._faults = faults
        self._fault_summary: dict | None = None
        from repro.obs.collector import resolve_obs

        self._obs = resolve_obs(obs)

    @property
    def plant(self) -> ServerThermalModel:
        """The thermal plant."""
        return self._plant

    @property
    def controller(self) -> GlobalController:
        """The DTM under test."""
        return self._controller

    @property
    def tracker(self) -> DeadlineTracker:
        """The deadline/performance tracker."""
        return self._tracker

    @property
    def fault_summary(self) -> dict | None:
        """What the fault schedule did during the most recent run.

        ``None`` until a run with ``faults`` completes; otherwise the
        dict that run attached as ``result.extras["faults"]``.
        """
        return self._fault_summary

    @property
    def obs(self):
        """The run's resolved collector (None when uninstrumented).

        A :class:`~repro.obs.live.LiveObsServer` attaches here to serve
        ``/metrics`` while the run executes.
        """
        return self._obs

    def run(self, duration_s: float, label: str = "run") -> SimulationResult:
        """Simulate for ``duration_s`` seconds and collect the result."""
        check_duration(duration_s, "duration_s")
        n_steps = int(round(duration_s / self._dt))
        if n_steps < 1:
            raise SimulationError(f"duration {duration_s} shorter than one step")
        injector = None
        if self._faults is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(self._faults, [self._plant])
            injector.require_no_room_faults()
        obs = self._obs
        if obs is not None:
            from repro.obs.monitor import arm_run_monitor

            obs.label = label
            obs.arm_stream(self._plant.time_s)
            if injector is not None:
                injector.bind_obs(obs)
            arm_run_monitor(
                obs,
                plants=[self._plant],
                controllers=[self._controller],
                start_s=self._plant.time_s,
                label=label,
                sensors=[self._sensor],
                schedule=self._faults,
            )
        stepper = ServerStepper(
            self._plant,
            self._sensor,
            self._workload,
            self._controller,
            n_steps=n_steps,
            dt_s=self._dt,
            record_decimation=self._decimation,
            tracker=self._tracker,
            injector=injector,
            obs=obs,
        )
        if obs is not None:
            with obs.span("run"):
                while not stepper.done:
                    stepper.step()
        else:
            while not stepper.done:
                stepper.step()
        result = stepper.finish(label)
        if injector is not None:
            from repro.faults.injector import attach_fault_summary

            attach_fault_summary(result.extras, injector, n_steps * self._dt)
            self._fault_summary = result.extras["faults"]
        if obs is not None:
            obs.finish_run(self._plant.time_s)
            result.extras["obs"] = obs.summary()
        return result
