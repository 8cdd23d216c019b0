"""Vectorized batch execution backend: B servers per ``dt`` as array ops.

The scalar engine advances one server per Python call chain
(:class:`~repro.sim.engine.ServerStepper` -> plant -> two RC nodes ->
sensing -> controller).  That is the right shape for one server, but a
rack or a sweep grid pays the whole interpreter overhead B times per
``dt``.  This module advances all B servers at once:

* :class:`~repro.thermal.batch.BatchThermalPlant` (re-exported here) -
  die/heat-sink temperatures, powers, and fan-curve coefficients as
  ``(B,)`` arrays with vectorized exact-exponential updates, one call
  per window of ``(w, B)`` rows.  Decay coefficients and fan-law
  resistances depend only on ``(dt, fan speed)``; the controller
  toggles among a few discrete fan levels, so they are computed once
  per level with *scalar* ``math`` calls (bit-identical to the scalar
  plant) and cached.
* :class:`BatchSensorBank` - the noise -> ADC -> transport-delay pipeline
  grouped by what servers share: rows with one sample interval sample at
  the same instants into one value history, and rows within it with one
  lag promote from that history through one arrival pointer, so a
  sensing call costs per (interval, lag) group, not per server.  Noise
  draws and fault transforms still run per row, from each server's own
  seeded generator in row order, so runs stay reproducible.
* :class:`BatchStepper` - the window kernel both array lanes share:
  demand traces are evaluated up front
  (:meth:`~repro.workload.base.Workload.demand_array`), the horizon is
  cut into windows that end at the next control decision (or before a
  fault change instant), and each window's plant work goes through
  :meth:`BatchStepper._advance_window` - here an exact scan that builds
  the window's forcing once (powers, coupled inlets, energy terms, one
  row per step) and steps only the recurrence per ``dt``, in
  :mod:`repro.sim.fused` a closed form - before sensing, monitoring and
  telemetry run at every step's own time.  The control decisions -
  which fire once per CPU period, not per ``dt`` - run through the
  vectorized
  :class:`~repro.sim.batch_control.BatchGlobalController` for every
  server whose DTM is a stock composition (adaptive-PID fan + deadzone
  capper + rule-based/E-coord/uncoordinated coordination + optional
  A-Tref + optional SSfan - every Table III scheme), with a per-server
  fallback to the scalar controller objects for anything else
  (subclasses, non-stock models).  Equivalence with the scalar engine
  is structural either way, not approximate: the same floating-point
  operations run in the same order, just element-wise.

Heterogeneous *parameters* (per-server sensing quality, workloads,
power envelopes) batch fine; heterogeneous *structure* (time-varying
ambient profiles, custom plant or sensor subclasses, pre-used sensors)
does not, and :func:`batch_unsupported_reason` reports why so callers
can fall back to the scalar path.  Controller compositions are softer:
an unsupported controller only demotes *its own server's* control step
to the scalar objects (see :attr:`BatchStepper.controller_fallbacks`).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.base import ControlInputs
from repro.errors import SimulationError
from repro.sim.batch_control import (
    BatchGlobalController,
    BatchTrackerBank,
    batch_controller_unsupported_reason,
)
from repro.power.energy import EnergyBreakdown
from repro.sensing.noise import GaussianNoise, NoNoise, UniformNoise
from repro.sensing.sensor import TemperatureSensor
from repro.sim.engine import TELEMETRY_CHANNELS, _validate_timing
from repro.sim.result import SimulationResult
from repro.thermal.ambient import ConstantAmbient, CoupledInlet
from repro.thermal.batch import BatchThermalPlant
from repro.thermal.server import ServerState, ServerThermalModel
from repro.units import check_utilization
from repro.workload.base import Workload
from repro.workload.performance import DeadlineTracker

#: Demand traces are evaluated this many steps at a time, bounding the
#: precompute buffer at ``B * _CHUNK_STEPS`` floats for long horizons.
_CHUNK_STEPS = 4096

#: Phases the window kernel times, in flush order.  The first four
#: count one call per step; the rest one per event.
_PHASES = ("faults", "coupling", "plant", "sensing", "control", "monitor", "record")
_STEP_PHASES = frozenset(_PHASES[:4])


def _advance_due(due: np.ndarray, interval: np.ndarray, t_plus: float) -> np.ndarray:
    """Step each due instant by its interval until it lies past ``t_plus``.

    One chained float add per late period, the way the scalar schedules
    advance, so the instants stay bit-identical to theirs.
    """
    while True:
        late = due <= t_plus
        if not late.any():
            return due
        due = np.where(late, due + interval, due)


def _check_demands(demands: np.ndarray, times: list[float]) -> None:
    """Raise :class:`~repro.errors.UnitsError` unless demands are utilizations.

    The scalar lane validates each demand as it records it; here one
    min/max pass covers a chunk (NaN fails both bounds), and only a
    failing chunk is scanned for its first bad server and time.
    """
    if 0.0 <= demands.min() and demands.max() <= 1.0:
        return
    bad = ~((demands >= 0.0) & (demands <= 1.0))
    k = int(np.flatnonzero(bad.any(axis=0))[0])
    i = int(np.flatnonzero(bad[:, k])[0])
    check_utilization(
        float(demands[i, k]), f"server {i} demand at t={times[k]:g} s"
    )


class _PhaseClock:
    """Chunk-local phase totals for the window kernel (repro.obs).

    :meth:`lap` charges the time since the previous lap to one phase, so
    adjacent phases share a clock read; :meth:`flush` hands the totals
    to the collector once per chunk, because per-step collector calls
    would cost more than the array work they time.
    """

    __slots__ = ("t", "_acc")

    def __init__(self) -> None:
        self._acc = {name: [0.0, 0] for name in _PHASES}
        self.t = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        entry = self._acc[name]
        entry[0] += now - self.t
        entry[1] += 1
        self.t = now

    def flush(self, obs: Any, steps: int) -> None:
        for name, (total, laps) in self._acc.items():
            if laps:
                obs.phase_add(
                    name, total, steps if name in _STEP_PHASES else laps
                )


def _is_noisy(model: Any) -> bool:
    """Whether a noise model draws (and so advances an RNG) per sample."""
    return not (
        isinstance(model, NoNoise)
        or (isinstance(model, GaussianNoise) and model.std == 0.0)
        or (isinstance(model, UniformNoise) and model.half_width == 0.0)
    )


def batch_unsupported_reason(
    plants: Sequence[Any], sensors: Sequence[Any], coupled: bool = False
) -> str | None:
    """Why these servers cannot run on the batch backend (None = they can).

    The batch backend reimplements the plant and sensing hot paths with
    array math, so it only accepts the exact library classes whose
    behaviour it mirrors; subclasses, time-varying ambient profiles,
    sensors that already hold state, and one noise stream shared across
    sample intervals fall back to the scalar engine.
    ``coupled`` additionally requires every plant to breathe from a
    :class:`~repro.thermal.ambient.CoupledInlet` (rack recirculation
    drives inlet offsets through it).
    """
    if not plants:
        return "no servers"
    for i, plant in enumerate(plants):
        if type(plant) is not ServerThermalModel:
            return (
                f"server {i}: plant {type(plant).__name__} is not the "
                "stock ServerThermalModel"
            )
        ambient = plant.ambient
        if type(ambient) is CoupledInlet:
            if type(ambient.base) is not ConstantAmbient:
                return (
                    f"server {i}: coupled inlet wraps a time-varying "
                    f"{type(ambient.base).__name__} profile"
                )
        elif coupled:
            return (
                f"server {i}: coupled run needs a CoupledInlet ambient, "
                f"got {type(ambient).__name__}"
            )
        elif type(ambient) is not ConstantAmbient:
            return (
                f"server {i}: ambient {type(ambient).__name__} is not "
                "constant"
            )
    start = plants[0].time_s
    if any(plant.time_s != start for plant in plants):
        return "servers start at different simulation times"
    intervals: dict[int, float] = {}
    for i, sensor in enumerate(sensors):
        if type(sensor) is not TemperatureSensor:
            return (
                f"server {i}: sensor {type(sensor).__name__} is not the "
                "stock TemperatureSensor"
            )
        if sensor.is_primed:
            return f"server {i}: sensor already primed by a previous run"
        # The bank draws noise one cadence group at a time, so a model
        # shared across sample intervals would draw out of row order.
        interval = sensor.config.sample_interval_s
        if _is_noisy(sensor.noise) and (
            intervals.setdefault(id(sensor.noise), interval) != interval
        ):
            return (
                f"server {i}: noise model shared with a sensor that "
                "samples at another interval"
            )
    return None


class _LagGroup:
    """Rows of one cadence group that share a transport delay.

    Every sample reaches them at the same instant, so one pointer
    (``popped``, the number of samples promoted so far) serves them all.
    """

    __slots__ = ("lag", "rows", "cols", "popped")

    def __init__(self, lag: float, rows: list[int], cols: list[int]) -> None:
        self.lag = lag
        self.rows = np.array(rows)
        self.cols = np.array(cols)
        self.popped = 0


class _CadenceGroup:
    """Rows that share a sample interval, and so every sample instant.

    The rows start together at the bank's prime time and advance their
    next sample instant by the same chained adds, so one scalar stands
    for all of them.  Their samples in flight live in one ring - a list
    of push times and a ``(capacity, rows)`` value history, indexed by
    push count modulo capacity - that each lag group reads through its
    own pointer.  Lag groups are sorted by lag, so the last one holds
    the oldest sample still in flight.
    """

    __slots__ = (
        "interval", "next_sample", "rows", "noise", "faults", "q_step",
        "q_min", "q_div", "max_code", "passthrough", "lags", "capacity",
        "times", "values", "pushed",
    )

    def __init__(
        self, rows: list[int], sensors: Sequence[Any], faults: Sequence[Any]
    ) -> None:
        self.interval = sensors[rows[0]].config.sample_interval_s
        self.next_sample = math.inf
        self.rows = np.array(rows)
        self.noise = [
            (col, sensors[i].noise)
            for col, i in enumerate(rows)
            if _is_noisy(sensors[i].noise)
        ]
        self.faults = [
            (col, faults[i]) for col, i in enumerate(rows) if faults[i] is not None
        ]
        adcs = [sensors[i].adc for i in rows]
        self.q_step = np.array([adc.step for adc in adcs])
        self.q_min = np.array([adc.minimum for adc in adcs])
        # Divisor-safe LSB; pass-through rows take the input instead.
        self.q_div = np.where(self.q_step == 0.0, 1.0, self.q_step)
        self.max_code = np.array([float(2**adc.bits - 1) for adc in adcs])
        passthrough = self.q_step == 0.0
        self.passthrough = passthrough if passthrough.any() else None
        by_lag: dict[float, list[int]] = {}
        for col, i in enumerate(rows):
            by_lag.setdefault(sensors[i].config.lag_s, []).append(col)
        self.lags = [
            _LagGroup(lag, [rows[col] for col in cols], cols)
            for lag, cols in sorted(by_lag.items())
        ]
        # Sized to the worst-case samples in flight (longest lag over the
        # interval); grown on demand if a pathological cadence overflows.
        self.capacity = int(math.ceil(self.lags[-1].lag / self.interval)) + 4
        self.times = [math.inf] * self.capacity
        self.values = np.zeros((self.capacity, len(rows)))
        self.pushed = 0

    def push(self, time_s: float, values: np.ndarray) -> None:
        """Append one sample to the ring, doubling the ring when full."""
        if self.pushed - self.lags[-1].popped >= self.capacity:
            old, new = self.capacity, 2 * self.capacity
            live = range(self.lags[-1].popped, self.pushed)
            times = [math.inf] * new
            history = np.zeros((new, len(values)))
            for k in live:
                times[k % new] = self.times[k % old]
                history[k % new] = self.values[k % old]
            self.capacity, self.times, self.values = new, times, history
        slot = self.pushed % self.capacity
        self.times[slot] = time_s
        self.values[slot] = values
        self.pushed += 1


class BatchSensorBank:
    """The sensing pipeline of B servers, grouped by cadence and lag.

    Mirrors :class:`~repro.sensing.sensor.TemperatureSensor` exactly:
    per-server sampling cadence, additive noise (drawn from each
    sensor's own model so the RNG streams match the scalar path),
    mid-tread ADC quantization and the transport delay.  Rows that share
    a sample interval sample at the same instants (one
    :class:`_CadenceGroup`, one value history); within it, rows that
    share a lag promote the same history entry at the same instant (one
    :class:`_LagGroup` pointer).  Per-call cost therefore scales with the
    number of (interval, lag) groups, not with B.
    """

    def __init__(
        self,
        sensors: Sequence[TemperatureSensor],
        fault_states: Sequence[Any] | None = None,
    ) -> None:
        n = len(sensors)
        # Per-server sensing-fault pipelines (repro.faults): the same
        # scalar transform objects the scalar sensor calls, applied to
        # the same sampled values at the same instants, so fault-injected
        # runs stay bit-for-bit equal across backends.
        faults = [None] * n if fault_states is None else list(fault_states)
        by_interval: dict[float, list[int]] = {}
        for i, sensor in enumerate(sensors):
            by_interval.setdefault(sensor.config.sample_interval_s, []).append(i)
        self._cadences = [
            _CadenceGroup(rows, sensors, faults) for rows in by_interval.values()
        ]
        # Row -> (cadence group, lag group, history column), for state_of.
        self._row_groups: list[Any] = [None] * n
        for cadence in self._cadences:
            for group in cadence.lags:
                for i, col in zip(group.rows, group.cols):
                    self._row_groups[i] = (cadence, group, int(col))
        self._current = np.zeros(n)
        # Scalar lower bounds on the next sample/arrival instants, so the
        # per-dt observe/pop calls reduce to one float comparison on the
        # (majority of) steps where nothing is due anywhere in the batch.
        self._next_due = -np.inf
        self._next_arrival = np.inf

    @property
    def current(self) -> np.ndarray:
        """Firmware-visible reading per server (after :meth:`pop_until`)."""
        return self._current

    def _sample(
        self, cadence: _CadenceGroup, time_s: float, true_temps: np.ndarray
    ) -> np.ndarray:
        """Sample one cadence group: noise, analog faults, ADC, digital
        faults; push the result and return it.

        Noise draws and fault transforms run per row in row order, as
        the scalar sensors do, so RNG streams and fault state match.  The
        quantize expression is
        :meth:`~repro.sensing.adc.AdcQuantizer.quantize_array` with
        per-row operands, so each row is bit-identical to its scalar
        :meth:`~repro.sensing.adc.AdcQuantizer.quantize`.
        """
        measured = true_temps[cadence.rows]
        for col, model in cadence.noise:
            measured[col] += model.sample()
        for col, state in cadence.faults:
            measured[col] = state.pre_adc(time_s, float(measured[col]))
        code = measured - cadence.q_min
        code /= cadence.q_div
        np.rint(code, out=code)
        np.maximum(code, 0.0, out=code)
        np.minimum(code, cadence.max_code, out=code)
        # rint(-0.5) is -0.0; the scalar int code has no sign.
        code += 0.0
        code *= cadence.q_step
        code += cadence.q_min
        if cadence.passthrough is not None:
            np.copyto(code, measured, where=cadence.passthrough)
        for col, state in cadence.faults:
            code[col] = state.post_adc(time_s, float(code[col]))
        cadence.push(time_s, code)
        # The group's shortest lag brings its new sample in first.
        arrival = time_s + cadence.lags[0].lag
        if arrival < self._next_arrival:
            self._next_arrival = arrival
        return code

    def prime(self, time_s: float, true_temps: np.ndarray) -> None:
        """First observation: sets the power-on reading for every server."""
        for cadence in self._cadences:
            self._current[cadence.rows] = self._sample(cadence, time_s, true_temps)
            cadence.next_sample = time_s + cadence.interval
        self._next_due = min(c.next_sample for c in self._cadences)

    def observe(
        self, time_s: float, time_plus: float, true_temps: np.ndarray
    ) -> None:
        """Feed the physical temperatures; samples at each server's cadence."""
        if self._next_due > time_plus:
            return
        for cadence in self._cadences:
            nxt = cadence.next_sample
            if nxt > time_plus:
                continue
            self._sample(cadence, time_s, true_temps)
            # One chained float add per late period, as the scalar
            # sensor schedules its next sample.
            nxt += cadence.interval
            while nxt <= time_plus:
                nxt += cadence.interval
            cadence.next_sample = nxt
        self._next_due = min(c.next_sample for c in self._cadences)

    def pop_until(self, time_s: float) -> None:
        """Promote every sample whose arrival time has passed (ZOH read)."""
        if self._next_arrival > time_s:
            return
        bound = math.inf
        current = self._current
        for cadence in self._cadences:
            times, capacity, pushed = (
                cadence.times, cadence.capacity, cadence.pushed
            )
            for group in cadence.lags:
                k, lag = group.popped, group.lag
                while k < pushed and times[k % capacity] + lag <= time_s:
                    k += 1
                if k != group.popped:
                    # Zero-order hold: only the newest promoted sample shows.
                    current[group.rows] = cadence.values[(k - 1) % capacity][
                        group.cols
                    ]
                    group.popped = k
                if k < pushed and times[k % capacity] + lag < bound:
                    bound = times[k % capacity] + lag
        self._next_arrival = bound

    def state_of(self, i: int) -> tuple[float, list[tuple[float, float]], float]:
        """One server's pipeline state: (current, in-flight, next sample).

        In-flight samples are ``(arrival_time, value)`` pairs in arrival
        order, ready for
        :meth:`~repro.sensing.sensor.TemperatureSensor.restore_pipeline`.
        """
        cadence, group, col = self._row_groups[i]
        capacity = cadence.capacity
        pending = [
            (
                cadence.times[k % capacity] + group.lag,
                float(cadence.values[k % capacity, col]),
            )
            for k in range(group.popped, cadence.pushed)
        ]
        return float(self._current[i]), pending, cadence.next_sample


class BatchStepper:
    """Lockstep closed-loop driver for B servers on the batch backend.

    Runs the window kernel with the exact scan (``backend="vectorized"``);
    :class:`~repro.sim.fused.FusedStepper` swaps in the closed form.
    Parameters mirror B parallel :class:`~repro.sim.engine.ServerStepper`
    instances; ``coupling``/``exhaust`` (duck-typed to avoid importing
    the fleet package) switch on rack recirculation, in which case every
    plant must breathe from a
    :class:`~repro.thermal.ambient.CoupledInlet`.
    """

    def __init__(
        self,
        plants: Sequence[ServerThermalModel],
        sensors: Sequence[TemperatureSensor],
        workloads: Sequence[Workload],
        controllers: Sequence[Any],
        n_steps: int,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        trackers: Sequence[DeadlineTracker] | None = None,
        coupling: Any | None = None,
        exhaust: Any | None = None,
        injector: Any | None = None,
        obs: Any | None = None,
    ) -> None:
        n = len(plants)
        if not (n == len(sensors) == len(workloads) == len(controllers)):
            raise SimulationError("batch inputs must have one entry per server")
        reason = batch_unsupported_reason(
            plants, sensors, coupled=coupling is not None
        )
        if reason is not None:
            raise SimulationError(f"batch backend unsupported: {reason}")
        if n_steps < 1:
            raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
        for controller in controllers:
            dt_s = _validate_timing(
                dt_s, controller.control.cpu_interval_s, record_decimation
            )
        self._n = n
        self._all_idx = np.arange(n)
        self._plants = list(plants)
        self._sensors = list(sensors)
        self._workloads = list(workloads)
        self._controllers = list(controllers)
        self._trackers = (
            list(trackers)
            if trackers is not None
            else [DeadlineTracker() for _ in range(n)]
        )
        if len(self._trackers) != n:
            raise SimulationError("need one tracker per server")
        self._dt = dt_s
        self._n_steps = n_steps
        self._decimation = record_decimation
        self._k = 0
        self._start = plants[0].time_s
        # Observability (repro.obs): a live ObsCollector or None.  Hooks
        # below only read wall clocks and write collector-owned buffers,
        # so instrumented batches stay bit-for-bit identical.
        self._obs = obs
        # Health monitoring: armed on the collector by the simulator
        # before stepper construction.  Due samples are held and swept
        # once per chunk (and before every snapshot); the sweep casts
        # array entries to python floats and runs the scalar detector
        # code, so the incident list is identical to the scalar lane's.
        self._monitor = None if obs is None else getattr(obs, "monitor", None)

        self._coupled = coupling is not None
        if self._coupled:
            if exhaust is None:
                raise SimulationError("coupled batch run needs an exhaust model")
            inlets = []
            for plant in plants:
                if type(plant.ambient) is not CoupledInlet:
                    raise SimulationError(
                        "coupled batch run needs CoupledInlet ambients"
                    )
                inlets.append(plant.ambient)
            self._inlets = inlets
            self._room = np.array(
                [inlet.base.temperature_c(self._start) for inlet in inlets]
            )
            self._coupling = coupling
            self._decoupled = bool(coupling.is_decoupled)
            self._g_max = float(exhaust.conductance_at_max_w_per_k)
            self._g_floor = float(exhaust.conductance_floor_w_per_k)
            self._v_max_exh = float(exhaust.max_speed_rpm)
            self._inlet_sums = np.zeros(n)
            self._zero_offsets = np.zeros(n)
            self._last_offsets = self._zero_offsets
            # Hot-path handle on the CouplingOperator, called once per
            # window: dense racks run one stacked gemv, room-scale
            # operators a stacked block-sparse mat-vec.
            self._coupling_apply = coupling.apply
            self._conductance: np.ndarray | None = None
            self._conductance_for: np.ndarray | None = None
        else:
            self._ambient_const = np.array(
                [plant.ambient.temperature_c(self._start) for plant in plants]
            )

        # Fault-injection hooks (repro.faults).  All transforms are the
        # same scalar-math state objects the scalar engine drives, so
        # fault-injected batches stay bit-for-bit equal to scalar runs;
        # with no injector (or a clean schedule) every per-dt guard below
        # reduces to one attribute/float check.
        self._injector = injector
        self._next_plant_change = math.inf
        self._next_crac_change = math.inf
        if injector is None:
            self._watchdog = None
            self._may_dropout = False
            self._fan_fault_states: list[Any] = []
            self._fan_fault_rows: tuple[int, ...] = ()
            sensor_fault_states = None
        else:
            if injector.n_servers != n:
                raise SimulationError(
                    f"fault injector is bound to {injector.n_servers} "
                    f"servers, batch has {n}"
                )
            self._watchdog = injector.watchdog
            self._may_dropout = injector.may_dropout
            self._fan_fault_states = injector.fan_states
            self._fan_fault_rows = injector.fan_fault_servers
            sensor_fault_states = (
                injector.sensor_states if injector.has_sensor_faults else None
            )
            self._next_plant_change = injector.next_plant_change_s
            self._next_crac_change = injector.next_crac_change_s

        self._plant = BatchThermalPlant(plants, dt_s)
        if injector is not None:
            # Fouling schedules are absolute: a faulted server's level is
            # what the schedule says from the run's start (the scalar
            # stepper applies the same baseline in its constructor).
            for i in range(n):
                fouling = injector.fouling_state(i)
                if fouling is not None:
                    self._plant.set_fouling(i, fouling.level(self._start))
        # Applied knob state from the controllers (what the scalar
        # ServerStepper carries in _fan_speed/_cap).
        self._fan_cmd = np.zeros(n)
        self._cap = np.zeros(n)
        self._t_ref = np.zeros(n)
        self._cpu_interval = np.array(
            [float(c.control.cpu_interval_s) for c in controllers]
        )
        self._next_control = self._start + self._cpu_interval
        self._next_control_min = float(self._next_control.min())
        for i, controller in enumerate(controllers):
            state = controller.state
            self._fan_cmd[i] = state.fan_speed_rpm
            self._cap[i] = state.cpu_cap
            self._t_ref[i] = controller.t_ref_c
            self._plant.apply_fan_speed(i, state.fan_speed_rpm)

        # Partition the DTMs: common compositions advance through the
        # vectorized BatchGlobalController, the rest step their scalar
        # objects per server (per-server fallback, not per-rack).
        reasons = [
            batch_controller_unsupported_reason(c) for c in controllers
        ]
        vec = [i for i, reason in enumerate(reasons) if reason is None]
        self._controller_fallbacks = {
            i: reason for i, reason in enumerate(reasons) if reason is not None
        }
        self._vec_controllers = np.zeros(n, dtype=bool)
        self._vec_controllers[vec] = True
        self._vec_pos = np.full(n, -1, dtype=np.int64)
        self._vec_pos[vec] = np.arange(len(vec))
        self._batch_ctrl = (
            BatchGlobalController([controllers[i] for i in vec]) if vec else None
        )
        # SSfan servers read the tracker bank's recent-degradation signal
        # each period.
        self._needs_deg = (
            self._batch_ctrl.needs_degradation
            if self._batch_ctrl is not None
            else False
        )
        self._batch_trackers = (
            BatchTrackerBank([self._trackers[i] for i in vec]) if vec else None
        )
        # One shared CPU period: every server is due at every control
        # instant, and the next instant is one float chain with the
        # scalar engine's adds, kept in _next_control_min alone (the
        # per-server _next_control array is then never read).
        self._shared_period = bool(
            np.all(self._cpu_interval == self._cpu_interval[0])
        )
        self._shared_interval = float(self._cpu_interval[0])
        # Uniform control fast lane: a shared period, every DTM
        # vectorized, and no dropout-capable faults means control steps
        # are always whole-rack and the knob mirrors can alias the
        # controller arrays (the all-servers step rebinds the fan array
        # rather than mutating it), skipping three copies per decision.
        self._ctrl_uniform = (
            not self._controller_fallbacks
            and not self._may_dropout
            and self._shared_period
        )

        # Plant-state mirrors: the coupling reads them (exhaust of step k
        # feeds inlets at step k+1, so they lag the knob arrays) and the
        # trapezoid energy update pairs them with the next step's powers.
        self._state_fan_speed = np.array(
            [p.state.fan_speed_rpm for p in plants]
        )
        self._state_cpu_w = np.array([p.state.cpu_power_w for p in plants])
        self._state_fan_w = np.array([p.state.fan_power_w for p in plants])
        self._last_applied = np.array([p.state.utilization for p in plants])
        self._last_ambient = np.array([p.state.ambient_c for p in plants])

        # Energy accounting (trapezoidal, same recurrence as
        # EnergyAccountant but element-wise).
        self._cpu_j = np.zeros(n)
        self._fan_j = np.zeros(n)
        self._energy_last_t = self._start

        self._sensing = BatchSensorBank(sensors, sensor_fault_states)
        self._sensing.prime(self._start, self._plant.die_temp)

        n_records = (n_steps + record_decimation - 1) // record_decimation
        self._channels = {
            name: np.empty((n, n_records)) for name in TELEMETRY_CHANNELS
        }
        self._record_idx = 0

    @property
    def n_servers(self) -> int:
        """Batch width B."""
        return self._n

    @property
    def controller_fallbacks(self) -> dict[int, str]:
        """Servers whose DTM steps scalar objects: index -> reason.

        Empty when every controller runs through the vectorized
        :class:`~repro.sim.batch_control.BatchGlobalController`.
        """
        return dict(self._controller_fallbacks)

    @property
    def n_vectorized_controllers(self) -> int:
        """How many servers' controllers advance as array ops."""
        return self._n - len(self._controller_fallbacks)

    def run(self) -> None:
        """Advance all servers to the end of the horizon."""
        try:
            while self._k < self._n_steps:
                self._run_chunk(min(_CHUNK_STEPS, self._n_steps - self._k))
        finally:
            # A run that raises mid-chunk (a diverging plant) still
            # sweeps the monitor samples it took before the failure.
            if self._monitor is not None:
                self._monitor.flush()

    def _run_chunk(self, m: int) -> None:
        # The window kernel both array lanes share.  A window is the
        # longest step run with the loop held open: it ends *at* the
        # first control-due step (the decision runs after that step's
        # physics) and *before* any step with a fault change due, so
        # fault transforms refresh at their exact instants and fan
        # levels, caps and plant coefficients are frozen inside it.
        # _advance_window moves the plant across the window; sensing,
        # the window-ending decision, the monitor hook and records then
        # run at every step's own time.
        obs = self._obs
        if obs is not None:
            t0 = time.perf_counter()
        start, dt, k0 = self._start, self._dt, self._k
        times = [start + (k + 1) * dt for k in range(k0, k0 + m)]
        times_plus = [t + 1e-9 for t in times]
        times_arr = np.array(times)
        n = self._n
        demands = np.empty((n, m))
        for i, workload in enumerate(self._workloads):
            demands[i] = workload.demand_array(times_arr)
        _check_demands(demands, times)
        # Phase timing (repro.obs): the demand precompute is one
        # per-chunk "workload" phase (the scalar engine, which samples
        # demand inline, folds it into "plant"); the rest accumulates in
        # a chunk-local clock flushed once per chunk.
        clock = None
        if obs is not None:
            clock = _PhaseClock()
            obs.phase("workload", t0, clock.t)

        plant = self._plant
        sensing = self._sensing
        observe = sensing.observe
        pop_until = sensing.pop_until
        decimation = self._decimation
        channels = self._channels
        injector = self._injector
        fan_fault_rows = self._fan_fault_rows
        monitor = self._monitor
        # The monitor's next due instant as a local: it moves only when
        # the monitor holds a sample, so the per-step test is one float
        # compare (never true without a monitor).
        monitor_due = math.inf if monitor is None else monitor.next_due_s
        j = 0
        while j < m:
            # Fault transforms step only at window starts: windows break
            # before every change instant.
            if injector is not None:
                t = times[j]
                if times_plus[j] >= self._next_plant_change:
                    self._refresh_faulted_plants(
                        injector.pop_plant_changes(t), t
                    )
                    self._next_plant_change = injector.next_plant_change_s
                if times_plus[j] >= self._next_crac_change:
                    injector.poll_crac(t)
                    self._next_crac_change = injector.next_crac_change_s
                if clock is not None:
                    clock.lap("faults")
            # times_plus ascends, so both window ends are bisections: the
            # first control-due step (included) and the first later step
            # with a fault change due (excluded).
            ctl_at = bisect_left(times_plus, self._next_control_min, j, m)
            change_at = bisect_left(
                times_plus,
                min(self._next_plant_change, self._next_crac_change),
                j + 1,
                m,
            )
            ctl = ctl_at < change_at
            e = ctl_at + 1 if ctl else change_at

            dem = demands[:, j:e]
            applied = np.minimum(dem, self._cap[:, None])
            die_rows, hs_rows = self._advance_window(
                j, e, applied, times, times_arr, clock
            )
            # Non-finite state is permanent once present, so one probe
            # per window stops a diverging run before sensing sees it.
            plant.check_finite()

            # Per-step tail.  The compares mirror the early-return bounds
            # inside observe/pop_until, so sensing state evolves exactly
            # as if both ran every step.
            for kk in range(j, e):
                c = kk - j
                t = times[kk]
                t_plus = times_plus[kk]
                if sensing._next_due <= t_plus:
                    observe(t, t_plus, die_rows[c])
                if sensing._next_arrival <= t:
                    pop_until(t)
                if ctl and kk == e - 1:
                    if clock is not None:
                        clock.lap("sensing")
                    if self._shared_period:
                        due_idx = self._all_idx
                        self._control_step(due_idx, t, dem[:, c], applied[:, c])
                        nxt = self._next_control_min
                        while nxt <= t_plus:
                            nxt += self._shared_interval
                        self._next_control_min = nxt
                    else:
                        due_idx = np.nonzero(self._next_control <= t_plus)[0]
                        self._control_step(due_idx, t, dem[:, c], applied[:, c])
                        self._next_control[due_idx] = _advance_due(
                            self._next_control[due_idx],
                            self._cpu_interval[due_idx],
                            t_plus,
                        )
                        self._next_control_min = float(self._next_control.min())
                    if clock is not None:
                        clock.lap("control")
                        obs.count("control_steps", due_idx.size)
                # Health monitoring: same due test as the scalar lane,
                # holding the post-control decision channels for the
                # chunk-end sweep.  A monitor implies a live collector.
                if t_plus >= monitor_due:
                    clock.lap("sensing")
                    monitor.hold(
                        t, sensing.current, self._fan_cmd, applied[:, c]
                    )
                    monitor_due = monitor.next_due_s
                    clock.lap("monitor")
                if (k0 + kk) % decimation == 0:
                    if clock is not None:
                        clock.lap("sensing")
                    r = self._record_idx
                    channels["time"][:, r] = t
                    channels["junction"][:, r] = die_rows[c]
                    channels["heatsink"][:, r] = hs_rows[c]
                    channels["tmeas"][:, r] = sensing.current
                    channels["fan_speed"][:, r] = self._fan_cmd
                    # Telemetry shows the tachometer's view of the speed
                    # the fan actually runs at (same transforms, same t,
                    # as the scalar engine's record path).
                    for i in fan_fault_rows:
                        state = self._fan_fault_states[i]
                        channels["fan_speed"][i, r] = state.reported(
                            t, state.actual(t, float(self._fan_cmd[i]))
                        )
                    channels["cpu_cap"][:, r] = self._cap
                    channels["demand"][:, r] = dem[:, c]
                    channels["applied"][:, r] = applied[:, c]
                    channels["t_ref"][:, r] = self._t_ref
                    self._record_idx = r + 1
                    if clock is not None:
                        clock.lap("record")
                # Step counters and streamed snapshots advance per step,
                # at the scalar lane's instants.
                if obs is not None:
                    obs.tick(t, n)
            if clock is not None:
                clock.lap("sensing")
            j = e

        if monitor is not None:
            monitor.flush()
            clock.lap("monitor")
        if clock is not None:
            clock.flush(obs, m)
        self._k = k0 + m

    def _advance_window(
        self,
        j: int,
        e: int,
        applied: np.ndarray,
        times: list[float],
        times_arr: np.ndarray,
        clock: _PhaseClock | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the plant over chunk steps ``j..e-1``: the exact scan.

        Fan levels, caps and plant coefficients are frozen inside a
        window, so its forcing is built once, one row per step: socket
        and CPU power, the inlet ambients (:meth:`_window_inlets`) and
        the trapezoid energy terms; :meth:`BatchThermalPlant.advance`
        then steps only the recurrence.  Every element runs the scalar
        engine's floats in its order, and energies and inlet sums fold
        left in step order, so this lane stays bit-for-bit with it (tier
        A).  Returns the ``(w, B)`` junction and heat-sink rows.
        """
        plant = self._plant
        w = e - j
        socket_w, cpu_w = plant.power(np.ascontiguousarray(applied.T))
        fan_w = plant.fan_w
        if self._coupled:
            if clock is not None:
                clock.lap("plant")
            ambient = self._window_inlets(cpu_w, fan_w)
            self._last_ambient = ambient[-1]
            if clock is not None:
                clock.lap("coupling")
        else:
            ambient = self._last_ambient = self._ambient_const
        die_rows, hs_rows = plant.advance(ambient, socket_w)

        # Trapezoid energy: row c pairs step c's powers with the step
        # before (row 0 with the lagged mirrors); row 0 of each fold
        # holds the running total.
        dts = np.empty((w, 1))
        dts[0] = times[j] - self._energy_last_t
        np.subtract(times_arr[j + 1 : e], times_arr[j : e - 1], out=dts[1:, 0])
        cpu_terms = np.empty((w + 1, self._n))
        cpu_terms[0] = self._cpu_j
        pair = cpu_terms[1:]
        pair[0] = self._state_cpu_w
        pair[1:] = cpu_w[:-1]
        pair += cpu_w
        pair *= 0.5
        pair *= dts
        self._cpu_j = np.add.accumulate(cpu_terms)[-1]
        fan_terms = np.empty((w + 1, self._n))
        fan_terms[0] = self._fan_j
        fan_terms[1] = 0.5 * (self._state_fan_w + fan_w) * dts[0]
        np.multiply(0.5 * (fan_w + fan_w), dts[1:], out=fan_terms[2:])
        self._fan_j = np.add.accumulate(fan_terms)[-1]
        self._energy_last_t = times[e - 1]

        # No copies: apply_fan_speed detaches fan_w/clamped_speed before
        # mutating them (BatchThermalPlant.snapshot_fan_state), and the
        # window buffers are never written again.
        self._state_fan_speed = plant.clamped_speed
        self._state_cpu_w = cpu_w[-1]
        self._state_fan_w = fan_w
        self._last_applied = applied[:, -1]
        if clock is not None:
            clock.lap("plant")
        return die_rows, hs_rows

    def _window_inlets(self, cpu_w: np.ndarray, fan_w: np.ndarray) -> np.ndarray:
        """Inlet ambients for a window's ``(w, B)`` CPU power rows.

        Exhaust of step k feeds inlets at step k+1: row 0 of the rises
        reads the lagged plant-state mirrors, later rows the frozen fan
        power and the feed-forward CPU power - the values the per-step
        mirror updates would hold.  Offsets take one
        :meth:`~repro.fleet.coupling.CouplingOperator.apply` on the
        whole ``(w, B)`` block: a stacked gemv whose row k equals the
        one-step call bit for bit (a gemm column would not), with a
        dynamic operator advancing once per row.  Folds the rows into
        the inlet sums.
        """
        w, n = cpu_w.shape
        # Row 0 of the fold holds the running inlet sums.
        sums = np.empty((w + 1, n))
        sums[0] = self._inlet_sums
        ambient = sums[1:]
        if self._decoupled:
            self._last_offsets = self._zero_offsets
            ambient[:] = self._room + self._zero_offsets
        else:
            rises = np.empty((w, n))
            np.divide(
                self._state_cpu_w + self._state_fan_w,
                self._exhaust_conductance(self._state_fan_speed),
                out=rises[0],
            )
            np.divide(
                cpu_w[:-1] + fan_w,
                self._exhaust_conductance(self._plant.clamped_speed),
                out=rises[1:],
            )
            offsets = self._coupling_apply(rises)
            np.add(self._room, offsets, out=ambient)
            self._last_offsets = offsets[-1]
        self._inlet_sums = np.add.accumulate(sums)[-1]
        return ambient

    def _exhaust_conductance(self, speeds: np.ndarray) -> np.ndarray:
        """Exhaust conductance at a fan-speed array.

        It depends only on the speeds, and a speed array is replaced
        (never mutated) on fan changes, so the last result is cached
        keyed on array identity.
        """
        if self._conductance_for is not speeds:
            self._conductance = np.maximum(
                self._g_floor, self._g_max * speeds / self._v_max_exh
            )
            self._conductance_for = speeds
        return self._conductance

    def _refresh_faulted_plants(self, servers: Sequence[int], t: float) -> None:
        """Re-derive plant coefficients for servers whose faults stepped.

        Fault transforms are piecewise constant between their change
        instants, so re-applying the *current* command through the same
        transform the scalar engine evaluates per step lands on the same
        coefficients at the same steps.
        """
        if not servers:
            return
        plant = self._plant
        plant.snapshot_fan_state()
        injector = self._injector
        for i in servers:
            fouling = injector.fouling_state(i)
            if fouling is not None:
                plant.set_fouling(i, fouling.level(t))
            speed = float(self._fan_cmd[i])
            fan_state = self._fan_fault_states[i] if self._fan_fault_states else None
            if fan_state is not None:
                speed = fan_state.actual(t, speed)
            plant.apply_fan_speed(i, speed)

    def _failsafe_control_step(
        self,
        fs_idx: np.ndarray,
        t: float,
        demand: np.ndarray,
    ) -> None:
        """Watchdog override for due servers with invalid telemetry.

        Mirrors the scalar engine's failsafe branch exactly: the period
        is still scored by the deadline tracker, the fan command is
        forced to the server's maximum, and the DTM is bypassed (its
        state untouched) until readings recover.
        """
        vec_mask = self._vec_controllers[fs_idx]
        vec_due = fs_idx[vec_mask]
        if vec_due.size:
            self._batch_trackers.record(
                self._vec_pos[vec_due], demand[vec_due], self._cap[vec_due]
            )
        for i in fs_idx[~vec_mask]:
            i = int(i)
            self._trackers[i].record(float(demand[i]), float(self._cap[i]))

        watchdog = self._watchdog
        changed: list[int] = []
        forced_speeds: list[float] = []
        for i in fs_idx:
            i = int(i)
            if not watchdog.engaged(i):
                watchdog.engage(i, t, float(self._fan_cmd[i]))
            forced = watchdog.forced_rpm(i)
            if forced != self._fan_cmd[i]:
                changed.append(i)
                forced_speeds.append(forced)
        if changed:
            self._apply_fan_changes(
                np.asarray(changed, dtype=np.int64),
                np.asarray(forced_speeds),
                t,
            )
            self._fan_cmd[changed] = forced_speeds

    def _control_step(
        self,
        due_idx: np.ndarray,
        t: float,
        demand: np.ndarray,
        applied: np.ndarray,
    ) -> None:
        """Run the DTM decision for every server whose period is due.

        Servers with a common controller composition advance together
        through the vectorized :class:`BatchGlobalController`; the rest
        step their scalar controller objects, with values crossing the
        array/scalar boundary as python floats so those controllers see
        exactly the types (and therefore the arithmetic) of the scalar
        engine.  When a fault schedule can produce invalid readings, the
        telemetry watchdog intercepts those servers first (failsafe) and
        releases them once readings recover.
        """
        if self._may_dropout:
            finite = np.isfinite(self._sensing.current[due_idx])
            if not finite.all():
                self._failsafe_control_step(due_idx[~finite], t, demand)
                due_idx = due_idx[finite]
                if not due_idx.size:
                    return
            if self._watchdog.any_engaged:
                engaged = [
                    int(i) for i in due_idx if self._watchdog.engaged(int(i))
                ]
                for i in engaged:
                    self._watchdog.release(i, t)
        if not self._controller_fallbacks:
            self._vec_control_step(due_idx, t, demand, applied)
            return
        if self._batch_ctrl is None:
            self._scalar_control_step(due_idx, t, demand, applied)
            return
        vec_mask = self._vec_controllers[due_idx]
        vec_due = due_idx[vec_mask]
        if vec_due.size:
            self._vec_control_step(vec_due, t, demand, applied)
        scalar_due = due_idx[~vec_mask]
        if scalar_due.size:
            self._scalar_control_step(scalar_due, t, demand, applied)

    def _vec_control_step(
        self,
        idx: np.ndarray,
        t: float,
        demand: np.ndarray,
        applied: np.ndarray,
    ) -> None:
        """Vectorized-controller servers: one array op chain per period."""
        ctrl = self._batch_ctrl
        if idx.size == self._n:
            # Whole-rack fast lane: no index gathers.  Off the uniform
            # lane the knob mirrors are *copied* out of the controller:
            # subset steps (mixed CPU periods) write the controller
            # arrays in place, and an aliased _fan_cmd would defeat the
            # changed-fan detection below on those later subset steps.
            self._batch_trackers.record_all(demand, self._cap)
            if self._needs_deg:
                ctrl.step_due(
                    self._all_idx,
                    t,
                    self._sensing.current,
                    applied,
                    demand,
                    self._batch_trackers.recent_degradation_all(),
                )
            else:
                ctrl.step_due(self._all_idx, t, self._sensing.current, applied)
            new_fan = ctrl.fan_speed_rpm
            if new_fan is not self._fan_cmd:
                changed = np.nonzero(new_fan != self._fan_cmd)[0]
                if changed.size:
                    self._apply_fan_changes(changed, new_fan[changed], t)
            if self._ctrl_uniform:
                # Subset steps never happen on this lane, so the fan
                # array is only ever rebound (never written in place)
                # and the mirrors may alias the controller arrays.
                self._fan_cmd = new_fan
                self._cap = ctrl.cpu_cap
                self._t_ref = ctrl.t_ref_c
            else:
                self._fan_cmd = new_fan.copy()
                self._cap = ctrl.cpu_cap.copy()
                self._t_ref = ctrl.t_ref_c.copy()
        else:
            local = self._vec_pos[idx]
            self._batch_trackers.record(local, demand[idx], self._cap[idx])
            if self._needs_deg:
                ctrl.step_due(
                    local,
                    t,
                    self._sensing.current[idx],
                    applied[idx],
                    demand[idx],
                    self._batch_trackers.recent_degradation(local),
                )
            else:
                ctrl.step_due(
                    local, t, self._sensing.current[idx], applied[idx]
                )
            new_fan = ctrl.fan_speed_rpm[local]
            changed = np.nonzero(new_fan != self._fan_cmd[idx])[0]
            if changed.size:
                self._apply_fan_changes(idx[changed], new_fan[changed], t)
            self._fan_cmd[idx] = new_fan
            self._cap[idx] = ctrl.cpu_cap[local]
            self._t_ref[idx] = ctrl.t_ref_c[local]

    def _apply_fan_changes(
        self, idx: np.ndarray, speeds: np.ndarray, t: float
    ) -> None:
        """Apply new fan commands (copy-on-write on the plant arrays).

        Commands pass through each server's actuator-fault transform (a
        seized fan ignores them, a worn bearing caps them) before
        reaching the plant, exactly as the scalar engine applies
        ``FanFaultState.actual`` per step.
        """
        plant = self._plant
        plant.snapshot_fan_state()
        if not self._fan_fault_rows:
            for k in range(idx.size):
                plant.apply_fan_speed(int(idx[k]), float(speeds[k]))
            return
        states = self._fan_fault_states
        for k in range(idx.size):
            i = int(idx[k])
            speed = float(speeds[k])
            state = states[i]
            if state is not None:
                speed = state.actual(t, speed)
            plant.apply_fan_speed(i, speed)

    def _scalar_control_step(
        self,
        due_idx: np.ndarray,
        t: float,
        demand: np.ndarray,
        applied: np.ndarray,
    ) -> None:
        """Fallback servers: drive the scalar controller objects."""
        current = self._sensing.current
        snapshotted = False
        for i in due_idx:
            i = int(i)
            tracker = self._trackers[i]
            demand_i = float(demand[i])
            tracker.record(demand_i, float(self._cap[i]))
            inputs = ControlInputs(
                time_s=t,
                tmeas_c=float(current[i]),
                measured_util=float(applied[i]),
                recent_degradation=tracker.recent_degradation,
                demand_estimate=demand_i,
            )
            state = self._controllers[i].step(inputs)
            fan = float(state.fan_speed_rpm)
            if fan != self._fan_cmd[i]:
                if not snapshotted:
                    self._plant.snapshot_fan_state()
                    snapshotted = True
                applied_fan = fan
                if self._fan_fault_rows:
                    fault_state = self._fan_fault_states[i]
                    if fault_state is not None:
                        applied_fan = fault_state.actual(t, fan)
                self._plant.apply_fan_speed(i, applied_fan)
            self._fan_cmd[i] = fan
            self._cap[i] = float(state.cpu_cap)
            self._t_ref[i] = self._controllers[i].t_ref_c

    def mean_inlet_c(self) -> tuple[float, ...]:
        """Per-server mean inlet temperature over the steps taken so far."""
        if not self._coupled:
            raise SimulationError("mean inlets are only tracked for coupled runs")
        steps = max(1, self._k)
        return tuple(float(v) for v in self._inlet_sums / steps)

    def finish(self, labels: Sequence[str]) -> list[SimulationResult]:
        """Package per-server results and sync state back to the objects.

        Plants, sensors, controllers, trackers, and (for coupled runs)
        inlet offsets are restored to the final batch state so mixed
        scalar/batch workflows keep working on the same objects:
        scalar-fallback controllers advanced in place, vectorized ones
        are written back here.
        """
        if len(labels) != self._n:
            raise SimulationError("need one label per server")
        if self._batch_ctrl is not None:
            self._batch_ctrl.sync_back()
            self._batch_trackers.sync_back()
        # The scalar plant clock accumulates `+= dt` once per step; replay
        # that exact float accumulation so restored plants match it.
        t_final = self._start
        for _ in range(self._k):
            t_final += self._dt
        plant = self._plant
        fouling = plant.fouling_k_per_w
        results = []
        for i, server_plant in enumerate(self._plants):
            if fouling[i] != server_plant.heatsink.fouling_k_per_w:
                # Fouling persists on the plant (like temperatures), so
                # scalar runs after a faulted batch see the same sink.
                server_plant.heatsink.set_fouling_k_per_w(fouling[i])
            state = ServerState(
                time_s=t_final,
                junction_c=float(plant.die_temp[i]),
                heatsink_c=float(plant.hs_temp[i]),
                ambient_c=float(self._last_ambient[i]),
                cpu_power_w=float(self._state_cpu_w[i]),
                fan_power_w=float(self._state_fan_w[i]),
                utilization=float(self._last_applied[i]),
                fan_speed_rpm=float(self._state_fan_speed[i]),
            )
            server_plant.restore(state)
            self._sensors[i].restore_pipeline(*self._sensing.state_of(i))
            if self._coupled:
                self._inlets[i].set_offset_c(float(self._last_offsets[i]))
            results.append(
                SimulationResult(
                    channels={
                        name: array[i, : self._record_idx].copy()
                        for name, array in self._channels.items()
                    },
                    performance=self._trackers[i].summary,
                    energy=EnergyBreakdown(
                        cpu_j=float(self._cpu_j[i]),
                        fan_j=float(self._fan_j[i]),
                    ),
                    config=server_plant.config,
                    dt_s=self._dt,
                    label=labels[i],
                )
            )
        return results


@dataclass(frozen=True)
class BatchRunSpec:
    """One independent closed-loop run for :func:`run_batch`.

    Field defaults match :class:`~repro.sim.engine.Simulator`, so a spec
    and a Simulator built from the same pieces produce identical results.
    """

    plant: ServerThermalModel
    sensor: TemperatureSensor
    workload: Workload
    controller: Any
    duration_s: float
    dt_s: float = 0.1
    record_decimation: int = 1
    violation_tolerance: float = 0.01
    degradation_window: int = 10
    label: str = "run"


def run_batch(
    specs: Sequence[BatchRunSpec], backend: str = "vectorized"
) -> list[SimulationResult]:
    """Run independent (uncoupled) closed loops as one batch.

    All specs must share ``duration_s``, ``dt_s``, and
    ``record_decimation`` (one time grid).  ``backend`` picks the batch
    lane (``"vectorized"``/``"auto"`` or ``"fused"``, resolved by
    :func:`repro.sim.backends.batch_stepper`).  Raises
    :class:`~repro.errors.SimulationError` when the servers cannot batch;
    callers wanting a silent fallback should check
    :func:`batch_unsupported_reason` first or catch the error.
    """
    if not specs:
        raise SimulationError("run_batch needs at least one spec")
    first = specs[0]
    for spec in specs:
        if (
            spec.duration_s != first.duration_s
            or spec.dt_s != first.dt_s
            or spec.record_decimation != first.record_decimation
        ):
            raise SimulationError(
                "batch specs must share duration_s, dt_s, and record_decimation"
            )
    n_steps = int(round(first.duration_s / first.dt_s))
    if n_steps < 1:
        raise SimulationError(
            f"duration {first.duration_s} shorter than one step"
        )
    from repro.sim.backends import batch_stepper

    _, stepper_cls = batch_stepper(backend)
    stepper = stepper_cls(
        plants=[spec.plant for spec in specs],
        sensors=[spec.sensor for spec in specs],
        workloads=[spec.workload for spec in specs],
        controllers=[spec.controller for spec in specs],
        n_steps=n_steps,
        dt_s=first.dt_s,
        record_decimation=first.record_decimation,
        trackers=[
            DeadlineTracker(
                tolerance=spec.violation_tolerance, window=spec.degradation_window
            )
            for spec in specs
        ],
    )
    stepper.run()
    return stepper.finish([spec.label for spec in specs])
