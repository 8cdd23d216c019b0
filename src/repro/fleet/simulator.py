"""Lockstep fleet simulation driver.

:class:`FleetSimulator` advances every server in a
:class:`~repro.fleet.rack.Rack` through the same time grid, with two
interchangeable execution backends:

* ``"scalar"`` - one :class:`~repro.sim.engine.ServerStepper` per slot,
  the exact loop body single-server runs use, not a reimplementation.
  Once per step the rack coupling turns the previous step's exhaust
  states into fresh inlet offsets, then all steppers advance by ``dt``.
* ``"vectorized"`` - the :class:`~repro.sim.batch.BatchStepper` array
  backend: all servers advance as ``(B,)`` NumPy operations per ``dt``,
  with only the per-CPU-period control decisions going through the
  scalar controller objects.  Results are bit-for-bit identical to the
  scalar backend for every rack built from the stock library classes;
  racks the batch backend cannot represent (time-varying ambients,
  custom plant/sensor subclasses, pre-used sensors) fall back to the
  scalar path automatically.
* ``"fused"`` - the :class:`~repro.sim.fused.FusedStepper` window
  backend: same representability rules and fallback behaviour as
  vectorized, but the per-``dt`` array work collapses into one set of
  matrix ops per control window.  Equivalence is tier B (tolerances,
  not bits) - see ``docs/backends.md``.

``backend="auto"`` (the default) picks vectorized whenever the rack
supports it.  With a decoupled rack the scalar and vectorized backends
reduce to N independent single-server simulations bit-for-bit.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.errors import SimulationError
from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.obs.collector import resolve_obs
from repro.sim.backends import BACKENDS, batch_stepper
from repro.sim.batch import batch_unsupported_reason
from repro.sim.engine import ServerStepper
from repro.units import check_duration


class FleetSimulator:
    """Step all servers of a rack in lockstep with inlet coupling.

    Parameters
    ----------
    rack:
        The coupled server slots.
    dt_s:
        Shared integration step for every server.
    record_decimation:
        Telemetry decimation, applied uniformly so per-server traces
        stay aligned for fleet metrics.
    violation_tolerance, degradation_window:
        Per-server :class:`~repro.workload.performance.DeadlineTracker`
        parameters (same meaning as in
        :class:`~repro.sim.engine.Simulator`).
    backend:
        ``"auto"`` (vectorized when the rack supports it), ``"scalar"``,
        ``"vectorized"``, or ``"fused"`` (the batch backends fall back
        to scalar - recorded in the result's ``extras`` - when the rack
        cannot batch).
    faults:
        Optional :class:`~repro.faults.events.FaultSchedule` applied to
        the run on either backend (bit-for-bit identically); the run's
        fault summary lands in ``result.extras["faults"]``.
    obs:
        Optional :class:`~repro.obs.ObsCollector` or
        :class:`~repro.obs.ObsConfig`; profiles the run on either
        backend and attaches the summary as ``result.extras["obs"]``
        without perturbing the simulation (see :mod:`repro.obs`).
    """

    def __init__(
        self,
        rack: Rack,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        violation_tolerance: float = 0.01,
        degradation_window: int = 10,
        backend: str = "auto",
        faults=None,
        obs=None,
    ) -> None:
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self._rack = rack
        self._dt = check_duration(dt_s, "dt_s")
        self._decimation = record_decimation
        self._violation_tolerance = violation_tolerance
        self._degradation_window = degradation_window
        self._backend = backend
        self._faults = faults
        self._obs = resolve_obs(obs)

    @property
    def rack(self) -> Rack:
        """The rack being simulated."""
        return self._rack

    @property
    def backend(self) -> str:
        """The configured execution backend."""
        return self._backend

    @property
    def obs(self):
        """The run's resolved collector (None when uninstrumented).

        A :class:`~repro.obs.live.LiveObsServer` attaches here to serve
        ``/metrics`` while the run executes.
        """
        return self._obs

    def _trackers(self, n: int) -> list:
        from repro.workload.performance import DeadlineTracker

        return [
            DeadlineTracker(
                tolerance=self._violation_tolerance,
                window=self._degradation_window,
            )
            for _ in range(n)
        ]

    def _injector(self):
        """Fresh per-run fault machinery (None without a schedule)."""
        if self._faults is None:
            return None
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            self._faults, [slot.plant for slot in self._rack]
        )
        injector.require_no_room_faults()
        return injector

    def run(self, duration_s: float, label: str = "fleet") -> FleetResult:
        """Simulate the whole rack for ``duration_s`` seconds."""
        check_duration(duration_s, "duration_s")
        n_steps = int(round(duration_s / self._dt))
        if n_steps < 1:
            raise SimulationError(f"duration {duration_s} shorter than one step")

        injector = self._injector()
        obs = self._obs
        if obs is not None:
            from repro.obs.monitor import arm_run_monitor

            obs.label = label
            obs.arm_stream(next(iter(self._rack)).plant.time_s)
            if injector is not None:
                injector.bind_obs(obs)
            arm_run_monitor(
                obs,
                plants=[slot.plant for slot in self._rack],
                controllers=[slot.controller for slot in self._rack],
                start_s=next(iter(self._rack)).plant.time_s,
                label=label,
                sensors=[slot.sensor for slot in self._rack],
                schedule=self._faults,
            )
        fallback_reason = None
        if self._backend in ("auto", "vectorized", "fused"):
            fallback_reason = batch_unsupported_reason(
                [slot.plant for slot in self._rack],
                [slot.sensor for slot in self._rack],
                coupled=True,
            )
            if fallback_reason is None:
                return self._run_vectorized(n_steps, label, injector)
        extras = {"backend": "scalar"}
        if self._backend in ("vectorized", "fused"):
            extras["fallback_reason"] = fallback_reason
        return self._run_scalar(n_steps, label, extras, injector)

    def _fault_extras(self, extras: dict, injector, n_steps: int) -> dict:
        from repro.faults.injector import attach_fault_summary

        return attach_fault_summary(extras, injector, n_steps * self._dt)

    def _obs_extras(self, extras: dict) -> dict:
        """Finalize the run's collector and attach ``extras["obs"]``."""
        obs = self._obs
        if obs is not None:
            end = next(iter(self._rack)).plant.time_s
            obs.finish_run(end)
            extras["obs"] = obs.summary()
        return extras

    def _run_vectorized(
        self, n_steps: int, label: str, injector=None
    ) -> FleetResult:
        rack = self._rack
        lane, stepper_cls = batch_stepper(self._backend)
        stepper = stepper_cls(
            plants=[slot.plant for slot in rack],
            sensors=[slot.sensor for slot in rack],
            workloads=[slot.workload for slot in rack],
            controllers=[slot.controller for slot in rack],
            n_steps=n_steps,
            dt_s=self._dt,
            record_decimation=self._decimation,
            trackers=self._trackers(rack.n_servers),
            coupling=rack.coupling,
            exhaust=rack.exhaust,
            injector=injector,
            obs=self._obs,
        )
        if self._obs is not None:
            with self._obs.span("run"):
                stepper.run()
        else:
            stepper.run()
        results = stepper.finish(
            [f"{label}/{slot.name}" for slot in rack]
        )
        extras = {"backend": lane}
        fallbacks = stepper.controller_fallbacks
        if not fallbacks:
            extras["controller_backend"] = "vectorized"
        elif stepper.n_vectorized_controllers == 0:
            extras["controller_backend"] = "scalar"
        else:
            extras["controller_backend"] = "mixed"
        if fallbacks:
            extras["controller_fallbacks"] = {
                rack.slots[i].name: reason for i, reason in fallbacks.items()
            }
        return FleetResult(
            server_results=tuple(results),
            mean_inlet_c=stepper.mean_inlet_c(),
            label=label,
            extras=self._obs_extras(
                self._fault_extras(extras, injector, n_steps)
            ),
        )

    def _run_scalar(
        self, n_steps: int, label: str, extras: dict, injector=None
    ) -> FleetResult:
        trackers = self._trackers(self._rack.n_servers)
        steppers = [
            ServerStepper(
                slot.plant,
                slot.sensor,
                slot.workload,
                slot.controller,
                n_steps=n_steps,
                dt_s=self._dt,
                record_decimation=self._decimation,
                tracker=tracker,
                injector=injector,
                server_index=index,
                obs=self._obs,
                # All steppers share one per-step due instant; only the
                # last commits the monitor sample, so rack-scope checks
                # and the cadence advance run once per step - the same
                # append order the batch lanes produce.
                monitor_commit=(index == self._rack.n_servers - 1),
            )
            for index, (slot, tracker) in enumerate(zip(self._rack, trackers))
        ]

        obs = self._obs
        inlet_sums = np.zeros(self._rack.n_servers)
        with obs.span("run") if obs is not None else nullcontext():
            for _ in range(n_steps):
                # Exhaust produced up to step k sets the inlets for
                # step k+1.
                if obs is not None:
                    t0 = time.perf_counter()
                    self._rack.update_inlets()
                    obs.phase("coupling", t0, time.perf_counter())
                else:
                    self._rack.update_inlets()
                for stepper in steppers:
                    stepper.step()
                inlet_sums += self._rack.inlet_temperatures_c()

        results = tuple(
            stepper.finish(label=f"{label}/{slot.name}")
            for slot, stepper in zip(self._rack, steppers)
        )
        return FleetResult(
            server_results=results,
            mean_inlet_c=tuple(float(s) for s in inlet_sums / n_steps),
            label=label,
            extras=self._obs_extras(
                self._fault_extras(extras, injector, n_steps)
            ),
        )
