"""Lockstep room simulation driver.

:class:`RoomSimulator` advances every server of every rack in a
:class:`~repro.room.room.Room` through the same time grid, mirroring
:class:`~repro.fleet.simulator.FleetSimulator` one level up:

* ``"vectorized"`` - all racks stack into **one** ``(R*B,)``-wide
  :class:`~repro.sim.batch.BatchStepper` (via
  :mod:`repro.room.stack`), with the room's
  :class:`~repro.room.coupling.SparseCoupling` applied as a block-sparse
  mat-vec once per ``dt``.  This is the room's native execution model:
  the per-``dt`` Python dispatch is paid once for the whole room
  instead of once per rack.
* ``"fused"`` - the same ``(R*B,)`` stacking executed by the
  window-fused :class:`~repro.sim.fused.FusedStepper`, which advances
  whole control windows per dispatch (tier-B equivalence, see
  ``docs/backends.md``).
* ``"scalar"`` - one :class:`~repro.sim.engine.ServerStepper` per
  server with :meth:`Room.update_inlets` once per step; the bit-for-bit
  reference the stacked path is tested against.

``backend="auto"`` (the default) stacks whenever the room's plants and
sensors support batching, falling back to scalar (with the reason
recorded in ``RoomResult.extras``) otherwise.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.errors import SimulationError
from repro.fleet.result import FleetResult
from repro.obs.collector import resolve_obs
from repro.room.result import RoomResult
from repro.room.room import Room
from repro.room.stack import (
    split_stacked_results,
    stacked_stepper,
    stacked_unsupported_reason,
)
from repro.sim.backends import BACKENDS, batch_stepper
from repro.sim.engine import ServerStepper
from repro.units import check_duration
from repro.workload.performance import DeadlineTracker


class RoomSimulator:
    """Step a whole room in lockstep with sparse recirculation coupling.

    Parameters mirror :class:`~repro.fleet.simulator.FleetSimulator`,
    plus ``inlet_limit_c`` feeding the room result's supply-margin
    metric (default: the room's own limit, which scenario builders take
    from :attr:`~repro.config.RoomConfig.inlet_limit_c`).
    """

    def __init__(
        self,
        room: Room,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        violation_tolerance: float = 0.01,
        degradation_window: int = 10,
        backend: str = "auto",
        inlet_limit_c: float | None = None,
        faults=None,
        obs=None,
    ) -> None:
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self._room = room
        self._dt = check_duration(dt_s, "dt_s")
        self._decimation = record_decimation
        self._violation_tolerance = violation_tolerance
        self._degradation_window = degradation_window
        self._backend = backend
        self._inlet_limit_c = (
            room.inlet_limit_c if inlet_limit_c is None else inlet_limit_c
        )
        self._faults = faults
        self._obs = resolve_obs(obs)

    @property
    def room(self) -> Room:
        """The room being simulated."""
        return self._room

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

    def _injector(self):
        """Fresh per-run fault machinery bound to the room (or None)."""
        if self._faults is None:
            return None
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            self._faults, [slot.plant for slot in self._room]
        )
        injector.bind_coupling(self._room.coupling, len(self._room.cracs))
        return injector

    def run(self, duration_s: float, label: str = "room") -> RoomResult:
        """Simulate the whole room for ``duration_s`` seconds."""
        check_duration(duration_s, "duration_s")
        n_steps = int(round(duration_s / self._dt))
        if n_steps < 1:
            raise SimulationError(f"duration {duration_s} shorter than one step")

        # Arm the coupling's dynamic CRAC supply filter (no-op when
        # static) so both lanes step the same RC states from zero.
        coupling = self._room.coupling
        if getattr(coupling, "is_dynamic", False):
            coupling.prepare_run(self._dt)
        injector = self._injector()
        obs = self._obs
        if obs is not None:
            from repro.obs.monitor import arm_run_monitor

            obs.label = label
            obs.arm_stream(self._room.slots[0].plant.time_s)
            if injector is not None:
                injector.bind_obs(obs)
            arm_run_monitor(
                obs,
                plants=[slot.plant for slot in self._room],
                controllers=[slot.controller for slot in self._room],
                start_s=self._room.slots[0].plant.time_s,
                label=label,
                sensors=[slot.sensor for slot in self._room],
                schedule=self._faults,
                room=self._room,
                inlet_limit_c=self._inlet_limit_c,
            )

        fallback_reason = None
        if self._backend in ("auto", "vectorized", "fused"):
            fallback_reason = stacked_unsupported_reason(
                self._room.racks, self._room.coupling
            )
            if fallback_reason is None:
                return self._run_vectorized(n_steps, label, injector)
        extras = {"backend": "scalar"}
        if fallback_reason is not None:
            extras["fallback_reason"] = fallback_reason
        return self._run_scalar(n_steps, label, extras, injector)

    # ------------------------------------------------------------------

    def _rack_labels(self, label: str) -> list[str]:
        return [f"{label}/rack{r:02d}" for r in range(self._room.n_racks)]

    def _package(
        self,
        rack_results: list[FleetResult],
        label: str,
        extras: dict,
    ) -> RoomResult:
        room = self._room
        crac_energy = 0.0
        for crac in room.cracs:
            heat_j = sum(
                rack_results[r].metrics.total_energy_j for r in crac.racks
            )
            crac_energy += crac.energy_j(heat_j)
        extras = dict(extras)
        extras.setdefault("n_racks", room.n_racks)
        extras.setdefault("stacked_width", room.n_servers)
        extras.setdefault("containment", room.topology.containment)
        return RoomResult(
            rack_results=tuple(rack_results),
            supply_c=room.supply_temperatures_c(),
            crac_energy_j=crac_energy,
            inlet_limit_c=self._inlet_limit_c,
            label=label,
            extras=extras,
        )

    def _fault_extras(self, extras: dict, injector, n_steps: int) -> dict:
        from repro.faults.injector import attach_fault_summary

        return attach_fault_summary(extras, injector, n_steps * self._dt)

    def _obs_extras(self, extras: dict) -> dict:
        """Finalize the run's collector and attach ``extras["obs"]``."""
        obs = self._obs
        if obs is not None:
            obs.finish_run(self._room.slots[0].plant.time_s)
            extras["obs"] = obs.summary()
        return extras

    def _run_vectorized(
        self, n_steps: int, label: str, injector=None
    ) -> RoomResult:
        room = self._room
        lane, _ = batch_stepper(self._backend)
        stepper = stacked_stepper(
            room.racks,
            n_steps=n_steps,
            dt_s=self._dt,
            record_decimation=self._decimation,
            violation_tolerance=self._violation_tolerance,
            degradation_window=self._degradation_window,
            coupling=room.coupling,
            # run() already consulted stacked_unsupported_reason.
            precheck=False,
            injector=injector,
            obs=self._obs,
            backend=lane,
        )
        if self._obs is not None:
            with self._obs.span("run"):
                stepper.run()
        else:
            stepper.run()
        rack_results = split_stacked_results(
            stepper, room.racks, self._rack_labels(label), backend=lane
        )
        extras = {"backend": lane}
        fallbacks = stepper.controller_fallbacks
        if not fallbacks:
            extras["controller_backend"] = "vectorized"
        elif stepper.n_vectorized_controllers == 0:
            extras["controller_backend"] = "scalar"
        else:
            extras["controller_backend"] = "mixed"
        return self._package(
            rack_results,
            label,
            self._obs_extras(self._fault_extras(extras, injector, n_steps)),
        )

    def _run_scalar(
        self, n_steps: int, label: str, extras: dict, injector=None
    ) -> RoomResult:
        room = self._room
        trackers = [
            DeadlineTracker(
                tolerance=self._violation_tolerance,
                window=self._degradation_window,
            )
            for _ in range(room.n_servers)
        ]
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
                # Only the last stepper commits the monitor sample (see
                # FleetSimulator._run_scalar): rack-scope checks and the
                # cadence advance must run once per step.
                monitor_commit=(index == room.n_servers - 1),
            )
            for index, (slot, tracker) in enumerate(zip(room, trackers))
        ]

        obs = self._obs
        start = room.slots[0].plant.time_s
        inlet_sums = np.zeros(room.n_servers)
        with obs.span("run") if obs is not None else nullcontext():
            for k in range(n_steps):
                # Exhaust produced up to step k sets the inlets for
                # step k+1.
                if obs is not None:
                    t0 = time.perf_counter()
                if injector is not None:
                    # Same instant the batch lane polls: the step time
                    # the offsets computed below will be in force for.
                    injector.poll_crac(start + (k + 1) * self._dt)
                room.update_inlets()
                if obs is not None:
                    obs.phase("coupling", t0, time.perf_counter())
                for stepper in steppers:
                    stepper.step()
                inlet_sums += room.inlet_temperatures_c()
        mean_inlets = inlet_sums / n_steps

        rack_results = []
        labels = self._rack_labels(label)
        start = 0
        for rack, rack_label in zip(room.racks, labels):
            stop = start + rack.n_servers
            server_results = tuple(
                stepper.finish(label=f"{rack_label}/{slot.name}")
                for slot, stepper in zip(rack, steppers[start:stop])
            )
            rack_results.append(
                FleetResult(
                    server_results=server_results,
                    mean_inlet_c=tuple(
                        float(v) for v in mean_inlets[start:stop]
                    ),
                    label=rack_label,
                    extras=dict(extras),
                )
            )
            start = stop
        return self._package(
            rack_results,
            label,
            self._obs_extras(self._fault_extras(extras, injector, n_steps)),
        )
