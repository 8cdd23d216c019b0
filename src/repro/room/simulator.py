"""The lockstep driver behind racks, rooms and stacked campaign chunks.

:class:`_LockstepDriver` advances every server of a list of racks
through the same time grid, coupled by one
:class:`~repro.fleet.coupling.CouplingOperator` over the concatenated
server list.  It owns everything the entry points share: the backend
check and scalar fallback, coupling arming, fault injection, the obs
stream and health monitor, the lanes themselves, and the fault and obs
extras.  The lanes are:

* ``"vectorized"`` - all racks stack into **one** ``(R*B,)``
  :class:`~repro.sim.batch.BatchStepper` (via :mod:`repro.room.stack`),
  with the coupling applied once per ``dt``: the per-``dt`` Python
  dispatch is paid once for the whole stack instead of once per rack.
* ``"fused"`` - the same stacking advanced a control window per
  dispatch (tier-B equivalence, see ``docs/backends.md``).
* ``"scalar"`` - one :class:`~repro.sim.engine.ServerStepper` per
  server with one inlet update per step; the bit-for-bit reference the
  stacked lanes are tested against.

``backend="auto"`` (the default) stacks on the vectorized lane whenever
the racks support batching and otherwise falls back to scalar; every
fallback from an array lane records its reason in ``extras``.

The entry points only package the run:
:class:`~repro.fleet.simulator.FleetSimulator` drives one rack with its
own operator, :class:`RoomSimulator` a :class:`~repro.room.room.Room`
with its sparse coupling and CRACs, and :func:`run_stacked_racks` many
independent racks at once.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.fleet.coupling import CouplingOperator
from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.obs.collector import resolve_obs
from repro.room.coupling import SparseCoupling
from repro.room.result import RoomResult
from repro.room.stack import (
    controller_backend,
    split_stacked_results,
    stacked_stepper,
    stacked_unsupported_reason,
)
from repro.sim.backends import BACKENDS, batch_stepper
from repro.sim.engine import ServerStepper, _validate_timing
from repro.units import check_duration
from repro.workload.performance import DeadlineTracker

if TYPE_CHECKING:
    from repro.room.room import Room


class _LockstepDriver:
    """Step racks in lockstep, coupled by one operator over all servers.

    ``room`` (optional) adds what only rooms have: CRAC faults bound to
    the coupling and supply-margin checks in the health monitor.
    ``strict`` raises :class:`~repro.errors.SimulationError` where the
    racks cannot stack, instead of falling back to scalar.
    """

    def __init__(
        self,
        racks: Sequence[Rack],
        coupling: CouplingOperator,
        room: Room | None = None,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        violation_tolerance: float = 0.01,
        degradation_window: int = 10,
        backend: str = "auto",
        faults=None,
        obs=None,
        inlet_limit_c: float | None = None,
        strict: bool = False,
    ) -> None:
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self._racks = tuple(racks)
        self._slots = tuple(slot for rack in self._racks for slot in rack)
        self._dt = _validate_timing(
            dt_s,
            min(slot.controller.control.cpu_interval_s for slot in self._slots),
            record_decimation,
        )
        self._coupling = coupling
        self._room = room
        self._decimation = record_decimation
        self._violation_tolerance = violation_tolerance
        self._degradation_window = degradation_window
        self._backend = backend
        self._faults = faults
        self._obs = resolve_obs(obs)
        self._inlet_limit_c = inlet_limit_c
        self._strict = strict

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

    def _run_racks(
        self, duration_s: float, label: str, rack_labels: Sequence[str]
    ) -> tuple[list[FleetResult], dict]:
        """Run once; returns one result per rack and the run's extras."""
        check_duration(duration_s, "duration_s")
        n_steps = int(round(duration_s / self._dt))
        if n_steps < 1:
            raise SimulationError(f"duration {duration_s} shorter than one step")
        reason = None
        if self._backend != "scalar":
            reason = stacked_unsupported_reason(self._racks, self._coupling)
            if reason is not None and self._strict:
                raise SimulationError(f"stacked batch unsupported: {reason}")

        # Arm the coupling's per-run state (the dynamic CRAC supply
        # filter) so every lane steps the same RC states from zero.
        self._coupling.prepare_run(self._dt)
        injector = self._injector()
        obs = self._obs
        start_s = self._slots[0].plant.time_s
        if obs is not None:
            from repro.obs.monitor import arm_run_monitor

            obs.label = label
            obs.arm_stream(start_s)
            if injector is not None:
                injector.bind_obs(obs)
            arm_run_monitor(
                obs,
                plants=[slot.plant for slot in self._slots],
                controllers=[slot.controller for slot in self._slots],
                start_s=start_s,
                label=label,
                sensors=[slot.sensor for slot in self._slots],
                schedule=self._faults,
                room=self._room,
                inlet_limit_c=self._inlet_limit_c,
            )

        trackers = [
            DeadlineTracker(
                tolerance=self._violation_tolerance,
                window=self._degradation_window,
            )
            for _ in self._slots
        ]
        run_span = obs.span("run") if obs is not None else nullcontext()
        if self._backend == "scalar" or reason is not None:
            results, extras = self._run_scalar(
                n_steps, rack_labels, trackers, injector, run_span, reason
            )
        else:
            results, extras = self._run_batch(
                n_steps, rack_labels, trackers, injector, run_span
            )

        from repro.faults.injector import attach_fault_summary

        attach_fault_summary(extras, injector, n_steps * self._dt)
        if obs is not None:
            obs.finish_run(self._slots[0].plant.time_s)
            extras["obs"] = obs.summary()
        return results, extras

    def _injector(self):
        """Fresh per-run fault machinery (None without a schedule)."""
        if self._faults is None:
            return None
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(self._faults, [slot.plant for slot in self._slots])
        if self._room is None:
            injector.require_no_room_faults()
        else:
            injector.bind_coupling(self._coupling, len(self._room.cracs))
        return injector

    def _run_batch(self, n_steps, rack_labels, trackers, injector, run_span):
        lane, _ = batch_stepper(self._backend)
        stepper = stacked_stepper(
            self._racks,
            n_steps=n_steps,
            dt_s=self._dt,
            record_decimation=self._decimation,
            trackers=trackers,
            coupling=self._coupling,
            injector=injector,
            obs=self._obs,
            backend=lane,
        )
        with run_span:
            stepper.run()
        results = split_stacked_results(
            stepper, self._racks, rack_labels, backend=lane
        )
        extras = {
            "backend": lane,
            "controller_backend": controller_backend(
                len(stepper.controller_fallbacks), stepper.n_servers
            ),
        }
        return results, extras

    def _run_scalar(
        self, n_steps, rack_labels, trackers, injector, run_span, reason
    ):
        obs = self._obs
        n = len(self._slots)
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
                obs=obs,
                # All steppers share one per-step due instant; only the
                # last closes the step: it commits the monitor sample, so
                # rack-scope checks and the cadence advance run once per
                # step, and ticks the collector once for all n servers,
                # so snapshots land after the whole step, as on the
                # batch lanes.
                lockstep_width=n if index == n - 1 else 0,
            )
            for index, (slot, tracker) in enumerate(zip(self._slots, trackers))
        ]
        # Rack.update_inlets is the one home of inlet propagation: a room
        # delegates to a flat rack over its servers, and racks without a
        # room get one over theirs.
        flat = self._room
        if flat is None:
            flat = Rack(
                self._slots,
                coupling=self._coupling,
                exhaust=self._racks[0].exhaust,
            )
        start_s = self._slots[0].plant.time_s
        inlet_sums = np.zeros(n)
        with run_span:
            for k in range(n_steps):
                # Exhaust produced up to step k sets the inlets for
                # step k+1.
                if obs is not None:
                    t0 = time.perf_counter()
                if injector is not None:
                    # Same instant the batch lanes poll: the step time
                    # the offsets computed below will be in force for.
                    injector.poll_crac(start_s + (k + 1) * self._dt)
                flat.update_inlets()
                if obs is not None:
                    obs.phase("coupling", t0, time.perf_counter())
                for stepper in steppers:
                    stepper.step()
                inlet_sums += flat.inlet_temperatures_c()
        mean_inlets = inlet_sums / n_steps

        extras = {"backend": "scalar"}
        if reason is not None:
            extras["fallback_reason"] = reason
        results = []
        start = 0
        for rack, rack_label in zip(self._racks, rack_labels):
            stop = start + rack.n_servers
            results.append(
                FleetResult(
                    server_results=tuple(
                        stepper.finish(label=f"{rack_label}/{slot.name}")
                        for slot, stepper in zip(rack, steppers[start:stop])
                    ),
                    mean_inlet_c=tuple(float(v) for v in mean_inlets[start:stop]),
                    label=rack_label,
                    extras=dict(extras),
                )
            )
            start = stop
        return results, extras


class RoomSimulator(_LockstepDriver):
    """Step a whole room in lockstep with sparse recirculation coupling.

    Parameters mirror :class:`~repro.fleet.simulator.FleetSimulator`,
    plus ``inlet_limit_c`` feeding the room result's supply-margin
    metric (default: the room's own limit, which scenario builders take
    from :attr:`~repro.config.RoomConfig.inlet_limit_c`).  CRAC faults
    (``crac_brownout``) are accepted here only.
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
        super().__init__(
            room.racks,
            room.coupling,
            room=room,
            dt_s=dt_s,
            record_decimation=record_decimation,
            violation_tolerance=violation_tolerance,
            degradation_window=degradation_window,
            backend=backend,
            faults=faults,
            obs=obs,
            inlet_limit_c=(
                room.inlet_limit_c if inlet_limit_c is None else inlet_limit_c
            ),
        )

    @property
    def room(self) -> Room:
        """The room being simulated."""
        return self._room

    def run(self, duration_s: float, label: str = "room") -> RoomResult:
        """Simulate the whole room for ``duration_s`` seconds."""
        room = self._room
        rack_results, extras = self._run_racks(
            duration_s,
            label,
            [f"{label}/rack{r:02d}" for r in range(room.n_racks)],
        )
        crac_energy = 0.0
        for crac in room.cracs:
            heat_j = sum(
                rack_results[r].metrics.total_energy_j for r in crac.racks
            )
            crac_energy += crac.energy_j(heat_j)
        extras["n_racks"] = room.n_racks
        extras["stacked_width"] = room.n_servers
        extras["containment"] = room.topology.containment
        return RoomResult(
            rack_results=tuple(rack_results),
            supply_c=room.supply_temperatures_c(),
            crac_energy_j=crac_energy,
            inlet_limit_c=self._inlet_limit_c,
            label=label,
            extras=extras,
        )


def run_stacked_racks(
    racks: Sequence[Rack],
    duration_s: float,
    dt_s: float = 0.1,
    record_decimation: int = 1,
    violation_tolerance: float = 0.01,
    degradation_window: int = 10,
    labels: Sequence[str] | None = None,
    coupling: CouplingOperator | None = None,
    backend: str = "vectorized",
) -> list[FleetResult]:
    """Run R racks as one stacked ``(R*B,)`` batch on an array lane.

    With the default block-diagonal coupling the racks stay mutually
    independent and every per-rack result is bit-for-bit identical to a
    standalone ``FleetSimulator`` run of that rack on the same lane;
    passing a room-wide operator couples them.  Raises
    :class:`~repro.errors.SimulationError` when the racks cannot stack
    (see :func:`~repro.room.stack.stacked_unsupported_reason`).
    """
    lane, _ = batch_stepper(backend)
    if not racks:
        raise SimulationError("stacked batch unsupported: no racks")
    if labels is None:
        labels = [f"rack{r:02d}" for r in range(len(racks))]
    if coupling is None:
        coupling = SparseCoupling.from_racks(racks)
    driver = _LockstepDriver(
        racks,
        coupling,
        dt_s=dt_s,
        record_decimation=record_decimation,
        violation_tolerance=violation_tolerance,
        degradation_window=degradation_window,
        backend=lane,
        strict=True,
    )
    results, _ = driver._run_racks(duration_s, "stack", labels)
    return results
