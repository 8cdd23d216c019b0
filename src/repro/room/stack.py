"""Stacked-batch building blocks: many same-shape racks as one ``(R*B,)`` batch.

The vectorized backend's throughput comes from amortizing the per-``dt``
Python dispatch over the batch width, so R racks of B servers run faster
as **one** ``(R*B,)``-wide :class:`~repro.sim.batch.BatchStepper` than
as R separate ``(B,)`` runs - the room subsystem's execution model, and
equally useful for campaigns that hold several same-shape rack tasks.

The lockstep driver in :mod:`repro.room.simulator` - behind
``FleetSimulator``, ``RoomSimulator`` and ``run_stacked_racks`` alike -
vets a stack with :func:`stacked_unsupported_reason`, builds its stepper
with :func:`stacked_stepper` and packages the finished run with
:func:`split_stacked_results`.  A single rack is a stack of one.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.fleet.coupling import CouplingOperator
from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.sim.backends import batch_stepper
from repro.sim.batch import BatchStepper, batch_unsupported_reason


def stacked_unsupported_reason(
    racks: Sequence[Rack], coupling: CouplingOperator | None = None
) -> str | None:
    """Why these racks cannot run as one stacked batch (None = they can)."""
    if not racks:
        return "no racks"
    exhaust = racks[0].exhaust
    for r, rack in enumerate(racks[1:], start=1):
        if not exhaust.same_parameters(rack.exhaust):
            return (
                f"rack {r}'s exhaust parameters differ from rack 0's; the "
                "stacked batch shares one exhaust model"
            )
    if coupling is not None:
        n = sum(rack.n_servers for rack in racks)
        if coupling.n_servers != n:
            return (
                f"coupling is for {coupling.n_servers} servers, the racks "
                f"hold {n}"
            )
    return batch_unsupported_reason(
        [slot.plant for rack in racks for slot in rack],
        [slot.sensor for rack in racks for slot in rack],
        coupled=True,
    )


def stacked_stepper(
    racks: Sequence[Rack],
    n_steps: int,
    dt_s: float,
    record_decimation: int,
    trackers: Sequence,
    coupling: CouplingOperator,
    injector=None,
    obs=None,
    backend: str = "vectorized",
) -> BatchStepper:
    """Build the ``(R*B,)`` batch stepper for a stack of racks.

    ``backend`` names the batch lane (``"vectorized"`` or ``"fused"``,
    resolved by :func:`repro.sim.backends.batch_stepper`); ``coupling``
    acts on the concatenated server list and ``trackers`` holds one
    :class:`~repro.workload.performance.DeadlineTracker` per server.
    The caller vets the stack with :func:`stacked_unsupported_reason`
    first.
    """
    slots = [slot for rack in racks for slot in rack]
    _, stepper_cls = batch_stepper(backend)
    return stepper_cls(
        plants=[slot.plant for slot in slots],
        sensors=[slot.sensor for slot in slots],
        workloads=[slot.workload for slot in slots],
        controllers=[slot.controller for slot in slots],
        n_steps=n_steps,
        dt_s=dt_s,
        record_decimation=record_decimation,
        trackers=trackers,
        coupling=coupling,
        exhaust=racks[0].exhaust,
        injector=injector,
        obs=obs,
    )


def controller_backend(n_fallbacks: int, n_servers: int) -> str:
    """How a run's DTMs stepped: ``"vectorized"``, ``"mixed"`` or ``"scalar"``."""
    if not n_fallbacks:
        return "vectorized"
    return "scalar" if n_fallbacks == n_servers else "mixed"


def split_stacked_results(
    stepper: BatchStepper,
    racks: Sequence[Rack],
    labels: Sequence[str],
    backend: str = "vectorized",
) -> list[FleetResult]:
    """Package a finished stacked run into one :class:`FleetResult` per rack.

    Each result carries its rack's provenance (backend, controller
    backend, per-server fallbacks) plus a ``"stacked"`` entry describing
    the stack the rack rode in.
    """
    if len(labels) != len(racks):
        raise SimulationError("need one label per rack")
    server_labels = [
        f"{label}/{slot.name}" for label, rack in zip(labels, racks) for slot in rack
    ]
    server_results = stepper.finish(server_labels)
    mean_inlets = stepper.mean_inlet_c()
    fallbacks = stepper.controller_fallbacks

    results = []
    start = 0
    for position, (rack, label) in enumerate(zip(racks, labels)):
        stop = start + rack.n_servers
        rack_fallbacks = {
            rack.slots[i - start].name: reason
            for i, reason in fallbacks.items()
            if start <= i < stop
        }
        extras = {
            "backend": backend,
            "stacked": {
                "n_racks": len(racks),
                "width": stepper.n_servers,
                "position": position,
            },
            "controller_backend": controller_backend(
                len(rack_fallbacks), rack.n_servers
            ),
        }
        if rack_fallbacks:
            extras["controller_fallbacks"] = rack_fallbacks
        results.append(
            FleetResult(
                server_results=tuple(server_results[start:stop]),
                mean_inlet_c=mean_inlets[start:stop],
                label=label,
                extras=extras,
            )
        )
        start = stop
    return results
