"""Stacked-batch execution: many same-shape racks as one ``(R*B,)`` batch.

The vectorized backend's throughput comes from amortizing the per-``dt``
Python dispatch over the batch width, so R racks of B servers run faster
as **one** ``(R*B,)``-wide :class:`~repro.sim.batch.BatchStepper` than
as R separate ``(B,)`` runs - the whole point of the room subsystem's
execution model, and equally useful for campaigns that happen to hold
several same-shape rack tasks.

:func:`run_stacked_racks` performs that stacking for *independent* racks
(block-diagonal coupling, each rack only recirculating into itself), in
which case every per-rack result is bit-for-bit identical to running
that rack alone through ``FleetSimulator(backend="vectorized")``;
:class:`~repro.room.simulator.RoomSimulator` passes a room-wide
:class:`~repro.room.coupling.SparseCoupling` instead to add aisle and
CRAC cross-terms on top.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.room.coupling import SparseCoupling
from repro.sim.backends import batch_stepper
from repro.sim.batch import BatchStepper, batch_unsupported_reason
from repro.units import check_duration
from repro.workload.performance import DeadlineTracker


def stacked_unsupported_reason(
    racks: Sequence[Rack], coupling: SparseCoupling | None = None
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
        sizes = tuple(rack.n_servers for rack in racks)
        if coupling.block_sizes != sizes:
            return (
                f"coupling blocks sized {coupling.block_sizes} do not match "
                f"racks sized {sizes}"
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
    record_decimation: int = 1,
    violation_tolerance: float = 0.01,
    degradation_window: int = 10,
    coupling: SparseCoupling | None = None,
    precheck: bool = True,
    injector=None,
    obs=None,
    backend: str = "vectorized",
) -> BatchStepper:
    """Build the ``(R*B,)`` batch stepper for a stack of racks.

    ``backend`` names the batch lane (``"vectorized"`` or ``"fused"``,
    resolved by :func:`repro.sim.backends.batch_stepper`).
    Raises :class:`~repro.errors.SimulationError` when the stack cannot
    batch; callers wanting a silent fallback should consult
    :func:`stacked_unsupported_reason` first - and may then pass
    ``precheck=False`` to skip revalidating the same racks.
    """
    if precheck:
        reason = stacked_unsupported_reason(racks, coupling)
        if reason is not None:
            raise SimulationError(f"stacked batch unsupported: {reason}")
    if coupling is None:
        coupling = SparseCoupling.from_racks(racks)
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
        trackers=[
            DeadlineTracker(
                tolerance=violation_tolerance, window=degradation_window
            )
            for _ in slots
        ],
        coupling=coupling,
        exhaust=racks[0].exhaust,
        injector=injector,
        obs=obs,
    )


def split_stacked_results(
    stepper: BatchStepper,
    racks: Sequence[Rack],
    labels: Sequence[str],
    backend: str = "vectorized",
) -> list[FleetResult]:
    """Package a finished stacked run into one :class:`FleetResult` per rack.

    Each result carries the provenance ``FleetSimulator`` would record
    (backend, controller backend, per-server fallbacks) plus a
    ``"stacked"`` entry describing the stack the rack rode in.
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
        }
        if not rack_fallbacks:
            extras["controller_backend"] = "vectorized"
        elif len(rack_fallbacks) == rack.n_servers:
            extras["controller_backend"] = "scalar"
        else:
            extras["controller_backend"] = "mixed"
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


def run_stacked_racks(
    racks: Sequence[Rack],
    duration_s: float,
    dt_s: float = 0.1,
    record_decimation: int = 1,
    violation_tolerance: float = 0.01,
    degradation_window: int = 10,
    labels: Sequence[str] | None = None,
    coupling: SparseCoupling | None = None,
    precheck: bool = True,
    backend: str = "vectorized",
) -> list[FleetResult]:
    """Run R racks as one stacked ``(R*B,)`` vectorized batch.

    With the default block-diagonal coupling the racks stay mutually
    independent and every per-rack result is bit-for-bit identical to a
    standalone ``FleetSimulator(backend="vectorized")`` run of that
    rack; passing a room-wide operator couples them.  ``precheck=False``
    skips revalidation for callers that already consulted
    :func:`stacked_unsupported_reason` on these racks.
    """
    check_duration(duration_s, "duration_s")
    n_steps = int(round(duration_s / dt_s))
    if n_steps < 1:
        raise SimulationError(f"duration {duration_s} shorter than one step")
    if labels is None:
        labels = [f"rack{r:02d}" for r in range(len(racks))]
    stepper = stacked_stepper(
        racks,
        n_steps=n_steps,
        dt_s=dt_s,
        record_decimation=record_decimation,
        violation_tolerance=violation_tolerance,
        degradation_window=degradation_window,
        coupling=coupling,
        precheck=precheck,
        backend=backend,
    )
    stepper.run()
    return split_stacked_results(stepper, racks, labels, backend=backend)
