"""Lockstep rack simulation.

:class:`FleetSimulator` advances every server in a
:class:`~repro.fleet.rack.Rack` through the same time grid on the
lockstep driver rooms use (:mod:`repro.room.simulator`), as a stack of
one rack coupled by the rack's own operator:

* ``"scalar"`` - one :class:`~repro.sim.engine.ServerStepper` per slot,
  the exact loop body single-server runs use.  Once per step the rack
  coupling turns the previous step's exhaust states into fresh inlet
  offsets, then all steppers advance by ``dt``.
* ``"vectorized"`` - the :class:`~repro.sim.batch.BatchStepper` array
  backend: all servers advance as ``(B,)`` NumPy operations per ``dt``.
  Results are bit-for-bit identical to the scalar backend for every
  rack built from the stock library classes; racks the batch backend
  cannot represent (time-varying ambients, custom plant/sensor
  subclasses, pre-used sensors) fall back to the scalar path
  automatically, recording why.
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

from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.room.simulator import _LockstepDriver


class FleetSimulator(_LockstepDriver):
    """Step all servers of a rack in lockstep with inlet coupling.

    Parameters
    ----------
    rack:
        The coupled server slots.
    dt_s:
        Shared integration step for every server.
    record_decimation:
        Telemetry decimation (a positive integer), applied uniformly so
        per-server traces stay aligned for fleet metrics.
    violation_tolerance, degradation_window:
        Per-server :class:`~repro.workload.performance.DeadlineTracker`
        parameters (same meaning as in
        :class:`~repro.sim.engine.Simulator`).
    backend:
        ``"auto"`` (vectorized when the rack supports it), ``"scalar"``,
        ``"vectorized"``, or ``"fused"`` (the array backends fall back
        to scalar - with the reason in the result's ``extras`` - when
        the rack cannot batch).
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
        super().__init__(
            [rack],
            rack.coupling,
            dt_s=dt_s,
            record_decimation=record_decimation,
            violation_tolerance=violation_tolerance,
            degradation_window=degradation_window,
            backend=backend,
            faults=faults,
            obs=obs,
        )

    @property
    def rack(self) -> Rack:
        """The rack being simulated."""
        return self._racks[0]

    def run(self, duration_s: float, label: str = "fleet") -> FleetResult:
        """Simulate the whole rack for ``duration_s`` seconds."""
        (result,), extras = self._run_racks(duration_s, label, [label])
        # A rack run alone: the run's extras replace the stack position.
        result.extras.pop("stacked", None)
        result.extras.update(extras)
        return result
