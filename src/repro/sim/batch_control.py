"""Vectorized DTM backend: B controllers advanced as ``(B,)`` array ops.

:class:`BatchGlobalController` advances the stock controller composition
for all B servers at once:

* :class:`~repro.core.fan_controller.AdaptivePIDFanController` (gain
  schedule + Eqn 10 quantization guard + slew limit),
* :class:`~repro.core.cpu_capper.DeadzoneCpuCapper` (or no capper),
* :class:`~repro.core.rules.RuleBasedCoordinator` (Table II), the
  :class:`~repro.core.ecoord.EnergyAwareCoordinator` baseline [6], or
  the uncoordinated baseline,
* the optional :class:`~repro.core.setpoint.AdaptiveSetpoint` (A-Tref),
  and
* the optional :class:`~repro.core.single_step.SingleStepFanScaling`
  override (Section V-C), carried as int8 phase codes with masked
  transitions.

Equivalence with the scalar objects is *structural*: every branch of the
scalar decision sequence is replayed element-wise with the same
floating-point operations in the same order, so results agree
bit-for-bit.  Per-server PID/filter state lives in arrays lifted out of
the scalar objects at construction and written back by
:meth:`BatchGlobalController.sync_back`, so a scalar run can resume from
a vectorized one with identical trajectories.

Each CPU period pays only for work that can change state:

* Stages that only some servers carry keep *compact* state over just
  those rows: the A-Tref predictors (:class:`_SetpointBank`), the SSfan
  phase machines (:class:`_SingleStepBank`) and the E-coord
  coefficients.  A decision gathers a stage's inputs once and scatters
  ``T_ref`` once.
* Table II is an int8 lookup (:data:`_TABLE_II`) indexed by the two
  sign codes, each built from two masks; which knob an action moves is
  a second lookup, and the action counts take one flat-index add.
* Quiet periods exit exactly.  With no fan proposal due, E-coord's
  decision is Table II's cap column minus the cap-downs it refuses below
  its fan-admission gate (one mask over the batch).  While every SSfan
  row is INACTIVE and none crosses its threshold, the phase machine is
  skipped, because the scalar ``apply`` returns the state unchanged.
  When no fan command moves, :attr:`BatchGlobalController.fan_speed_rpm`
  is not rebound (it is never written in place on the whole-batch
  path), so neither the notify-applied clamp nor the caller's
  fan-change scan runs.
* :class:`BatchTrackerBank` keeps one right-aligned gap buffer and takes
  the recent mean as one left fold, in the scalar ``sum`` order.

Compositions the backend cannot represent - custom
controller/fan/coordinator subclasses, non-stock models - are reported
by :func:`batch_controller_unsupported_reason`; the
:class:`~repro.sim.batch.BatchStepper` then drives those servers'
scalar objects individually while the rest of the rack stays vectorized.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.base import ControlState
from repro.core.cpu_capper import DeadzoneCpuCapper
from repro.core.ecoord import EnergyAwareCoordinator
from repro.core.fan_controller import AdaptivePIDFanController
from repro.core.gain_schedule import GainSchedule
from repro.core.global_controller import GlobalController
from repro.core.pid import PIDController, PIDGains
from repro.core.quantization import QuantizationGuard
from repro.core.rules import (
    CoordinationAction,
    RuleBasedCoordinator,
    table_ii_action,
)
from repro.core.setpoint import AdaptiveSetpoint
from repro.core.single_step import SingleStepFanScaling, SingleStepPhase
from repro.core.uncoordinated import UncoordinatedCoordinator
from repro.errors import SimulationError
from repro.thermal.steady_state import SteadyStateServerModel
from repro.workload.filters import MovingAverageFilter
from repro.workload.performance import DeadlineTracker

#: Table II actions as int codes (the order of
#: :class:`~repro.core.rules.CoordinationAction` members).
ACTION_CODES: dict[CoordinationAction, int] = {
    action: code for code, action in enumerate(CoordinationAction)
}

#: Inverse of :data:`ACTION_CODES`.
CODE_TO_ACTION: tuple[CoordinationAction, ...] = tuple(CoordinationAction)

_NONE = ACTION_CODES[CoordinationAction.NONE]
_FAN_UP = ACTION_CODES[CoordinationAction.FAN_UP]
_FAN_DOWN = ACTION_CODES[CoordinationAction.FAN_DOWN]
_CAP_UP = ACTION_CODES[CoordinationAction.CAP_UP]
_CAP_DOWN = ACTION_CODES[CoordinationAction.CAP_DOWN]

#: Table II as an int8 lookup: the action code for fan-delta sign ``ds``
#: and cap-delta sign ``du`` sits at index ``3 * ds + du``.  The nine
#: indices span -4..4, and negative ones wrap, so each cell has its own
#: slot.  Built from the scalar rule itself.
_TABLE_II = np.zeros(9, dtype=np.int8)
for _ds in (-1, 0, 1):
    for _du in (-1, 0, 1):
        _TABLE_II[3 * _ds + _du] = ACTION_CODES[table_ii_action(_ds, _du)]

#: Which knob each action code moves.
_MOVES_FAN = np.zeros(len(CODE_TO_ACTION), dtype=bool)
_MOVES_FAN[[_FAN_UP, _FAN_DOWN]] = True
_MOVES_CAP = np.zeros(len(CODE_TO_ACTION), dtype=bool)
_MOVES_CAP[[_CAP_UP, _CAP_DOWN]] = True

#: classify() tolerance (must match repro.core.rules.classify).
_SIGN_TOL = 1e-9

#: SSfan phases as int8 codes (order of SingleStepPhase members).
SS_PHASE_CODES: dict[SingleStepPhase, int] = {
    phase: code for code, phase in enumerate(SingleStepPhase)
}

#: Inverse of :data:`SS_PHASE_CODES`.
CODE_TO_SS_PHASE: tuple[SingleStepPhase, ...] = tuple(SingleStepPhase)

_SS_INACTIVE = SS_PHASE_CODES[SingleStepPhase.INACTIVE]
_SS_BOOSTED = SS_PHASE_CODES[SingleStepPhase.BOOSTED]
_SS_REFRACTORY = SS_PHASE_CODES[SingleStepPhase.REFRACTORY]

#: Index for "every row" (a view, where an index array would gather).
_ALL = slice(None)



def batch_controller_unsupported_reason(controller: Any) -> str | None:
    """Why this controller cannot run vectorized (None = it can).

    The batch controller replays the exact scalar decision sequence, so
    it only accepts the stock library classes whose branches it mirrors
    (every Table III scheme, SSfan and E-coord included).  Anything else
    - subclasses, non-stock models - falls back to stepping the scalar
    object (per server, inside an otherwise batched run).
    """
    if type(controller) is not GlobalController:
        return f"controller {type(controller).__name__} is not the stock GlobalController"
    fan = controller.fan_controller
    if type(fan) is not AdaptivePIDFanController:
        return f"fan controller {type(fan).__name__} is not the stock AdaptivePIDFanController"
    if type(fan.schedule) is not GainSchedule:
        return f"gain schedule {type(fan.schedule).__name__} is not the stock GainSchedule"
    if type(fan.pid) is not PIDController:
        return f"PID {type(fan.pid).__name__} is not the stock PIDController"
    guard = fan.quantization_guard
    if guard is not None and type(guard) is not QuantizationGuard:
        return f"guard {type(guard).__name__} is not the stock QuantizationGuard"
    capper = controller.cpu_capper
    if capper is not None and type(capper) is not DeadzoneCpuCapper:
        return f"capper {type(capper).__name__} is not the stock DeadzoneCpuCapper"
    coordinator = controller.coordinator
    if type(coordinator) is EnergyAwareCoordinator:
        if type(coordinator.model) is not SteadyStateServerModel:
            return (
                f"E-coord model {type(coordinator.model).__name__} is not "
                "the stock SteadyStateServerModel"
            )
    elif type(coordinator) not in (RuleBasedCoordinator, UncoordinatedCoordinator):
        return (
            f"coordinator {type(coordinator).__name__} is not rule-based, "
            "energy-aware, or uncoordinated"
        )
    setpoint = controller.setpoint
    if setpoint is not None:
        if type(setpoint) is not AdaptiveSetpoint:
            return f"setpoint {type(setpoint).__name__} is not the stock AdaptiveSetpoint"
        if type(setpoint.prediction_filter) is not MovingAverageFilter:
            return (
                f"setpoint filter {type(setpoint.prediction_filter).__name__} "
                "is not the stock MovingAverageFilter"
            )
    single_step = controller.single_step
    if single_step is not None:
        if type(single_step) is not SingleStepFanScaling:
            return (
                f"single-step override {type(single_step).__name__} is not "
                "the stock SingleStepFanScaling"
            )
        if type(single_step.model) is not SteadyStateServerModel:
            return (
                f"SSfan model {type(single_step.model).__name__} is not "
                "the stock SteadyStateServerModel"
            )
    return None


class BatchTrackerBank:
    """Deadline accounting for B servers as array accumulators.

    Mirrors :class:`~repro.workload.performance.DeadlineTracker.record`
    element-wise (same max/compare/add sequence) and restores the scalar
    tracker objects afterwards, sliding window included.

    The sliding window is one right-aligned gap buffer, newest in the
    last column.  Columns left of a server's window hold exact 0.0, so
    :meth:`recent_degradation_all` folds every column left to right with
    one ``np.add.accumulate`` - the scalar ``sum(recent)`` order, with
    the leading zeros as additive identities for the nonnegative gaps -
    and divides like ``sum(recent) / len(recent)``, bit for bit.  (An
    axis ``sum`` would reduce pairwise and round differently.)
    """

    def __init__(self, trackers: Sequence[DeadlineTracker]) -> None:
        n = len(trackers)
        self._n = n
        self._trackers = list(trackers)
        self._tol = np.array([t.tolerance for t in trackers])
        self._window = np.array([t.window for t in trackers], dtype=np.int64)
        width = int(self._window.max()) if n else 1
        self._gaps = np.zeros((n, width))
        self._count = np.zeros(n, dtype=np.int64)
        self._periods = np.zeros(n, dtype=np.int64)
        self._violations = np.zeros(n, dtype=np.int64)
        self._lost = np.zeros(n)
        self._demanded = np.zeros(n)
        # Servers with a window narrower than the buffer shift their
        # oldest gap into this column once full; it is zeroed again.
        evict_col = width - self._window - 1
        self._evictable = evict_col >= 0
        self._evict_col = np.maximum(evict_col, 0)
        self._evict_rows = np.flatnonzero(self._evictable)
        for i, tracker in enumerate(trackers):
            summary = tracker.summary
            self._periods[i] = summary.periods
            self._violations[i] = summary.violations
            self._lost[i] = summary.lost_utilization
            self._demanded[i] = summary.demanded_utilization
            gaps = tracker.recent_gaps
            if gaps:
                self._gaps[i, width - len(gaps) :] = gaps
                self._count[i] = len(gaps)
        self._filling = bool(np.count_nonzero(self._count < self._window))

    def record(
        self, idx: np.ndarray, demanded: np.ndarray, applied: np.ndarray
    ) -> None:
        """One control period for the servers in ``idx``."""
        if idx.size == self._n:
            self.record_all(demanded, applied)
            return
        gap = np.maximum(0.0, demanded - applied)
        self._periods[idx] += 1
        self._violations[idx] += gap > self._tol[idx]
        self._lost[idx] += gap
        self._demanded[idx] += demanded
        gaps = self._gaps
        gaps[idx, :-1] = gaps[idx, 1:]
        gaps[idx, -1] = gap
        evict = idx[self._evictable[idx]]
        if evict.size:
            gaps[evict, self._evict_col[evict]] = 0.0
        if self._filling:
            self._count[idx] = np.minimum(self._count[idx] + 1, self._window[idx])
            self._filling = bool(np.count_nonzero(self._count < self._window))

    def record_all(self, demanded: np.ndarray, applied: np.ndarray) -> None:
        """One control period for every server (gather-free fast lane)."""
        gap = np.maximum(0.0, demanded - applied)
        self._periods += 1
        self._violations += gap > self._tol
        self._lost += gap
        self._demanded += demanded
        gaps = self._gaps
        gaps[:, :-1] = gaps[:, 1:]
        gaps[:, -1] = gap
        evict = self._evict_rows
        if evict.size:
            gaps[evict, self._evict_col[evict]] = 0.0
        if self._filling:
            self._count = np.minimum(self._count + 1, self._window)
            self._filling = bool(np.count_nonzero(self._count < self._window))

    def _mean(self, gaps: np.ndarray, count: np.ndarray) -> np.ndarray:
        # An empty window reads 0.0 like the scalar tracker: its row
        # folds to 0.0, divided by 1.
        total = np.add.accumulate(gaps, axis=1)[:, -1]
        return total / (np.maximum(count, 1) if self._filling else count)

    def recent_degradation_all(self) -> np.ndarray:
        """Per-server mean recent gap, bit-identical to the scalar mean."""
        return self._mean(self._gaps, self._count)

    def recent_degradation(self, idx: np.ndarray) -> np.ndarray:
        """:meth:`recent_degradation_all` for a row subset."""
        return self._mean(self._gaps[idx], self._count[idx])

    def sync_back(self) -> None:
        """Restore every tracker object to the accumulated state."""
        width = self._gaps.shape[1]
        for i, tracker in enumerate(self._trackers):
            count = int(self._count[i])
            tracker.restore(
                periods=int(self._periods[i]),
                violations=int(self._violations[i]),
                lost_utilization=float(self._lost[i]),
                demanded_utilization=float(self._demanded[i]),
                recent_gaps=tuple(
                    float(g) for g in self._gaps[i, width - count :]
                ),
            )


def _positions(rows: np.ndarray, n: int) -> np.ndarray:
    """Bank position of each batch row (-1 for rows outside the bank)."""
    pos = np.full(n, -1, dtype=np.int64)
    pos[rows] = np.arange(rows.size)
    return pos


class _SetpointBank:
    """A-Tref predictors (Section V-B) of the rows that carry one.

    Each row's moving-average window is a right-aligned sample buffer,
    newest last.  Column ``oldest`` holds a full row's oldest sample;
    while a row fills it holds a 0.0 pad (shifts only move pads into
    pads), so subtracting it replays the scalar filter's "no eviction
    yet" exactly (``x - 0.0 == x``).  Columns left of it are never read
    again once a row is full.
    """

    def __init__(
        self, rows: np.ndarray, setpoints: Sequence[AdaptiveSetpoint], n: int
    ) -> None:
        k = rows.size
        self.rows = rows
        self.pos_of = _positions(rows, n)
        filters = [sp.prediction_filter for sp in setpoints]
        self.window = np.array([f.window for f in filters], dtype=np.int64)
        width = int(self.window.max())
        self.samples = np.zeros((k, width))
        self.count = np.zeros(k, dtype=np.int64)
        self.total = np.array([f.running_sum for f in filters])
        for i, f in enumerate(filters):
            samples = f.samples
            if samples:
                self.samples[i, width - len(samples) :] = samples
                self.count[i] = len(samples)
        self.oldest = width - self.window
        self.uniform = not np.count_nonzero(self.oldest)
        self.filling = bool(np.count_nonzero(self.count < self.window))
        self.t_min = np.array([sp.range_c[0] for sp in setpoints])
        self.t_span = np.array([sp.range_c[1] - sp.range_c[0] for sp in setpoints])
        self.u_low = np.array([sp.util_range[0] for sp in setpoints])
        self.u_span = np.array(
            [sp.util_range[1] - sp.util_range[0] for sp in setpoints]
        )
        # Freshest prediction, read by the SSfan landing speed in the
        # same decision (the scalar re-reads ``predicted_util``).
        self.predicted = np.zeros(k)

    def update(self, pos: Any, util: np.ndarray) -> np.ndarray:
        """Feed one sample to the rows at ``pos``; returns their T_ref."""
        samples = self.samples[pos]
        if self.uniform:
            evicted = samples[:, 0]
        else:
            evicted = samples[np.arange(len(samples)), self.oldest[pos]]
        # The scalar filter subtracts the evicted sample, then adds the
        # new one (evicted is read before the shift overwrites it).
        total = self.total[pos] - evicted
        samples[:, :-1] = samples[:, 1:]
        samples[:, -1] = util
        if pos is not _ALL:
            self.samples[pos] = samples
        total = total + util
        self.total[pos] = total
        count = self.count[pos]
        if self.filling:
            count = np.minimum(count + 1, self.window[pos])
            self.count[pos] = count
            self.filling = bool(np.count_nonzero(self.count < self.window))
        predicted = total / count
        self.predicted[pos] = predicted
        fraction = (predicted - self.u_low[pos]) / self.u_span[pos]
        fraction = np.minimum(np.maximum(fraction, 0.0), 1.0)
        return self.t_min[pos] + fraction * self.t_span[pos]

    def restore(self, p: int, setpoint: AdaptiveSetpoint) -> None:
        count = int(self.count[p])
        width = self.samples.shape[1]
        setpoint.prediction_filter.restore(
            samples=tuple(float(s) for s in self.samples[p, width - count :]),
            total=float(self.total[p]),
        )


class _SingleStepBank:
    """SSfan phase machines (Section V-C) of the rows that carry one.

    :attr:`quiet` records that every row is INACTIVE; it is refreshed
    whenever the machine runs, the only place phases change.
    """

    def __init__(
        self,
        rows: np.ndarray,
        single_steps: Sequence[SingleStepFanScaling],
        n: int,
        setpoint_pos: np.ndarray | None,
    ) -> None:
        self.rows = rows
        self.pos_of = _positions(rows, n)
        self.index = np.arange(rows.size)
        # A-Tref bank position of each row (-1: no predictor, the landing
        # speed then reads the measured utilization).
        self.setpoint_pos = (
            np.full(rows.size, -1, dtype=np.int64)
            if setpoint_pos is None
            else setpoint_pos[rows]
        )
        self.phase = np.array(
            [SS_PHASE_CODES[ss.phase] for ss in single_steps], dtype=np.int8
        )
        self.periods = np.array(
            [ss.periods_in_phase for ss in single_steps], dtype=np.int64
        )
        self.boosts = np.array(
            [ss.boost_count for ss in single_steps], dtype=np.int64
        )
        self.threshold = np.array([ss.degradation_threshold for ss in single_steps])
        # An INACTIVE row triggers when its degradation exceeds a
        # *positive* threshold; +inf never is exceeded.
        self.trigger = np.where(self.threshold > 0.0, self.threshold, np.inf)
        self.max_boost = np.array(
            [ss.max_boost_periods for ss in single_steps], dtype=np.int64
        )
        self.refractory = np.array(
            [ss.refractory_periods for ss in single_steps], dtype=np.int64
        )
        self.headroom = np.array([ss.headroom_util for ss in single_steps])
        cfgs = [ss.model.config for ss in single_steps]
        # The scalar recomputes this difference on every landing; the
        # operands never change, so hoisting it preserves the bits.
        self.target_c = np.array(
            [
                cfg.control.t_critical_c - ss.landing_margin_c
                for cfg, ss in zip(cfgs, single_steps)
            ]
        )
        self.ambient_c = np.array([cfg.ambient_c for cfg in cfgs])
        self.max_speed = np.array([cfg.fan.max_speed_rpm for cfg in cfgs])
        self.min_speed = np.array([cfg.fan.min_speed_rpm for cfg in cfgs])
        self.p_static = np.array([cfg.cpu.p_static_w for cfg in cfgs])
        self.p_dynamic = np.array([cfg.cpu.p_dynamic_w for cfg in cfgs])
        self.r_die = np.array([cfg.die.r_die_k_per_w for cfg in cfgs])
        self.r_base = np.array([cfg.heatsink.r_base_k_per_w for cfg in cfgs])
        self.r_coeff = np.array([cfg.heatsink.r_coeff for cfg in cfgs])
        self.inv_r_exp = np.array([1.0 / cfg.heatsink.r_exponent for cfg in cfgs])
        self.quiet = not np.count_nonzero(self.phase != _SS_INACTIVE)

    def may_act(self, pos: Any, degradation: np.ndarray) -> bool:
        """False when :meth:`apply` would change nothing (exact exit)."""
        return not self.quiet or bool(
            np.count_nonzero(degradation > self.trigger[pos])
        )

    def apply(
        self,
        pos: Any,
        fan: np.ndarray,
        predicted: np.ndarray,
        demand: np.ndarray,
        degradation: np.ndarray,
    ) -> np.ndarray:
        """One period of the machine for the rows at ``pos``.

        ``fan`` is the coordinated fan speed; the return value is the
        (possibly overridden) speed to apply.  Mirrors
        :meth:`~repro.core.single_step.SingleStepFanScaling.apply` with
        masked transitions.
        """
        phase = self.phase[pos]
        thr = self.threshold[pos]
        boosted = phase == _SS_BOOSTED
        refractory = phase == _SS_REFRACTORY
        inactive = phase == _SS_INACTIVE
        periods = self.periods[pos] + (boosted | refractory)
        degraded = degradation > thr
        cont_boost = boosted & degraded & (periods < self.max_boost[pos])
        end_boost = boosted & ~cont_boost
        refr_done = refractory & (periods >= self.refractory[pos])
        refr_hold = refractory & ~refr_done
        trigger = inactive & (thr > 0.0) & degraded
        new_fan = np.where(cont_boost | trigger, self.max_speed[pos], fan)

        # Landing speed ("lowest possible fan speed which enables to run
        # required CPU utilization"): the scalar closed form of
        # SteadyStateServerModel.required_fan_speed_rpm, with safe
        # denominators on the rows that take a different branch.  Only
        # rows ending a boost or holding refractory need it, and the
        # final exponentiation goes through CPython's ``**`` - NumPy's
        # SIMD pow loop can differ from libm pow by an ulp, which would
        # break tier-A bit-for-bit equality.
        need = np.flatnonzero(end_boost | refr_hold)
        if need.size:
            sub = self.index[pos][need]
            demand_eff = np.minimum(
                np.maximum(
                    np.maximum(demand[need], predicted[need])
                    + self.headroom[sub],
                    0.0,
                ),
                1.0,
            )
            power = self.p_static[sub] + self.p_dynamic[sub] * demand_eff
            power_pos = power > 0.0
            r_hs = (self.target_c[sub] - self.ambient_c[sub]) / np.where(
                power_pos, power, 1.0
            ) - self.r_die[sub]
            r_var = r_hs - self.r_base[sub]
            var_pos = r_var > 0.0
            base = self.r_coeff[sub] / np.where(var_pos, r_var, 1.0)
            speed = np.array(
                [float(b) ** float(e) for b, e in zip(base, self.inv_r_exp[sub])]
            )
            sub_min = self.min_speed[sub]
            sub_max = self.max_speed[sub]
            new_fan[need] = np.where(
                power_pos,
                np.where(
                    var_pos,
                    np.minimum(np.maximum(speed, sub_min), sub_max),
                    sub_max,
                ),
                sub_min,
            )
        transition = end_boost | refr_done | trigger
        self.phase[pos] = np.where(
            end_boost,
            _SS_REFRACTORY,
            np.where(refr_done, _SS_INACTIVE, np.where(trigger, _SS_BOOSTED, phase)),
        )
        self.periods[pos] = np.where(transition, 0, periods)
        self.boosts[pos] += trigger
        self.quiet = not np.count_nonzero(self.phase != _SS_INACTIVE)
        return new_fan

    def restore(self, p: int, single_step: SingleStepFanScaling) -> None:
        single_step.restore_state(
            phase=CODE_TO_SS_PHASE[int(self.phase[p])],
            periods_in_phase=int(self.periods[p]),
            boost_count=int(self.boosts[p]),
        )


def _locate(
    rows: np.ndarray, pos_of: np.ndarray, idx: np.ndarray, whole: bool
) -> tuple[np.ndarray, Any, np.ndarray]:
    """Where a stage's ``rows`` sit among the due servers ``idx``.

    Returns ``(local, pos, rows)``: indices into the idx-aligned inputs,
    the stage positions (:data:`_ALL` on the whole batch) and the batch
    rows.
    """
    if whole:
        return rows, _ALL, rows
    pos = pos_of[idx]
    local = np.flatnonzero(pos >= 0)
    return local, pos[local], idx[local]


class BatchGlobalController:
    """B stock DTM stacks advanced together at CPU-period boundaries.

    Construction lifts coefficients and mutable state out of the scalar
    objects; :meth:`step_due` advances any due subset;
    :meth:`sync_back` writes the final state into the objects so mixed
    vectorized/scalar workflows keep working on the same controllers.

    Every controller must pass
    :func:`batch_controller_unsupported_reason` - the caller is expected
    to have partitioned unsupported ones onto the scalar path already.

    On a whole-batch step :attr:`fan_speed_rpm` is rebound when a fan
    command moves and never written in place, so a caller may alias it
    and detect changes by identity; a subset step writes it in place.
    """

    def __init__(self, controllers: Sequence[GlobalController]) -> None:
        n = len(controllers)
        if n == 0:
            raise SimulationError("batch controller needs at least one server")
        for i, controller in enumerate(controllers):
            reason = batch_controller_unsupported_reason(controller)
            if reason is not None:
                raise SimulationError(
                    f"server {i}: controller cannot batch: {reason}"
                )
        self._n = n
        self._controllers = list(controllers)
        fans = [c.fan_controller for c in controllers]
        pids = [fan.pid for fan in fans]

        # --- applied knob state (GlobalController._state) ---
        self.fan_speed_rpm = np.array([c.state.fan_speed_rpm for c in controllers])
        self.cpu_cap = np.array([c.state.cpu_cap for c in controllers])
        self.t_ref_c = np.array([c.t_ref_c for c in controllers])

        # --- fan decision schedule ---
        self._next_fan = np.array([c.next_fan_decision_s for c in controllers])
        self._next_fan_min = float(self._next_fan.min())
        self._fan_interval = np.array(
            [c.control.fan_interval_s for c in controllers]
        )

        # --- fan controller state/coefficients ---
        self._applied = np.array([fan.applied_speed_rpm for fan in fans])
        self._region_index = np.array(
            [fan.region_index for fan in fans], dtype=np.int64
        )
        self._v_min = np.array([fan.fan_limits_rpm[0] for fan in fans])
        self._v_max = np.array([fan.fan_limits_rpm[1] for fan in fans])
        self._slew = np.array(
            [
                np.inf if fan.slew_limit_rpm is None else fan.slew_limit_rpm
                for fan in fans
            ]
        )

        # Gain schedules, padded to the widest region count (+inf speeds
        # never win a <= comparison; padded gains are never gathered).
        n_regions = [len(fan.schedule) for fan in fans]
        r_max = max(n_regions)
        self._n_regions = np.array(n_regions, dtype=np.int64)
        self._region_speeds = np.full((n, r_max), np.inf)
        self._region_kp = np.zeros((n, r_max))
        self._region_ki = np.zeros((n, r_max))
        self._region_kd = np.zeros((n, r_max))
        for i, fan in enumerate(fans):
            for r, region in enumerate(fan.schedule.regions):
                self._region_speeds[i, r] = region.ref_speed_rpm
                self._region_kp[i, r] = region.gains.kp
                self._region_ki[i, r] = region.gains.ki
                self._region_kd[i, r] = region.gains.kd

        # --- quantization guard (Eqn 10) ---
        guards = [fan.quantization_guard for fan in fans]
        self._has_guard = np.array([g is not None for g in guards])
        self._g_step = np.array([0.0 if g is None else g.step_c for g in guards])
        self._g_threshold = np.array(
            [0.0 if g is None else g.threshold_c for g in guards]
        )
        self._hold_count = np.array(
            [0 if g is None else g.hold_count for g in guards], dtype=np.int64
        )

        # --- PID state ---
        self._pid_dt = np.array([pid.sample_time_s for pid in pids])
        # The PID tracks T_ref and A-Tref moves both together, so when
        # they agree at construction they stay equal and share one array
        # (a decision then scatters T_ref once).
        pid_setpoint = np.array([pid.setpoint for pid in pids])
        self._pid_setpoint = (
            self.t_ref_c
            if np.array_equal(pid_setpoint, self.t_ref_c)
            else pid_setpoint
        )
        self._pid_offset = np.array([pid.output_offset for pid in pids])
        self._pid_integral = np.array([pid.integral for pid in pids])
        self._pid_kp = np.array([pid.gains.kp for pid in pids])
        self._pid_ki = np.array([pid.gains.ki for pid in pids])
        self._pid_kd = np.array([pid.gains.kd for pid in pids])
        self._pid_has_prev = np.array([pid.prev_error is not None for pid in pids])
        self._pid_prev = np.array(
            [0.0 if pid.prev_error is None else pid.prev_error for pid in pids]
        )
        self._pid_has_out = np.array([pid.last_output is not None for pid in pids])
        self._pid_last_out = np.array(
            [0.0 if pid.last_output is None else pid.last_output for pid in pids]
        )

        # --- deadzone capper ---
        # Rows without a capper carry identity coefficients: their
        # proposal is the current cap itself, which classifies as "no
        # change" and, applied, leaves the cap bit for bit.
        cappers = [c.cpu_capper for c in controllers]
        self._no_capper = np.array([cap is None for cap in cappers])
        self._cap_low = np.array(
            [-np.inf if cap is None else cap.deadzone_c[0] for cap in cappers]
        )
        self._cap_high = np.array(
            [np.inf if cap is None else cap.deadzone_c[1] for cap in cappers]
        )
        self._cap_step = np.array(
            [0.0 if cap is None else cap.step for cap in cappers]
        )
        self._cap_min = np.array(
            [-np.inf if cap is None else cap.cap_range[0] for cap in cappers]
        )
        self._cap_max = np.array(
            [np.inf if cap is None else cap.cap_range[1] for cap in cappers]
        )

        # --- coordinator (Table II codes / E-coord / uncoordinated) ---
        # Rule-based and E-coord servers follow one *action*: only the
        # chosen knob moves.  The uncoordinated baseline applies every
        # proposal.  Every row carries an action code and counts; only
        # the action-followers' are written back.
        coordinators = [c.coordinator for c in controllers]
        is_eco = np.array(
            [type(c) is EnergyAwareCoordinator for c in coordinators]
        )
        self._apply_all = np.array(
            [type(c) is UncoordinatedCoordinator for c in coordinators]
        )
        self._any_apply_all = bool(np.count_nonzero(self._apply_all))
        self._last_action = np.full(n, _NONE, dtype=np.int8)
        self._action_counts = np.zeros((n, len(CODE_TO_ACTION)), dtype=np.int64)
        self._action_flat = self._action_counts.reshape(-1)
        self._action_base = np.arange(n) * len(CODE_TO_ACTION)
        for i, coordinator in enumerate(coordinators):
            if type(coordinator) in (RuleBasedCoordinator, EnergyAwareCoordinator):
                self._last_action[i] = ACTION_CODES[coordinator.last_action]
                for action, count in coordinator.action_counts.items():
                    self._action_counts[i, ACTION_CODES[action]] = count

        # E-coord coefficients, compact over its rows.  The fan-admission
        # gate replays the scalar's per-call ``t_emergency_c -
        # fan_admission_margin_c`` subtraction once (it is deterministic),
        # and the fan power terms come from the same FanPowerModel
        # expression the SteadyStateServerModel evaluates.  The gate is
        # also kept batch-wide for the no-proposal exit.
        self._eco_rows = np.flatnonzero(is_eco)
        self._eco_pos_of = _positions(self._eco_rows, n)
        self._eco_gate = np.array(
            [
                coordinators[i].t_emergency_c
                - coordinators[i].fan_admission_margin_c
                for i in self._eco_rows
            ]
        )
        self._eco_fan_pps = np.array(
            [
                coordinators[i].model.config.fan.power_per_socket_w
                for i in self._eco_rows
            ]
        )
        self._eco_fan_vmax = np.array(
            [coordinators[i].model.config.fan.max_speed_rpm for i in self._eco_rows]
        )
        self._eco_gate_all = np.zeros(n)
        self._eco_gate_all[self._eco_rows] = self._eco_gate
        self._not_eco = ~is_eco

        # --- adaptive set-point (A-Tref) and SSfan, compact banks ---
        setpoints = [c.setpoint for c in controllers]
        sp_rows = np.array(
            [i for i, sp in enumerate(setpoints) if sp is not None], dtype=np.int64
        )
        self._sp = (
            _SetpointBank(sp_rows, [setpoints[i] for i in sp_rows], n)
            if sp_rows.size
            else None
        )
        single_steps = [c.single_step for c in controllers]
        ss_rows = np.array(
            [i for i, ss in enumerate(single_steps) if ss is not None],
            dtype=np.int64,
        )
        self._ss = (
            _SingleStepBank(
                ss_rows,
                [single_steps[i] for i in ss_rows],
                n,
                None if self._sp is None else self._sp.pos_of,
            )
            if ss_rows.size
            else None
        )

        # --- last proposals (scalar parity for sync-back) ---
        self._last_fan_prop = np.zeros(n)
        self._last_fan_none = np.ones(n, dtype=bool)
        self._last_cap_prop = np.zeros(n)
        self._last_cap_none = np.ones(n, dtype=bool)
        for i, controller in enumerate(controllers):
            fan_prop, cap_prop = controller.last_proposals
            if fan_prop is not None:
                self._last_fan_prop[i] = fan_prop
                self._last_fan_none[i] = False
            if cap_prop is not None:
                self._last_cap_prop[i] = cap_prop
                self._last_cap_none[i] = False

    @property
    def n_servers(self) -> int:
        """Batch width B."""
        return self._n

    @property
    def needs_degradation(self) -> bool:
        """Whether :meth:`step_due` needs the recent-degradation signal.

        True when any server carries the SSfan override; the caller then
        passes the tracker bank's :meth:`BatchTrackerBank.
        recent_degradation_all` (post-record, matching the scalar engine's
        record-then-read order).
        """
        return self._ss is not None

    def _fan_proposals(
        self, idx: np.ndarray, tmeas: np.ndarray
    ) -> np.ndarray:
        """One fan decision per server in ``idx`` (Eqn 4 with Eqns 8-10)."""
        applied = self._applied[idx]
        setpoint = self._pid_setpoint[idx]
        g_step = self._g_step[idx]

        # Eqn 10: inside the quantization deadband, freeze everything.
        held = (
            self._has_guard[idx]
            & (g_step != 0.0)
            & (np.abs(setpoint - tmeas) < self._g_threshold[idx])
        )
        self._hold_count[idx] += held
        proposals = applied.copy()
        if held.all():
            return proposals

        live = idx[~held]
        applied = applied[~held]
        setpoint = setpoint[~held]
        g_step = g_step[~held]
        tmeas = tmeas[~held]

        # Eqns 8-9: gains follow the *applied* operating speed.
        speeds = self._region_speeds[live]
        last = self._n_regions[live] - 1
        below = (speeds <= applied[:, None]).sum(axis=1)
        region = np.clip(below - 1, 0, last)
        changed = region != self._region_index[live]
        self._region_index[live] = region
        # Region change: re-base the offset and clear the error sum.
        offset = np.where(changed, applied, self._pid_offset[live])
        integral = np.where(changed, 0.0, self._pid_integral[live])
        self._pid_offset[live] = offset

        rows = np.arange(live.size)
        low_end = applied <= speeds[rows, 0]
        high_end = applied >= speeds[rows, last]
        i = np.where(low_end, 0, np.where(high_end, last, below - 1))
        j = np.where(low_end | high_end | (last == 0), i, i + 1)
        s_i = speeds[rows, i]
        denom = np.where(i == j, 1.0, speeds[rows, j] - s_i)
        alpha = np.where(i == j, 0.0, (applied - s_i) / denom)
        one_minus = 1.0 - alpha
        kp = one_minus * self._region_kp[live, i] + alpha * self._region_kp[live, j]
        ki = one_minus * self._region_ki[live, i] + alpha * self._region_ki[live, j]
        kd = one_minus * self._region_kd[live, i] + alpha * self._region_kd[live, j]
        self._pid_kp[live] = kp
        self._pid_ki[live] = ki
        self._pid_kd[live] = kd

        # Deadband error shaping: act only on the part of the error that
        # exceeds one LSB (guard servers only).
        error = tmeas - setpoint
        magnitude = np.abs(error) - g_step
        shaped = np.where(
            g_step == 0.0,
            error,
            np.where(
                magnitude <= 0.0, 0.0, np.where(error > 0.0, magnitude, -magnitude)
            ),
        )
        measurement = np.where(self._has_guard[live], setpoint + shaped, tmeas)

        # PID update (position form, back-calculation anti-windup).
        dt = self._pid_dt[live]
        err = measurement - setpoint
        candidate = integral + err * dt
        prev = self._pid_prev[live]
        derivative = np.where(
            self._pid_has_prev[live], (err - prev) / dt, 0.0
        )
        output = offset + kp * err + ki * candidate + kd * derivative
        high = self._v_max[live]
        low = self._v_min[live]
        saturated = (output > high) | (output < low)
        clamped = np.where(output > high, high, low)
        back_calc = (clamped - offset - kp * err - kd * derivative) / np.where(
            ki > 0.0, ki, 1.0
        )
        integral = np.where(saturated & (ki > 0.0), back_calc, candidate)
        output = np.where(saturated, clamped, output)
        self._pid_integral[live] = integral
        self._pid_prev[live] = err
        self._pid_has_prev[live] = True
        self._pid_last_out[live] = output
        self._pid_has_out[live] = True

        # Direction sanity: a measurably hot reading must never produce a
        # speed decrease (mirrors AdaptivePIDFanController.propose).
        proposal = np.where(
            err > 0.0,
            np.maximum(output, applied),
            np.where(err < 0.0, np.minimum(output, applied), output),
        )
        slew = self._slew[live]
        proposal = np.minimum(
            np.maximum(proposal, applied - slew), applied + slew
        )
        proposals[~held] = proposal
        return proposals

    def _eco_actions(
        self,
        pos: Any,
        tmeas: np.ndarray,
        ds: np.ndarray,
        du: np.ndarray,
        fan_prop: np.ndarray,
        cur_fan: np.ndarray,
    ) -> np.ndarray:
        """E-coord action codes for the E-coord rows at ``pos``.

        Replays :meth:`~repro.core.ecoord.EnergyAwareCoordinator.
        coordinate` element-wise.  The candidate-list ``max`` reduces to
        masks: the gate ``emergency or fan_useful`` is just
        ``fan_useful`` (the margin is non-negative, so emergency implies
        fan-useful); in the cooling branch cap-down's efficiency is
        ``inf`` while fan-up's is finite unless its power increase is
        non-positive (then both are ``inf`` and the first-listed fan-up
        wins the tie); in the relaxing branch fan-down's saving is
        ``>= 0`` while cap-up's is ``<= 0``, so fan-down always wins when
        both are proposed (ties break to the first-listed fan-down).
        """
        fan_useful = tmeas >= self._eco_gate[pos]
        fanup = (ds > 0) & fan_useful
        capdown = du < 0
        take_cooling = (fanup | capdown) & fan_useful
        pps = self._eco_fan_pps[pos]
        v_max = self._eco_fan_vmax[pos]
        power_inc = (
            pps * (fan_prop / v_max) ** 3 - pps * (cur_fan / v_max) ** 3
        )
        fan_wins = fanup & (~capdown | (power_inc <= 0.0))
        cooling = np.where(fan_wins, _FAN_UP, _CAP_DOWN)
        relaxing = np.where(
            ds < 0, _FAN_DOWN, np.where(du > 0, _CAP_UP, _NONE)
        )
        return np.where(take_cooling, cooling, relaxing)

    def step_due(
        self,
        idx: np.ndarray,
        t: float,
        tmeas: np.ndarray,
        util: np.ndarray,
        demand: np.ndarray | None = None,
        degradation: np.ndarray | None = None,
    ) -> None:
        """One CPU control period for the servers in ``idx``.

        ``tmeas``, ``util``, ``demand``, and ``degradation`` are aligned
        with ``idx``; an ``idx`` as wide as the batch is the whole batch
        in row order (the gather-free path).  ``demand`` (OS demand
        estimate) and ``degradation`` (post-record recent mean deficit)
        are required when any server carries the SSfan override (see
        :attr:`needs_degradation`); without SSfan they are unused.
        Updated knob settings land in :attr:`fan_speed_rpm` /
        :attr:`cpu_cap`.
        """
        ss = self._ss
        if ss is not None and (demand is None or degradation is None):
            raise SimulationError(
                "SSfan servers need the degradation signal; pass "
                "demand/degradation to step_due"
            )
        whole = idx.size == self._n
        sel = _ALL if whole else idx

        # Section V-B: predictive T_ref adjustment, every CPU period.
        sp = self._sp
        if sp is not None:
            local, pos, rows = _locate(sp.rows, sp.pos_of, idx, whole)
            if local.size:
                t_ref = sp.update(pos, util[local])
                self.t_ref_c[rows] = t_ref
                if self._pid_setpoint is not self.t_ref_c:
                    self._pid_setpoint[rows] = t_ref

        # Deadzone cap proposals.
        cap = self.cpu_cap[sel]
        step = self._cap_step[sel]
        proposed = np.where(
            tmeas > self._cap_high[sel],
            cap - step,
            np.where(tmeas < self._cap_low[sel], cap + step, cap),
        )
        cap_prop = np.minimum(
            np.maximum(proposed, self._cap_min[sel]), self._cap_max[sel]
        )
        self._last_cap_prop[sel] = cap_prop
        self._last_cap_none[sel] = self._no_capper[sel]
        d_cap = cap_prop - cap
        cap_up = d_cap > _SIGN_TOL
        cap_down = d_cap < -_SIGN_TOL

        # Fan proposals, only when some due server's fan period is due.
        # Rows not due propose their current speed: a zero delta, so
        # Table II and apply-all both leave them where they are.
        t_plus = t + 1e-9
        cur_fan = self.fan_speed_rpm if whole else self.fan_speed_rpm[idx]
        fan_prop = None
        if self._next_fan_min <= t_plus:
            fan_due = self._next_fan[sel] <= t_plus
            due_local = np.flatnonzero(fan_due)
            if due_local.size:
                due = due_local if whole else idx[due_local]
                fan_prop = cur_fan.copy()
                fan_prop[due_local] = self._fan_proposals(due, tmeas[due_local])
                nxt = self._next_fan[due]
                interval = self._fan_interval[due]
                while True:
                    late = nxt <= t_plus
                    if not late.any():
                        break
                    nxt = np.where(late, nxt + interval, nxt)
                self._next_fan[due] = nxt
                self._next_fan_min = float(self._next_fan.min())
                self._last_fan_prop[sel] = fan_prop
                self._last_fan_none[sel] = ~fan_due
        if fan_prop is None:
            self._last_fan_none[sel] = True

        # Global coordination: Table II codes, with E-coord's own choice
        # on its rows.
        if fan_prop is None:
            # ds == 0 everywhere: Table II's cap column, except that
            # E-coord refuses a cap-down when not tmeas >= its gate.
            if self._eco_rows.size:
                cap_down &= (tmeas >= self._eco_gate_all[sel]) | self._not_eco[sel]
            action = _TABLE_II[cap_up.view(np.int8) - cap_down.view(np.int8)]
        else:
            d_fan = fan_prop - cur_fan
            ds = (d_fan > _SIGN_TOL).view(np.int8) - (d_fan < -_SIGN_TOL).view(
                np.int8
            )
            du = cap_up.view(np.int8) - cap_down.view(np.int8)
            action = _TABLE_II[3 * ds + du]
            if self._eco_rows.size:
                local, pos, _ = _locate(
                    self._eco_rows, self._eco_pos_of, idx, whole
                )
                if local.size:
                    action[local] = self._eco_actions(
                        pos,
                        tmeas[local],
                        ds[local],
                        du[local],
                        fan_prop[local],
                        cur_fan[local],
                    )

        take_cap = _MOVES_CAP[action]
        if self._any_apply_all:
            take_cap |= self._apply_all[sel]
        self.cpu_cap[sel] = np.where(take_cap, cap_prop, cap)
        self._last_action[sel] = action
        self._action_flat[self._action_base[sel] + action] += 1

        new_fan = cur_fan
        if fan_prop is not None:
            take_fan = _MOVES_FAN[action]
            if self._any_apply_all:
                take_fan |= self._apply_all[sel]
            new_fan = np.where(take_fan, fan_prop, cur_fan)

        # Section V-C: SSfan override after coordination.
        if ss is not None:
            local, pos, _ = _locate(ss.rows, ss.pos_of, idx, whole)
            if local.size and ss.may_act(pos, degradation[local]):
                predicted = util[local]
                if sp is not None:
                    sp_pos = ss.setpoint_pos[pos]
                    has_sp = sp_pos >= 0
                    predicted[has_sp] = sp.predicted[sp_pos[has_sp]]
                if new_fan is cur_fan:
                    new_fan = cur_fan.copy()
                new_fan[local] = ss.apply(
                    pos, new_fan[local], predicted, demand[local], degradation[local]
                )

        if new_fan is not cur_fan:
            if whole:
                self.fan_speed_rpm = new_fan
            else:
                self.fan_speed_rpm[idx] = new_fan
            # notify_applied: clamp into the physical limits.
            self._applied[sel] = np.minimum(
                np.maximum(new_fan, self._v_min[sel]), self._v_max[sel]
            )

    def sync_back(self) -> None:
        """Write the final batch state into the scalar controller objects.

        After this, stepping a controller the scalar way continues the
        trajectory exactly where the vectorized run left it.
        """
        sp_pos = None if self._sp is None else self._sp.pos_of
        ss_pos = None if self._ss is None else self._ss.pos_of
        for i, controller in enumerate(self._controllers):
            fan = controller.fan_controller
            fan.restore_state(
                applied_speed_rpm=float(self._applied[i]),
                region_index=int(self._region_index[i]),
            )
            pid = fan.pid
            pid.gains = PIDGains(
                kp=float(self._pid_kp[i]),
                ki=float(self._pid_ki[i]),
                kd=float(self._pid_kd[i]),
            )
            pid.setpoint = float(self._pid_setpoint[i])
            pid.output_offset = float(self._pid_offset[i])
            pid.restore_state(
                integral=float(self._pid_integral[i]),
                prev_error=(
                    float(self._pid_prev[i]) if self._pid_has_prev[i] else None
                ),
                last_output=(
                    float(self._pid_last_out[i]) if self._pid_has_out[i] else None
                ),
            )
            guard = fan.quantization_guard
            if guard is not None:
                guard.restore_hold_count(int(self._hold_count[i]))
            coordinator = controller.coordinator
            if type(coordinator) in (RuleBasedCoordinator, EnergyAwareCoordinator):
                coordinator.restore_trace(
                    last_action=CODE_TO_ACTION[int(self._last_action[i])],
                    action_counts={
                        action: int(self._action_counts[i, code])
                        for code, action in enumerate(CODE_TO_ACTION)
                    },
                )
            if controller.single_step is not None:
                self._ss.restore(int(ss_pos[i]), controller.single_step)
            if controller.setpoint is not None:
                self._sp.restore(int(sp_pos[i]), controller.setpoint)
            controller.restore_decision_state(
                state=ControlState(
                    fan_speed_rpm=float(self.fan_speed_rpm[i]),
                    cpu_cap=float(self.cpu_cap[i]),
                ),
                t_ref_c=float(self.t_ref_c[i]),
                next_fan_decision_s=float(self._next_fan[i]),
                last_fan_proposal=(
                    None if self._last_fan_none[i] else float(self._last_fan_prop[i])
                ),
                last_cap_proposal=(
                    None if self._last_cap_none[i] else float(self._last_cap_prop[i])
                ),
            )
