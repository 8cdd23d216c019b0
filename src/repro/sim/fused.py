"""Fused batch backend: the window kernel with a closed-form plant scan.

Both array lanes run :class:`~repro.sim.batch.BatchStepper`'s window
kernel.  Between control decisions the closed loop is *open*: fan
levels, CPU caps, exhaust conductances and plant coefficients are all
frozen, demand is precomputed, and ``applied = min(demand, cap)`` makes
the plant forcing feed-forward.  The vectorized lane still steps the
recurrence of such a window one ``dt`` at a time, and applies the
coupling as one stacked gemv per window whose rows are bitwise the
per-step mat-vecs; :class:`FusedStepper` advances it as a handful of
``(B, w)`` matrix ops:

* the whole window's socket and CPU power as two products,
* exhaust rises as one matrix (column 0 carries the one-step-lagged
  plant-state mirrors, exactly like the per-dt lane) pushed through
  :meth:`~repro.fleet.coupling.CouplingOperator.apply_window` - for
  multi-rack rooms one stacked ``(R, B, B) @ (R, B, w)`` gemm,
* heat-sink and die trajectories via the cumulative-sum closed form
  :func:`~repro.sim.backends.exp_scan_numpy` (the cumulative sum one
  matmul with a triangular ones matrix),
* trapezoidal energy as one weights gemv per window.

Sensing, control decisions, the monitor hook and records are the shared
kernel's, at every step's own time, so decision *sequences* are the
vectorized lane's own.

Equivalence is **tier B** (docs/backends.md): the scans and window
reductions reorder floating-point arithmetic, so thermal trajectories
and energy totals match the per-dt lanes within per-channel tolerances
rather than bit for bit.  Because measurements re-quantize through the
sensor ADC, rounding-scale die-temperature differences essentially
never flip a code: fan levels, caps, inlet channels, and synced-back
controller state are identical in practice, with only temperatures and
energies drifting at rounding scale.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sim.backends import exp_scan_numpy, scan_tables
from repro.sim.batch import BatchStepper


class FusedStepper(BatchStepper):
    """Batch stepper that advances each window in closed form.

    A drop-in :class:`~repro.sim.batch.BatchStepper` subclass (same
    constructor, same ``run``/``finish`` surface, same window kernel,
    controller partition and fault hooks); only :meth:`_advance_window`
    is replaced.  Select it with ``backend="fused"`` on any driver.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Closed-form scan tables, keyed (node, window width), and the
        # plant-coefficient column views; both invalidated whenever a
        # control/fault action changes plant coefficients
        # (BatchThermalPlant.version bumps on fan/fouling changes).
        self._coeff_cache: dict[tuple[str, int], tuple] = {}
        self._coeff_version = -1
        self._cols: tuple | None = None
        if self._coupled:
            # poll_crac mutates the room array in place, so the column
            # view tracks brownouts automatically.
            self._room_col = self._room[:, None]

    def _scan(
        self, x0: np.ndarray, decay: np.ndarray, forcing: np.ndarray, kind: str
    ) -> np.ndarray:
        """Window trajectories of ``x <- s_j + (x - s_j) * a``."""
        key = (kind, forcing.shape[1])
        tables = self._coeff_cache.get(key)
        if tables is None:
            tables = self._coeff_cache[key] = scan_tables(
                decay, forcing.shape[1]
            )
        return exp_scan_numpy(x0, forcing, *tables)

    def _advance_window(
        self,
        j: int,
        e: int,
        applied: np.ndarray,
        times: list[float],
        times_arr: np.ndarray,
        clock: Any,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the plant over chunk steps ``j..e-1`` in closed form."""
        plant = self._plant
        n, w = applied.shape
        # Feed-forward trajectories: cap and fan are frozen, so the
        # whole window's power profile is two products.  The
        # plant-coefficient column views are cached per plant version
        # (fan/fouling changes rebuild them), and repeated across the
        # window per width: same-shape products cost less than ``(B,
        # 1)`` broadcasts and give the same floats.  The width's entry
        # ends with a ones vector for the inlet row sums.
        if self._coeff_version != plant.version:
            self._coeff_version = plant.version
            self._coeff_cache.clear()
            self._cols = (
                plant.p_static[:, None],
                plant.p_dynamic[:, None],
                plant.n_sockets[:, None],
                plant.r_hs[:, None],
                plant.r_die[:, None],
            )
        cols = self._coeff_cache.get(("cols", w))
        if cols is None:
            cols = self._coeff_cache[("cols", w)] = tuple(
                np.repeat(col, w, axis=1) for col in self._cols
            ) + (np.ones(w),)
        p_static_c, p_dynamic_c, n_sockets_c, r_hs_c, r_die_c, ones = cols
        socket_p = p_static_c + p_dynamic_c * applied
        cpu_w = socket_p * n_sockets_c
        if clock is not None:
            clock.lap("plant")

        # Inlet ambients for the window.  Column 0 reads the lagged
        # plant-state mirrors (exhaust of step k feeds inlets at step
        # k+1); later columns the now-frozen fan power and the
        # feed-forward CPU powers - the same values the per-dt mirror
        # updates would have produced.
        if self._coupled:
            if self._decoupled:
                self._last_offsets = self._zero_offsets
                ambient = np.broadcast_to(self._room_col, (n, w))
            else:
                g_old = self._exhaust_conductance(self._state_fan_speed)
                g_new = self._exhaust_conductance(plant.clamped_speed)
                rises = np.empty((n, w))
                np.divide(
                    self._state_cpu_w + self._state_fan_w,
                    g_old,
                    out=rises[:, 0],
                )
                if w > 1:
                    np.divide(
                        cpu_w[:, :-1] + plant.fan_w[:, None],
                        g_new[:, None],
                        out=rises[:, 1:],
                    )
                offsets = self._coupling.apply_window(rises)
                self._last_offsets = offsets[:, -1]
                ambient = offsets + self._room_col
            # Row sums as one gemv: several times cheaper than a
            # reduction along the short window axis.
            self._inlet_sums += ambient @ ones
            if clock is not None:
                clock.lap("coupling")
        else:
            ambient = self._ambient_const[:, None]

        # Thermal scans: heat sink first (its forcing is closed over
        # ambient + socket power), then the die riding on it.
        hs_ss = r_hs_c * socket_p
        hs_ss += ambient
        hs_out = self._scan(plant.hs_temp, plant.hs_decay, hs_ss, "hs")
        die_ss = r_die_c * socket_p
        die_ss += hs_out
        die_out = self._scan(plant.die_temp, plant.die_decay, die_ss, "die")
        plant.hs_temp = hs_out[:, -1]
        plant.die_temp = die_out[:, -1]

        # Energy once per window, pairing column 0 with the plant-state
        # mirrors of the previous step.  Trapezoid weights: CPU power at
        # step c counts half of its own interval and half of the next.
        fan_w = plant.fan_w
        t_end = times[e - 1]
        dt0 = times[j] - self._energy_last_t
        weights = np.empty(w)
        weights[0] = dt0
        if w > 1:
            np.subtract(
                times_arr[j + 1 : e], times_arr[j : e - 1], out=weights[1:]
            )
            weights[:-1] += weights[1:]
        weights *= 0.5
        self._cpu_j += cpu_w @ weights + (0.5 * dt0) * self._state_cpu_w
        # Fan power is frozen across the window: one weight per term.
        self._fan_j += (0.5 * dt0) * self._state_fan_w + (
            0.5 * dt0 + (t_end - times[j])
        ) * fan_w
        self._energy_last_t = t_end

        # The mirrors hold column views (their window buffers are never
        # written again).  fan_w/clamped references detach on the next
        # fan change (copy-on-write in the plant), as in the exact scan.
        self._state_fan_speed = plant.clamped_speed
        self._state_cpu_w = cpu_w[:, -1]
        self._state_fan_w = fan_w
        self._last_applied = applied[:, -1]
        if self._coupled:
            # Decoupled ambient is a broadcast view of the (CRAC-
            # mutable) room array, so snapshot it by value.
            self._last_ambient = (
                self._room.copy() if self._decoupled else ambient[:, -1]
            )
        else:
            self._last_ambient = self._ambient_const
        if clock is not None:
            clock.lap("plant")
        # Row c of the transposes is step c's (B,) temperatures.
        return die_out.T, hs_out.T
