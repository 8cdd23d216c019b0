"""B server plants advanced in lockstep as ``(B,)`` arrays.

:class:`BatchThermalPlant` is the array form of B
:class:`~repro.thermal.server.ServerThermalModel` plants: the same
exact-exponential die/heat-sink update (Eqns 2-3) evaluated
element-wise, bit-identical to the scalar plants.  Fan levels change
only at decisions, so the plant advances a whole window of frozen
coefficients per call: the caller hands :meth:`BatchThermalPlant.advance`
one row of socket power and ambient per step and gets one row of
junction and heat-sink temperatures back.  The batch simulation
backends (:mod:`repro.sim.batch`, :mod:`repro.sim.fused`) step it with
their sensing and control layers; the Ziegler-Nichols tuner
(:mod:`repro.core.tuning`) runs every gain candidate of a search round as
one row of it, one fan-decision window per call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ThermalModelError
from repro.thermal.server import ServerThermalModel


class BatchThermalPlant:
    """Die + heat sink of B servers as ``(B,)`` arrays.

    Per-level coefficients (heat-sink resistance, exponential decay
    factor, fan power) are computed with scalar ``math`` calls - the
    same expressions the scalar :class:`~repro.thermal.heatsink.HeatSink`
    and :class:`~repro.power.fan.FanPowerModel` evaluate - and cached
    per ``(server, fan speed)``, so the array update is bit-identical to
    B scalar plants while paying the transcendental cost only when a
    controller actually changes a fan level.
    """

    def __init__(self, plants: Sequence[ServerThermalModel], dt_s: float) -> None:
        self._dt = dt_s
        n = len(plants)
        self.hs_temp = np.array([p.heatsink.temperature_c for p in plants])
        self.die_temp = np.array([p.die.temperature_c for p in plants])
        configs = [p.config for p in plants]
        self.p_static = np.array([c.cpu.p_static_w for c in configs])
        self.p_dynamic = np.array([c.cpu.p_dynamic_w for c in configs])
        self.n_sockets = np.array([float(c.n_sockets) for c in configs])
        self.r_die = np.array([c.die.r_die_k_per_w for c in configs])
        # Decay factors as one (2, B) array, heat sink then die, so that
        # advance steps both nodes in one stacked update; hs_decay and
        # die_decay are its rows.
        self._decay = np.zeros((2, n))
        self.hs_decay = self._decay[0]
        self.die_decay = self._decay[1]
        # Die decay: reproduce CpuDie's derived capacitance (tau / R) so
        # R*C matches the scalar node to the last ulp.
        self.die_decay[:] = [
            math.exp(
                -dt_s
                / (
                    c.die.r_die_k_per_w
                    * (c.die.time_constant_s / c.die.r_die_k_per_w)
                )
            )
            for c in configs
        ]
        self._n_sockets_f = [float(c.n_sockets) for c in configs]
        self._hs_capacitance = [
            float(p.heatsink.capacitance_j_per_k) for p in plants
        ]
        self._r_base = [c.heatsink.r_base_k_per_w for c in configs]
        self._r_coeff = [c.heatsink.r_coeff for c in configs]
        self._r_exp = [c.heatsink.r_exponent for c in configs]
        self._fan_p = [c.fan.power_per_socket_w for c in configs]
        self._v_min = [c.fan.min_speed_rpm for c in configs]
        self._v_max = [c.fan.max_speed_rpm for c in configs]
        # Heat-sink fouling (fault injection): extra base resistance per
        # server, folded into the cached level coefficients with the same
        # float expression HeatSink.resistance_at evaluates.  Seeded from
        # the plants so residual fouling from an earlier run carries over.
        self._fouling = [p.heatsink.fouling_k_per_w for p in plants]
        self._level_cache: list[dict[float, tuple[float, float, float]]] = [
            {} for _ in range(n)
        ]
        self.r_hs = np.zeros(n)
        self.fan_w = np.zeros(n)
        self.clamped_speed = np.zeros(n)
        # Monotonic coefficient-change counter.  The coefficient arrays
        # are mutated *in place* (array identity never changes), so any
        # cache derived from them - the fused backend's window power
        # matrices in particular - must key on this counter, not on
        # id(hs_decay).  Bumped by every apply_fan_speed/set_fouling.
        self.version = 0

    def apply_fan_speed(self, i: int, speed_rpm: float) -> None:
        """Clamp and apply one server's commanded fan speed.

        Resolves the fan-level coefficients through the per-server cache;
        scalar ``math`` keeps the values bit-identical to
        ``HeatSink.resistance_at`` / ``RCNode.advance`` /
        ``FanPowerModel.power_w``.
        """
        speed = float(speed_rpm)
        clamped = min(max(speed, self._v_min[i]), self._v_max[i])
        entry = self._level_cache[i].get(clamped)
        if entry is None:
            if clamped <= 0.0:
                raise ThermalModelError(
                    "heat sink resistance is undefined at zero fan speed"
                )
            resistance = (
                self._r_base[i] + self._fouling[i]
            ) + self._r_coeff[i] / clamped ** self._r_exp[i]
            decay = math.exp(-self._dt / (resistance * self._hs_capacitance[i]))
            fan_power = self._fan_p[i] * (clamped / self._v_max[i]) ** 3
            entry = (resistance, decay, fan_power)
            self._level_cache[i][clamped] = entry
        self.r_hs[i] = entry[0]
        self.hs_decay[i] = entry[1]
        self.fan_w[i] = entry[2] * self._n_sockets_f[i]
        self.clamped_speed[i] = clamped
        self.version += 1

    @property
    def fouling_k_per_w(self) -> list[float]:
        """Per-server fouling resistance currently in force."""
        return list(self._fouling)

    def set_fouling(self, i: int, extra_k_per_w: float) -> None:
        """Set one server's fouling resistance, invalidating its cache.

        Mirrors :meth:`repro.thermal.heatsink.HeatSink.set_fouling_k_per_w`
        with the identical float expression in :meth:`apply_fan_speed`,
        so fouled batch servers match fouled scalar plants bit for bit.
        The caller re-applies the current fan speed afterwards to refresh
        the in-force coefficient arrays.
        """
        if extra_k_per_w != self._fouling[i]:
            self._fouling[i] = extra_k_per_w
            self._level_cache[i] = {}
            self.version += 1

    def snapshot_fan_state(self) -> None:
        """Detach the fan-level arrays before a round of speed changes.

        Copy-on-write: the stepper holds references to ``fan_w`` and
        ``clamped_speed`` for energy/coupling accounting of the *current*
        step; replacing the arrays (instead of mutating them) keeps those
        references at their pre-decision values.  Call once per control
        step before the first :meth:`apply_fan_speed`.
        """
        self.fan_w = self.fan_w.copy()
        self.clamped_speed = self.clamped_speed.copy()

    def power(self, applied_util: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Socket and CPU power for ``(w, B)`` applied utilizations.

        Returns ``(socket_w, cpu_w)`` in the input's shape, one row per
        step.  Fan power is exposed as :attr:`fan_w` (it only changes
        with the fan level).
        """
        socket_w = self.p_static + self.p_dynamic * applied_util
        return socket_w, socket_w * self.n_sockets

    def advance(
        self, ambient_c: np.ndarray, socket_w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact-exponential steps over a window of ``w`` steps.

        ``socket_w`` holds one ``(B,)`` row of socket power per step (see
        :meth:`power`) and ``ambient_c`` the matching ambient rows, or one
        ``(B,)`` row for every step.  The plant coefficients are frozen
        over the window.  Returns the ``(w, B)`` junction and heat-sink
        rows.

        Every element runs the scalar node's operations in its order:
        ``ss = ambient + r_hs * P`` and ``ss_die = hs + r_die * P``, then
        ``x = ss + (x - ss) * decay``.  The heat-sink steady states are
        built for the whole window up front; the die's rides on the new
        heat-sink temperature, so the die runs one step behind the heat
        sink in one stacked ``(2, B)`` update per step.
        """
        w, n = socket_w.shape
        # x[r] = (heat sink after r steps, die after r - 1 steps) and
        # ss[r] = the steady states that advance x[r] to x[r + 1].
        x = np.empty((w + 2, 2, n))
        ss = np.empty((w + 1, 2, n))
        hs_ss = ss[:w, 0]
        np.multiply(self.r_hs, socket_w, out=hs_ss)
        np.add(ambient_c, hs_ss, out=hs_ss)
        die_rise = list(self.r_die * socket_w)
        x[0, 0] = self.hs_temp
        x[1, 1] = self.die_temp
        xs, x_hs, ss_die = list(x), list(x[:, 0]), list(ss[:, 1])
        # First step: the heat sink alone.
        s, nxt = hs_ss[0], x_hs[1]
        np.subtract(x_hs[0], s, out=nxt)
        nxt *= self.hs_decay
        np.add(s, nxt, out=nxt)
        decay = self._decay
        for hs, rise, s_die, s, cur, nxt in zip(
            x_hs[1:w], die_rise, ss_die[1:w], list(ss[1:w]), xs[1:w], xs[2:]
        ):
            np.add(hs, rise, out=s_die)
            np.subtract(cur, s, out=nxt)
            nxt *= decay
            np.add(s, nxt, out=nxt)
        # Last step: the die alone.
        s, nxt = ss_die[w], x[w + 1, 1]
        np.add(x_hs[w], die_rise[w - 1], out=s)
        np.subtract(x[w, 1], s, out=nxt)
        nxt *= self.die_decay
        np.add(s, nxt, out=nxt)
        self.hs_temp = x_hs[w]
        self.die_temp = nxt
        return x[2:, 1], x[1 : w + 1, 0]

    def check_finite(self) -> None:
        """Raise if the thermal state has diverged.

        sum() is non-finite iff any element is (NaN propagates, inf
        saturates or cancels to NaN) - one cheap reduction.  NaN/inf
        contamination is permanent once present, so the steppers probe
        once per window instead of after every ``advance``.
        """
        if not math.isfinite(float(self.die_temp.sum())):
            raise ThermalModelError("batch thermal state diverged")
