"""Deadzone CPU cap controller (Section III-A).

The paper deliberately keeps the CPU-side local controller simple: a
deadzone scheme with two thresholds that nudges the maximum allowable
utilization (the "CPU cap") down when the measured temperature is above
the upper threshold and back up when it is below the lower one, holding
inside the zone.

Note: the paper's prose states the direction inverted ("u_cpu is only
increased when T_meas is higher than T_high_th"); taken literally that is
positive thermal feedback and diverges.  We implement the standard,
thermally stabilizing direction.
"""

from __future__ import annotations

from repro.errors import ControlError
from repro.units import check_temperature, check_utilization, clamp


class DeadzoneCpuCapper:
    """Two-threshold CPU utilization capper.

    Parameters
    ----------
    t_low_c, t_high_c:
        The deadzone ``[T_low_th, T_high_th]``.
    step:
        Cap adjustment per decision (utilization units).
    cap_min, cap_max:
        Cap range; the cap never throttles below ``cap_min``.
    """

    def __init__(
        self,
        t_low_c: float,
        t_high_c: float,
        step: float = 0.05,
        cap_min: float = 0.1,
        cap_max: float = 1.0,
    ) -> None:
        self._t_low_c = check_temperature(t_low_c, "t_low_c")
        self._t_high_c = check_temperature(t_high_c, "t_high_c")
        if self._t_low_c > self._t_high_c:
            raise ControlError(
                f"t_low_c ({t_low_c}) must not exceed t_high_c ({t_high_c})"
            )
        check_utilization(cap_min, "cap_min")
        check_utilization(cap_max, "cap_max")
        if cap_min > cap_max:
            raise ControlError(f"cap_min ({cap_min}) must not exceed cap_max ({cap_max})")
        if not 0.0 < step <= 1.0:
            raise ControlError(f"step must be in (0, 1], got {step}")
        self._step = step
        self._cap_min = cap_min
        self._cap_max = cap_max

    @property
    def deadzone_c(self) -> tuple[float, float]:
        """The ``(T_low, T_high)`` thresholds."""
        return self._t_low_c, self._t_high_c

    @property
    def step(self) -> float:
        """Cap adjustment per decision."""
        return self._step

    @property
    def cap_range(self) -> tuple[float, float]:
        """The ``(cap_min, cap_max)`` clamp range."""
        return self._cap_min, self._cap_max

    def propose(self, time_s: float, tmeas_c: float, current_cap: float) -> float:
        """Proposed cap for the next CPU control period.

        Lowers the cap above the deadzone, raises it below, holds inside.
        """
        check_utilization(current_cap, "current_cap")
        if tmeas_c > self._t_high_c:
            proposed = current_cap - self._step
        elif tmeas_c < self._t_low_c:
            proposed = current_cap + self._step
        else:
            proposed = current_cap
        return clamp(proposed, self._cap_min, self._cap_max)
