"""Load-spike processes (Section V-C motivation, ref [20]).

Bhattacharya et al. [20] observe that server load spikes are much faster
than controller settling times; the single-step fan scaling scheme exists
to bound the resulting performance loss.  :class:`SpikeProcess` generates
a reproducible Poisson process of spikes; :class:`SpikeTrain` replays an
explicit list.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.units import check_duration, check_positive, check_utilization
from repro.workload.base import Workload


@dataclass(frozen=True)
class Spike:
    """One rectangular demand spike."""

    start_s: float
    duration_s: float
    height: float

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise WorkloadError(f"spike start must be >= 0, got {self.start_s}")
        check_duration(self.duration_s, "duration_s")
        check_utilization(self.height, "height")

    @property
    def end_s(self) -> float:
        """Time the spike ends."""
        return self.start_s + self.duration_s

    def active(self, t_s: float) -> bool:
        """Whether the spike is in progress at ``t_s``."""
        return self.start_s <= t_s < self.end_s


class SpikeTrain(Workload):
    """Replay an explicit list of spikes (demand is 0 between spikes).

    Typically composed on top of a base pattern via
    :class:`~repro.workload.synthetic.CompositeWorkload`.  Overlapping
    spikes contribute the maximum of their heights.
    """

    def __init__(self, spikes: list[Spike]) -> None:
        self._spikes = sorted(spikes, key=lambda s: s.start_s)
        self._starts = [s.start_s for s in self._spikes]
        self._max_duration_s = max(
            (s.duration_s for s in self._spikes), default=0.0
        )

    @property
    def spikes(self) -> list[Spike]:
        """The spikes, sorted by start time."""
        return list(self._spikes)

    def demand(self, t_s: float) -> float:
        # Only spikes starting at or before t can be active.
        idx = bisect_right(self._starts, t_s)
        height = 0.0
        # Scan back over potentially-overlapping recent spikes.
        for spike in reversed(self._spikes[:idx]):
            if spike.active(t_s):
                height = max(height, spike.height)
            elif t_s - spike.start_s > 3600.0:
                break  # far older spikes cannot still be active in practice
        return height

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        # demand()'s backward scan stops at the first inactive spike older
        # than 3600 s, which can shadow a still-active even-older spike -
        # but only when some spike outlives 3600 s.  Below that bound the
        # masked passes here are exactly the scalar result; above it,
        # defer to the scalar loop to keep the backends bit-identical.
        if self._max_duration_s > 3600.0:
            return super().demand_array(times_s)
        times = np.asarray(times_s, dtype=float)
        heights = np.zeros(times.shape)
        if times.size == 0:
            return heights
        # Only spikes that can overlap [min, max] are visited: a spike
        # ends at most _max_duration_s after its start.  The margin keeps
        # rounding in those bounds from ever dropping an active spike,
        # and the mask below still decides each candidate exactly.
        lo_t, hi_t = float(times.min()), float(times.max())
        lo, hi = 0, len(self._spikes)
        if math.isfinite(lo_t) and math.isfinite(hi_t):
            margin = 1.0 + 1e-9 * max(abs(lo_t), abs(hi_t))
            lo = bisect_left(
                self._starts, lo_t - self._max_duration_s - margin
            )
            hi = bisect_right(self._starts, hi_t + margin)
        for spike in self._spikes[lo:hi]:
            active = (times >= spike.start_s) & (times < spike.end_s)
            np.maximum(heights, spike.height, out=heights, where=active)
        return heights


class SpikeProcess(SpikeTrain):
    """Poisson arrivals of rectangular spikes over a fixed horizon.

    Parameters
    ----------
    horizon_s:
        Generate arrivals in ``[0, horizon_s)``.
    rate_per_s:
        Mean arrival rate (e.g. ``1/150`` for one spike per 150 s).
    height_range:
        Uniform range of spike heights (added demand).
    duration_range_s:
        Uniform range of spike durations.
    seed:
        RNG seed; the process is fully reproducible.
    """

    def __init__(
        self,
        horizon_s: float,
        rate_per_s: float,
        height_range: tuple[float, float] = (0.2, 0.4),
        duration_range_s: tuple[float, float] = (5.0, 20.0),
        seed: int | None = None,
    ) -> None:
        check_duration(horizon_s, "horizon_s")
        check_positive(rate_per_s, "rate_per_s")
        lo_h, hi_h = height_range
        check_utilization(lo_h, "height_range[0]")
        check_utilization(hi_h, "height_range[1]")
        lo_d, hi_d = duration_range_s
        check_duration(lo_d, "duration_range_s[0]")
        check_duration(hi_d, "duration_range_s[1]")
        if lo_h > hi_h or lo_d > hi_d:
            raise WorkloadError("range bounds must be (low, high) with low <= high")

        rng = np.random.default_rng(seed)
        spikes: list[Spike] = []
        t = float(rng.exponential(1.0 / rate_per_s))
        while t < horizon_s:
            spikes.append(
                Spike(
                    start_s=t,
                    duration_s=float(rng.uniform(lo_d, hi_d)),
                    height=float(rng.uniform(lo_h, hi_h)),
                )
            )
            t += float(rng.exponential(1.0 / rate_per_s))
        super().__init__(spikes)
