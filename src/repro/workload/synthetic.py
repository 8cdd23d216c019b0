"""Synthetic utilization generators (Section VI-A workloads).

The paper's evaluation workload "alternates between 0.1 and 0.7 while
imposing a random Gaussian noise" - that is
``NoisyWorkload(SquareWaveWorkload(low=0.1, high=0.7, ...), std=0.04)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import WorkloadError
from repro.units import check_duration, check_nonnegative, check_utilization, clamp
from repro.workload.base import Workload


#: Noise slots a :class:`NoisyWorkload` keeps cached before it clears
#: the cache (a bounded window of recent slots).
_NOISE_CACHE_SLOTS = 100_000


class ConstantWorkload(Workload):
    """Fixed demand (Fig. 4 uses a stable workload)."""

    def __init__(self, level: float) -> None:
        self._level = check_utilization(level, "level")

    def demand(self, t_s: float) -> float:
        return self._level

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        return np.full(len(times_s), self._level)


class StepWorkload(Workload):
    """Demand stepping from ``before`` to ``after`` at ``step_time_s``.

    Fig. 1 uses a single utilization step to expose the sensing lag.
    """

    def __init__(self, before: float, after: float, step_time_s: float) -> None:
        self._before = check_utilization(before, "before")
        self._after = check_utilization(after, "after")
        self._step_time_s = check_nonnegative(step_time_s, "step_time_s")

    def demand(self, t_s: float) -> float:
        return self._after if t_s >= self._step_time_s else self._before

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        return np.where(times >= self._step_time_s, self._after, self._before)


class SquareWaveWorkload(Workload):
    """Demand alternating between ``low`` and ``high``.

    Starts at ``low`` and switches every ``half_period_s`` seconds (so a
    full cycle takes ``2 * half_period_s``), optionally shifted by
    ``phase_s``.
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.7,
        half_period_s: float = 200.0,
        phase_s: float = 0.0,
    ) -> None:
        self._low = check_utilization(low, "low")
        self._high = check_utilization(high, "high")
        if self._low > self._high:
            raise WorkloadError(f"low ({low}) must not exceed high ({high})")
        self._half_period_s = check_duration(half_period_s, "half_period_s")
        if not math.isfinite(phase_s):
            raise WorkloadError(f"phase_s must be finite, got {phase_s!r}")
        self._phase_s = float(phase_s)

    def demand(self, t_s: float) -> float:
        cycles = (t_s - self._phase_s) / self._half_period_s
        return self._high if int(math.floor(cycles)) % 2 == 1 else self._low

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        cycles = (times - self._phase_s) / self._half_period_s
        # floor + int cast + % 2 matches the scalar path exactly: the
        # division result is identical, and floor of a float is exact.
        odd = np.floor(cycles).astype(np.int64) % 2 == 1
        return np.where(odd, self._high, self._low)


class SineWorkload(Workload):
    """Smooth sinusoidal demand (for frequency-response style studies)."""

    def __init__(
        self, mean: float = 0.4, amplitude: float = 0.3, period_s: float = 400.0
    ) -> None:
        self._mean = check_utilization(mean, "mean")
        self._amplitude = check_nonnegative(amplitude, "amplitude")
        self._period_s = check_duration(period_s, "period_s")
        if self._mean - self._amplitude < 0.0 or self._mean + self._amplitude > 1.0:
            raise WorkloadError(
                f"sine with mean {mean} and amplitude {amplitude} leaves [0, 1]"
            )

    def demand(self, t_s: float) -> float:
        return self._mean + self._amplitude * math.sin(
            2.0 * math.pi * t_s / self._period_s
        )

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        # Same expression, same operation order as demand().  Bit-for-bit
        # equality with the scalar path additionally assumes np.sin's
        # float64 kernel matches math.sin (true where NumPy defers to the
        # platform libm; a SIMD sin build could differ in the last ulp).
        # test_workload pins the equality so a divergent platform fails
        # loudly rather than silently breaking backend equivalence.
        return self._mean + self._amplitude * np.sin(
            2.0 * np.pi * times / self._period_s
        )


class NoisyWorkload(Workload):
    """Wrap a workload with additive Gaussian noise, clamped to [0, 1].

    Noise is drawn once per ``resolution_s`` interval (default 1 s, the CPU
    control period) and held within it, so repeated queries inside one
    control period see a consistent demand.
    """

    def __init__(
        self,
        inner: Workload,
        std: float = 0.04,
        seed: int | None = None,
        resolution_s: float = 1.0,
    ) -> None:
        self._inner = inner
        self._std = check_nonnegative(std, "std")
        self._resolution_s = check_duration(resolution_s, "resolution_s")
        self._rng = np.random.default_rng(seed)
        self._noise_cache: dict[int, float] = {}

    @property
    def std(self) -> float:
        """Gaussian noise standard deviation."""
        return self._std

    def demand(self, t_s: float) -> float:
        base = self._inner.demand(t_s)
        if self._std == 0.0:
            return base
        slot = int(math.floor(t_s / self._resolution_s))
        return clamp(base + self._noise_for_slot(slot), 0.0, 1.0)

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        base = self._inner.demand_array(times_s)
        if self._std == 0.0:
            return base
        # Slot arithmetic matches the scalar path exactly (same division,
        # same floor); draws happen once per slot *run* in time order, in
        # bulk, keeping the RNG stream position identical to per-step
        # scalar calls.
        times = np.asarray(times_s, dtype=float)
        slots = np.floor(times / self._resolution_s).astype(np.int64)
        starts = np.concatenate(([0], np.nonzero(np.diff(slots))[0] + 1))
        lengths = np.diff(np.concatenate((starts, [len(slots)])))
        noise = np.repeat(self._noise_for_slots(slots[starts]), lengths)
        return np.clip(base + noise, 0.0, 1.0)

    def _noise_for_slots(self, slots: np.ndarray) -> np.ndarray:
        """Per-slot noise for distinct ascending slots, drawn in bulk.

        ``Generator.normal(size=k)`` consumes the bit stream exactly as
        ``k`` scalar draws do, so each maximal run of cache misses is
        drawn as one array call and cached with one ``dict.update``
        while the stream position (and therefore every value) stays
        identical to per-slot :meth:`_noise_for_slot` calls.  Cache
        lookups happen only *after* all preceding draws - a clear can
        only turn hits into misses, never the reverse, so a miss-run
        scanned ahead of its draw is exactly the run the scalar path
        would draw, and a hit is re-checked once the draws before it
        (and any clear they triggered) have happened.
        """
        keys = slots.tolist()
        n = len(keys)
        out = np.empty(n)
        cache = self._noise_cache
        # The common call - one chunk of ascending times - brings
        # distinct slots of which at most the first (the one spanning
        # the chunk boundary) is cached: past that first slot, it is one
        # run of misses, found by two set operations instead of a scan.
        fresh = len(set(keys)) == n and not cache.keys() & keys[1:]
        j = 0
        while j < n:
            hit = cache.get(keys[j])
            if hit is not None:
                out[j] = hit
                j += 1
                continue
            k = n if fresh else j + 1
            # A repeated slot (possible on non-ascending public calls)
            # ends the run too: its first draw must land in the cache
            # before the repeat is looked up, exactly like scalar visits.
            run = {keys[j]}
            while k < n:
                s = keys[k]
                if s in run or s in cache:
                    break
                run.add(s)
                k += 1
            draws = self._rng.normal(0.0, self._std, size=k - j)
            out[j:k] = draws
            self._cache_run(keys[j:k], draws.tolist())
            j = k
        return out

    def _cache_run(self, keys: list[int], values: list[float]) -> None:
        """Cache a run of new slots as per-slot inserts would leave it.

        :meth:`_noise_for_slot` clears a cache holding more than
        ``_NOISE_CACHE_SLOTS`` entries before it inserts, so the clears
        fall at fixed places in the run: first at the insert that finds
        ``_NOISE_CACHE_SLOTS + 1`` entries cached, then every
        ``_NOISE_CACHE_SLOTS + 1`` inserts after it.  Only the inserts
        from the last clear on survive.
        """
        cache = self._noise_cache
        period = _NOISE_CACHE_SLOTS + 1
        first = period - len(cache)
        if first < len(keys):
            last = first + (len(keys) - 1 - first) // period * period
            cache.clear()
            keys, values = keys[last:], values[last:]
        cache.update(zip(keys, values))

    def _noise_for_slot(self, slot: int) -> float:
        noise = self._noise_cache.get(slot)
        if noise is None:
            noise = float(self._rng.normal(0.0, self._std))
            # Bound the cache: keep only a recent window of slots.
            if len(self._noise_cache) > _NOISE_CACHE_SLOTS:
                self._noise_cache.clear()
            self._noise_cache[slot] = noise
        return noise


class CompositeWorkload(Workload):
    """Sum of component demands, clamped to [0, 1].

    Useful for layering a spike train on a base pattern::

        CompositeWorkload([SquareWaveWorkload(...), SpikeTrain(...)])
    """

    def __init__(self, components: list[Workload]) -> None:
        if not components:
            raise WorkloadError("composite workload needs at least one component")
        self._components = list(components)

    def demand(self, t_s: float) -> float:
        total = sum(component.demand(t_s) for component in self._components)
        return clamp(total, 0.0, 1.0)

    def demand_array(self, times_s: np.ndarray) -> np.ndarray:
        total = np.zeros(len(times_s))
        for component in self._components:
            total += component.demand_array(times_s)
        return np.clip(total, 0.0, 1.0)
