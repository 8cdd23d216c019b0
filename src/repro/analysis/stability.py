"""Stability metrics for control traces.

Quantifies what the paper's figures show visually: Fig. 3's convergence
time and instability, Fig. 4's sustained oscillation, Fig. 5's stable
tracking.  All functions operate on plain (times, values) arrays from
:class:`~repro.sim.result.SimulationResult` channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.peaks import find_peaks


@dataclass(frozen=True)
class StabilityReport:
    """Summary of a signal's steady-state behaviour."""

    oscillatory: bool
    amplitude: float
    period_s: float
    n_cycles: int
    final_value: float


def _validate(times, values) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
        raise AnalysisError("times and values must be 1-D arrays of equal length")
    if t.size < 3:
        raise AnalysisError("need at least 3 samples for stability analysis")
    return t, v


def oscillation_amplitude(
    values, tail_fraction: float = 0.5
) -> float:
    """Peak-to-peak amplitude over the trailing part of the signal.

    A converged loop has near-zero trailing amplitude; a sustained
    oscillation keeps a large one.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise AnalysisError("empty signal")
    tail = v[int(v.size * (1.0 - tail_fraction)):]
    return float(np.max(tail) - np.min(tail))


def is_oscillatory(
    times,
    values,
    min_amplitude: float,
    min_cycles: int = 3,
    tail_fraction: float = 0.5,
) -> bool:
    """Whether the trailing signal sustains >= ``min_cycles`` swings.

    A swing is a peak with prominence of at least ``min_amplitude / 2``.
    """
    t, v = _validate(times, values)
    start = int(v.size * (1.0 - tail_fraction))
    tail = v[start:]
    if oscillation_amplitude(v, tail_fraction) < min_amplitude:
        return False
    peaks = find_peaks(tail, min_amplitude / 2.0)
    return len(peaks) >= min_cycles


def analyze_stability(
    times,
    values,
    min_amplitude: float = 1.0,
    tail_fraction: float = 0.5,
) -> StabilityReport:
    """Full stability report for a signal's trailing window."""
    t, v = _validate(times, values)
    start = int(v.size * (1.0 - tail_fraction))
    tail_t, tail_v = t[start:], v[start:]
    amplitude = float(np.max(tail_v) - np.min(tail_v))
    peaks = find_peaks(tail_v, min_amplitude / 2.0)
    oscillatory = amplitude >= min_amplitude and len(peaks) >= 3
    period = (
        float(np.mean(np.diff(tail_t[peaks]))) if len(peaks) >= 2 else 0.0
    )
    return StabilityReport(
        oscillatory=oscillatory,
        amplitude=amplitude,
        period_s=period,
        n_cycles=len(peaks),
        final_value=float(v[-1]),
    )


def settling_time_s(
    times,
    values,
    final_value: float | None = None,
    tolerance: float = 0.05,
    min_hold_fraction: float = 0.02,
) -> float:
    """Time to enter (and stay within) a band around the final value.

    The band half-width is ``tolerance * max(|final|, peak deviation)``.
    Returns ``inf`` when the signal never settles (e.g. an unstable loop):
    the in-band trailing segment must span at least ``min_hold_fraction``
    of the observation window, so a sine that happens to end near the
    target does not count as settled.
    """
    t, v = _validate(times, values)
    final = float(v[-1]) if final_value is None else float(final_value)
    deviation = np.abs(v - final)
    scale = max(abs(final), float(np.max(deviation)))
    if scale == 0.0:
        return float(t[0])
    band = tolerance * scale
    outside = deviation > band
    if not np.any(outside):
        return float(t[0])
    last_outside = int(np.nonzero(outside)[0][-1])
    if last_outside == t.size - 1:
        return float("inf")
    settled_at = float(t[last_outside + 1])
    span = float(t[-1] - t[0])
    if span > 0.0 and (float(t[-1]) - settled_at) < min_hold_fraction * span:
        return float("inf")
    return settled_at


def overshoot_percent(
    values, initial_value: float, final_value: float
) -> float:
    """Classic step-response overshoot in percent.

    Measures how far the signal exceeds the final value relative to the
    step size; 0 when it never crosses the final value.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise AnalysisError("empty signal")
    step = final_value - initial_value
    if step == 0.0:
        raise AnalysisError("zero step: overshoot undefined")
    if step > 0:
        exceed = float(np.max(v)) - final_value
    else:
        exceed = final_value - float(np.min(v))
    return max(0.0, 100.0 * exceed / abs(step))
