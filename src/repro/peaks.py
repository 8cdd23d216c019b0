"""Prominent-peak finder for oscillation traces (numpy only).

:func:`find_peaks` selects exactly the indices that
``scipy.signal.find_peaks(x, prominence=p)[0]`` selects on finite input,
so the tuner (:mod:`repro.core.tuning`) and the stability metrics
(:mod:`repro.analysis.stability`) measure the same peaks without putting
scipy on the import path.  It is a leaf module: everything in the
package may import it.

Local maxima follow scipy's rule: a run of equal samples whose left and
right neighbours are both strictly lower, reported at the run's
midpoint (rounded down); runs touching either end never count.  A
peak's prominence is its height minus the higher of its two bases,
where a base is the lowest sample between the peak and the nearest
strictly higher peak on that side (or the end of the trace).  That is
the minimum scipy's sample-by-sample walk finds: a sample below the
peak beyond the first higher sample would enclose a higher local
maximum nearer than the nearest higher peak.  Bases are therefore
folded from the minima between consecutive peaks with one monotonic
stack per side, using only comparisons and ``min``; the single
subtraction per peak keeps the prominence bit-identical.
"""

from __future__ import annotations

import numpy as np


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``x`` (plateau midpoints)."""
    n = x.size
    if n < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    ends = np.append(starts[1:] - 1, n - 1)
    level = x[starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:]))
    return (starts[inner + 1] + ends[inner + 1]) // 2


def _bases(heights: list[float], gaps: list[float]) -> list[float]:
    """Per peak, the lowest gap minimum back to the nearest higher peak.

    ``gaps[k]`` is the minimum of the samples between peak ``k`` and the
    one before it; the sample next to a peak is never above it, so the
    minimum is a valid base on its own.  The stack holds strictly
    decreasing heights with the lowest gap minimum each one spans back
    to its own nearest higher peak.
    """
    stack: list[tuple[float, float]] = []
    bases = []
    for height, low in zip(heights, gaps):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        bases.append(low)
        stack.append((height, low))
    return bases


def prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Prominence of each peak index in ``peaks`` (ascending)."""
    if peaks.size == 0:
        return np.empty(0)
    # gaps[k]: minimum of x[p_{k-1}:p_k], with x[:p_0] first, x[p_last:] last.
    gaps = np.minimum.reduceat(x, np.concatenate(([0], peaks))).tolist()
    heights = x[peaks].tolist()
    left = _bases(heights, gaps[:-1])
    right = _bases(heights[::-1], gaps[:0:-1])[::-1]
    return np.array(
        [h - max(lo, hi) for h, lo, hi in zip(heights, left, right)]
    )


def find_peaks(x, prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` at least ``prominence`` high.

    Equal to ``scipy.signal.find_peaks(x, prominence=prominence)[0]`` for
    a finite 1-D ``x``.
    """
    values = np.asarray(x, dtype=float)
    if values.ndim != 1:
        raise ValueError("find_peaks expects a 1-D array")
    peaks = local_maxima(values)
    return peaks[prominences(values, peaks) >= prominence]
