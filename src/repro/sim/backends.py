"""Backend names and the fused lane's closed-form scan.

Simulation drivers (:class:`~repro.fleet.simulator.FleetSimulator`,
:class:`~repro.room.simulator.RoomSimulator`, :func:`~repro.sim.batch.
run_batch`, the room stack and campaign chunks) accept a backend *name*
from :data:`BACKENDS`; :func:`batch_stepper` is the one place that maps
it to a batch lane and its stepper class.  The fused stepper is imported
on first use, because :mod:`repro.sim.fused` imports
:mod:`repro.sim.batch`.

Both array lanes share one window kernel (:mod:`repro.sim.batch`) and
differ only in how they advance the plant over a window.  The fused
lane evaluates the first-order RC recurrence ``x <- s + (x - s) * a``
for a whole window at once with :func:`exp_scan_numpy`, a cumulative-sum
closed form over the decay-power and geometric-weight tables of
:func:`scan_tables`.  It reorders the arithmetic, so it is covered by the
tier-B tolerances of ``docs/backends.md`` rather than bit-for-bit
equality.
"""

from __future__ import annotations

import functools
import importlib
import math
from typing import Any

import numpy as np

from repro.errors import SimulationError

#: Execution backends every driver accepts.  ``"auto"`` rides the
#: vectorized lane; ``"scalar"`` is the per-server reference loop the
#: drivers run themselves, not a batch stepper.
BACKENDS = ("auto", "scalar", "vectorized", "fused")

#: Batch lane -> (module, class) of its stepper, imported on first use.
_STEPPERS = {
    "vectorized": ("repro.sim.batch", "BatchStepper"),
    "fused": ("repro.sim.fused", "FusedStepper"),
}

#: Precision budget for one closed-form scan block: ``decay**-j`` may
#: grow to at most this factor before the scan restarts from carried
#: state (bounds the cumulative sum's relative error near 1e-10).
SPAN_TARGET_LOG = math.log(1e6)

#: Widest single block whose cumulative sum runs as one matmul with an
#: upper-triangular ones matrix (``O(w**2)`` work per row, so wider
#: blocks accumulate instead).  Control windows are about 10 steps.
_CUMSUM_MATMUL_MAX_W = 64


@functools.lru_cache(maxsize=_CUMSUM_MATMUL_MAX_W)
def _cumsum_op(w: int) -> np.ndarray:
    """The read-only ``(w, w)`` upper-triangular ones matrix.

    ``f @ _cumsum_op(w)`` is the running sum of ``f`` along its columns.
    """
    op = np.triu(np.ones((w, w)))
    op.flags.writeable = False
    return op


def batch_stepper(backend: str) -> tuple[str, Any]:
    """The batch lane a backend name runs on, and its stepper class."""
    lane = "vectorized" if backend == "auto" else backend
    entry = _STEPPERS.get(lane)
    if entry is None:
        raise SimulationError(
            f"unknown batch backend {backend!r}; choose from "
            f"{tuple(sorted(_STEPPERS))}"
        )
    module, attr = entry
    return lane, getattr(importlib.import_module(module), attr)


def scan_tables(
    decay: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Closed-form scan tables ``(powers, geom, span)`` for a window of ``w``.

    ``span`` is how many steps one closed-form block may cover before
    ``decay**-j`` exceeds :data:`SPAN_TARGET_LOG`; it follows the
    smallest decay in ``decay`` (a decay of 0, or one that underflows,
    gives span 1).  ``powers[:, j] = decay**j`` for ``j = 0..span`` and
    ``geom[:, j] = (1 - decay) / decay**j`` for ``j < span``.
    """
    a_min = float(decay.min())
    if a_min >= 1.0:
        full = 1 << 30
    elif a_min <= 0.0:
        full = 1
    else:
        full = max(1, int(SPAN_TARGET_LOG / -math.log(a_min)))
    span = min(w, full)
    n = decay.shape[0]
    powers = np.empty((n, span + 1))
    powers[:, 0] = 1.0
    powers[:, 1:] = np.cumprod(
        np.broadcast_to(decay[:, None], (n, span)), axis=1
    )
    return powers, (1.0 - decay)[:, None] / powers[:, :span], span


def exp_scan_numpy(
    x0: np.ndarray,
    forcing: np.ndarray,
    powers: np.ndarray,
    geom: np.ndarray,
    span: int,
) -> np.ndarray:
    """Exponential-recurrence trajectories via a cumulative closed form.

    Solves ``x_J = a^J x_0 + sum_{i<J} a^(J-1-i) (1-a) s_i`` for
    ``J = 1..w`` (the recurrence ``x <- s + (x - s) a``) as one
    cumulative sum per block (a matmul with a triangular ones matrix for
    a short single block)::

        C_J = sum_{i<J} s_i * geom_i      (cumsum along the window)
        x_J = a^J x_0 + a^(J-1) C_J

    ``powers``, ``geom`` and ``span`` come from :func:`scan_tables` (the
    fused backend caches them per plant version).  Past ``span`` steps
    the scan restarts from the carried state, so ``a^-j`` never erodes
    float precision.  All forcing terms are nonnegative for this plant
    (steady states are temperatures), so the cumulative sum never
    cancels.
    """
    n, w = forcing.shape
    if w <= span and w <= _CUMSUM_MATMUL_MAX_W:
        # Single block (the per-control-window common case): the
        # cumulative sum is one gemm with the triangular ones matrix,
        # several times cheaper than accumulating along the short axis.
        c = (forcing * geom[:, :w]) @ _cumsum_op(w)
        np.multiply(powers[:, :w], c, out=c)
        c += powers[:, 1 : w + 1] * x0[:, None]
        return c
    # np.add.accumulate is the cumulative sum np.cumsum computes, without
    # np.cumsum's wrapper, which costs about 40% of a (16, 10) block's sum.
    out = np.empty((n, w))
    lo = 0
    x = x0
    while lo < w:
        hi = min(w, lo + span)
        wb = hi - lo
        c = np.add.accumulate(forcing[:, lo:hi] * geom[:, :wb], axis=1)
        block = out[:, lo:hi]
        np.multiply(powers[:, :wb], c, out=block)
        block += powers[:, 1 : wb + 1] * x[:, None]
        x = out[:, hi - 1]
        lo = hi
    return out
