"""Order-preserving serial/parallel map for campaigns and per-value runs.

:class:`~repro.fleet.campaign.CampaignRunner` fans its chunks out over a
:class:`~concurrent.futures.ProcessPoolExecutor` with
:func:`parallel_map`, and so can a sweep whose points are not batchable
specs for :func:`~repro.sim.batch.run_batch`.  The policy: results come
back in input order, ``workers`` of ``None``/``0``/``1`` means run
serially in-process, and the work function plus items must be picklable
once a pool is involved (module-level functions and frozen dataclasses
qualify; lambdas do not).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from repro.errors import SimulationError


def resolve_workers(workers: int | None, n_items: int) -> int:
    """Effective pool size: 1 means serial, never more workers than items."""
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    return max(1, min(workers, n_items))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int | None = None,
) -> list[Any]:
    """Map ``fn`` over ``items``, serially or across a process pool.

    Results are returned in the order of ``items`` regardless of which
    worker finished first, so parallel and serial execution produce the
    same list.  Any exception raised by ``fn`` propagates to the caller
    (the pool is torn down first).
    """
    work: Sequence[Any] = list(items)
    n_workers = resolve_workers(workers, len(work))
    if n_workers <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, work))
