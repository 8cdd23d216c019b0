"""Parameter-sweep harness used by the ablation benchmarks and experiments.

Two execution paths:

* the original **runner** path - a callable maps each parameter value to
  a finished :class:`~repro.sim.result.SimulationResult` (optionally
  across a process pool via ``workers=``), and
* a **spec** path - a ``spec_builder`` maps each value to a
  :class:`~repro.sim.batch.BatchRunSpec`, letting the whole grid run on
  the vectorized batch backend as one ``(B,)`` array simulation
  (``backend="vectorized"``), or serially through
  :class:`~repro.sim.engine.Simulator` (``backend="scalar"``), with
  identical results either way.

Prefer the spec path for new sweeps: it gets both the array plant and
(for common DTM compositions) the array controller backend for free,
and degrades to exact per-spec scalar simulation when a grid cannot
batch.  Canned spec builders live in :mod:`repro.sim.scenarios`
(:func:`~repro.sim.scenarios.scheme_spec`,
:func:`~repro.sim.scenarios.fan_only_spec`).  Metric extractors run in
the parent process either way, so they may be lambdas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.backends import BACKENDS
from repro.sim.batch import BatchRunSpec, run_batch
from repro.sim.parallel import parallel_map
from repro.sim.result import SimulationResult


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the parameter value and the run it produced."""

    value: Any
    result: SimulationResult
    metrics: dict[str, float] = field(default_factory=dict)


class ParameterSweep:
    """Run a factory across a list of parameter values and collect metrics.

    Parameters
    ----------
    runner:
        Callable mapping one parameter value to a
        :class:`~repro.sim.result.SimulationResult`.  Required for the
        default (``backend="scalar"``) runner path.
    metric_fns:
        Optional named metric extractors evaluated on each result.
    spec_builder:
        Callable mapping one parameter value to a
        :class:`~repro.sim.batch.BatchRunSpec`; enables
        ``backend="vectorized"``.
    """

    def __init__(
        self,
        runner: Callable[[Any], SimulationResult] | None = None,
        metric_fns: dict[str, Callable[[SimulationResult], float]] | None = None,
        spec_builder: Callable[[Any], BatchRunSpec] | None = None,
    ) -> None:
        if runner is None and spec_builder is None:
            raise SimulationError(
                "ParameterSweep needs a runner, a spec_builder, or both"
            )
        self._runner = runner
        self._metric_fns = metric_fns or {}
        self._spec_builder = spec_builder

    def run(
        self,
        values: list[Any],
        workers: int | None = None,
        backend: str = "scalar",
    ) -> list[SweepPoint]:
        """Execute the sweep; raises on an empty value list.

        ``backend="scalar"`` (default) uses the runner path; ``workers``
        > 1 then runs the sweep points across a process pool (the runner
        must be picklable, e.g. a module-level function).
        Any other name in :data:`~repro.sim.backends.BACKENDS`
        (``"auto"``, ``"vectorized"``, ``"fused"``) builds every point's
        spec and runs the whole grid through that batch lane in-process
        (``workers`` is ignored); grids the batch lanes cannot represent
        fall back to per-spec scalar simulation.  Point order always
        matches ``values``, and metric extractors run in the parent
        process so they may be lambdas either way.
        """
        if not values:
            raise SimulationError("sweep needs at least one parameter value")
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if backend != "scalar":
            results = self._run_specs(values, batch_backend=backend)
        elif self._runner is not None:
            results = parallel_map(self._runner, values, workers=workers)
        else:
            results = self._run_specs(values, force_scalar=True)
        points = []
        for value, result in zip(values, results):
            metrics = {
                name: fn(result) for name, fn in self._metric_fns.items()
            }
            points.append(SweepPoint(value=value, result=result, metrics=metrics))
        return points

    def _run_specs(
        self,
        values: list[Any],
        force_scalar: bool = False,
        batch_backend: str = "vectorized",
    ) -> list[SimulationResult]:
        if self._spec_builder is None:
            raise SimulationError(
                "batch backends need a spec_builder mapping each "
                "value to a BatchRunSpec"
            )
        specs = [self._spec_builder(value) for value in values]
        if not force_scalar:
            try:
                return run_batch(specs, backend=batch_backend)
            except SimulationError:
                # Heterogeneous-structure grid: fall back to the scalar
                # engine, which accepts anything the specs describe.
                pass
        return [self._run_spec_scalar(spec) for spec in specs]

    @staticmethod
    def _run_spec_scalar(spec: BatchRunSpec) -> SimulationResult:
        from repro.sim.engine import Simulator

        sim = Simulator(
            spec.plant,
            spec.sensor,
            spec.workload,
            spec.controller,
            dt_s=spec.dt_s,
            record_decimation=spec.record_decimation,
            violation_tolerance=spec.violation_tolerance,
            degradation_window=spec.degradation_window,
        )
        return sim.run(spec.duration_s, label=spec.label)

    @staticmethod
    def table(points: list[SweepPoint], metric: str) -> list[tuple[Any, float]]:
        """(value, metric) pairs for one metric across the sweep."""
        return [(p.value, p.metrics[metric]) for p in points]
