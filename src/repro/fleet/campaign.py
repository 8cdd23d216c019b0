"""Parallel campaign runner: fan fleet scenarios out over processes.

A campaign is a list of :class:`CampaignTask`\\ s - picklable, fully
self-describing (scenario name, fleet size, seed, duration, coupling
strength) - each of which a worker turns into a rack, simulates, and
returns as a :class:`~repro.fleet.result.FleetResult`.  Because every
task carries its own seed and the builders derive all per-server RNG
streams from it deterministically, results are identical whichever
worker (or the parent process, for the serial path) executes the task;
:class:`CampaignRunner` only chooses *where* tasks run, via the same
:func:`~repro.sim.parallel.parallel_map` machinery parameter sweeps use.
Room tasks (:class:`~repro.room.campaign.RoomTask`) run through the same
worker: a task type supplies only how to build its system and fault
schedule (``build``), which simulator runs it (``simulator_type``) and
how it stacks (``chunk_key``); :func:`check_task` holds the
construction-time checks every task type runs.

Process-level parallelism composes with the vectorized backend twice
over: each worker advances racks as array ops, and the runner **chunks
same-shape tasks** (equal server count and time grid) so one worker
stacks several racks into a single ``(n_racks * B,)`` batch via
:func:`repro.room.simulator.run_stacked_racks` - the same lockstep
driver ``FleetSimulator`` runs a solo task on, with block-diagonal
coupling, so every result stays bit-for-bit identical to its solo run
while the per-``dt`` Python dispatch is paid once per chunk instead of
once per rack.  The chunk each result rode in is recorded under
``result.extras["chunk"]``.  Set ``chunk_size=1`` to force one rack per
task, or ``CampaignTask.backend="scalar"`` to force the reference loop,
e.g. when profiling or bisecting a backend discrepancy.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Any, Iterable, Sequence

from repro.config import FleetConfig
from repro.errors import FleetError
from repro.faults.events import FaultSchedule
from repro.fleet.result import FleetResult
from repro.fleet.scenarios import FLEET_SCENARIOS, build_fleet_scenario
from repro.obs.collector import ObsCollector, ObsConfig, merge_summaries
from repro.obs.sinks import QueueSink
from repro.sim.backends import BACKENDS
from repro.sim.parallel import parallel_map, resolve_workers
from repro.sim.scenarios import SCHEME_NAMES
from repro.units import check_duration

#: Default racks per stacked chunk.  Past ~4 racks the per-``dt``
#: dispatch is already well amortized and wider stacks only grow worker
#: payloads, so the default stays modest.
DEFAULT_CHUNK_SIZE = 4


def check_task(task) -> None:
    """The construction-time checks every campaign task type runs.

    A bad field raises here, in the process building the campaign,
    rather than inside a pool worker after earlier chunks have spent
    their time.  Each error names the field.
    """
    if task.backend not in BACKENDS:
        raise FleetError(
            f"unknown backend {task.backend!r}; choose from {BACKENDS}"
        )
    if task.scheme not in SCHEME_NAMES:
        raise FleetError(
            f"unknown scheme {task.scheme!r}; choose from {SCHEME_NAMES}"
        )
    check_duration(task.duration_s, "duration_s")
    check_duration(task.dt_s, "dt_s")
    decimation = task.record_decimation
    if not isinstance(decimation, Integral) or decimation < 1:
        raise FleetError(
            f"record_decimation must be a positive integer, got {decimation!r}"
        )
    if task.faults is not None and not isinstance(task.faults, FaultSchedule):
        raise FleetError(
            "task faults must be a FaultSchedule or None, got "
            f"{type(task.faults).__name__}"
        )
    if task.obs is not None and not isinstance(task.obs, ObsConfig):
        raise FleetError(
            "task obs must be an ObsConfig (picklable), got "
            f"{type(task.obs).__name__}"
        )


@dataclass(frozen=True)
class CampaignTask:
    """One fleet run: everything a worker needs to reproduce it exactly."""

    scenario: str
    n_servers: int = 4
    seed: int = 0
    duration_s: float = 600.0
    dt_s: float = 0.1
    record_decimation: int = 10
    recirc_fraction: float = 0.25
    scheme: str = "rcoord"
    #: Execution backend ("auto" = vectorized whenever the rack batches).
    backend: str = "auto"
    #: Optional fault schedule injected into the run (repro.faults).
    #: Faulted tasks run one rack per task - schedules target servers by
    #: rack position, which stacking would re-index.
    faults: FaultSchedule | None = None
    #: Optional :class:`~repro.obs.ObsConfig` profiling the run
    #: (repro.obs).  Must be a *config*, not a live collector - tasks
    #: cross process-pool boundaries, so everything they carry must
    #: pickle.  Workers collect into memory regardless of the config's
    #: sink spec and ship the summary back as ``extras["obs"]``;
    #: instrumented tasks run one rack per task so each summary
    #: attributes exactly its own run.
    obs: ObsConfig | None = None

    def __post_init__(self) -> None:
        if self.scenario not in FLEET_SCENARIOS:
            raise FleetError(
                f"unknown fleet scenario {self.scenario!r}; choose from "
                f"{sorted(FLEET_SCENARIOS)}"
            )
        check_task(self)
        self.fleet_config  # its validators reject a bad rack here

    @property
    def label(self) -> str:
        """Stable identifier for reports and result lookup."""
        label = (
            f"{self.scenario}/n{self.n_servers}"
            f"/f{self.recirc_fraction:g}/s{self.seed}"
        )
        if self.faults is not None:
            label += f"/{self.faults.label}"
        return label

    @property
    def chunk_key(self) -> tuple:
        """Tasks sharing this key can stack into one batch run.

        Stacking requires one time grid (duration, dt, decimation) and
        same-shape racks; ``"scalar"``-backend and faulted tasks group
        together but always fall back to one rack per task inside the
        worker.
        """
        return (
            self.n_servers,
            self.duration_s,
            self.dt_s,
            self.record_decimation,
            self.backend,
            self.faults,
            self.obs,
        )

    @property
    def fleet_config(self) -> FleetConfig:
        """The :class:`~repro.config.FleetConfig` this task describes."""
        return FleetConfig(
            n_servers=self.n_servers, recirc_fraction=self.recirc_fraction
        )

    def build(self) -> tuple[Any, FaultSchedule | None]:
        """The rack this task runs, and its fault schedule."""
        rack = build_fleet_scenario(
            self.scenario,
            n_servers=self.n_servers,
            duration_s=self.duration_s,
            seed=self.seed,
            fleet=self.fleet_config,
            scheme=self.scheme,
        )
        return rack, self.faults

    @property
    def simulator_type(self) -> type:
        """The simulator class that runs the built rack."""
        # Imported on use: fleet.simulator imports room.simulator, whose
        # package imports room.campaign, which imports this module.
        from repro.fleet.simulator import FleetSimulator

        return FleetSimulator


def worker_info(task_wall_s: float) -> dict:
    """The executing process's attribution record (``extras["worker"]``).

    ``pid`` identifies which pool worker (or the parent, on the serial
    path) ran the task; ``task_wall_s`` is the task's wall time there,
    from the end of the build to the end of the run, so it covers the
    simulator's construction and the simulation but not the scenario
    build.  Stacked tasks share their chunk's wall time - the batch
    advances them together, so per-task splits would be fiction.
    """
    return {"pid": os.getpid(), "task_wall_s": task_wall_s}


def _worker_obs(obs: ObsConfig | None) -> ObsConfig | None:
    """Worker-local collector config: always an in-memory sink.

    Pool workers must not contend for one JSONL file or interleave
    stdout; summaries ride back in ``extras["obs"]`` and the parent
    merges (see :func:`merge_campaign_obs`) or re-emits them.
    """
    if obs is None:
        return None
    return replace(obs, sink="memory")


def _worker_collector(
    task, queue
) -> tuple[ObsCollector | None, QueueSink | None]:
    """The worker-side collector (and its queue sink) for one task.

    Without a stream queue the config alone suffices (the simulator
    builds a memory-sink collector from it); with one, the collector's
    periodic snapshots route through a :class:`QueueSink` so the parent
    sees progress mid-task.  Returns ``(None, None)`` for
    uninstrumented or disabled tasks.
    """
    cfg = _worker_obs(task.obs)
    if cfg is None or not cfg.enabled:
        return None, None
    sink = QueueSink(queue) if queue is not None else None
    return ObsCollector(cfg, sink=sink), sink


def _export_worker_trace(collector: ObsCollector | None, task) -> None:
    """Write this task's span trace where ``ObsConfig.trace_export`` says.

    One pid-tagged JSONL per task (labels sanitized for the filesystem);
    ``python -m repro.obs.report --merged-trace`` stitches the files
    into one Perfetto timeline with per-worker lanes.
    """
    if collector is None or task.obs is None or task.obs.trace_export is None:
        return
    from pathlib import Path

    out_dir = Path(task.obs.trace_export)
    out_dir.mkdir(parents=True, exist_ok=True)
    safe_label = task.label.replace("/", "_").replace("\\", "_")
    collector.export_trace_jsonl(
        out_dir / f"trace-{os.getpid()}-{safe_label}.jsonl"
    )


def _push_task_final(queue, index, task, result, sink) -> None:
    """Ship one task's authoritative final record to the parent.

    Blocking ``put``: unlike periodic snapshots (droppable on a full
    queue), every final summary must arrive exactly once for the
    streamed fold to merge byte-identically with the post-hoc one.
    """
    if queue is None:
        return
    queue.put(
        {
            "type": "task_final",
            "index": index,
            "label": task.label,
            "summary": result.extras.get("obs"),
            "worker": result.extras.get("worker"),
            "sink_dropped": sink.dropped if sink is not None else 0,
        }
    )


def _simulate_task(task, built, queue=None, index: int | None = None):
    """Simulate one task's built system alone: the only worker body."""
    system, faults = built
    t0 = time.perf_counter()
    collector, sink = _worker_collector(task, queue)
    sim = task.simulator_type(
        system,
        dt_s=task.dt_s,
        record_decimation=task.record_decimation,
        backend=task.backend,
        faults=faults,
        obs=collector if collector is not None else _worker_obs(task.obs),
    )
    result = sim.run(task.duration_s, label=task.label)
    extras = {
        **result.extras,
        "task": task,
        "worker": worker_info(time.perf_counter() - t0),
    }
    result = replace(result, extras=extras)
    _export_worker_trace(collector, task)
    _push_task_final(queue, index, task, result, sink)
    return result


def run_campaign_task(task, queue=None, index: int | None = None):
    """Build and simulate one rack or room task (module-level: pool-picklable).

    Returns a :class:`FleetResult` for a :class:`CampaignTask` and a
    :class:`~repro.room.result.RoomResult` for a
    :class:`~repro.room.campaign.RoomTask`.
    """
    return _simulate_task(task, task.build(), queue=queue, index=index)


def run_campaign_chunk(
    tasks: Sequence[CampaignTask],
    queue=None,
    indices: Sequence[int] | None = None,
) -> list[FleetResult]:
    """Run a chunk of same-shape tasks as one stacked batch.

    Module-level and picklable, like :func:`run_campaign_task`.  Racks
    stack with block-diagonal coupling (mutually independent), so each
    result is bit-for-bit identical to its solo run; when the chunk
    cannot stack (room tasks, scalar backend requested, or a rack the
    batch backend cannot represent) every task silently falls back to
    its own :func:`run_campaign_task` run.  A chunk mixing rack and room
    tasks raises :class:`~repro.errors.FleetError`.

    ``queue``/``indices`` are the streaming-campaign plumbing: when a
    :class:`~repro.obs.live.CampaignStream` is attached, each task's
    final record (and any periodic snapshots) flow to the parent
    through the queue, tagged with the task's campaign-wide index.
    """
    tasks = list(tasks)
    if indices is None:
        indices = list(range(len(tasks)))
    if len({type(task) for task in tasks}) > 1:
        raise FleetError(
            "a campaign chunk must be all rack tasks or all room tasks; "
            "CampaignRunner never mixes them within one chunk"
        )
    from repro.room import run_stacked_racks, stacked_unsupported_reason

    built = [task.build() for task in tasks]
    racks = [system for system, _ in built]
    # Rooms (no chunk key) already run as one stacked batch each.  Fault
    # schedules target servers by rack position, and a stacked batch
    # would profile the whole chunk as one run, so faulted, instrumented
    # and scalar tasks run one at a time too.
    if (
        len(tasks) <= 1
        or tasks[0].chunk_key is None
        or any(task.faults is not None for task in tasks)
        or any(task.obs is not None for task in tasks)
        or any(task.backend == "scalar" for task in tasks)
        or stacked_unsupported_reason(racks) is not None
    ):
        return [
            _simulate_task(task, one, queue=queue, index=index)
            for task, one, index in zip(tasks, built, indices)
        ]
    labels = [task.label for task in tasks]
    t0 = time.perf_counter()
    # chunk_key groups by backend, so the whole chunk shares one lane.
    results = run_stacked_racks(
        racks,
        duration_s=tasks[0].duration_s,
        dt_s=tasks[0].dt_s,
        record_decimation=tasks[0].record_decimation,
        labels=labels,
        backend=tasks[0].backend,
    )
    worker = worker_info(time.perf_counter() - t0)
    chunk_info = {"size": len(tasks), "labels": tuple(labels)}
    out = [
        replace(
            result,
            extras={
                **result.extras,
                "task": task,
                "chunk": {**chunk_info, "position": i},
                "worker": worker,
            },
        )
        for i, (task, result) in enumerate(zip(tasks, results))
    ]
    for index, task, result in zip(indices, tasks, out):
        _push_task_final(queue, index, task, result, None)
    return out


def _run_chunk_streamed(payload) -> list[FleetResult]:
    """Pool entry point for streamed chunks: ``(indices, tasks, queue)``."""
    indices, tasks, queue = payload
    return run_campaign_chunk(tasks, queue=queue, indices=indices)


def merge_campaign_obs(results: Sequence[Any]) -> dict:
    """Merge the observability summaries of campaign results.

    Results arrive in task order whichever workers ran them, and
    :func:`~repro.obs.merge_summaries` folds deterministic fields
    (counters, phase/histogram counts) with integer addition in input
    order, so serial and parallel executions of the same campaign merge
    to identical counters.  Uninstrumented results are skipped; with
    none instrumented the merge reports zero runs.
    """
    return merge_summaries(
        result.extras.get("obs", {}) for result in results
    )


def campaign_grid(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    recirc_fractions: Sequence[float] = (0.25,),
    **task_kwargs,
) -> list[CampaignTask]:
    """The full cross product scenario x recirc_fraction x seed, in order."""
    return [
        CampaignTask(
            scenario=scenario,
            seed=seed,
            recirc_fraction=fraction,
            **task_kwargs,
        )
        for scenario in scenarios
        for fraction in recirc_fractions
        for seed in seeds
    ]


class CampaignRunner:
    """Execute campaign tasks serially or across a process pool.

    ``workers`` of ``None``/``0``/``1`` runs in-process; larger values
    use a :class:`~concurrent.futures.ProcessPoolExecutor`.
    ``chunk_size`` bounds how many same-shape tasks one worker stacks
    into a single batch run (1 = one rack per task, the pre-chunking
    behaviour).  Whatever the knobs, results come back in task order
    and are value-identical, so both parallelism levels are pure
    throughput knobs.
    """

    def __init__(
        self, workers: int | None = None, chunk_size: int | None = None
    ) -> None:
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        if chunk_size < 1:
            raise FleetError(f"chunk_size must be >= 1, got {chunk_size}")
        self._workers = workers
        self._chunk_size = chunk_size

    @property
    def workers(self) -> int | None:
        """Configured pool size (None = serial)."""
        return self._workers

    @property
    def chunk_size(self) -> int:
        """Maximum same-shape tasks stacked into one batch run."""
        return self._chunk_size

    def _chunks(
        self, tasks: list
    ) -> list[tuple[list[int], list]]:
        """Split tasks into stackable chunks, remembering their indices.

        Tasks group by their ``chunk_key``; a task whose key is ``None``
        (a :class:`~repro.room.campaign.RoomTask`: a room already runs
        as one stacked batch internally) is its own chunk.
        """
        grouped: dict[tuple, list[int]] = {}
        chunks: list[tuple[list[int], list]] = []
        for i, task in enumerate(tasks):
            if task.chunk_key is None:
                chunks.append(([i], [task]))
            else:
                grouped.setdefault(task.chunk_key, []).append(i)
        for indices in grouped.values():
            for lo in range(0, len(indices), self._chunk_size):
                part = indices[lo : lo + self._chunk_size]
                chunks.append((part, [tasks[i] for i in part]))
        # Deterministic execution order: by first task index.
        chunks.sort(key=lambda chunk: chunk[0][0])
        return chunks

    def run(self, tasks: Iterable, stream=None) -> list:
        """Run every task and return results in task order.

        Accepts a mix of :class:`CampaignTask` (rack) and
        :class:`~repro.room.campaign.RoomTask` (room) entries; each
        result slot holds the matching :class:`FleetResult` or
        :class:`~repro.room.result.RoomResult`.

        ``stream`` optionally names a
        :class:`~repro.obs.live.CampaignStream`: workers then push
        periodic obs snapshots and one final record per task to the
        parent (over a bounded multiprocessing queue when a pool is in
        play), so progress, aggregate throughput, and incident tallies
        are available *mid-campaign* - e.g. through a
        :class:`~repro.obs.live.LiveObsServer` serving the stream.
        Results are value-identical with and without a stream attached.
        """
        task_list = list(tasks)
        if not task_list:
            raise FleetError("campaign needs at least one task")
        chunks = self._chunks(task_list)
        if stream is None:
            chunk_results = parallel_map(
                run_campaign_chunk,
                [chunk_tasks for _, chunk_tasks in chunks],
                workers=self._workers,
            )
        else:
            chunk_results = self._run_streamed(task_list, chunks, stream)
        results: list[FleetResult | None] = [None] * len(task_list)
        for (indices, _), chunk in zip(chunks, chunk_results):
            for i, result in zip(indices, chunk):
                results[i] = result
        return results  # type: ignore[return-value]

    def _run_streamed(self, task_list: list, chunks: list, stream) -> list:
        """Execute chunks while routing worker records into ``stream``.

        Serial path: chunks run in-process against a local queue,
        drained after each chunk.  Pool path: a ``multiprocessing``
        manager queue (bounded by ``stream.queue_maxsize``) carries the
        records, drained continuously by a parent thread so progress is
        visible while workers are still simulating.
        """
        stream.begin(len(task_list))
        campaign_span = (
            stream.obs.span("campaign")
            if stream.obs is not None
            else nullcontext()
        )
        with campaign_span:
            n_workers = resolve_workers(self._workers, len(chunks))
            if n_workers <= 1:
                import queue as queue_mod

                local: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
                chunk_results = []
                for indices, chunk_tasks in chunks:
                    chunk_results.append(
                        run_campaign_chunk(
                            chunk_tasks, queue=local, indices=indices
                        )
                    )
                    while not local.empty():
                        stream.add_record(local.get())
                return chunk_results
            import multiprocessing
            import threading

            manager = multiprocessing.Manager()
            try:
                queue = manager.Queue(maxsize=stream.queue_maxsize)
                stop = threading.Event()

                def drain() -> None:
                    import queue as queue_mod

                    while True:
                        try:
                            record = queue.get(timeout=0.1)
                        except queue_mod.Empty:
                            if stop.is_set():
                                return
                            continue
                        except (EOFError, OSError):
                            return  # manager torn down
                        stream.add_record(record)

                drainer = threading.Thread(
                    target=drain, name="repro-campaign-drain", daemon=True
                )
                drainer.start()
                try:
                    chunk_results = parallel_map(
                        _run_chunk_streamed,
                        [
                            (indices, chunk_tasks, queue)
                            for indices, chunk_tasks in chunks
                        ],
                        workers=self._workers,
                    )
                finally:
                    stop.set()
                    drainer.join(timeout=10.0)
                    # The drainer exits on its first post-stop timeout;
                    # records still queued at that instant drain here.
                    while True:
                        try:
                            stream.add_record(queue.get_nowait())
                        except Exception:
                            break
                return chunk_results
            finally:
                manager.shutdown()

    def run_summaries(
        self, tasks: Iterable[CampaignTask]
    ) -> list[dict[str, float]]:
        """Run tasks and reduce each result to its flat fleet summary."""
        return [result.summary() for result in self.run(tasks)]
