"""Run-scoped observability: phase timing, span tracing, streaming metrics.

One :class:`ObsCollector` instruments one run (or one campaign worker's
slice of a campaign).  Three concerns share the collector because they
share the same hot-path timestamps:

* **Phase timing** - :meth:`ObsCollector.phase` folds ``end - start``
  into a per-phase ``(total_s, count)`` accumulator.  This is the
  profiling breakdown that lands in ``result.extras["obs"]`` and
  quantifies where step time goes (the Python-dispatch question behind
  ROADMAP item 1).
* **Span tracing** - the same call appends a ``(name, t0, t1, depth)``
  entry to a bounded :class:`SpanBuffer` ring (oldest evicted first),
  and :meth:`ObsCollector.span` wraps macro regions (whole runs,
  campaign tasks) as nested spans.  Export as JSONL or Chrome trace
  format (`chrome://tracing` / Perfetto).
* **Streaming metrics** - counters, gauges, and :class:`Histogram`
  distributions, snapshotted to a pluggable
  :class:`~repro.obs.sinks.MetricSink` every ``emit_every_s`` simulated
  seconds, so long campaigns report progress incrementally instead of
  materializing everything at the end.

The cardinal rule, pinned by ``tests/test_obs.py``: **observation never
perturbs the simulation**.  Collectors only ever read wall clocks and
write their own buffers - no RNG draws, no simulation-state access - so
an instrumented run is bit-for-bit identical to an uninstrumented one
on every backend (the ``docs/backends.md`` equivalence contract is
unaffected).  Wall-clock fields are inherently nondeterministic;
anything that must merge deterministically across campaign workers
(counters, histogram counts) is kept separate from timing fields, and
:func:`merge_summaries` preserves that split.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import ObsError
from repro.obs.monitor import HealthMonitor, MonitorConfig
from repro.obs.sinks import MetricSink, build_sink

#: Phase names the simulation lanes record, in loop order.  Collectors
#: accept any name (subsystems may add their own), but these are the
#: taxonomy documented in docs/observability.md.
PHASES = (
    "workload",
    "faults",
    "coupling",
    "plant",
    "sensing",
    "control",
    "monitor",
    "record",
)

#: Histogram bucket upper bounds: powers of two spanning sub-microsecond
#: phase times up to multi-hour totals, plus an overflow bucket.
_HIST_BOUNDS = tuple(2.0**e for e in range(-21, 22, 3)) + (math.inf,)


@dataclass(frozen=True)
class ObsConfig:
    """Picklable observability configuration for one run or campaign task.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled configs make every simulator treat the
        run as uninstrumented - the hot loops see ``None`` and pay
        nothing beyond their existing guard checks.
    trace:
        Record per-phase spans into the ring buffer.  Phase *timing*
        (the accumulators) is always on for enabled collectors; tracing
        adds the individual span entries.
    trace_capacity:
        Ring-buffer size in spans; the oldest spans are evicted once
        full (`SpanBuffer.dropped` counts them).
    emit_every_s:
        Streaming cadence in *simulated* seconds (None = only the final
        snapshot is emitted).
    sink:
        Sink spec: ``"memory"``, ``"stdout"``, or ``"jsonl:<path>"``
        (see :func:`~repro.obs.sinks.build_sink`).
    monitor:
        Optional :class:`~repro.obs.monitor.MonitorConfig`.  When set
        (and enabled), simulators arm a per-run
        :class:`~repro.obs.monitor.HealthMonitor` that evaluates
        streaming health rules and records incidents.
    trace_export:
        Optional directory campaign workers write their span traces to
        (one pid-tagged JSONL per task, via
        :meth:`ObsCollector.export_trace_jsonl`).  Those files are the
        inputs ``python -m repro.obs.report --merged-trace`` stitches
        into one Perfetto timeline; see docs/observability.md.
    """

    enabled: bool = True
    trace: bool = True
    trace_capacity: int = 4096
    emit_every_s: float | None = None
    sink: str = "memory"
    monitor: MonitorConfig | None = None
    trace_export: str | None = None

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ObsError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        if self.trace_export is not None and not isinstance(
            self.trace_export, str
        ):
            raise ObsError(
                "trace_export must be a directory path string or None, "
                f"got {type(self.trace_export).__name__}"
            )
        if self.emit_every_s is not None and self.emit_every_s <= 0.0:
            raise ObsError(
                f"emit_every_s must be > 0, got {self.emit_every_s}"
            )
        if self.monitor is not None and not isinstance(
            self.monitor, MonitorConfig
        ):
            raise ObsError(
                "monitor must be a MonitorConfig or None, got "
                f"{type(self.monitor).__name__}"
            )


@dataclass(frozen=True)
class Span:
    """One recorded span: a named wall-clock interval at a nesting depth."""

    name: str
    start_s: float
    end_s: float
    depth: int

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.start_s


class SpanBuffer:
    """Bounded ring of span tuples; appending past capacity evicts oldest.

    The hot path stores raw tuples (no dataclass construction per
    append); :meth:`spans` materializes :class:`Span` objects in
    chronological (append) order.
    """

    __slots__ = ("_buf", "_capacity", "_next", "total")

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._buf: list[tuple[str, float, float, int]] = []
        self._next = 0
        self.total = 0

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def capacity(self) -> int:
        """Maximum retained spans."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Spans evicted to keep the buffer within capacity."""
        return self.total - len(self._buf)

    def append(self, name: str, start_s: float, end_s: float, depth: int) -> None:
        """Record one span (hot path: one list write)."""
        entry = (name, start_s, end_s, depth)
        buf = self._buf
        if len(buf) < self._capacity:
            buf.append(entry)
        else:
            buf[self._next] = entry
            self._next += 1
            if self._next == self._capacity:
                self._next = 0
        self.total += 1

    def spans(self) -> list[Span]:
        """Retained spans, oldest first."""
        buf = self._buf
        ordered = buf[self._next :] + buf[: self._next]
        return [Span(*entry) for entry in ordered]


class Histogram:
    """Power-of-two-bucketed distribution with exact count/sum/min/max.

    Bucket *counts* are deterministic for deterministic inputs and merge
    by addition; ``sum``/``min``/``max`` carry the usual float caveats
    but the simulation lanes only feed wall-clock durations in, so
    nothing here feeds back into simulation arithmetic.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = _HIST_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Fold one sample in."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of observed samples (nan when empty)."""
        return self.sum / self.count if self.count else math.nan

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form for summaries and sinks."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "buckets": {
                ("inf" if math.isinf(b) else f"{b:g}"): c
                for b, c in zip(self.bounds, self.counts)
                if c
            },
        }


class ObsCollector:
    """Per-run observability state: phases, spans, counters, streaming.

    Construction wires the sink; simulators then drive the hot-path
    methods (:meth:`phase`, :meth:`count`, :meth:`tick`) and package
    :meth:`summary` into ``result.extras["obs"]`` at run end.  One
    collector may observe several sequential runs (the phase totals and
    counters keep accumulating), which is how fleet campaigns aggregate
    a worker's tasks.
    """

    def __init__(
        self,
        config: ObsConfig | None = None,
        sink: MetricSink | None = None,
    ) -> None:
        self.config = config or ObsConfig()
        self.sink = sink if sink is not None else build_sink(self.config.sink)
        self.label = "run"
        self._phases: dict[str, list] = {}
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, Histogram] = {}
        # phase name -> its "<name>_seconds" duration histogram; a hot
        # -path cache so phase()/phase_add() skip the f-string + double
        # dict probe after the first interval.
        self._phase_hists: dict[str, Histogram] = {}
        self._spans = SpanBuffer(self.config.trace_capacity)
        self._trace_on = bool(self.config.trace)
        self._depth = 0
        #: This run's armed health monitor (simulators assign it via
        #: :meth:`arm_monitor`; ``None`` when monitoring is off).
        self.monitor: HealthMonitor | None = None
        self._incidents: list[dict] = []
        self._t_created = time.perf_counter()
        # Streaming state: next simulated-time emit threshold.  inf when
        # streaming is off, so the per-step check is one float compare.
        self._emit_every = self.config.emit_every_s
        self._next_emit = math.inf
        self._emitted = 0

    @property
    def enabled(self) -> bool:
        """Whether this collector instruments anything."""
        return self.config.enabled

    # ------------------------------------------------------------------
    # Hot path

    def phase(self, name: str, start_s: float, end_s: float) -> None:
        """Fold one timed phase interval into the accumulators.

        ``start_s``/``end_s`` are ``time.perf_counter()`` readings taken
        by the caller (the loop shares boundary timestamps between
        adjacent phases, so each extra phase costs one clock read).
        """
        acc = self._phases.get(name)
        if acc is None:
            acc = self._phases[name] = [0.0, 0]
        duration = end_s - start_s
        acc[0] += duration
        acc[1] += 1
        # Per-interval duration distribution: feeds the p50/p95/p99
        # columns of ``--hists`` and the ``*_quantile`` gauges on
        # ``/metrics``.  The cache keeps the hot path to one dict probe.
        hist = self._phase_hists.get(name)
        if hist is None:
            hist = self._phase_hists[name] = self._hists.setdefault(
                f"{name}_seconds", Histogram()
            )
        hist.observe(duration)
        if self._trace_on:
            self._spans.append(name, start_s, end_s, self._depth + 1)

    def phase_add(self, name: str, duration_s: float, count: int = 1) -> None:
        """Fold a pre-accumulated phase total into the accumulators.

        The vectorized lanes accumulate phase time in chunk-local floats
        and flush once per chunk through this method - per-``dt``
        :meth:`phase` calls there would cost more than the work they
        time.  No trace span is recorded: an aggregate has no single
        ``[start, end)`` interval.

        The ``<name>_seconds`` histogram receives one sample per flush
        (the chunk aggregate), so on the batch lanes its quantiles
        describe per-window phase cost rather than per-``dt`` cost -
        documented in ``docs/observability.md``.
        """
        acc = self._phases.get(name)
        if acc is None:
            acc = self._phases[name] = [0.0, 0]
        acc[0] += duration_s
        acc[1] += count
        hist = self._phase_hists.get(name)
        if hist is None:
            hist = self._phase_hists[name] = self._hists.setdefault(
                f"{name}_seconds", Histogram()
            )
        hist.observe(duration_s)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter."""
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into a named histogram."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.observe(value)

    def arm_stream(self, sim_time_s: float) -> None:
        """Start the streaming clock at the run's first step time."""
        if self._emit_every is not None:
            self._next_emit = sim_time_s + self._emit_every

    def tick(self, sim_time_s: float, n_servers: int) -> None:
        """One simulation step completed for ``n_servers`` servers.

        Advances the step counters and, when the streaming cadence is
        due, emits a metrics snapshot.  Cost when streaming is off: two
        dict updates and one float compare.
        """
        counters = self._counters
        counters["server_steps"] = counters.get("server_steps", 0) + n_servers
        if sim_time_s >= self._next_emit:
            while self._next_emit <= sim_time_s:
                self._next_emit += self._emit_every
            self.emit_snapshot(sim_time_s)

    def arm_monitor(self, monitor: HealthMonitor | None) -> None:
        """Install this run's health monitor (or clear it with ``None``)."""
        self.monitor = monitor
        if monitor is not None:
            monitor.bind(self)

    def record_incident(self, incident: dict) -> None:
        """Register an opened incident: list, counter, sink, trace span.

        Called by the monitor at incident *onset*; the incident dict is
        shared, so a later clear updates the stored record in place.
        The trace span is zero-duration - :meth:`trace_events` renders
        those as Chrome instant events.
        """
        self._incidents.append(incident)
        self.count("incidents")
        if self._trace_on:
            wall = time.perf_counter()
            self._spans.append(
                f"incident:{incident['detector']}", wall, wall, self._depth + 1
            )
        self.sink.emit({"type": "incident", "label": self.label, **incident})

    @property
    def incidents(self) -> list[dict]:
        """Incidents recorded so far (shared dicts; clears mutate them)."""
        return list(self._incidents)

    def mark(self, name: str) -> None:
        """Record a named zero-duration instant on the trace timeline.

        Instants render as Chrome/Perfetto instant events (the same
        treatment incident onsets get); campaign streams use them to
        put task-completion markers on the stitched timeline.
        """
        if self._trace_on:
            wall = time.perf_counter()
            self._spans.append(name, wall, wall, self._depth + 1)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a nested macro span around a code region.

        Used for coarse regions (a whole run, a campaign task, a report
        render), not the per-``dt`` phases - those go through
        :meth:`phase` with caller-owned timestamps.
        """
        self._depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._depth -= 1
            if self._trace_on:
                self._spans.append(name, start, end, self._depth)

    # ------------------------------------------------------------------
    # Streaming

    def emit_snapshot(self, sim_time_s: float, kind: str = "metrics") -> None:
        """Emit one metrics record to the sink.

        The batch lanes' held monitor samples are swept first, so the
        record carries every incident opened up to its instant.
        """
        if self.monitor is not None:
            self.monitor.flush()
        record = {
            "type": kind,
            "label": self.label,
            "sim_time_s": sim_time_s,
            "wall_s": time.perf_counter() - self._t_created,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "phases": {
                name: {"total_s": acc[0], "count": acc[1]}
                for name, acc in self._phases.items()
            },
            "hists": {
                name: hist.as_dict() for name, hist in self._hists.items()
            },
            "incidents": [dict(inc) for inc in self._incidents],
        }
        self.sink.emit(record)
        self._emitted += 1

    def finish_run(self, sim_time_s: float) -> None:
        """Emit the final snapshot for a completed run and close files."""
        self.emit_snapshot(sim_time_s, kind="final")
        self.sink.close()

    # ------------------------------------------------------------------
    # Results

    @property
    def phase_totals(self) -> dict[str, float]:
        """Per-phase accumulated seconds."""
        return {name: acc[0] for name, acc in self._phases.items()}

    @property
    def counters(self) -> dict[str, int]:
        """Current counter values."""
        return dict(self._counters)

    @property
    def emitted_records(self) -> int:
        """How many records have gone to the sink."""
        return self._emitted

    def spans(self) -> list[Span]:
        """Retained trace spans, oldest first."""
        return self._spans.spans()

    def summary(self) -> dict[str, Any]:
        """The run's observability summary (``result.extras["obs"]``).

        Plain data (picklable, JSON-friendly).  ``counters`` and
        histogram bucket counts are deterministic for deterministic
        runs; ``phases``/``wall_s`` are wall-clock measurements and are
        not (see :func:`merge_summaries`).
        """
        wall = time.perf_counter() - self._t_created
        phases = {
            name: {"total_s": acc[0], "count": acc[1]}
            for name, acc in self._phases.items()
        }
        timed = sum(acc[0] for acc in self._phases.values())
        for name, entry in phases.items():
            entry["fraction"] = (
                entry["total_s"] / timed if timed > 0.0 else 0.0
            )
        return {
            "enabled": True,
            "label": self.label,
            "phases": phases,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "hists": {
                name: hist.as_dict() for name, hist in self._hists.items()
            },
            "incidents": [dict(inc) for inc in self._incidents],
            "wall_s": wall,
            "trace": {
                "recorded": len(self._spans),
                "dropped": self._spans.dropped,
                "capacity": self._spans.capacity,
            },
        }

    # ------------------------------------------------------------------
    # Trace export

    def trace_events(self) -> list[dict[str, Any]]:
        """Chrome-trace events (microseconds since the first span).

        One :func:`trace_event` per span, on lane 0 with ``tid`` set to
        the span's nesting depth.
        """
        spans = self.spans()
        if not spans:
            return []
        t0 = min(span.start_s for span in spans)
        return [
            trace_event(span.name, span.start_s, span.end_s, t0, 0, span.depth)
            for span in spans
        ]

    def chrome_trace(self) -> dict[str, Any]:
        """The full Chrome trace document (load in ``chrome://tracing``)."""
        return {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "metadata": {"label": self.label},
        }

    def export_trace_jsonl(self, path) -> int:
        """Write one span per line as JSON; returns the span count.

        Each line carries the recording process's pid and the run
        label, so traces exported by different campaign workers can be
        stitched into one timeline with per-worker lanes
        (``python -m repro.obs.report --merged-trace``).
        """
        import json
        import os
        from pathlib import Path

        spans = self.spans()
        pid = os.getpid()
        with Path(path).open("w") as fh:
            for span in spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start_s": span.start_s,
                            "end_s": span.end_s,
                            "depth": span.depth,
                            "pid": pid,
                            "label": self.label,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        return len(spans)


def trace_event(
    name: str, start_s: float, end_s: float, t0: float, pid: int, tid: int
) -> dict[str, Any]:
    """One span as a Chrome trace event, timed in microseconds since ``t0``.

    Phase and macro spans export as "complete" events (``ph: "X"``).
    Zero-duration spans - incident onsets - export as thread-scoped
    *instant* events (``ph: "i"``): Perfetto draws a complete event with
    ``dur: 0`` as nothing at all, so detector firings would be invisible
    on the phase timeline.
    """
    event: dict[str, Any] = {
        "name": name,
        "ts": (start_s - t0) * 1e6,
        "pid": pid,
        "tid": tid,
        "cat": "repro",
    }
    if start_s == end_s:
        event["ph"] = "i"
        event["s"] = "t"
    else:
        event["ph"] = "X"
        event["dur"] = (end_s - start_s) * 1e6
    return event


def resolve_obs(obs: Any) -> ObsCollector | None:
    """Normalize an ``obs=`` argument to a live collector or ``None``.

    Accepts ``None`` (uninstrumented), an :class:`ObsConfig` (a fresh
    collector is built per call - per run), or an :class:`ObsCollector`
    (shared across runs; the caller owns its lifecycle).  Disabled
    configs/collectors normalize to ``None``, so the simulation hot
    loops have exactly one fast-path shape: ``obs is None``.
    """
    if obs is None:
        return None
    if isinstance(obs, ObsCollector):
        return obs if obs.enabled else None
    if isinstance(obs, ObsConfig):
        return ObsCollector(obs) if obs.enabled else None
    raise ObsError(
        f"obs must be None, an ObsConfig, or an ObsCollector, "
        f"got {type(obs).__name__}"
    )


def merge_summaries(summaries: Iterable[dict]) -> dict[str, Any]:
    """Deterministically merge per-run/per-worker observability summaries.

    Counters, phase counts, and histogram bucket counts add; phase
    times, ``wall_s``, and histogram sums add too but are wall-clock
    quantities (identical *keys* across executions, nondeterministic
    values).  Gauges keep the last value in input order.  Because
    addition is applied in input order and every deterministic field is
    integer arithmetic, merging the same summaries in the same order
    yields the same result whether they were produced serially or by a
    process pool - the serial == parallel campaign contract.
    """
    merged: dict[str, Any] = {
        "enabled": True,
        "runs": 0,
        "phases": {},
        "counters": {},
        "gauges": {},
        "hists": {},
        "incidents": [],
        "wall_s": 0.0,
        "trace": {"recorded": 0, "dropped": 0},
    }
    for summary in summaries:
        if not summary or not summary.get("enabled"):
            continue
        merged["runs"] += 1
        merged["wall_s"] += summary.get("wall_s", 0.0)
        for name, entry in summary.get("phases", {}).items():
            slot = merged["phases"].setdefault(
                name, {"total_s": 0.0, "count": 0}
            )
            slot["total_s"] += entry["total_s"]
            slot["count"] += entry["count"]
        for name, value in summary.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(summary.get("gauges", {}))
        for name, hist in summary.get("hists", {}).items():
            slot = merged["hists"].setdefault(
                name,
                {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}},
            )
            slot["count"] += hist["count"]
            slot["sum"] += hist["sum"]
            for bound in ("min", "max"):
                value = hist.get(bound)
                if value is None:
                    continue
                if slot[bound] is None:
                    slot[bound] = value
                elif bound == "min":
                    slot[bound] = min(slot[bound], value)
                else:
                    slot[bound] = max(slot[bound], value)
            for bucket, count in hist.get("buckets", {}).items():
                slot["buckets"][bucket] = (
                    slot["buckets"].get(bucket, 0) + count
                )
        merged["incidents"].extend(
            dict(inc) for inc in summary.get("incidents", ())
        )
        trace = summary.get("trace")
        if trace:
            merged["trace"]["recorded"] += trace.get("recorded", 0)
            merged["trace"]["dropped"] += trace.get("dropped", 0)
    # Incidents sort on deterministic simulation-time fields, so the
    # merged list is identical whether the summaries came from a serial
    # loop or a process pool (whose completion order is arbitrary).
    merged["incidents"].sort(
        key=lambda inc: (
            inc.get("onset_s", 0.0),
            inc.get("run", ""),
            inc.get("scope", ""),
            inc.get("detector", ""),
        )
    )
    timed = sum(slot["total_s"] for slot in merged["phases"].values())
    for slot in merged["phases"].values():
        slot["fraction"] = slot["total_s"] / timed if timed > 0.0 else 0.0
    return merged
