"""Span tracing around the public calls of each simulator layer.

Everything here patches the library from the outside: :class:`Tracer`
replaces a class method or module function with a wrapper that records
one span per call and restores the original on :meth:`Tracer.uninstall`,
so untraced runs execute the unmodified code.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span in the same process (-1 for a root) and ``op`` the
benchmark operation (one lane run) it belongs to.  Spans stay in flat
in-memory arrays until :meth:`Tracer.write` dumps them.  Self time is a
span's duration minus the durations of its direct children.

Campaign workers are forked while the wrappers are installed, so they
inherit them; a fork hook empties the child's span buffer.  Each
``run_campaign_chunk`` call in a worker appends the worker's spans to
``<out_dir>/op<op>/spans-<pid>.jsonl``, and the parent merges those
files with :meth:`Tracer.merge_worker_files` once the pool has exited.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        # Name ids start at 1: ``active[0]`` is the opaque flag below.
        self.names: list[str] = [""]
        self._name_ids: dict[str, int] = {}
        # Flat span arrays, cleared in place (the wrappers hold them).
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.weight = array("d")
        self.stack: list[int] = []
        #: Per span name: a call of that name is running.  Entry 0 is set
        #: while an opaque span runs; nested wrapped calls then go untraced.
        self.active: list[bool] = [False]
        self.op = 0
        #: op id -> (first span index, one past the last) in this process.
        self.op_ranges: dict[int, tuple[int, int]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        #: Spans this (worker) process already appended to its file.
        self._flushed = 0
        # A forked campaign worker starts with an empty span buffer.
        os.register_at_fork(after_in_child=self._enter_process)

    # -- bookkeeping ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
            self.active.append(False)
        return nid

    def _reset_buffers(self) -> None:
        self.truncate(0)
        del self.stack[:]

    def truncate(self, n: int) -> None:
        """Drop every span from index ``n`` on."""
        for arr in (self.start, self.end, self.parent, self.name, self.weight):
            del arr[n:]

    def _enter_process(self) -> None:
        """Fork hook: the child keeps the wrappers but not the spans."""
        self._reset_buffers()
        self.op_ranges = {}
        self._flushed = 0

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        weight: Callable[[tuple], float] | None = None,
        outermost: bool = False,
        opaque: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``.

        ``weight(args)`` adds a per-span amount (window width, due
        servers).  ``outermost`` skips calls nested inside another call
        of the same name, e.g. a composite workload's inner
        ``demand_array`` or a subclass ``__init__`` calling its parent's.
        ``opaque`` leaves every wrapped call inside ``fn`` untraced: the
        gain tuning steps a scalar plant thousands of times, which is
        tuning time, not scalar-lane plant time.
        """
        nid = self.name_id(name)
        starts, ends, parents = self.start, self.end, self.parent
        names, weights, stack, active = (
            self.name,
            self.weight,
            self.stack,
            self.active,
        )
        pc = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0] or (outermost and active[nid]):
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            weights.append(weight(args) if weight is not None else 0.0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] = True
            active[0] = opaque
            starts.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = pc()
                active[nid] = False
                active[0] = False
                stack.pop()

        return traced

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`uninstall`."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, **kwargs) -> None:
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], **kwargs))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- operations ----------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_ranges[op] = (len(self.start), len(self.start))

    def end_op(self) -> None:
        first, _ = self.op_ranges[self.op]
        self.op_ranges[self.op] = (first, len(self.start))

    def op_dir(self, op: int) -> Path:
        return self.out_dir / f"op{op}"

    def flush_worker(self) -> None:
        """Append this worker's spans to its per-pid file and clear them.

        Parent indices are written relative to the file, so one file may
        hold several flushes (one per chunk the worker ran).
        """
        path = self.op_dir(self.op) / f"spans-{os.getpid()}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self._flushed
        with path.open("a") as fh:
            for i in range(len(self.start)):
                parent = self.parent[i]
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            self.start[i],
                            self.end[i],
                            parent + base if parent >= 0 else -1,
                            self.weight[i],
                        ]
                    )
                    + "\n"
                )
        self._flushed += len(self.start)
        self._reset_buffers()

    def merge_worker_files(self, op: int) -> int:
        """Append worker span files of ``op`` to the op's span range.

        Returns how many worker files (processes) contributed.  Parent
        indices are rebased so each worker's spans stay a closed tree.
        """
        first, _ = self.op_ranges[op]
        files = sorted(self.op_dir(op).glob("spans-*.jsonl"))
        for path in files:
            base = len(self.start)
            with path.open() as fh:
                for line in fh:
                    name, start, end, parent, weight = json.loads(line)
                    self.name.append(self.name_id(name))
                    self.start.append(start)
                    self.end.append(end)
                    self.parent.append(base + parent if parent >= 0 else -1)
                    self.weight.append(weight)
            path.unlink()
        if files:
            self.op_dir(op).rmdir()
        self.op_ranges[op] = (first, len(self.start))
        return len(files)

    # -- analysis ------------------------------------------------------

    def op_arrays(self, op: int) -> dict[str, np.ndarray]:
        """Spans of one op as arrays, with self times and local parents."""
        first, last = self.op_ranges[op]
        # Slicing copies, so no numpy view pins the growable buffers.
        start = np.frombuffer(self.start[first:last], dtype=float)
        end = np.frombuffer(self.end[first:last], dtype=float)
        parent = np.frombuffer(self.parent[first:last], dtype=np.int64) - first
        parent[parent < 0] = -1
        dur = end - start
        self_t = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_t, parent[has_parent], dur[has_parent])
        return {
            "start": start,
            "end": end,
            "dur": dur,
            "self": self_t,
            "parent": parent,
            "name": np.frombuffer(self.name[first:last], dtype=np.int64),
            "weight": np.frombuffer(self.weight[first:last], dtype=float),
        }

    def write(self, path: Path, op_labels: dict[int, str]) -> None:
        """Dump every recorded span as JSON lines.

        The first line names the fields and the ops; each further line is
        one span ``[op, id, parent, name, start_us, end_us]`` with parent
        -1 for roots and times in microseconds after ``t0_s`` (a
        ``perf_counter`` reading, one clock for all processes on Linux).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [json.dumps(name) for name in self.names]
        t0 = min(self.start) if self.start else 0.0
        with path.open("w") as fh:
            header = {
                "fields": ["op", "id", "parent", "name", "start_us", "end_us"],
                "t0_s": t0,
                "ops": {str(op): op_labels.get(op, "") for op in self.op_ranges},
            }
            fh.write(json.dumps(header) + "\n")
            start, end, parent, name = self.start, self.end, self.parent, self.name
            for op, (first, last) in sorted(self.op_ranges.items()):
                fh.writelines(
                    f"[{op},{i},{parent[i]},{names[name[i]]},"
                    f"{(start[i] - t0) * 1e6:.3f},{(end[i] - t0) * 1e6:.3f}]\n"
                    for i in range(first, last)
                )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports.

    Must run before any stepper is constructed: ``BatchStepper`` binds
    ``coupling.apply`` and ``ServerStepper`` binds ``plant.step_fast``
    when they are built, and the fused stepper looks ``exp_scan_numpy``
    up in :mod:`repro.sim.fused`.
    """
    import repro.fleet.campaign as fleet_campaign
    import repro.room.simulator as room_simulator
    import repro.room.stack as room_stack
    import repro.sim.fused as fused
    import repro.sim.scenarios as sim_scenarios
    from repro.core.global_controller import GlobalController
    from repro.core.tuning import default_gain_schedule
    from repro.faults.injector import FaultInjector
    from repro.fleet.coupling import CouplingOperator
    from repro.fleet.result import FleetResult
    from repro.obs.monitor import HealthMonitor
    from repro.sensing.sensor import TemperatureSensor
    from repro.sim.batch import BatchSensorBank, BatchStepper, BatchThermalPlant
    from repro.sim.batch_control import BatchGlobalController, BatchTrackerBank
    from repro.sim.fused import FusedStepper
    from repro.thermal.server import ServerThermalModel
    from repro.workload.base import Workload

    # Set-up: only cache misses of the Ziegler-Nichols tuning keep a
    # span (a hit has no children, so its span is the buffer's tail).
    tuned = default_gain_schedule
    tuning_span = tracer.wrap("tuning", tuned, opaque=True)

    @functools.wraps(tuned)
    def tuning(*args, **kwargs):
        misses = tuned.cache_info().misses
        idx = len(tracer.start)
        out = tuning_span(*args, **kwargs)
        if tuned.cache_info().misses == misses:
            tracer.truncate(idx)
        return out

    tracer.patch(sim_scenarios, "default_gain_schedule", tuning)

    # Workload: outermost demand_array only (composites nest).
    classes = [Workload]
    seen: set[type] = set()
    while classes:
        cls = classes.pop()
        if cls in seen:
            continue
        seen.add(cls)
        classes.extend(cls.__subclasses__())
        if "demand_array" in cls.__dict__:
            tracer.patch_method(
                cls, "demand_array", "workload.demand_array", outermost=True
            )

    # Plant, scan, coupling, sensing, control, faults, monitor.
    tracer.patch_method(BatchThermalPlant, "advance", "plant.advance")
    tracer.patch_method(
        BatchThermalPlant, "apply_fan_speed", "plant.apply_fan_speed"
    )
    tracer.patch(
        fused,
        "exp_scan_numpy",
        tracer.wrap(
            "plant.scan",
            fused.exp_scan_numpy,
            weight=lambda args: float(args[1].shape[1]),
        ),
    )
    operators = [CouplingOperator]
    seen = set()
    while operators:
        cls = operators.pop()
        if cls in seen:
            continue
        seen.add(cls)
        operators.extend(cls.__subclasses__())
        for attr in ("apply", "apply_window"):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                tracer.patch_method(
                    cls, attr, f"coupling.{attr}", outermost=True
                )
    tracer.patch_method(BatchSensorBank, "observe", "sensing.observe")
    tracer.patch_method(BatchSensorBank, "pop_until", "sensing.pop_until")
    tracer.patch_method(
        BatchGlobalController,
        "step_due",
        "control.step_due",
        weight=lambda args: float(len(args[1])),
    )
    tracer.patch_method(BatchTrackerBank, "record_all", "control.tracker")
    tracer.patch_method(BatchTrackerBank, "record", "control.tracker")
    tracer.patch_method(FaultInjector, "pop_plant_changes", "faults.injector")
    tracer.patch_method(FaultInjector, "poll_crac", "faults.injector")
    tracer.patch_method(HealthMonitor, "ingest_batch", "monitor.ingest_batch")

    # Steppers: construction, the stepping loop, packaging.
    tracer.patch_method(
        BatchStepper, "__init__", "sim.stepper_init", outermost=True
    )
    tracer.patch_method(
        FusedStepper, "__init__", "sim.stepper_init", outermost=True
    )
    tracer.patch_method(BatchStepper, "run", "sim.stepper_run")
    tracer.patch_method(BatchStepper, "finish", "sim.finish")
    for module in (room_simulator, room_stack):
        for attr in ("stacked_stepper", "split_stacked_results"):
            tracer.patch(
                module, attr, tracer.wrap("stack", getattr(module, attr))
            )

    # Campaign: the pool map in the parent, chunks inside the workers.
    tracer.patch(
        fleet_campaign,
        "parallel_map",
        tracer.wrap("campaign.parallel_map", fleet_campaign.parallel_map),
    )
    chunk_span = tracer.wrap("campaign.chunk", fleet_campaign.run_campaign_chunk)
    parent_pid = os.getpid()

    @functools.wraps(fleet_campaign.run_campaign_chunk)
    def run_campaign_chunk(*args, **kwargs):
        out = chunk_span(*args, **kwargs)
        if os.getpid() != parent_pid:
            tracer.flush_worker()
        return out

    tracer.patch(fleet_campaign, "run_campaign_chunk", run_campaign_chunk)
    tracer.patch_method(FleetResult, "summary", "analysis.summary")

    # Scalar reference lane.
    tracer.patch_method(ServerThermalModel, "step_fast", "scalar.plant")
    tracer.patch_method(TemperatureSensor, "observe", "scalar.sensing")
    tracer.patch_method(TemperatureSensor, "read", "scalar.sensing")
    tracer.patch_method(GlobalController, "step", "scalar.control")
