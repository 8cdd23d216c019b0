"""Benchmark of record for the DTM simulator: lane throughput, set-up, memory.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 15 --trace 0

One run builds the workload's inputs from ``--seed``, then runs lane
operations (one ``vectorized``, ``fused`` or ``scalar`` lane run each,
see ``workloads.py``) one at a time for ``--seconds`` seconds, always
picking the lane with the least measured time so far.  Every lane run is
checked (``checks.py``); a raise or a mismatch counts as one failed
operation and the run goes on.

``--trace 0`` reports the end-to-end metrics: each lane's server-steps
per host second over all its runs, the median of three cold set-up samples
(fresh interpreter: ``import repro`` plus one input build, timed from
outside) and the peak resident memory.  Host speed on a shared machine
drifts by tens of percent over tens of seconds, so lane timings are
rescaled to a reference speed by a fixed piece of work without repro
code, run right before and right after the timed part, which then
counts as ``wall * reference_s / fixed_work_s``.  Lane runs that execute
in this process use a calibration kernel, and ``campaign`` pool runs the
same kernel on every CPU at once; set-up samples count plain wall time.
``--trace 1`` alternates
untraced and traced lane runs, wraps each layer's public calls in the
traced ones (``tracer.py``) and reports the per-layer metrics instead;
its spans land in ``perfbench/.out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits non-zero
without printing it when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

#: Cold set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 100.0
MIB = 1024.0

#: Per-lane per-layer metrics: (metric suffix, span name, field, unit).
#: ``self`` is a span's duration minus its children's; ``dur`` is the
#: inclusive duration, used for stepper and pool spans that contain
#: layer spans.
SPAN_METRICS = (
    ("tuning.calls", "tuning", "count", "count"),
    ("tuning.s", "tuning", "self", "s"),
    ("workload.demand_array.calls", "workload.demand_array", "count", "count"),
    ("workload.demand_array.s", "workload.demand_array", "self", "s"),
    ("plant.advance.calls", "plant.advance", "count", "count"),
    ("plant.advance.s", "plant.advance", "self", "s"),
    ("plant.apply_fan_speed.calls", "plant.apply_fan_speed", "count", "count"),
    ("plant.apply_fan_speed.s", "plant.apply_fan_speed", "self", "s"),
    ("plant.scan.calls", "plant.scan", "count", "count"),
    ("plant.scan.s", "plant.scan", "self", "s"),
    ("plant.scan.steps", "plant.scan", "weight", "count"),
    ("coupling.apply.calls", "coupling.apply", "count", "count"),
    ("coupling.apply.s", "coupling.apply", "self", "s"),
    ("coupling.apply_window.calls", "coupling.apply_window", "count", "count"),
    ("coupling.apply_window.s", "coupling.apply_window", "self", "s"),
    ("sensing.observe.calls", "sensing.observe", "count", "count"),
    ("sensing.observe.s", "sensing.observe", "self", "s"),
    ("sensing.pop_until.calls", "sensing.pop_until", "count", "count"),
    ("sensing.pop_until.s", "sensing.pop_until", "self", "s"),
    ("control.step_due.calls", "control.step_due", "count", "count"),
    ("control.step_due.s", "control.step_due", "self", "s"),
    ("control.step_due.servers", "control.step_due", "weight", "count"),
    ("control.tracker.s", "control.tracker", "self", "s"),
    ("faults.injector.calls", "faults.injector", "count", "count"),
    ("faults.injector.s", "faults.injector", "self", "s"),
    ("monitor.ingest_batch.calls", "monitor.ingest_batch", "count", "count"),
    ("monitor.ingest_batch.s", "monitor.ingest_batch", "self", "s"),
    ("sim.stepper_init.s", "sim.stepper_init", "dur", "s"),
    ("sim.stepper_run.s", "sim.stepper_run", "dur", "s"),
    ("sim.finish.s", "sim.finish", "dur", "s"),
    ("stack.s", "stack", "self", "s"),
    ("campaign.parallel_map.s", "campaign.parallel_map", "dur", "s"),
    ("campaign.chunk.calls", "campaign.chunk", "count", "count"),
    ("campaign.chunk.s", "campaign.chunk", "dur", "s"),
    ("analysis.summary.s", "analysis.summary", "self", "s"),
)

#: Per-lane metrics derived from spans, results or the run pairing.
DERIVED_METRICS = (
    ("faults.failsafe_engagements", "count"),
    ("monitor.incidents", "count"),
    ("sim.glue.s", "s"),
    ("sim.glue.frac", "fraction"),
    ("campaign.worker_busy.frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)

SETUP_METRICS = (
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("tuning.calls", "count"),
    ("tuning.s", "s"),
)

SCALAR_METRICS = (
    ("scalar.plant.s", "s"),
    ("scalar.sensing.s", "s"),
    ("scalar.control.s", "s"),
    ("scalar.glue.frac", "fraction"),
)

TRACED_LANES = ("vectorized", "fused")

END_TO_END = (
    ("vectorized_server_steps_per_s", "1/s"),
    ("fused_server_steps_per_s", "1/s"),
    ("scalar_server_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def calibration_pass() -> float:
    """Seconds for one pass of the fixed calibration kernel.

    Small-array NumPy dispatch plus plain interpreter arithmetic, the
    simulator's mix, but no repro code: a change to the program cannot
    move it.
    """
    import numpy as np

    small = np.linspace(0.0, 1.0, 16)
    wide = np.linspace(0.0, 1.0, 256)
    x = 0.0
    ring = [0.0] * 64
    t0 = time.perf_counter()
    for _ in range(300):
        c = np.minimum(small, 0.5)
        small = c + 0.001
        wide = np.minimum(wide, 0.7) * 1.0001 + 1e-6
        for j in range(40):
            x = x * 0.999 + (j & 15) * 0.5
            ring[j & 63] = x
    return time.perf_counter() - t0


def host_speed() -> float:
    """Current calibration time: the best of five passes (~20 ms)."""
    return min(calibration_pass() for _ in range(5))


class KernelHelpers:
    """One forked process per ``campaign`` pool worker, each running the
    kernel on request, all at once.

    The helpers live until :meth:`stop`, which ``main`` calls only after
    reading ``peak_rss_mb``: the reading counts reaped children, and a
    child forked from this process would report this process's size.
    """

    def __init__(self) -> None:
        self.helpers: list[tuple[int, int, int]] = []

    def speed(self) -> float:
        """Calibration time on every CPU at once: the helpers' mean."""
        if not self.helpers:
            from workloads import pool_size

            for _ in range(pool_size()):
                self._start()
        for _, request, _ in self.helpers:
            os.write(request, b"x")
        times = [
            struct.unpack("d", os.read(reply, 8))[0] for _, _, reply in self.helpers
        ]
        return statistics.fmean(times)

    def _start(self) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                # Only the parent may hold a helper's request pipe open, or
                # closing it would not end that helper.
                for _, request, reply in self.helpers:
                    os.close(request)
                    os.close(reply)
                os.close(request_w)
                os.close(reply_r)
                while os.read(request_r, 1):
                    os.write(reply_w, struct.pack("d", host_speed()))
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        self.helpers.append((pid, request_w, reply_r))

    def stop(self) -> None:
        while self.helpers:
            pid, request, reply = self.helpers.pop()
            os.close(request)
            os.close(reply)
            os.waitpid(pid, 0)


KERNEL_HELPERS = KernelHelpers()


#: Fixed work without repro code that timings are scaled by: how to time
#: it, and its time at the reference host speed (the median on a 2-CPU
#: x86-64 container host, CPython 3.11).  A lane run in this process is
#: scaled by the kernel; a ``campaign`` run keeps every CPU busy, so it
#: is scaled by the kernel run on every CPU at once.
CALIBRATIONS = {
    "kernel": (host_speed, 0.0034),
    "pool": (KERNEL_HELPERS.speed, 0.0034),
}


class Timer:
    """Accumulates the timed parts of one lane run or set-up sample.

    Callers pass each part that counts through the timer
    (``timer(fn, *args)``).  With a named calibration its fixed work runs
    right before and right after the part, which then also counts as
    ``wall * reference_s / fixed_work_s``; without one, as plain wall
    time.
    """

    def __init__(self, calibration: str | None) -> None:
        self.speed, self.reference_s = CALIBRATIONS.get(calibration, (None, 0.0))
        self.wall = 0.0
        self.ref = 0.0

    def __call__(self, fn, *args, **kwargs):
        before = self.speed() if self.speed else 0.0
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.wall += wall
        if self.speed:
            wall *= self.reference_s / (0.5 * (before + self.speed()))
        self.ref += wall
        return result


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = dict(SETUP_METRICS)
    for lane in TRACED_LANES:
        for suffix, _, _, unit in SPAN_METRICS:
            units[f"{lane}.{suffix}"] = unit
        for suffix, unit in DERIVED_METRICS:
            units[f"{lane}.{suffix}"] = unit
    units.update(SCALAR_METRICS)
    return units


class Run:
    """One benchmark run: lane operations, their checks and timings."""

    def __init__(self, workload, seconds: float, trace: bool) -> None:
        import checks
        from workloads import LANES

        self.checks = checks
        self.lanes = LANES
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.ops: list[dict] = []
        self.references: dict[str, object] = {}
        self.first_untraced: dict[str, object] = {}
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer(OUT / f"spans-{os.getpid()}")

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {self.wl.name} {what}", file=sys.stderr)

    def prepare(self) -> None:
        """Reference for the scalar lane when it runs a shorter horizon."""
        horizon = self.wl.scalar_horizon_s
        if horizon == self.wl.horizon_s:
            return
        self.attempted += 1
        try:
            result = self.wl.run(
                "vectorized",
                self.wl.build("vectorized", horizon),
                horizon,
                Timer(None),
            )
            problem = self.wl.sanity("vectorized", result, horizon)
        except Exception:
            problem = traceback.format_exc()
        if problem is None:
            self.references["scalar"] = result
        else:
            self.fail(f"scalar-horizon reference: {problem}")

    def verify(self, lane: str, traced: bool, result) -> str | None:
        problem = self.wl.sanity(lane, result, self.wl.horizon(lane))
        if problem is not None:
            return problem
        if lane == "vectorized" and "vectorized" not in self.references:
            # The first sane vectorized run is the reference every later
            # run is checked against (scalar tier A, fused tier B).
            self.references["vectorized"] = result
            self.references.setdefault("scalar", result)
        else:
            reference = self.references.get(
                "scalar" if lane == "scalar" else "vectorized"
            )
            if reference is None:
                return "no reference run to check against"
            problem = self.wl.check(
                lane, result, reference, "B" if lane == "fused" else "A"
            )
            if problem is not None:
                return problem
        if not self.trace:
            return None
        if not traced:
            self.first_untraced.setdefault(lane, result)
            return None
        untraced = self.first_untraced.get(lane)
        if untraced is None:
            return "no untraced run to compare the traced run with"
        return self.checks.compare_decisions(
            self.wl.servers(result), self.wl.servers(untraced)
        )

    def operation(self, lane: str, traced: bool) -> float:
        """One lane run; returns the time it should count as measured."""
        self.attempted += 1
        op_id = len(self.ops)
        record = {
            "lane": lane, "traced": traced, "op": op_id, "wall": None, "ref": None
        }
        begun = time.perf_counter()
        result = None
        try:
            inputs = self.wl.build(lane, self.wl.horizon(lane))
            if traced:
                from tracer import install_layer_wrappers

                self.tracer.begin_op(op_id)
                install_layer_wrappers(self.tracer)
            try:
                timer = Timer(self.wl.calibration)
                result = self.wl.run(lane, inputs, self.wl.horizon(lane), timer)
                record["wall"], record["ref"] = timer.wall, timer.ref
            finally:
                if traced:
                    self.tracer.uninstall()
                    self.tracer.end_op()
                    self.tracer.merge_worker_files(op_id)
            del inputs
            problem = self.verify(lane, traced, result)
            if traced and problem is None:
                record["counts"] = self.wl.counts(result)
        except Exception:
            problem = traceback.format_exc()
        del result
        if problem is not None:
            self.fail(f"{lane}{' traced' if traced else ''} op {op_id}: {problem}")
        self.ops.append(record)
        return record["wall"] or time.perf_counter() - begun

    def measure(self) -> None:
        """Run lane operations for ``seconds``, least-measured lane first."""
        self.prepare()
        slots = [
            (lane, traced)
            for lane in self.lanes
            for traced in ((False, True) if self.trace else (False,))
        ]
        spent = {slot: 0.0 for slot in slots}
        runs = {slot: 0 for slot in slots}
        begin = time.perf_counter()
        while True:
            fresh = [slot for slot in slots if runs[slot] == 0]
            if fresh:
                slot = fresh[0]
            elif time.perf_counter() - begin >= self.seconds:
                break
            else:
                slot = min(slots, key=spent.__getitem__)
            spent[slot] += self.operation(*slot)
            runs[slot] += 1

    def walls(self, lane: str, traced: bool = False, key: str = "ref") -> list[float]:
        """Timed intervals of completed lane runs (``ref``: calibrated)."""
        return [
            op[key]
            for op in self.ops
            if op["lane"] == lane and op["traced"] == traced and op[key]
        ]

    def throughput(self, lane: str) -> float:
        """Server-steps of all the lane's runs over their summed time.

        Not a median of per-run rates: a campaign run's time depends on
        which pool worker draws which chunk (each worker tunes every
        config it meets), so its runs fall into a fast and a slow group,
        and the median of the two or three runs one run holds jumps
        between the groups.
        """
        walls = self.walls(lane)
        if not walls:
            return 0.0
        return self.wl.server_steps(lane) * len(walls) / sum(walls)


def setup_samples(workload: str, seed: int, trace: int) -> list[dict]:
    """Cold set-up samples, each a fresh interpreter timed from outside."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        # Plain wall time: a sample is a fresh process that loads a large
        # body of code, and neither fixed work followed its slow phases.
        timer = Timer(None)
        proc = timer(
            subprocess.run,
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = timer.ref
        samples.append(sample)
    return samples


def peak_rss_mb(pool_workers: int) -> float:
    """Peak resident memory: this process plus, for pools, its workers.

    ``RUSAGE_CHILDREN`` holds the largest reaped child's peak, so a pool
    of ``n`` workers counts as ``n`` times that (an upper bound on the
    workers' combined peak).  Read before any set-up probe runs and
    before the kernel helpers are reaped, so only pool workers count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / MIB


def end_to_end_metrics(run: Run, samples: list[dict], rss_mb: float) -> dict:
    values = {
        f"{lane}_server_steps_per_s": run.throughput(lane) for lane in run.lanes
    }
    values["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    values["peak_rss_mb"] = rss_mb
    return values


def op_layer_values(run: Run, op: dict) -> dict[str, float]:
    """Per-layer values of one traced op (see SPAN_METRICS)."""
    import numpy as np

    tracer = run.tracer
    arrays = tracer.op_arrays(op["op"])
    names = arrays["name"]
    size = len(tracer.names)
    fields = {
        "count": np.bincount(names, minlength=size).astype(float),
        "self": np.bincount(names, weights=arrays["self"], minlength=size),
        "dur": np.bincount(names, weights=arrays["dur"], minlength=size),
        "weight": np.bincount(names, weights=arrays["weight"], minlength=size),
    }

    def get(span: str, field: str) -> float:
        nid = tracer._name_ids.get(span)
        return 0.0 if nid is None else float(fields[field][nid])

    values = {
        suffix: get(span, field) for suffix, span, field, _ in SPAN_METRICS
    }
    values["faults.failsafe_engagements"] = 0.0
    values["monitor.incidents"] = 0.0
    values.update(op.get("counts", {}))

    # Glue: stepper_run time not covered by any layer span inside it.
    run_id = tracer._name_ids.get("sim.stepper_run", -1)
    parents = arrays["parent"].tolist()
    is_run = (names == run_id).tolist()
    ancestor = [-1] * len(parents)
    for k, p in enumerate(parents):
        if is_run[k]:
            ancestor[k] = k
        elif p >= 0:
            ancestor[k] = ancestor[p]
    inside = (np.asarray(ancestor) >= 0) & (names != run_id)
    run_s = values["sim.stepper_run.s"]
    values["sim.glue.s"] = run_s - float(arrays["self"][inside].sum())
    values["sim.glue.frac"] = values["sim.glue.s"] / run_s if run_s else 0.0

    pool_s = values["campaign.parallel_map.s"]
    workers = run.wl.pool_processes(op["lane"]) if run.wl.pool_workers else 1
    values["campaign.worker_busy.frac"] = (
        values["campaign.chunk.s"] / (workers * pool_s) if pool_s else 0.0
    )

    values["scalar.plant.s"] = get("scalar.plant", "self")
    values["scalar.sensing.s"] = get("scalar.sensing", "self")
    values["scalar.control.s"] = get("scalar.control", "self")
    covered = sum(values[name] for name, _ in SCALAR_METRICS[:3])
    # In a campaign the scalar loops (and the workers' tunings) run
    # inside the chunks; elsewhere inside the op itself.
    covered += get("tuning", "self")
    root_s = values["campaign.chunk.s"] or op["wall"]
    values["scalar.glue.frac"] = 1.0 - covered / root_s if root_s else 0.0
    return values


def per_layer_metrics(run: Run, samples: list[dict]) -> dict:
    def median_of(ops: list[dict], key: str) -> float:
        vals = [op["values"][key] for op in ops]
        return statistics.median(vals) if vals else 0.0

    for op in run.ops:
        if op["traced"] and op["wall"] and "counts" in op:
            op["values"] = op_layer_values(run, op)
    traced = {
        lane: [op for op in run.ops if op["lane"] == lane and "values" in op]
        for lane in run.lanes
    }
    values = {
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.build_s": statistics.median(s["build_s"] for s in samples),
        "tuning.calls": statistics.median(s["tuning_calls"] for s in samples),
        "tuning.s": statistics.median(s["tuning_s"] for s in samples),
    }
    for lane in TRACED_LANES:
        for suffix, *_ in SPAN_METRICS:
            values[f"{lane}.{suffix}"] = median_of(traced[lane], suffix)
        for suffix, _ in DERIVED_METRICS:
            if suffix != "trace.overhead_frac":
                values[f"{lane}.{suffix}"] = median_of(traced[lane], suffix)
        plain, timed = run.walls(lane), run.walls(lane, traced=True)
        values[f"{lane}.trace.overhead_frac"] = (
            statistics.median(timed) / statistics.median(plain) - 1.0
            if plain and timed
            else 0.0
        )
    for name, _ in SCALAR_METRICS:
        values[name] = median_of(traced["scalar"], name)
    return values


def write_trace(run: Run, path: Path) -> None:
    labels = {
        op["op"]: f"{op['lane']}{'/traced' if op['traced'] else ''}"
        for op in run.ops
    }
    run.tracer.write(path, labels)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: the repro sources (src/repro) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload, args.seconds, bool(args.trace))
    try:
        run.measure()
        if run.trace:
            write_trace(run, OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
        rss_mb = peak_rss_mb(workload.pool_workers)
        samples = setup_samples(args.workload, args.seed, args.trace)
        if run.trace:
            values = per_layer_metrics(run, samples)
            units = per_layer_units()
        else:
            values = end_to_end_metrics(run, samples, rss_mb)
            units = dict(END_TO_END)
    finally:
        KERNEL_HELPERS.stop()
        if run.tracer is not None:
            shutil.rmtree(run.tracer.out_dir, ignore_errors=True)
    lanes_ran = all(run.walls(lane) for lane in run.lanes)
    for lane in run.lanes:
        raw, ref = run.walls(lane, key="wall"), run.walls(lane)
        if raw:
            print(
                f"{lane}: {len(raw)} runs, wall median {statistics.median(raw):.4f} s"
                f" (min {min(raw):.4f}), calibrated {statistics.median(ref):.4f} s",
                file=sys.stderr,
            )
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and lanes_ran,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
