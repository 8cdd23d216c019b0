"""The benchmark's own tests: run ``python3 perfbench/selftest.py``.

Deliberately not named ``test_*.py``: the repository's tier-1 pytest run
must not collect, time or write anything of the benchmark.  Checks:

1. ``BENCHMARK.json`` names exactly the workloads and metrics the code
   reports, with the same units.
2. On every workload, at short horizons, one untraced and one traced run
   per lane: every lane run passes its output check, and each traced
   run's decision channels equal the untraced run's (non-perturbation).
3. The span tree of every traced vectorized/fused run: each span's
   parent belongs to the same operation, was opened before it, and
   encloses it in time; there is a ``sim.stepper_run`` span, and the
   stepper time no layer span accounts for (``sim.glue.frac``) stays
   below ``GLUE_CEILING``.
4. Without the repository sources the benchmark exits non-zero and
   prints no result.

Exit status 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Highest ``sim.glue.frac`` a traced run may show.  With every wrapper
#: in place the glue share reads 0.12-0.41 on these short runs; without
#: the coupling wrappers ``room16x16`` reads about 0.65, without the
#: ``plant.advance`` wrapper ``rack16_faults`` about 0.56, and worker
#: spans that lose their parents read 1.0.
GLUE_CEILING = 0.5

#: (horizon_s, scalar_horizon_s) per workload, short enough for seconds.
SHORT = {
    "table3": (120.0, 120.0),
    "room16x16": (60.0, 10.0),
    "rack16_faults": (600.0, 120.0),
    "campaign": (60.0, 30.0),
}


def check_manifest(workloads: dict) -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if e2e != dict(bench.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if layers != bench.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.py")
    return problems


def check_workload(cls) -> list[str]:
    workload = cls(3)
    workload.horizon_s, workload.scalar_horizon_s = SHORT[cls.name]
    run = bench.Run(workload, seconds=0, trace=True)
    problems = []
    try:
        run.measure()
        if run.failed:
            problems.append(f"{cls.name}: {run.failed} failed lane runs")
        for op in run.ops:
            if not op["traced"] or op["lane"] == "scalar" or "counts" not in op:
                continue
            problems += check_spans(run, op)
        values = bench.per_layer_metrics(
            run,
            [{"import_s": 1.0, "build_s": 1.0, "tuning_calls": 0, "tuning_s": 0.0}],
        )
        missing = set(bench.per_layer_units()) - set(values)
        if missing:
            problems.append(f"{cls.name}: per-layer metrics missing {missing}")
    finally:
        bench.KERNEL_HELPERS.stop()
        shutil.rmtree(run.tracer.out_dir, ignore_errors=True)
    return problems


def check_spans(run: bench.Run, op: dict) -> list[str]:
    tracer = run.tracer
    first, last = tracer.op_ranges[op["op"]]
    arrays = tracer.op_arrays(op["op"])
    where = f"{run.wl.name} {op['lane']} op {op['op']}"
    problems = []
    parent = np.frombuffer(tracer.parent[first:last], dtype=np.int64)
    stray = (parent != -1) & ((parent < first) | (parent >= np.arange(first, last)))
    if stray.any():
        problems.append(
            f"{where}: {int(stray.sum())} spans with a parent outside the "
            "operation or opened after them"
        )
    child = np.flatnonzero(arrays["parent"] >= 0)
    up = arrays["parent"][child]
    outside = (arrays["start"][child] < arrays["start"][up]) | (
        arrays["end"][child] > arrays["end"][up]
    )
    if outside.any():
        problems.append(f"{where}: {int(outside.sum())} spans outside their parent")
    values = bench.op_layer_values(run, op)
    if values["sim.stepper_run.s"] <= 0.0:
        problems.append(f"{where}: no sim.stepper_run span")
    elif values["sim.glue.frac"] >= GLUE_CEILING:
        problems.append(
            f"{where}: sim.glue.frac {values['sim.glue.frac']:.3f} >= "
            f"{GLUE_CEILING} (a layer is not traced)"
        )
    return problems


def check_missing_sources() -> list[str]:
    bare = HERE / ".out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "table3",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without sources the benchmark must fail without a result"]
    return []


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    from workloads import WORKLOADS

    problems = check_manifest(WORKLOADS) + check_missing_sources()
    for cls in WORKLOADS.values():
        problems += check_workload(cls)
        print(f"{cls.name}: checked", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
