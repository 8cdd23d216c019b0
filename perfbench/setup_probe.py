"""One cold set-up sample: a fresh interpreter imports repro and builds inputs.

``run.py`` launches this script several times per run and times each
launch from outside (interpreter start to exit), which is ``setup_s``.
The script itself prints one JSON line with its breakdown:

* ``import_s`` - ``import repro``,
* ``build_s`` - building one lane run's inputs for the workload,
* ``tuning_calls`` - Ziegler-Nichols tunings during the build (misses of
  the ``default_gain_schedule`` cache),
* ``tuning_s`` - time inside those tunings (``--trace 1`` only; 0 with
  tracing off, so the timed samples run unwrapped code).

Usage::

    python3 perfbench/setup_probe.py --workload table3 --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))

    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0

    import repro.sim.scenarios as sim_scenarios
    from repro.core.tuning import default_gain_schedule

    from workloads import WORKLOADS

    tuning_s = 0.0
    if args.trace:
        tuned = sim_scenarios.default_gain_schedule

        @functools.wraps(tuned)
        def timed(*a, **kw):
            nonlocal tuning_s
            start = time.perf_counter()
            try:
                return tuned(*a, **kw)
            finally:
                tuning_s += time.perf_counter() - start

        sim_scenarios.default_gain_schedule = timed

    misses = default_gain_schedule.cache_info().misses
    t1 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    workload.build("vectorized", workload.horizon_s)
    build_s = time.perf_counter() - t1
    print(
        json.dumps(
            {
                "import_s": import_s,
                "build_s": build_s,
                "tuning_calls": default_gain_schedule.cache_info().misses - misses,
                "tuning_s": tuning_s,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
