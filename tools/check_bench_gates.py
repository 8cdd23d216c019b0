"""Gate the overhead ratios a benchmark run recorded in BENCH_fleet.json.

The bench-smoke CI job runs ``pytest benchmarks`` in smoke mode, which
records every ratio but asserts none; this script then fails the job
when a ratio is over its bound:

* idle fault-injection hooks: ``hook_overhead_ratio`` <= 1.05, and the
  faulted rack must have run;
* observability: ``disabled_overhead_ratio`` <= 1.02 (a disabled config
  must cost one ``None`` check) and ``enabled_overhead_ratio`` <= 1.10;
* health monitors: ``monitor_overhead_ratio`` <= 1.05;
* live ``/metrics`` serving: ``export_overhead_ratio`` <= 1.05.

``--summary`` prints the backend-speedup, stacked-room, fused-kernel
and phase-breakdown tables as markdown instead (CI appends them to the
job summary).  Usage::

    python tools/check_bench_gates.py <dir>/BENCH_fleet.json
    python tools/check_bench_gates.py --summary <dir>/BENCH_fleet.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

Records = dict[str, dict]


class GateError(AssertionError):
    """A recorded ratio is over its bound."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def gate_fault_hooks(records: Records) -> str:
    overhead = records["fault_hook_overhead"]
    ratio = overhead["hook_overhead_ratio"]
    _require(
        ratio <= 1.05,
        f"fault-free hot path regressed {ratio}x with injection "
        f"hooks installed (limit 1.05x): {overhead}",
    )
    faulted = records["rack16_faults"]
    _require(faulted["faulted_server_steps_per_sec"] > 0, str(faulted))
    return (
        f"idle fault hooks cost {100 * (ratio - 1):.1f}% "
        f"(limit 5%); faulted rack at "
        f"{faulted['faulted_server_steps_per_sec']:,.0f} server-steps/s"
    )


def gate_obs(records: Records) -> str:
    obs = records["obs_overhead"]
    disabled = obs["disabled_overhead_ratio"]
    enabled = obs["enabled_overhead_ratio"]
    _require(
        disabled <= 1.02,
        f"disabled obs config slowed the hot path {disabled}x "
        f"(limit 1.02x; must cost one None check): {obs}",
    )
    _require(
        enabled <= 1.10,
        f"full instrumentation slowed the hot path {enabled}x "
        f"(limit 1.10x): {obs}",
    )
    return (
        f"obs overhead: disabled {100 * (disabled - 1):+.1f}% "
        f"(limit 2%), enabled {100 * (enabled - 1):+.1f}% "
        f"(limit 10%) on the vectorized 16-server rack"
    )


def gate_monitor(records: Records) -> str:
    monitor = records["monitor_overhead"]
    ratio = monitor["monitor_overhead_ratio"]
    _require(
        ratio <= 1.05,
        f"health monitors slowed the instrumented hot path {ratio}x "
        f"(limit 1.05x): {monitor}",
    )
    return (
        f"monitor overhead {100 * (ratio - 1):+.1f}% (limit 5%) on "
        f"the vectorized 16-server rack, "
        f"{monitor['n_incidents']} incident(s) in the bench run"
    )


def gate_export(records: Records) -> str:
    export = records["export_overhead"]
    ratio = export["export_overhead_ratio"]
    _require(
        ratio <= 1.05,
        f"live metric serving slowed the instrumented hot path "
        f"{ratio}x (limit 1.05x): {export}",
    )
    return (
        f"export overhead {100 * (ratio - 1):+.1f}% (limit 5%) with "
        f"~{export['scrapes_per_run']} scrapes per run on the "
        f"vectorized 16-server rack"
    )


GATES: tuple[Callable[[Records], str], ...] = (
    gate_fault_hooks,
    gate_obs,
    gate_monitor,
    gate_export,
)


def check(records: Records) -> list[str]:
    """Run every gate; returns the failure messages (empty = all pass).

    Each passing gate prints its one-line reading.
    """
    failures = []
    for gate in GATES:
        try:
            print(gate(records))
        except GateError as exc:
            failures.append(str(exc))
    return failures


def summary(records: Records) -> str:
    """Markdown tables of the speedups and phase shares in *records*."""
    lines = [
        "### Backend speedups over scalar (smoke run)",
        "",
        "| rack | scalar steps/s | vectorized steps/s "
        "| fused steps/s | vectorized | fused |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, fields in sorted(records.items()):
        if "vectorized_speedup" not in fields:
            continue
        lines.append(
            f"| {fields['n_servers']} servers "
            f"| {fields['scalar_server_steps_per_sec']:,.0f} "
            f"| {fields['vectorized_server_steps_per_sec']:,.0f} "
            f"| {fields['fused_server_steps_per_sec']:,.0f} "
            f"| {fields['vectorized_speedup']}x "
            f"| {fields['fused_speedup']}x |"
        )
    lines += [
        "",
        "### Stacked room vs independent rack runs (smoke run)",
        "",
        "| room | per-rack steps/s | stacked steps/s | speedup |",
        "| --- | --- | --- | --- |",
    ]
    for name, fields in sorted(records.items()):
        if "stacked_speedup" not in fields:
            continue
        lines.append(
            f"| {fields['n_racks']}x{fields['servers_per_rack']} servers "
            f"| {fields['per_rack_server_steps_per_sec']:,.0f} "
            f"| {fields['stacked_server_steps_per_sec']:,.0f} "
            f"| {fields['stacked_speedup']}x |"
        )
    lines += [
        "",
        "### Fused kernel vs per-dt vectorized, stacked room (smoke run)",
        "",
        "| room | vectorized steps/s | fused steps/s | ratio |",
        "| --- | --- | --- | --- |",
    ]
    for name, fields in sorted(records.items()):
        if not name.endswith("_fused"):
            continue
        lines.append(
            f"| {fields['n_racks']}x{fields['servers_per_rack']} servers "
            f"| {fields['vectorized_server_steps_per_sec']:,.0f} "
            f"| {fields['fused_server_steps_per_sec']:,.0f} "
            f"| {fields['fused_vs_vectorized']}x |"
        )
    lines += ["", "### Per-phase time breakdown (smoke run)", ""]
    with_phases = {
        name: fields["phases"]
        for name, fields in sorted(records.items())
        if fields.get("phases")
    }
    all_phases = sorted({p for ph in with_phases.values() for p in ph})
    lines.append("| benchmark | " + " | ".join(all_phases) + " |")
    lines.append("| --- |" + " --- |" * len(all_phases))
    for name, phases in with_phases.items():
        cells = " | ".join(
            f"{100 * phases[p]:.1f}%" if p in phases else "-"
            for p in all_phases
        )
        lines.append(f"| {name} | {cells} |")
    obs = records["obs_overhead"]
    lines += [
        "",
        f"obs overhead on the vectorized 16-server rack: disabled "
        f"{100 * (obs['disabled_overhead_ratio'] - 1):+.1f}%, "
        f"enabled {100 * (obs['enabled_overhead_ratio'] - 1):+.1f}%",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", type=Path, help="the BENCH_fleet.json a benchmark run wrote"
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the markdown summary tables instead of gating",
    )
    args = parser.parse_args(argv)
    records = json.loads(args.path.read_text())["benchmarks"]
    if args.summary:
        print(summary(records))
        return 0
    failures = check(records)
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
