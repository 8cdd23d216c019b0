"""Render observability files as summary tables: ``python -m repro.obs.report``.

Reads the JSONL files the observability subsystem emits - metrics
streams from :class:`~repro.obs.sinks.JsonlSink` and span traces from
:meth:`~repro.obs.collector.ObsCollector.export_trace_jsonl` - and
renders aligned plain-text tables (via
:func:`repro.analysis.report.format_table`, the same renderer the
experiment scripts use) or, with ``--format json``, the same rows as a
JSON array for scripting.

Usage::

    python -m repro.obs.report run_metrics.jsonl [more.jsonl ...]
    python -m repro.obs.report --trace run_trace.jsonl
    python -m repro.obs.report --phases run_metrics.jsonl
    python -m repro.obs.report --hists run_metrics.jsonl
    python -m repro.obs.report --incidents run_metrics.jsonl
    python -m repro.obs.report --merged-trace traces/*.jsonl --out merged.json

Modes:

* default - one row per run label (the last snapshot wins): simulated
  time, server steps, throughput, wall time, and the dominant phase.
* ``--phases`` - the per-phase breakdown of every run: total seconds,
  call count, and share of timed work.
* ``--hists`` - histogram rows per run: count, mean, and p50/p95/p99
  estimated from the power-of-two bucket bounds
  (:func:`repro.obs.export.quantiles_from_hist`, the same estimator
  the ``/metrics`` exposition uses).
* ``--trace`` - span-file mode: per-span-name totals (count, total and
  mean duration) from a trace JSONL.
* ``--incidents`` - the health-monitor incident table (severity, scope,
  onset/clear, detector) from live ``type == "incident"`` records,
  final snapshots, or campaign-merged summaries - whatever mix the
  input files carry.
* ``--merged-trace`` - stitch several pid-tagged span-trace JSONL files
  (per-worker campaign exports plus the parent's) into **one** Chrome/
  Perfetto trace document with a lane per worker pid (thread rows are
  span depths).  All files share a single time origin: CPython's
  ``perf_counter`` reads a system-wide monotonic clock on Linux and
  Windows, so worker and parent clocks are directly comparable there
  (see docs/observability.md for the platform caveat).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.report import format_table
from repro.errors import ObsError
from repro.obs.collector import trace_event
from repro.obs.export import QUANTILES, quantiles_from_hist


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse one record per non-empty line; raises ObsError on bad input."""
    path = Path(path)
    if not path.exists():
        raise ObsError(f"no such file: {path}")
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{lineno}: not JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ObsError(f"{path}:{lineno}: expected a JSON object")
        records.append(record)
    return records


def _final_snapshots(records: Iterable[dict]) -> dict[str, dict]:
    """Last snapshot per run label (streams end with a 'final' record)."""
    finals: dict[str, dict] = {}
    for record in records:
        label = str(record.get("label", "run"))
        finals[label] = record
    return finals


def _dominant_phase(record: dict) -> str:
    phases = record.get("phases", {})
    if not phases:
        return "-"
    name, entry = max(phases.items(), key=lambda item: item[1]["total_s"])
    total = sum(e["total_s"] for e in phases.values())
    share = entry["total_s"] / total if total > 0 else 0.0
    return f"{name} ({100 * share:.0f}%)"


def runs_rows(records: list[dict]) -> tuple[list[str], list[list]]:
    """The default table: one row per run label."""
    rows = []
    for label, record in sorted(_final_snapshots(records).items()):
        counters = record.get("counters", {})
        server_steps = counters.get("server_steps", 0)
        wall = record.get("wall_s", 0.0)
        rows.append(
            [
                label,
                record.get("sim_time_s", 0.0),
                server_steps,
                server_steps / wall if wall > 0 else 0.0,
                wall,
                _dominant_phase(record),
            ]
        )
    headers = [
        "run", "sim_time_s", "server_steps", "steps/s", "wall_s", "top phase",
    ]
    return headers, rows


def phases_rows(records: list[dict]) -> tuple[list[str], list[list]]:
    """Per-phase breakdown of every run in the input."""
    rows = []
    for label, record in sorted(_final_snapshots(records).items()):
        phases = record.get("phases", {})
        timed = sum(entry["total_s"] for entry in phases.values())
        ordered = sorted(
            phases.items(), key=lambda item: item[1]["total_s"], reverse=True
        )
        for name, entry in ordered:
            share = entry["total_s"] / timed if timed > 0 else 0.0
            rows.append(
                [label, name, entry["total_s"], entry["count"], 100 * share]
            )
    return ["run", "phase", "total_s", "count", "% of timed"], rows


def hists_rows(records: list[dict]) -> tuple[list[str], list[list]]:
    """Histogram rows per run, with bucket-estimated quantiles.

    The p50/p95/p99 columns come from
    :func:`~repro.obs.export.quantiles_from_hist` - the exact values the
    live ``/metrics`` exposition exports as ``*_quantile`` gauges.
    """
    rows = []
    for label, record in sorted(_final_snapshots(records).items()):
        for name in sorted(record.get("hists", {})):
            hist = record["hists"][name]
            count = int(hist.get("count", 0))
            quantiles = quantiles_from_hist(hist)
            rows.append(
                [
                    label,
                    name,
                    count,
                    hist.get("mean") if count else None,
                    *(quantiles[q] for q in QUANTILES),
                    hist.get("max"),
                ]
            )
    headers = ["run", "hist", "count", "mean"]
    headers += [f"p{100 * q:g}" for q in QUANTILES]
    headers += ["max"]
    return headers, rows


def trace_rows(records: list[dict]) -> tuple[list[str], list[list]]:
    """Per-span-name aggregates from a trace JSONL."""
    totals: dict[str, list] = {}
    for record in records:
        name = str(record.get("name", "?"))
        duration = float(record.get("end_s", 0.0)) - float(
            record.get("start_s", 0.0)
        )
        slot = totals.setdefault(name, [0, 0.0])
        slot[0] += 1
        slot[1] += duration
    rows = [
        [name, count, total, 1e6 * total / count if count else 0.0]
        for name, (count, total) in sorted(
            totals.items(), key=lambda item: item[1][1], reverse=True
        )
    ]
    return ["span", "count", "total_s", "mean_us"], rows


def collect_incidents(records: Iterable[dict]) -> list[dict]:
    """Incident dicts from a mixed JSONL stream, deduplicated per run.

    Three record shapes carry incidents: live ``type == "incident"``
    emits (no clear time yet - they fire at onset), periodic/final
    snapshots with an ``"incidents"`` list, and campaign-merged
    summaries (same key).  Snapshot lists supersede the live records of
    the same run label because they carry clear times; the *last*
    snapshot per label wins, matching :func:`_final_snapshots`.
    """
    live: dict[str, list[dict]] = {}
    snapshot: dict[str, list[dict]] = {}
    for record in records:
        label = str(record.get("label", record.get("run", "run")))
        if record.get("type") == "incident":
            live.setdefault(label, []).append(
                {k: v for k, v in record.items() if k not in ("type", "label")}
            )
        elif isinstance(record.get("incidents"), list):
            snapshot[label] = [dict(inc) for inc in record["incidents"]]
    out: list[dict] = []
    for label in sorted(set(live) | set(snapshot)):
        out.extend(snapshot.get(label, live.get(label, [])))
    return out


def incidents_rows(records: list[dict]) -> tuple[list[str], list[list]]:
    """The health-monitor incident table."""
    incidents = collect_incidents(records)
    incidents.sort(
        key=lambda inc: (
            inc.get("onset_s", 0.0),
            str(inc.get("run", "")),
            str(inc.get("scope", "")),
            str(inc.get("detector", "")),
        )
    )
    rows = []
    for inc in incidents:
        clear = inc.get("clear_s")
        rows.append(
            [
                str(inc.get("run", "-")),
                str(inc.get("detector", "?")),
                str(inc.get("severity", "?")),
                str(inc.get("scope", "?")),
                float(inc.get("onset_s", 0.0)),
                "open" if clear is None else f"{float(clear):,.1f}",
                float(inc.get("value", 0.0)),
            ]
        )
    headers = [
        "run", "detector", "severity", "scope", "onset_s", "clear_s", "value",
    ]
    return headers, rows


def _render(
    headers: list[str],
    rows: list[list],
    fmt: str,
    float_format: str,
    empty: str,
) -> str:
    """Rows as an aligned table or a JSON array of row objects."""
    if fmt == "json":
        return json.dumps(
            [dict(zip(headers, row)) for row in rows], sort_keys=True
        )
    if not rows:
        return empty
    return format_table(headers, rows, float_format=float_format)


def render_runs(records: list[dict], fmt: str = "table") -> str:
    """The default per-run summary table."""
    return _render(*runs_rows(records), fmt, "{:,.1f}", "no runs found")


def render_phases(records: list[dict], fmt: str = "table") -> str:
    """Per-phase breakdown of every run in the input."""
    return _render(
        *phases_rows(records), fmt, "{:,.3f}", "no phase data found"
    )


def render_hists(records: list[dict], fmt: str = "table") -> str:
    """Histogram rows with bucket-estimated p50/p95/p99."""
    headers, rows = hists_rows(records)
    if fmt == "table":
        rows = [
            ["-" if cell is None else cell for cell in row] for row in rows
        ]
    return _render(headers, rows, fmt, "{:,.6g}", "no histograms found")


def render_trace(records: list[dict], fmt: str = "table") -> str:
    """Per-span-name aggregates from a trace JSONL."""
    return _render(*trace_rows(records), fmt, "{:,.3f}", "no spans found")


def render_incidents(records: list[dict], fmt: str = "table") -> str:
    """The health-monitor incident table."""
    return _render(
        *incidents_rows(records), fmt, "{:,.1f}", "no incidents found"
    )


def merge_traces(
    trace_files: list[tuple[str, list[dict]]],
) -> dict[str, Any]:
    """Stitch pid-tagged span traces into one Chrome trace document.

    ``trace_files`` pairs a source name (for fallback lanes) with its
    records.  Spans land on ``pid`` lanes (records missing a ``pid`` -
    pre-PR-10 exports - get a synthetic per-file lane) with ``tid`` set
    to the span's nesting depth; zero-duration spans (incident onsets,
    ``task:`` completion marks) render as thread-scoped instant events.
    One global time origin aligns every file: ``perf_counter`` is a
    system-wide monotonic clock on Linux and Windows, so worker and
    parent readings share an epoch and the campaign timeline is real.
    """
    lanes: list[tuple[int, str, dict]] = []
    for file_index, (source, records) in enumerate(trace_files):
        for record in records:
            if "start_s" not in record or "end_s" not in record:
                raise ObsError(
                    f"{source}: not a span-trace record: {record!r}"
                )
            pid = int(record.get("pid", -(file_index + 1)))
            lanes.append((pid, source, record))
    if not lanes:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "metadata": {"sources": [name for name, _ in trace_files]},
        }
    t0 = min(float(record["start_s"]) for _, _, record in lanes)
    events: list[dict[str, Any]] = []
    labels_by_pid: dict[int, list[str]] = {}
    for pid, _, record in lanes:
        label = str(record.get("label", ""))
        known = labels_by_pid.setdefault(pid, [])
        if label and label not in known:
            known.append(label)
        events.append(
            trace_event(
                str(record.get("name", "?")),
                float(record["start_s"]),
                float(record["end_s"]),
                t0,
                pid,
                int(record.get("depth", 0)),
            )
        )
    for pid in sorted(labels_by_pid):
        labels = labels_by_pid[pid]
        name = f"worker {pid}" if pid >= 0 else "trace"
        if labels:
            shown = ", ".join(labels[:3]) + (", ..." if len(labels) > 3 else "")
            name = f"{name} ({shown})"
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    events.sort(key=lambda e: (e.get("ph") == "M", e.get("ts", 0.0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "sources": [name for name, _ in trace_files],
            "pids": sorted(labels_by_pid),
        },
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize repro observability JSONL files.",
    )
    parser.add_argument("files", nargs="+", help="metrics or trace JSONL files")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--phases",
        action="store_true",
        help="per-phase breakdown instead of the per-run summary",
    )
    mode.add_argument(
        "--hists",
        action="store_true",
        help="histogram table with bucket-estimated p50/p95/p99",
    )
    mode.add_argument(
        "--trace",
        action="store_true",
        help="treat inputs as span-trace JSONL files",
    )
    mode.add_argument(
        "--incidents",
        action="store_true",
        help="health-monitor incident table instead of the run summary",
    )
    mode.add_argument(
        "--merged-trace",
        action="store_true",
        help="stitch pid-tagged trace JSONL files into one Chrome trace",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format for the table modes (default: table)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        help="write output to a file instead of stdout "
        "(the natural home for --merged-trace documents)",
    )
    args = parser.parse_args(argv)

    try:
        if args.merged_trace:
            trace_files = [
                (path, read_jsonl(path)) for path in args.files
            ]
            output = json.dumps(merge_traces(trace_files))
        else:
            records: list[dict] = []
            for path in args.files:
                records.extend(read_jsonl(path))
            if args.trace:
                output = render_trace(records, args.format)
            elif args.phases:
                output = render_phases(records, args.format)
            elif args.hists:
                output = render_hists(records, args.format)
            elif args.incidents:
                output = render_incidents(records, args.format)
            else:
                output = render_runs(records, args.format)
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
