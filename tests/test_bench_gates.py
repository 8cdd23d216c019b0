"""Overhead gates of the bench-smoke CI job (tools/check_bench_gates.py).

Each gate gets one record set that passes and one that trips it, with
the bound itself on the passing side.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_bench_gates", REPO_ROOT / "tools" / "check_bench_gates.py"
)
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def _records(**overrides) -> dict:
    """A record set in which every gate passes, bounds exactly met."""
    records = {
        "fault_hook_overhead": {"hook_overhead_ratio": 1.05},
        "rack16_faults": {"faulted_server_steps_per_sec": 1.2e6},
        "obs_overhead": {
            "disabled_overhead_ratio": 1.02,
            "enabled_overhead_ratio": 1.10,
        },
        "monitor_overhead": {"monitor_overhead_ratio": 1.05, "n_incidents": 22},
        "export_overhead": {"export_overhead_ratio": 1.05, "scrapes_per_run": 1.0},
    }
    for name, fields in overrides.items():
        records[name] = {**records[name], **fields}
    return records


#: (gate, a tripping override, a fragment of its failure message).
TRIPS = (
    (
        gates.gate_fault_hooks,
        {"fault_hook_overhead": {"hook_overhead_ratio": 1.0501}},
        "regressed 1.0501x with injection hooks installed (limit 1.05x)",
    ),
    (
        gates.gate_fault_hooks,
        {"rack16_faults": {"faulted_server_steps_per_sec": 0.0}},
        "'faulted_server_steps_per_sec': 0.0",
    ),
    (
        gates.gate_obs,
        {"obs_overhead": {"disabled_overhead_ratio": 1.021}},
        "disabled obs config slowed the hot path 1.021x (limit 1.02x",
    ),
    (
        gates.gate_obs,
        {"obs_overhead": {"enabled_overhead_ratio": 1.11}},
        "full instrumentation slowed the hot path 1.11x (limit 1.10x)",
    ),
    (
        gates.gate_monitor,
        {"monitor_overhead": {"monitor_overhead_ratio": 1.0505}},
        "health monitors slowed the instrumented hot path 1.0505x "
        "(limit 1.05x)",
    ),
    (
        gates.gate_export,
        {"export_overhead": {"export_overhead_ratio": 1.06}},
        "live metric serving slowed the instrumented hot path 1.06x "
        "(limit 1.05x)",
    ),
)


class TestGates:
    @pytest.mark.parametrize("gate", gates.GATES)
    def test_passes_at_the_bound(self, gate):
        assert "limit" in gate(_records())

    @pytest.mark.parametrize("gate,overrides,message", TRIPS)
    def test_trips_over_the_bound(self, gate, overrides, message):
        with pytest.raises(gates.GateError) as err:
            gate(_records(**overrides))
        assert message in str(err.value)

    def test_check_reports_every_failure(self, capsys):
        failures = gates.check(
            _records(
                monitor_overhead={"monitor_overhead_ratio": 1.2},
                export_overhead={"export_overhead_ratio": 1.2},
            )
        )
        assert len(failures) == 2
        printed = capsys.readouterr().out
        assert "idle fault hooks cost 5.0% (limit 5%)" in printed
        assert "obs overhead: disabled +2.0% (limit 2%)" in printed


class TestCommandLine:
    def _write(self, tmp_path, records) -> str:
        path = tmp_path / "BENCH_fleet.json"
        path.write_text(json.dumps({"benchmarks": records}))
        return str(path)

    def test_exit_status(self, tmp_path, capsys):
        assert gates.main([self._write(tmp_path, _records())]) == 0
        tripped = _records(obs_overhead={"enabled_overhead_ratio": 1.5})
        assert gates.main([self._write(tmp_path, tripped)]) == 1
        assert "FAILED: full instrumentation" in capsys.readouterr().err

    def test_path_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            gates.main([])
        assert exit_info.value.code == 2
        assert "required: path" in capsys.readouterr().err

    def test_summary_tables(self, tmp_path, capsys):
        records = _records()
        records["rack16_backend_throughput"] = {
            "n_servers": 16,
            "scalar_server_steps_per_sec": 1.0e5,
            "vectorized_server_steps_per_sec": 9.0e5,
            "fused_server_steps_per_sec": 1.2e6,
            "vectorized_speedup": 9.0,
            "fused_speedup": 12.0,
            "phases": {"plant": 0.5, "control": 0.5},
        }
        assert gates.main(["--summary", self._write(tmp_path, records)]) == 0
        out = capsys.readouterr().out
        assert "| 16 servers | 100,000 | 900,000 | 1,200,000 | 9.0x | 12.0x |" in out
        assert "| rack16_backend_throughput | 50.0% | 50.0% |" in out
