"""Observability subsystem: collectors, sinks, lanes, campaigns, report CLI.

The load-bearing contract here is the one docs/observability.md pins:
**observation never perturbs the simulation**.  Every lane test runs the
same scenario bare and instrumented and demands bitwise-equal telemetry;
the campaign tests demand that merged deterministic metrics are
identical between serial and process-pool execution.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.errors import ObsError
from repro.faults import FaultEvent, FaultSchedule
from repro.fleet import FleetSimulator, homogeneous_rack
from repro.fleet.campaign import (
    CampaignRunner,
    CampaignTask,
    merge_campaign_obs,
)
from repro.obs import (
    PHASES,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricSink,
    MonitorConfig,
    ObsCollector,
    ObsConfig,
    SpanBuffer,
    StdoutSink,
    build_sink,
    merge_summaries,
    resolve_obs,
)
from repro.obs.report import main as report_main
from repro.room import RoomSimulator, RoomTask, uniform_room
from repro.room.campaign import run_room_task
from repro.sim.engine import Simulator
from repro.sim.scenarios import (
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
)


def _assert_channels_equal(a, b):
    for name, chan in a.channels.items():
        assert np.array_equal(chan, b.channels[name], equal_nan=True), (
            f"channel {name} differs for {a.label}"
        )


def _assert_fleet_equal(a, b):
    for ra, rb in zip(a.server_results, b.server_results):
        _assert_channels_equal(ra, rb)
        assert ra.energy.cpu_j == rb.energy.cpu_j
        assert ra.energy.fan_j == rb.energy.fan_j
    assert a.mean_inlet_c == b.mean_inlet_c


def _single_sim(obs=None, faults=None):
    return Simulator(
        plant=build_plant(),
        sensor=build_sensor(),
        workload=paper_workload(120.0, seed=11),
        controller=build_global_controller("rcoord"),
        dt_s=0.1,
        faults=faults,
        obs=obs,
    )


DROPOUT = FaultSchedule(
    events=(
        FaultEvent("dropout", server=1, start_s=10.0, duration_s=20.0),
        FaultEvent("fan_ceiling", server=0, start_s=5.0, duration_s=40.0,
                   magnitude=4000.0),
    ),
    seed=3,
)


class TestSpanBuffer:
    def test_keeps_appends_in_order(self):
        buf = SpanBuffer(capacity=8)
        for i in range(5):
            buf.append("p", float(i), float(i) + 0.5, 1)
        spans = buf.spans()
        assert [s.start_s for s in spans] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buf.dropped == 0
        assert spans[0].duration_s == 0.5

    def test_evicts_oldest_past_capacity(self):
        buf = SpanBuffer(capacity=3)
        for i in range(7):
            buf.append("p", float(i), float(i) + 1.0, 0)
        assert len(buf) == 3
        assert buf.total == 7
        assert buf.dropped == 4
        assert [s.start_s for s in buf.spans()] == [4.0, 5.0, 6.0]

    def test_capacity_one(self):
        buf = SpanBuffer(capacity=1)
        buf.append("a", 0.0, 1.0, 0)
        buf.append("b", 1.0, 2.0, 0)
        spans = buf.spans()
        assert len(spans) == 1 and spans[0].name == "b"
        assert buf.dropped == 1


class TestHistogram:
    def test_counts_and_moments(self):
        hist = Histogram()
        for v in (0.5, 0.5, 3.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == 4.0
        assert hist.min == 0.5 and hist.max == 3.0
        assert hist.mean == pytest.approx(4.0 / 3.0)
        assert sum(hist.counts) == 3

    def test_overflow_bucket(self):
        hist = Histogram(bounds=(1.0, math.inf))
        hist.observe(0.5)
        hist.observe(1e9)
        d = hist.as_dict()
        assert d["buckets"] == {"1": 1, "inf": 1}

    def test_empty_as_dict(self):
        d = Histogram().as_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["mean"] is None


class TestConfigAndResolve:
    def test_invalid_config_rejected(self):
        with pytest.raises(ObsError):
            ObsConfig(trace_capacity=0)
        with pytest.raises(ObsError):
            ObsConfig(emit_every_s=0.0)

    def test_resolve_normalizes_disabled_to_none(self):
        assert resolve_obs(None) is None
        assert resolve_obs(ObsConfig(enabled=False)) is None
        collector = ObsCollector(ObsConfig(enabled=False))
        assert resolve_obs(collector) is None

    def test_resolve_builds_and_passes_through(self):
        built = resolve_obs(ObsConfig())
        assert isinstance(built, ObsCollector)
        collector = ObsCollector()
        assert resolve_obs(collector) is collector

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ObsError):
            resolve_obs("yes please")


class TestSinks:
    def test_build_sink_specs(self, tmp_path):
        assert isinstance(build_sink(None), MemorySink)
        assert isinstance(build_sink("memory"), MemorySink)
        assert isinstance(build_sink("stdout"), StdoutSink)
        sink = build_sink(f"jsonl:{tmp_path}/m.jsonl")
        assert isinstance(sink, JsonlSink)
        passthrough = MemorySink()
        assert build_sink(passthrough) is passthrough

    def test_bad_specs_rejected(self):
        with pytest.raises(ObsError):
            build_sink("jsonl:")
        with pytest.raises(ObsError):
            build_sink("carrier-pigeon")

    def test_jsonl_sink_appends_and_is_lazy(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # lazy: nothing emitted yet
        sink.emit({"a": 1})
        sink.emit({"b": 2.5})
        sink.close()
        sink.close()  # idempotent
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"a": 1}, {"b": 2.5}]
        assert sink.n_records == 2

    def test_stdout_sink(self, capsys):
        StdoutSink().emit({"x": 1})
        assert json.loads(capsys.readouterr().out) == {"x": 1}

    def test_base_sink_is_abstract(self):
        with pytest.raises(NotImplementedError):
            MetricSink().emit({})


class TestCollector:
    def test_phase_accumulates(self):
        obs = ObsCollector()
        obs.phase("plant", 1.0, 1.5)
        obs.phase("plant", 2.0, 2.25)
        obs.phase("sensing", 0.0, 0.1)
        assert obs.phase_totals["plant"] == pytest.approx(0.75)
        summary = obs.summary()
        assert summary["phases"]["plant"]["count"] == 2
        fractions = [e["fraction"] for e in summary["phases"].values()]
        assert sum(fractions) == pytest.approx(1.0)

    def test_counters_gauges_hists(self):
        obs = ObsCollector()
        obs.count("control_steps")
        obs.count("control_steps", 4)
        obs.gauge("servers", 16)
        obs.observe("step_s", 0.001)
        summary = obs.summary()
        assert summary["counters"]["control_steps"] == 5
        assert summary["gauges"]["servers"] == 16.0
        assert summary["hists"]["step_s"]["count"] == 1

    def test_nested_spans_track_depth(self):
        obs = ObsCollector()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = {s.name: s for s in obs.spans()}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1

    def test_streaming_cadence(self):
        obs = ObsCollector(ObsConfig(emit_every_s=10.0))
        obs.arm_stream(0.0)
        for k in range(1, 301):
            obs.tick(k * 0.1, 1)
        # 30 s of sim time at a 10 s cadence: 3 streamed snapshots.
        assert obs.emitted_records == 3
        obs.finish_run(30.0)
        records = obs.sink.records
        assert len(records) == 4
        assert records[-1]["type"] == "final"
        assert records[-1]["counters"]["server_steps"] == 300

    def test_no_streaming_without_cadence(self):
        obs = ObsCollector()
        obs.arm_stream(0.0)
        for k in range(1, 100):
            obs.tick(k * 0.1, 4)
        assert obs.emitted_records == 0

    def test_trace_disabled_records_no_spans(self):
        obs = ObsCollector(ObsConfig(trace=False))
        obs.phase("plant", 0.0, 1.0)
        with obs.span("run"):
            pass
        assert obs.spans() == []
        assert obs.phase_totals["plant"] == 1.0  # timing still on

    def test_chrome_trace_export(self, tmp_path):
        obs = ObsCollector()
        with obs.span("run"):
            obs.phase("plant", 10.0, 10.5)
        doc = obs.chrome_trace()
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        assert all(e["dur"] >= 0 for e in doc["traceEvents"])
        path = tmp_path / "trace.jsonl"
        n = obs.export_trace_jsonl(path)
        assert n == len(doc["traceEvents"])
        first = json.loads(path.read_text().splitlines()[0])
        # pid/label identify the producing worker so multi-process
        # campaign traces can be stitched into one timeline.
        assert set(first) == {
            "name", "start_s", "end_s", "depth", "pid", "label",
        }
        assert first["pid"] == os.getpid()


class TestMergeSummaries:
    def test_merges_counters_and_phases(self):
        a = ObsCollector()
        a.phase("plant", 0.0, 1.0)
        a.count("server_steps", 10)
        a.observe("h", 0.5)
        b = ObsCollector()
        b.phase("plant", 0.0, 2.0)
        b.phase("control", 0.0, 1.0)
        b.count("server_steps", 5)
        b.observe("h", 3.0)
        merged = merge_summaries([a.summary(), b.summary()])
        assert merged["runs"] == 2
        assert merged["counters"]["server_steps"] == 15
        assert merged["phases"]["plant"]["total_s"] == pytest.approx(3.0)
        assert merged["phases"]["plant"]["count"] == 2
        assert merged["hists"]["h"]["count"] == 2
        assert merged["hists"]["h"]["min"] == 0.5
        assert merged["hists"]["h"]["max"] == 3.0

    def test_skips_disabled_and_empty(self):
        merged = merge_summaries([{}, {"enabled": False}, None])
        assert merged["runs"] == 0


class TestLanesBitForBit:
    """Instrumented runs are bitwise identical to uninstrumented ones."""

    def test_single_server(self):
        bare = _single_sim().run(120.0)
        inst = _single_sim(obs=ObsConfig()).run(120.0)
        _assert_channels_equal(bare, inst)
        assert "obs" not in bare.extras
        obs = inst.extras["obs"]
        assert obs["counters"]["server_steps"] == 1200
        assert set(obs["phases"]) <= set(PHASES)

    def test_disabled_config_leaves_no_trace(self):
        result = _single_sim(obs=ObsConfig(enabled=False)).run(60.0)
        assert "obs" not in result.extras

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_fleet_backends(self, backend):
        def run(obs):
            rack = homogeneous_rack(n_servers=4, duration_s=60.0, seed=5)
            sim = FleetSimulator(
                rack, dt_s=0.1, record_decimation=5, backend=backend, obs=obs
            )
            return sim.run(60.0, label="fleet")

        bare = run(None)
        inst = run(ObsConfig())
        _assert_fleet_equal(bare, inst)
        obs = inst.extras["obs"]
        assert obs["counters"]["server_steps"] == 4 * 600
        assert obs["label"] == "fleet"

    def test_fleet_counters_match_across_backends(self):
        def counters(backend):
            rack = homogeneous_rack(n_servers=4, duration_s=60.0, seed=5)
            sim = FleetSimulator(
                rack, dt_s=0.1, backend=backend, obs=ObsConfig()
            )
            return sim.run(60.0).extras["obs"]["counters"]

        assert counters("scalar") == counters("vectorized")

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_stacked_room(self, backend):
        def run(obs):
            room = uniform_room(duration_s=40.0, seed=2)
            sim = RoomSimulator(
                room, dt_s=0.1, record_decimation=5, backend=backend, obs=obs
            )
            return sim.run(40.0, label="room")

        bare = run(None)
        inst = run(ObsConfig())
        for ra, rb in zip(bare.rack_results, inst.rack_results):
            _assert_fleet_equal(ra, rb)
        obs = inst.extras["obs"]
        assert obs["counters"]["server_steps"] == bare.n_servers * 400
        assert "obs" not in bare.extras

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_fault_injected_fleet(self, backend):
        def run(obs):
            rack = homogeneous_rack(n_servers=4, duration_s=60.0, seed=5)
            sim = FleetSimulator(
                rack,
                dt_s=0.1,
                backend=backend,
                faults=DROPOUT,
                obs=obs,
            )
            return sim.run(60.0, label="faulted")

        bare = run(None)
        inst = run(ObsConfig())
        _assert_fleet_equal(bare, inst)
        obs = inst.extras["obs"]
        engagements = inst.extras["faults"]["failsafe"]["engagements"]
        assert engagements >= 1
        assert obs["counters"]["failsafe_engagements"] == engagements
        assert "faults" in obs["phases"] or backend == "scalar"

    def test_streamed_snapshots_match_across_backends(self):
        # Every lane ticks once per step, so streamed snapshots land at
        # the scalar lane's simulation instants; on the array lanes each
        # snapshot counts exactly the whole-rack steps taken so far.
        def snapshots(backend):
            obs = ObsCollector(ObsConfig(emit_every_s=6.25))
            rack = homogeneous_rack(n_servers=4, duration_s=60.0, seed=5)
            FleetSimulator(rack, dt_s=0.1, backend=backend, obs=obs).run(60.0)
            return [
                rec for rec in obs.sink.records if rec["type"] == "metrics"
            ]

        scalar = snapshots("scalar")
        times = [rec["sim_time_s"] for rec in scalar]
        assert len(times) == 9
        for backend in ("vectorized", "fused"):
            recs = snapshots(backend)
            assert [rec["sim_time_s"] for rec in recs] == times
            for rec in recs:
                steps = round(rec["sim_time_s"] / 0.1)
                assert rec["counters"]["server_steps"] == 4 * steps

    MONITORED_FAULTS = FaultSchedule(
        events=(
            FaultEvent("stuck", server=1, start_s=20.0, duration_s=200.0),
            FaultEvent(
                "offset", server=2, start_s=10.0, duration_s=250.0,
                magnitude=8.0,
            ),
            FaultEvent("fan_seize", server=3, start_s=15.0, duration_s=200.0),
        ),
        seed=3,
    )

    def test_monitored_sink_records_match_across_backends(self):
        # A monitored, faulted rack streaming snapshots: every lane's
        # sink sees the same records in the same order.  The scalar lane
        # ticks once per whole-rack step, so a snapshot never lands
        # between two servers' monitor samples; the array lanes sweep
        # their held monitor samples before every snapshot.
        def records(backend):
            obs = ObsCollector(
                ObsConfig(emit_every_s=7.5, monitor=MonitorConfig())
            )
            rack = homogeneous_rack(n_servers=4, duration_s=300.0, seed=5)
            FleetSimulator(
                rack, dt_s=0.1, backend=backend,
                faults=self.MONITORED_FAULTS, obs=obs,
            ).run(300.0)
            return [
                (
                    rec["type"],
                    rec.get("sim_time_s", rec.get("onset_s")),
                    rec.get("counters"),
                    rec.get("incidents", rec.get("detector")),
                )
                for rec in obs.sink.records
            ]

        scalar = records("scalar")
        kinds = {rec[0] for rec in scalar}
        assert kinds == {"metrics", "incident", "final"}
        assert sum(rec[0] == "metrics" for rec in scalar) == 40
        for backend in ("vectorized", "fused"):
            assert records(backend) == scalar, backend

    @pytest.mark.parametrize("backend", ["vectorized", "fused"])
    def test_diverging_run_keeps_its_held_monitor_samples(
        self, backend, monkeypatch
    ):
        # The array lanes sweep monitor samples once per chunk; a run
        # that raises mid-chunk still records the incidents its samples
        # opened before the failure.
        from repro.errors import ThermalModelError
        from repro.sim.backends import batch_stepper

        def onsets(obs):
            return [
                (i["detector"], i["scope"], i["onset_s"])
                for i in obs.incidents
                if i["onset_s"] < 200.0
            ]

        def run(obs):
            rack = homogeneous_rack(n_servers=4, duration_s=300.0, seed=5)
            FleetSimulator(
                rack, dt_s=0.1, backend=backend,
                faults=self.MONITORED_FAULTS, obs=obs,
            ).run(300.0)

        clean = ObsCollector(ObsConfig(monitor=MonitorConfig()))
        run(clean)
        assert onsets(clean)
        lane = batch_stepper(backend)[1]
        advance = lane._advance_window

        def poisoned(self, j, e, applied, times, times_arr, clock):
            if times[e - 1] >= 200.0:
                applied = applied.copy()
                applied[1] = math.nan
            return advance(self, j, e, applied, times, times_arr, clock)

        monkeypatch.setattr(lane, "_advance_window", poisoned)
        failed = ObsCollector(ObsConfig(monitor=MonitorConfig()))
        with pytest.raises(ThermalModelError):
            run(failed)
        assert onsets(failed) == onsets(clean)

    def test_failsafe_counter_matches_across_backends(self):
        def counters(backend):
            rack = homogeneous_rack(n_servers=4, duration_s=60.0, seed=5)
            sim = FleetSimulator(
                rack, dt_s=0.1, backend=backend, faults=DROPOUT,
                obs=ObsConfig(),
            )
            return sim.run(60.0).extras["obs"]["counters"]

        scalar = counters("scalar")
        vector = counters("vectorized")
        assert scalar == vector
        assert scalar["failsafe_engagements"] >= 1


class TestCampaignObs:
    TASKS = [
        CampaignTask(
            scenario="homogeneous",
            n_servers=4,
            seed=seed,
            duration_s=20.0,
            obs=ObsConfig(),
        )
        for seed in range(3)
    ]

    def test_tasks_reject_live_collectors(self):
        with pytest.raises(Exception):
            CampaignTask(scenario="homogeneous", obs=ObsCollector())
        with pytest.raises(Exception):
            RoomTask(scenario="uniform", obs=ObsCollector())

    def test_obs_tasks_run_solo_with_attribution(self):
        results = CampaignRunner(workers=None).run(self.TASKS)
        for result in results:
            assert "chunk" not in result.extras  # solo, not stacked
            assert result.extras["obs"]["counters"]["server_steps"] == 800
            worker = result.extras["worker"]
            assert worker["pid"] > 0
            assert worker["task_wall_s"] > 0.0

    def test_worker_attribution_on_stacked_chunks(self):
        tasks = [
            CampaignTask(
                scenario="homogeneous", n_servers=4, seed=s, duration_s=20.0
            )
            for s in range(2)
        ]
        results = CampaignRunner(workers=None, chunk_size=2).run(tasks)
        for result in results:
            assert result.extras["chunk"]["size"] == 2
            assert result.extras["worker"]["task_wall_s"] > 0.0

    def test_merge_serial_equals_parallel(self):
        serial = CampaignRunner(workers=None).run(self.TASKS)
        parallel = CampaignRunner(workers=2).run(self.TASKS)
        ms = merge_campaign_obs(serial)
        mp = merge_campaign_obs(parallel)
        assert ms["runs"] == mp["runs"] == len(self.TASKS)
        assert ms["counters"] == mp["counters"]
        assert set(ms["phases"]) == set(mp["phases"])
        for name, entry in ms["phases"].items():
            assert entry["count"] == mp["phases"][name]["count"]

    def test_workers_never_open_file_sinks(self, tmp_path):
        path = tmp_path / "never.jsonl"
        task = CampaignTask(
            scenario="homogeneous",
            n_servers=4,
            duration_s=20.0,
            obs=ObsConfig(sink=f"jsonl:{path}"),
        )
        (result,) = CampaignRunner(workers=2).run([task])
        assert not path.exists()
        assert result.extras["obs"]["counters"]["server_steps"] == 800

    def test_room_task_obs(self):
        task = RoomTask(
            scenario="uniform",
            duration_s=20.0,
            servers_per_rack=2,
            obs=ObsConfig(),
        )
        result = run_room_task(task)
        assert result.extras["obs"]["counters"]["server_steps"] == 800
        assert result.extras["worker"]["task_wall_s"] > 0.0

    def test_merge_without_instrumented_results(self):
        tasks = [
            CampaignTask(
                scenario="homogeneous", n_servers=2, duration_s=20.0
            )
        ]
        results = CampaignRunner(workers=None).run(tasks)
        assert merge_campaign_obs(results)["runs"] == 0


class TestReportCLI:
    def _metrics_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        collector = ObsCollector(
            ObsConfig(emit_every_s=30.0, sink=f"jsonl:{path}")
        )
        collector.label = "demo"
        sim = _single_sim(obs=collector)
        sim.run(120.0, label="demo")
        return path

    def test_run_summary_table(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "server_steps" in out

    def test_phase_breakdown(self, tmp_path, capsys):
        path = self._metrics_file(tmp_path)
        assert report_main(["--phases", str(path)]) == 0
        out = capsys.readouterr().out
        assert "plant" in out and "% of timed" in out

    def test_trace_table(self, tmp_path, capsys):
        collector = ObsCollector()
        sim = _single_sim(obs=collector)
        sim.run(60.0)
        trace = tmp_path / "trace.jsonl"
        collector.export_trace_jsonl(trace)
        assert report_main(["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "plant" in out and "mean_us" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert report_main([str(path)]) == 1
        assert "not JSON" in capsys.readouterr().err
