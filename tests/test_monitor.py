"""Streaming health monitors and the incident layer (repro.obs.monitor).

Three contracts anchor this suite:

1. **Non-perturbation** (inherited from the obs subsystem): a monitored
   run is bit-for-bit identical to a bare run on every lane - scalar,
   vectorized, fused, stacked room, fault-injected.
2. **Cross-lane incident identity**: the incident list a run produces
   is *identical* - not merely close - whichever backend produced it.
3. **Detection quality**: every seeded PR 5 fault scenario with a
   dedicated detector is caught (with a recorded latency bound), and
   fault-free runs - including the committed golden-trace scenarios -
   never raise a scored detector.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig
from repro.errors import ObsError
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.scenarios import build_fault_scenario
from repro.fleet import FleetSimulator, homogeneous_rack
from repro.fleet.campaign import CampaignRunner, CampaignTask, merge_campaign_obs
from repro.fleet.scenarios import _assemble_rack, build_fleet_scenario, build_server_slot
from repro.obs import (
    SEVERITIES,
    HealthMonitor,
    MonitorConfig,
    ObsCollector,
    ObsConfig,
    arm_run_monitor,
    merge_summaries,
    score_detections,
)
from repro.obs.report import main as report_main
from repro.room import RoomSimulator, uniform_room
from repro.sim.engine import Simulator
from repro.sim.scenarios import (
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
)
from repro.workload.synthetic import SquareWaveWorkload

#: Sensor transport lag in the stock config (SensingConfig.lag_s).
LAG_S = 10.0
#: Fan control period in the stock config (ControlConfig.fan_interval_s).
FAN_S = 30.0

#: A stuck + drift schedule for the identity/perturbation lane tests.
SENSOR_FAULTS = FaultSchedule(
    events=(
        FaultEvent("stuck", server=1, start_s=100.0, duration_s=150.0),
        FaultEvent("drift", server=2, start_s=50.0, duration_s=200.0, magnitude=0.05),
    ),
    seed=0,
    label="sensor_faults",
)


def _assert_channels_equal(a, b):
    for name, chan in a.channels.items():
        assert np.array_equal(chan, b.channels[name], equal_nan=True), (
            f"channel {name} differs for {a.label}"
        )


def _assert_fleet_equal(a, b):
    for ra, rb in zip(a.server_results, b.server_results):
        _assert_channels_equal(ra, rb)
    assert a.mean_inlet_c == b.mean_inlet_c


def _single_sim(obs=None, faults=None):
    return Simulator(
        build_plant(),
        build_sensor(seed=3),
        paper_workload(600.0, seed=3),
        build_global_controller("rcoord"),
        dt_s=0.1,
        record_decimation=5,
        obs=obs,
        faults=faults,
    )


def _square_rack(n=2, stagger_s=10.0):
    """Rack with sustained square-wave demand: guaranteed excitation."""
    slots = [
        build_server_slot(
            f"s{i:02d}",
            workload=SquareWaveWorkload(
                low=0.1, high=0.6, half_period_s=60.0, phase_s=stagger_s * i
            ),
        )
        for i in range(n)
    ]
    return _assemble_rack(slots, FleetConfig(n_servers=n))


def _monitor(n=1, *, config=None, lag=None, **kwargs):
    return HealthMonitor(
        config or MonitorConfig(),
        limits_c=[80.0] * n,
        fan_max_rpm=[5000.0] * n,
        fan_interval_s=[FAN_S] * n,
        start_s=0.0,
        sensor_lag_s=None if lag is None else [lag] * n,
        **kwargs,
    )


class TestMonitorConfig:
    def test_defaults_validate_and_hash(self):
        cfg = MonitorConfig()
        assert cfg.enabled
        hash(cfg)  # campaign chunk keys hash their ObsConfig
        hash(ObsConfig(monitor=cfg))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_every_s": 0.0},
            {"sample_every_s": math.nan},
            {"tmeas_margin_c": -1.0},
            {"tmeas_limit_c": math.inf},
            {"fan_sat_fraction": 0.0},
            {"fan_sat_fraction": 1.5},
            {"fan_sat_dwell_s": -1.0},
            {"stuck_periods": 0},
            {"stuck_min_util_delta": -0.1},
            {"drift_tau_fast_s": 0.0},
            {"drift_tau_slow_s": 5.0, "drift_tau_fast_s": 10.0},
            {"drift_residual_c": 0.0},
            {"drift_dwell_s": -1.0},
            {"drift_util_band": -0.1},
            {"drift_warmup_s": -1.0},
            {"supply_margin_c": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ObsError):
            MonitorConfig(**kwargs)

    def test_obs_config_rejects_non_monitor(self):
        with pytest.raises(ObsError):
            ObsConfig(monitor="yes please")

    def test_mismatched_server_lists_rejected(self):
        with pytest.raises(ObsError):
            HealthMonitor(
                MonitorConfig(),
                limits_c=[80.0, 80.0],
                fan_max_rpm=[5000.0],
                fan_interval_s=[30.0, 30.0],
                start_s=0.0,
            )

    def test_rack_supplies_need_inlet_limit(self):
        with pytest.raises(ObsError):
            _monitor(rack_supplies=[(28.0, ())])


class TestDetectorUnits:
    """Drive HealthMonitor directly: each detector's state machine."""

    def test_tmeas_margin_opens_and_clears(self):
        mon = _monitor(config=MonitorConfig(tmeas_limit_c=80.0, tmeas_margin_c=2.0))
        mon.sample_server(5.0, 0, 77.0, 1000.0, 0.3)
        assert mon.incidents == []
        mon.sample_server(10.0, 0, 78.5, 1000.0, 0.3)
        (inc,) = mon.incidents
        assert inc["detector"] == "tmeas_margin"
        assert inc["severity"] == "critical"
        assert inc["severity"] in SEVERITIES
        assert inc["scope"] == "server:0"
        assert inc["onset_s"] == 10.0
        assert inc["clear_s"] is None
        mon.sample_server(15.0, 0, 76.0, 1000.0, 0.3)
        assert inc["clear_s"] == 15.0

    def test_fan_saturation_needs_dwell(self):
        cfg = MonitorConfig(fan_sat_fraction=0.98, fan_sat_dwell_s=60.0)
        mon = _monitor(config=cfg)
        for t in (5.0, 30.0, 60.0):
            mon.sample_server(t, 0, 70.0, 4950.0, 0.5)
        assert mon.incidents == []  # dwell not yet elapsed
        mon.sample_server(65.0, 0, 70.0, 4950.0, 0.5)
        (inc,) = mon.incidents
        assert inc["detector"] == "fan_saturation"
        assert inc["onset_s"] == 65.0
        # A dip below the threshold clears and resets the dwell clock.
        mon.sample_server(70.0, 0, 70.0, 3000.0, 0.5)
        assert inc["clear_s"] == 70.0
        mon.sample_server(75.0, 0, 70.0, 4950.0, 0.5)
        assert len(mon.incidents) == 1

    def test_stuck_needs_both_freeze_and_power_movement(self):
        cfg = MonitorConfig(stuck_periods=2, stuck_min_util_delta=0.25)
        # Frozen reading, steady power: a quiet healthy server - silent.
        mon = _monitor(config=cfg)
        for k in range(40):
            mon.sample_server(5.0 * (k + 1), 0, 75.0, 1000.0, 0.3)
        assert mon.incidents == []
        # Frozen reading while (lag-old) smoothed power swings: stuck.
        mon = _monitor(config=cfg)
        for k in range(40):
            util = 0.1 if k % 16 < 8 else 0.9
            mon.sample_server(5.0 * (k + 1), 0, 75.0, 1000.0, util)
        incs = [i for i in mon.incidents if i["detector"] == "stuck_sensor"]
        assert incs and incs[0]["severity"] == "critical"
        assert incs[0]["onset_s"] >= 2 * FAN_S

    def test_stuck_gate_is_lag_aligned(self):
        """Power moving within the last transport lag must not count."""
        cfg = MonitorConfig(stuck_periods=1, stuck_min_util_delta=0.25)

        def feed(mon):
            # Reading frozen throughout; utilization steps hard near the
            # *end* of the window - with a lag-deep ring the excursion
            # only becomes visible lag seconds later.
            for k in range(10):
                util = 0.9 if k >= 7 else 0.1
                mon.sample_server(5.0 * (k + 1), 0, 75.0, 1000.0, util)

        eager = _monitor(config=cfg, lag=0.0)
        feed(eager)  # 50 s > one fan period; the step is visible at once
        lagged = _monitor(config=cfg, lag=30.0)
        feed(lagged)
        assert [i["detector"] for i in eager.incidents] == ["stuck_sensor"]
        assert lagged.incidents == []

    def test_nan_reading_resets_stuck_and_drift(self):
        mon = _monitor(config=MonitorConfig(stuck_periods=1, stuck_min_util_delta=0.2))
        for k in range(20):
            util = 0.1 if k % 8 < 4 else 0.8
            mon.sample_server(5.0 * (k + 1), 0, 75.0, 1000.0, util)
        open_incs = [i for i in mon.incidents if i["clear_s"] is None]
        assert open_incs
        mon.sample_server(105.0, 0, math.nan, 1000.0, 0.5)
        assert all(i["clear_s"] is not None for i in mon.incidents)

    def test_drift_rearms_after_nan_reading(self):
        """A NaN sample clears drift and drops its EWMAs; the next finite
        reading re-seeds them, so a drift that goes on fires again."""
        cfg = MonitorConfig(
            drift_residual_c=1.0, drift_dwell_s=20.0, drift_warmup_s=0.0,
            sample_every_s=5.0,
        )
        mon = _monitor(config=cfg)
        t, reading = 0.0, 60.0
        for k in range(40):
            t += 5.0
            reading += 0.15 * 5.0
            mon.sample_server(t, 0, math.nan if k == 10 else reading, 1000.0, 0.3)
        drift = [i for i in mon.incidents if i["detector"] == "sensor_drift"]
        assert [(i["onset_s"], i["clear_s"]) for i in drift] == [
            (40.0, 55.0),
            (95.0, None),
        ]

    def test_drift_fires_after_dwell_and_respects_warmup(self):
        cfg = MonitorConfig(
            drift_residual_c=1.0, drift_dwell_s=20.0, drift_warmup_s=100.0,
            sample_every_s=5.0,
        )
        mon = _monitor(config=cfg)
        # Ramp the reading at steady utilization: residual grows while
        # the util gate stays open, but nothing may fire inside warmup.
        t, reading = 0.0, 60.0
        for _ in range(60):
            t += 5.0
            reading += 0.15 * 5.0
            mon.sample_server(t, 0, reading, 1000.0, 0.3)
        drift = [i for i in mon.incidents if i["detector"] == "sensor_drift"]
        assert drift and drift[0]["onset_s"] >= 100.0
        assert drift[0]["severity"] == "warning"

    def test_drift_gated_on_steady_utilization(self):
        cfg = MonitorConfig(
            drift_residual_c=1.0, drift_dwell_s=20.0, drift_warmup_s=0.0,
            drift_util_band=0.05, sample_every_s=5.0,
        )
        mon = _monitor(config=cfg)
        t, reading = 0.0, 60.0
        for k in range(60):
            t += 5.0
            reading += 0.15 * 5.0
            mon.sample_server(t, 0, reading, 1000.0, 0.1 if k % 2 else 0.9)
        assert [i for i in mon.incidents if i["detector"] == "sensor_drift"] == []

    def test_supply_margin_windows(self):
        mon = _monitor(
            config=MonitorConfig(supply_margin_c=3.0),
            rack_supplies=[(28.0, ((100.0, 200.0, 6.0),)), (28.0, ())],
            inlet_limit_c=35.0,
        )
        mon.commit(50.0)
        assert mon.incidents == []
        mon.commit(100.0)
        (inc,) = mon.incidents
        assert inc["detector"] == "supply_margin"
        assert inc["scope"] == "rack:0"
        assert inc["onset_s"] == 100.0
        mon.commit(150.0)
        assert inc["clear_s"] is None
        mon.commit(200.0)  # window is half-open: [start, end)
        assert inc["clear_s"] == 200.0

    def test_commit_advances_cadence(self):
        mon = _monitor(config=MonitorConfig(sample_every_s=5.0))
        assert mon.next_due_s == 5.0
        mon.commit(5.0)
        assert mon.next_due_s == 10.0
        mon.commit(30.0)  # catches up past skipped instants
        assert mon.next_due_s == 35.0


class TestScoreDetections:
    def test_pairs_events_with_earliest_incident(self):
        schedule = FaultSchedule(
            events=(FaultEvent("stuck", server=0, start_s=100.0, duration_s=100.0),),
            seed=0,
        )
        incidents = [
            {"detector": "stuck_sensor", "scope": "server:0", "onset_s": 90.0},
            {"detector": "stuck_sensor", "scope": "server:0", "onset_s": 160.0},
            {"detector": "stuck_sensor", "scope": "server:0", "onset_s": 180.0},
        ]
        score = score_detections(incidents, schedule)
        (event,) = score["events"]
        assert event["detected"] and event["latency_s"] == 60.0
        assert score["max_latency_s"] == 60.0
        # the 90 s incident predates the fault: a false positive
        assert [fp["onset_s"] for fp in score["false_positives"]] == [90.0]

    def test_missed_events_and_unscored_detectors(self):
        schedule = FaultSchedule(
            events=(FaultEvent("drift", server=1, start_s=50.0,
                               duration_s=100.0, magnitude=0.05),),
            seed=0,
        )
        incidents = [
            {"detector": "tmeas_margin", "scope": "server:1", "onset_s": 10.0},
        ]
        score = score_detections(incidents, schedule)
        assert score["detected"] == 0
        assert [e["kind"] for e in score["missed"]] == ["drift"]
        assert score["false_positives"] == []  # tmeas_margin is not scored
        assert score["max_latency_s"] is None


MONITORED = ObsConfig(monitor=MonitorConfig())


class TestNonPerturbation:
    """Monitored runs are bit-for-bit identical to bare runs, every lane."""

    def test_single_server(self):
        faults = FaultSchedule(
            events=(FaultEvent("stuck", server=0, start_s=40.0, duration_s=60.0),),
            seed=0,
        )
        bare = _single_sim(faults=faults).run(120.0)
        mon = _single_sim(obs=MONITORED, faults=faults).run(120.0)
        _assert_channels_equal(bare, mon)
        assert isinstance(mon.extras["obs"]["incidents"], list)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized", "fused"])
    def test_fleet_backends(self, backend):
        def run(obs):
            rack = homogeneous_rack(n_servers=4, duration_s=120.0, seed=5)
            sim = FleetSimulator(
                rack, dt_s=0.1, backend=backend, faults=SENSOR_FAULTS, obs=obs
            )
            return sim.run(120.0, label="fleet")

        bare = run(None)
        mon = run(MONITORED)
        _assert_fleet_equal(bare, mon)
        assert "incidents" in mon.extras["obs"]

    @pytest.mark.parametrize("backend", ["scalar", "vectorized", "fused"])
    def test_stacked_room(self, backend):
        def run(obs):
            room = uniform_room(duration_s=60.0, seed=2)
            sim = RoomSimulator(room, dt_s=0.1, backend=backend, obs=obs)
            return sim.run(60.0, label="room")

        bare = run(None)
        mon = run(MONITORED)
        for ra, rb in zip(bare.rack_results, mon.rack_results):
            _assert_fleet_equal(ra, rb)


class TestIncidentIdentity:
    """The incident list is identical whichever backend produced it."""

    def test_fleet_backends_identical_incidents(self):
        def incidents(backend):
            rack = homogeneous_rack(n_servers=4, duration_s=300.0, seed=0)
            sim = FleetSimulator(
                rack, backend=backend, faults=SENSOR_FAULTS, obs=MONITORED
            )
            return sim.run(300.0, label="x").extras["obs"]["incidents"]

        scalar = incidents("scalar")
        assert scalar  # the schedule must actually raise incidents
        assert scalar == incidents("vectorized") == incidents("fused")

    def test_room_backends_identical_incidents(self):
        def incidents(backend):
            room = uniform_room(duration_s=120.0, seed=2)
            sim = RoomSimulator(room, backend=backend, obs=MONITORED)
            return sim.run(120.0, label="room").extras["obs"]["incidents"]

        scalar = incidents("scalar")
        assert scalar == incidents("vectorized") == incidents("fused")


class TestSeededDetection:
    """Detectors catch every seeded PR 5 scenario; fault-free runs stay clean."""

    def test_stuck_detected_within_latency_bound(self):
        start = 150.0
        schedule = FaultSchedule(
            events=(FaultEvent("stuck", server=0, start_s=start, duration_s=300.0),),
            seed=0,
        )
        sim = FleetSimulator(
            _square_rack(), backend="vectorized", faults=schedule, obs=MONITORED
        )
        result = sim.run(500.0, label="stuck")
        score = score_detections(result.extras["obs"]["incidents"], schedule)
        (event,) = score["events"]
        assert event["detected"]
        # Transport lag delays the freeze's visibility; the detector
        # needs stuck_periods fan periods of frozen readings plus one
        # period of slack for the utilization gate.
        cfg = MonitorConfig()
        assert event["latency_s"] <= LAG_S + (cfg.stuck_periods + 1) * FAN_S
        assert score["false_positives"] == []

    def test_drift_detected(self):
        schedule = FaultSchedule(
            events=(FaultEvent("drift", server=1, start_s=200.0,
                               duration_s=600.0, magnitude=0.05),),
            seed=0,
        )
        rack = homogeneous_rack(n_servers=4, duration_s=900.0, seed=0)
        sim = FleetSimulator(
            rack, backend="vectorized", faults=schedule, obs=MONITORED
        )
        result = sim.run(900.0, label="drift")
        score = score_detections(result.extras["obs"]["incidents"], schedule)
        (event,) = score["events"]
        assert event["detected"]
        assert score["false_positives"] == []

    def test_crac_brownout_supply_margin(self):
        room, schedule = build_fault_scenario("crac_brownout")
        sim = RoomSimulator(
            room, backend="vectorized", faults=schedule, obs=MONITORED
        )
        # The registered scenario browns out at t=900 for 900 s; running
        # just past onset keeps the test fast while pinning latency 0.
        result = sim.run(1000.0, label="brownout")
        score = score_detections(result.extras["obs"]["incidents"], schedule)
        (event,) = score["events"]
        assert event["detected"]
        assert event["latency_s"] == 0.0
        assert score["false_positives"] == []

    @pytest.mark.parametrize(
        "scheme",
        ["uncoordinated", "ecoord", "rcoord", "rcoord_atref", "rcoord_atref_ssfan"],
    )
    def test_golden_scenarios_raise_no_scored_detector(self, scheme):
        """The committed golden-trace runs are fault-free: zero FPs."""
        rack = build_fleet_scenario(
            "homogeneous",
            n_servers=4,
            duration_s=60.0,
            seed=11,
            fleet=FleetConfig(n_servers=4, recirc_fraction=0.3),
            scheme=scheme,
        )
        sim = FleetSimulator(rack, dt_s=0.1, backend="vectorized", obs=MONITORED)
        result = sim.run(60.0, label=f"golden/{scheme}")
        scored = [
            inc
            for inc in result.extras["obs"]["incidents"]
            if inc["detector"] in ("stuck_sensor", "sensor_drift", "supply_margin")
        ]
        assert scored == []


class TestStuckProperty:
    """Seeded stuck faults are always caught under sustained excitation."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(start=st.floats(min_value=120.0, max_value=300.0))
    def test_stuck_fires_within_bound(self, start):
        start = round(start, 1)
        schedule = FaultSchedule(
            events=(FaultEvent("stuck", server=0, start_s=start, duration_s=400.0),),
            seed=0,
        )
        sim = FleetSimulator(
            _square_rack(), backend="vectorized", faults=schedule, obs=MONITORED
        )
        result = sim.run(start + 400.0, label="prop")
        cfg = MonitorConfig()
        bound = LAG_S + (cfg.stuck_periods + 1) * FAN_S
        onsets = [
            inc["onset_s"]
            for inc in result.extras["obs"]["incidents"]
            if inc["detector"] == "stuck_sensor"
            and inc["scope"] == "server:0"
            and inc["onset_s"] >= start
        ]
        assert onsets, f"stuck fault at t={start} never detected"
        assert min(onsets) - start <= bound

    def test_never_fires_fault_free(self):
        sim = FleetSimulator(
            _square_rack(4), backend="vectorized", obs=MONITORED
        )
        result = sim.run(900.0, label="clean")
        assert [
            inc
            for inc in result.extras["obs"]["incidents"]
            if inc["detector"] in ("stuck_sensor", "sensor_drift")
        ] == []


class TestCampaignMerge:
    def test_merge_summaries_sorts_incidents(self):
        def summary(label, onsets):
            collector = ObsCollector(ObsConfig())
            collector.label = label
            collector.arm_stream(0.0)
            for onset in onsets:
                collector.record_incident(
                    {
                        "detector": "tmeas_margin",
                        "severity": "critical",
                        "scope": "server:0",
                        "onset_s": onset,
                        "clear_s": None,
                        "value": 78.0,
                        "run": label,
                    }
                )
            collector.finish_run(10.0)
            return collector.summary()

        merged = merge_summaries([summary("b", [30.0, 10.0]), summary("a", [20.0])])
        assert [(i["onset_s"], i["run"]) for i in merged["incidents"]] == [
            (10.0, "b"),
            (20.0, "a"),
            (30.0, "b"),
        ]

    def test_campaign_serial_equals_parallel_incidents(self):
        tasks = [
            CampaignTask(
                scenario="homogeneous",
                n_servers=4,
                seed=seed,
                duration_s=60.0,
                faults=SENSOR_FAULTS,
                obs=MONITORED,
            )
            for seed in range(2)
        ]
        serial = merge_campaign_obs(CampaignRunner(workers=None).run(tasks))
        parallel = merge_campaign_obs(CampaignRunner(workers=2).run(tasks))
        assert serial["incidents"]
        assert serial["incidents"] == parallel["incidents"]


class TestTraceAndSinks:
    def test_incidents_reach_summary_spans_and_sink(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        obs = ObsCollector(
            ObsConfig(sink=f"jsonl:{path}", monitor=MonitorConfig())
        )
        rack = homogeneous_rack(n_servers=4, duration_s=120.0, seed=5)
        sim = FleetSimulator(
            rack, backend="vectorized", faults=SENSOR_FAULTS, obs=obs
        )
        result = sim.run(120.0, label="traced")
        incidents = result.extras["obs"]["incidents"]
        assert incidents
        assert obs.incidents == incidents

        # Live emits: one type=="incident" record per onset.
        records = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        live = [r for r in records if r.get("type") == "incident"]
        assert len(live) == len(incidents)
        assert {r["detector"] for r in live} == {
            i["detector"] for i in incidents
        }

        # Zero-duration incident spans export as Chrome instant events.
        spans = [e for e in obs.trace_events() if e["name"].startswith("incident:")]
        assert len(spans) == len(incidents)
        assert all(e["ph"] == "i" and e["s"] == "t" for e in spans)
        assert all("dur" not in e for e in spans)
        phase_events = [e for e in obs.trace_events() if e["ph"] == "X"]
        assert phase_events  # ordinary spans still export as complete events

        out = tmp_path / "trace.jsonl"
        n = obs.export_trace_jsonl(out)
        names = [json.loads(line)["name"] for line in out.read_text().splitlines()]
        assert n == len(names)
        assert any(name.startswith("incident:") for name in names)

    def test_arm_run_monitor_clears_stale_monitor(self):
        obs = ObsCollector(ObsConfig(monitor=MonitorConfig()))
        monitor = arm_run_monitor(
            obs,
            plants=[build_plant()],
            controllers=[build_global_controller("rcoord")],
            start_s=0.0,
        )
        assert obs.monitor is monitor is not None
        bare = ObsCollector(ObsConfig())
        assert arm_run_monitor(
            bare,
            plants=[build_plant()],
            controllers=[build_global_controller("rcoord")],
            start_s=0.0,
        ) is None
        assert bare.monitor is None


class TestReportIncidents:
    def test_incident_table_from_mixed_records(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        records = [
            # live emit from a run whose snapshot never landed
            {
                "type": "incident",
                "label": "orphan",
                "detector": "fan_saturation",
                "severity": "warning",
                "scope": "server:3",
                "onset_s": 42.0,
                "clear_s": None,
                "value": 4900.0,
                "run": "orphan",
            },
            # final snapshot (carries clear times; supersedes live emits)
            {
                "type": "final",
                "label": "fleet",
                "incidents": [
                    {
                        "detector": "stuck_sensor",
                        "severity": "critical",
                        "scope": "server:1",
                        "onset_s": 170.0,
                        "clear_s": 255.0,
                        "value": 75.0,
                        "run": "fleet",
                    }
                ],
            },
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert report_main(["--incidents", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stuck_sensor" in out
        assert "fan_saturation" in out
        assert "open" in out  # un-cleared incident renders as open
        assert "255.0" in out

    def test_incident_table_from_real_run(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        obs = ObsConfig(sink=f"jsonl:{path}", monitor=MonitorConfig())
        rack = homogeneous_rack(n_servers=4, duration_s=120.0, seed=5)
        FleetSimulator(
            rack, backend="vectorized", faults=SENSOR_FAULTS, obs=obs
        ).run(120.0, label="fleet")
        assert report_main(["--incidents", str(path)]) == 0
        out = capsys.readouterr().out
        assert "detector" in out and "onset_s" in out

    def test_no_incidents_message(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps({"type": "final", "label": "x"}) + "\n")
        assert report_main(["--incidents", str(path)]) == 0
        assert "no incidents" in capsys.readouterr().out
