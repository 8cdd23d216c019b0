"""Fault-injection subsystem: schedules, equivalence, failsafe, metrics.

The load-bearing guarantees:

* every fault kind produces **bit-for-bit identical** runs on the
  scalar and vectorized backends (the subsystem's core contract),
* fault scenarios run at room scale through :class:`RoomSimulator` on
  both lanes, again bit-for-bit,
* the telemetry watchdog forces max fan within one control period of a
  dropout reaching the firmware (property-tested over timing grids),
* the CRAC time constant's ``tau = 0`` limit reproduces the static
  supply model exactly,
* fault summaries and metrics are consistent across lanes.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    fault_impact,
    fleet_overheat_exposure_c_s,
    overheat_exposure_c_s,
)
from repro.config import CRACConfig, RoomConfig, ServerConfig
from repro.errors import FaultConfigError, RoomError
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    build_fault_scenario,
    cascading_failures,
    crac_brownout,
    seized_fan_rack,
    sensor_blackout,
)
from repro.fleet import FleetSimulator, homogeneous_rack
from repro.room import RoomSimulator, uniform_room
from repro.room.scenarios import failed_crac_room
from repro.sim.engine import Simulator
from repro.sim.scenarios import build_global_controller, build_plant, build_sensor
from repro.workload.synthetic import ConstantWorkload


def _assert_results_equal(a, b):
    """Bitwise channel + energy equality between two lockstep results."""
    for ra, rb in zip(a.server_results, b.server_results):
        for name, chan in ra.channels.items():
            assert np.array_equal(chan, rb.channels[name], equal_nan=True), (
                f"channel {name} differs for {ra.label}"
            )
        assert ra.energy.cpu_j == rb.energy.cpu_j
        assert ra.energy.fan_j == rb.energy.fan_j


#: One event of every fault kind a rack run supports, spread over four
#: servers with overlapping windows.
ALL_KINDS_SCHEDULE = FaultSchedule(
    events=(
        FaultEvent("dropout", server=1, start_s=40.0, duration_s=60.0),
        FaultEvent("stuck", server=0, start_s=30.0, duration_s=50.0),
        FaultEvent("offset", server=2, start_s=20.0, duration_s=100.0, magnitude=-3.0),
        FaultEvent("drift", server=3, start_s=10.0, duration_s=150.0, magnitude=0.02),
        FaultEvent(
            "noise_burst", server=2, start_s=60.0, duration_s=40.0, magnitude=1.5
        ),
        FaultEvent("fan_seize", server=0, start_s=50.0, duration_s=80.0),
        FaultEvent(
            "fan_ceiling", server=3, start_s=5.0, duration_s=200.0, magnitude=4000.0
        ),
        FaultEvent(
            "tach_misreport", server=1, start_s=0.0, duration_s=100.0, magnitude=1.2
        ),
        FaultEvent(
            "fouling",
            server=2,
            start_s=30.0,
            duration_s=90.0,
            magnitude=0.05,
            ramp_steps=6,
        ),
    ),
    seed=7,
)


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(FaultConfigError):
            FaultEvent("nonsense")
        with pytest.raises(FaultConfigError):
            FaultEvent("offset", magnitude=None)
        with pytest.raises(FaultConfigError):
            FaultEvent("dropout", magnitude=3.0)
        with pytest.raises(FaultConfigError):
            FaultEvent("noise_burst", magnitude=-1.0)
        with pytest.raises(FaultConfigError):
            FaultEvent("fouling", magnitude=0.1, duration_s=-5.0)
        with pytest.raises(FaultConfigError):
            FaultEvent("stuck", server=-1)
        with pytest.raises(FaultConfigError):
            FaultEvent("stuck", ramp_steps=4)
        with pytest.raises(FaultConfigError):
            FaultEvent(
                "fouling", magnitude=0.1, duration_s=math.inf, ramp_steps=4
            )

    def test_schedule_is_picklable_and_hashable(self):
        clone = pickle.loads(pickle.dumps(ALL_KINDS_SCHEDULE))
        assert clone == ALL_KINDS_SCHEDULE
        assert hash(clone) == hash(ALL_KINDS_SCHEDULE)
        assert clone.kinds == ALL_KINDS_SCHEDULE.kinds
        assert clone.has_dropout

    def test_validate_for_rejects_out_of_range_servers(self):
        schedule = FaultSchedule(events=(FaultEvent("stuck", server=9),))
        with pytest.raises(FaultConfigError):
            schedule.validate_for(4)
        schedule.validate_for(10)

    def test_fired_events_window_intersection(self):
        event = FaultEvent("stuck", server=0, start_s=100.0, duration_s=50.0)
        schedule = FaultSchedule(events=(event,))
        assert schedule.fired_events(0.0, 120.0) == (event,)
        assert schedule.fired_events(0.0, 90.0) == ()
        assert schedule.fired_events(160.0, 300.0) == ()

    def test_room_faults_rejected_outside_rooms(self):
        schedule = FaultSchedule(
            events=(FaultEvent("crac_brownout", server=0, magnitude=5.0),)
        )
        rack = homogeneous_rack(n_servers=2, duration_s=30.0, seed=0)
        with pytest.raises(FaultConfigError):
            FleetSimulator(rack, faults=schedule).run(30.0)


class TestBackendEquivalence:
    """The core contract: faults do not break scalar==vectorized."""

    def _run(self, backend, schedule, duration_s=300.0, scheme="rcoord"):
        rack = homogeneous_rack(
            n_servers=4, duration_s=duration_s, seed=3, scheme=scheme
        )
        sim = FleetSimulator(
            rack,
            dt_s=0.1,
            record_decimation=1,
            backend=backend,
            faults=schedule,
        )
        return sim.run(duration_s)

    def test_all_fault_kinds_bitwise_equal(self):
        scalar = self._run("scalar", ALL_KINDS_SCHEDULE)
        vectorized = self._run("vectorized", ALL_KINDS_SCHEDULE)
        assert scalar.extras["backend"] == "scalar"
        assert vectorized.extras["backend"] == "vectorized"
        assert vectorized.extras["controller_backend"] == "vectorized"
        _assert_results_equal(scalar, vectorized)

    def test_fault_summaries_identical_across_backends(self):
        scalar = self._run("scalar", ALL_KINDS_SCHEDULE)
        vectorized = self._run("vectorized", ALL_KINDS_SCHEDULE)
        assert scalar.extras["faults"] == vectorized.extras["faults"]
        summary = vectorized.extras["faults"]
        assert summary["failsafe"]["engagements"] == 1
        # Dropout at 40 s reaches firmware one transport delay later.
        assert summary["detection_latency_s"] == {1: 10.0}

    def test_each_kind_alone_bitwise_equal(self):
        for event in ALL_KINDS_SCHEDULE.events:
            schedule = FaultSchedule(events=(event,), seed=5)
            scalar = self._run("scalar", schedule, duration_s=150.0)
            vectorized = self._run("vectorized", schedule, duration_s=150.0)
            _assert_results_equal(scalar, vectorized)

    def test_empty_schedule_matches_fault_free_run(self):
        """Hooks installed but idle must not perturb the trajectory."""
        hooked = self._run("vectorized", FaultSchedule())
        rack = homogeneous_rack(n_servers=4, duration_s=300.0, seed=3)
        bare = FleetSimulator(
            rack, dt_s=0.1, record_decimation=1, backend="vectorized"
        ).run(300.0)
        _assert_results_equal(hooked, bare)
        assert hooked.extras["faults"]["n_fired"] == 0

    def test_faults_with_ssfan_controllers(self):
        """The vectorized controller lane composes with faults for SSfan."""
        schedule = FaultSchedule(
            events=(
                FaultEvent("dropout", server=0, start_s=30.0, duration_s=40.0),
                FaultEvent("fan_seize", server=1, start_s=20.0, duration_s=60.0),
            ),
            seed=2,
        )
        scalar = self._run(
            "scalar", schedule, duration_s=150.0, scheme="rcoord_atref_ssfan"
        )
        vectorized = self._run(
            "vectorized", schedule, duration_s=150.0, scheme="rcoord_atref_ssfan"
        )
        assert vectorized.extras["controller_backend"] == "vectorized"
        assert "controller_fallbacks" not in vectorized.extras
        _assert_results_equal(scalar, vectorized)


class TestRoomLaneFaults:
    def _run_room(self, backend, builder):
        room, schedule = builder()
        sim = RoomSimulator(
            room, dt_s=0.1, record_decimation=1, backend=backend, faults=schedule
        )
        return sim.run(200.0)

    def test_crac_brownout_scalar_vs_vectorized(self):
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=2,
            servers_per_rack=2,
            crac=CRACConfig(supply_time_constant_s=60.0),
        )

        def build():
            return crac_brownout(
                room=cfg,
                duration_s=200.0,
                seed=2,
                start_s=50.0,
                brownout_s=80.0,
                supply_rise_c=5.0,
            )

        scalar = self._run_room("scalar", build)
        vectorized = self._run_room("vectorized", build)
        assert vectorized.extras["backend"] == "vectorized"
        _assert_results_equal(scalar, vectorized)
        assert vectorized.extras["faults"]["n_fired"] == 1

    def test_brownout_raises_room_temperatures(self):
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)

        def run(rise):
            room, schedule = crac_brownout(
                room=cfg,
                duration_s=200.0,
                seed=2,
                start_s=50.0,
                brownout_s=120.0,
                supply_rise_c=rise,
            )
            return RoomSimulator(
                room, dt_s=0.1, record_decimation=1, faults=schedule
            ).run(200.0)

        hot = run(6.0)
        mild = run(0.0)
        assert (
            hot.metrics.worst_max_junction_c
            > mild.metrics.worst_max_junction_c
        )

    def test_cascading_failures_room_equivalence(self):
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)

        def build():
            room = uniform_room(cfg, duration_s=200.0, seed=1)
            schedule = FaultSchedule(
                events=(
                    FaultEvent(
                        "fouling",
                        server=0,
                        start_s=30.0,
                        duration_s=60.0,
                        magnitude=0.08,
                        ramp_steps=8,
                    ),
                    FaultEvent(
                        "fan_seize", server=0, start_s=70.0, duration_s=100.0
                    ),
                    FaultEvent(
                        "dropout", server=0, start_s=90.0, duration_s=60.0
                    ),
                ),
                seed=1,
            )
            return room, schedule

        scalar = self._run_room("scalar", build)
        vectorized = self._run_room("vectorized", build)
        _assert_results_equal(scalar, vectorized)
        windows = vectorized.extras["faults"]["failsafe"]["windows"]
        assert len(windows) == 1
        # The failsafe commanded max fan, but the seized fan could not
        # follow - the cascade's defining interaction - so the recorded
        # energy penalty is zero: nothing changed physically.
        assert windows[0]["forced_rpm"] == pytest.approx(8500.0)
        assert windows[0]["penalty_w"] == 0.0

    def test_brownout_needs_forcing_row(self):
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        room = uniform_room(cfg, duration_s=60.0, seed=0)  # no forcing row
        schedule = FaultSchedule(
            events=(FaultEvent("crac_brownout", server=0, magnitude=4.0),)
        )
        with pytest.raises(FaultConfigError):
            RoomSimulator(room, faults=schedule).run(60.0)


class TestTelemetryWatchdog:
    @settings(max_examples=15, deadline=None)
    @given(
        start=st.floats(20.0, 60.0),
        duration=st.floats(10.0, 60.0),
        lag=st.sampled_from([0.0, 5.0, 10.0]),
    )
    def test_failsafe_within_one_control_period(self, start, duration, lag):
        """Max fan within one CPU period of the dropout reaching firmware."""
        config = ServerConfig().with_sensing(lag_s=lag)
        plant = build_plant(config=config)
        sim = Simulator(
            plant,
            build_sensor(config=config, seed=1),
            ConstantWorkload(0.5),
            build_global_controller("rcoord", config),
            dt_s=0.1,
            faults=FaultSchedule(
                events=(
                    FaultEvent(
                        "dropout", server=0, start_s=start, duration_s=duration
                    ),
                )
            ),
        )
        result = sim.run(start + duration + 60.0)
        cpu_period = config.control.cpu_interval_s
        tmeas = result.tmeas_c
        fan = result.fan_speed_rpm
        times = result.times
        invalid = np.isnan(tmeas)
        assert invalid.any(), "dropout never reached the firmware"
        t_first_nan = times[invalid][0]
        v_max = config.fan.max_speed_rpm
        # Every record from one control period after the first invalid
        # reading until recovery must show the forced maximum.
        forced = (times >= t_first_nan + cpu_period) & invalid
        assert np.all(fan[forced] == v_max)
        summary = sim.fault_summary
        assert summary["failsafe"]["engagements"] >= 1
        window = summary["failsafe"]["windows"][0]
        assert window["engaged_s"] <= t_first_nan + cpu_period + 1e-6
        assert summary["detection_latency_s"][0] == pytest.approx(
            window["engaged_s"] - start
        )

    def test_simulator_attaches_fault_summary(self):
        """A single-server run records what fired in ``extras["faults"]``,
        as the rack and room drivers do."""
        config = ServerConfig()
        sim = Simulator(
            build_plant(config=config),
            build_sensor(config=config, seed=1),
            ConstantWorkload(0.5),
            build_global_controller("rcoord", config),
            dt_s=0.1,
            faults=FaultSchedule(
                events=(
                    FaultEvent("dropout", server=0, start_s=10.0, duration_s=20.0),
                )
            ),
        )
        result = sim.run(60.0)
        assert result.extras["faults"] == sim.fault_summary
        assert sim.fault_summary["n_fired"] == 1

    def test_controller_resumes_after_recovery(self):
        """Post-fault control picks up from the pre-fault DTM state."""
        schedule = FaultSchedule(
            events=(
                FaultEvent("dropout", server=0, start_s=50.0, duration_s=30.0),
            )
        )
        rack = homogeneous_rack(n_servers=2, duration_s=240.0, seed=4)
        result = FleetSimulator(
            rack, dt_s=0.1, record_decimation=1, faults=schedule
        ).run(240.0)
        server = result.server_results[0]
        window = result.extras["faults"]["failsafe"]["windows"][0]
        assert window["released_s"] is not None
        after = server.times > window["released_s"] + 1.0
        assert np.all(np.isfinite(server.tmeas_c[after]))
        # The forced max is abandoned once the DTM resumes.
        assert server.fan_speed_rpm[after][-1] < 8500.0


class TestFaultStatePersistence:
    def test_fouling_syncs_back_after_vectorized_run(self):
        """Fouling persists on the plant across the batch hand-off.

        A faulted vectorized run followed by a fault-free run of the
        *same rack* must match the identical scalar-backend sequence:
        the fouled sink carries over on both lanes.
        """
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    "fouling",
                    server=0,
                    start_s=20.0,
                    duration_s=40.0,
                    magnitude=0.06,
                    ramp_steps=4,
                ),
            )
        )

        def two_runs(backend):
            rack = homogeneous_rack(n_servers=2, duration_s=240.0, seed=6)
            FleetSimulator(
                rack, dt_s=0.1, record_decimation=1, backend=backend,
                faults=schedule,
            ).run(120.0)
            fouling = rack.slots[0].plant.heatsink.fouling_k_per_w
            second = FleetSimulator(
                rack, dt_s=0.1, record_decimation=1, backend="scalar"
            ).run(60.0)
            return fouling, second

        fouling_s, second_s = two_runs("scalar")
        fouling_v, second_v = two_runs("vectorized")
        assert fouling_s == fouling_v == pytest.approx(0.06)
        _assert_results_equal(second_s, second_v)

    def test_detection_latency_pairs_latest_dropout(self):
        """A blip that never engages must not inflate the latency.

        The first dropout window falls between sample instants (samples
        land on the 1 s cadence), so no NaN ever reaches the firmware
        and the watchdog stays quiet; the latency must pair the actual
        engagement with the *second* onset, not the earliest one.
        """
        schedule = FaultSchedule(
            events=(
                FaultEvent("dropout", server=0, start_s=30.2, duration_s=0.6),
                FaultEvent("dropout", server=0, start_s=120.0, duration_s=30.0),
            )
        )
        rack = homogeneous_rack(n_servers=2, duration_s=300.0, seed=2)
        result = FleetSimulator(
            rack, dt_s=0.1, record_decimation=1, faults=schedule
        ).run(300.0)
        summary = result.extras["faults"]
        windows = summary["failsafe"]["windows"]
        assert len(windows) == 1
        assert summary["detection_latency_s"][0] == pytest.approx(
            windows[0]["engaged_s"] - 120.0
        )
        assert summary["detection_latency_s"][0] == pytest.approx(10.0)


class TestFailsafePenalty:
    def test_penalty_integrates_actuator_regime_changes(self):
        """A seize ending mid-engagement starts costing from then on."""
        schedule = FaultSchedule(
            events=(
                FaultEvent("fan_seize", server=0, start_s=30.0, duration_s=50.0),
                FaultEvent("dropout", server=0, start_s=40.0, duration_s=80.0),
            )
        )
        rack = homogeneous_rack(n_servers=2, duration_s=240.0, seed=5)
        result = FleetSimulator(
            rack, dt_s=0.1, record_decimation=1, faults=schedule
        ).run(240.0)
        [window] = result.extras["faults"]["failsafe"]["windows"]
        # Engaged during the seize (instantaneous penalty zero), but the
        # seize ends at 80 s while the engagement runs to ~130 s, so the
        # integrated energy penalty must count the forced-max tail.
        assert window["engaged_s"] < 80.0 < window["released_s"]
        assert window["penalty_w"] == 0.0
        assert window["penalty_j"] > 0.0
        impact = fault_impact(result.extras["faults"])
        assert impact.failsafe_energy_penalty_j == pytest.approx(
            window["penalty_j"]
        )


class TestCRACTimeConstant:
    def test_tau_zero_is_static_limit(self):
        """Dynamic machinery at tau=0 reproduces the static room bitwise."""
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        static = uniform_room(cfg, duration_s=120.0, seed=5)
        dynamic = uniform_room(
            cfg, duration_s=120.0, seed=5, forcing_units=(0,)
        )
        assert not static.coupling.is_dynamic
        assert dynamic.coupling.is_dynamic
        a = RoomSimulator(static, dt_s=0.1).run(120.0)
        b = RoomSimulator(dynamic, dt_s=0.1).run(120.0)
        _assert_results_equal(a, b)

    def test_failed_crac_becomes_step_response(self):
        """tau>0 turns the failed unit's supply rise into an RC ramp."""
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=2,
            servers_per_rack=2,
            crac=CRACConfig(supply_time_constant_s=60.0),
        )
        room = failed_crac_room(cfg, duration_s=240.0, seed=5)
        assert room.coupling.is_dynamic
        sim = RoomSimulator(room, dt_s=0.1, record_decimation=1)
        sim.run(240.0)
        states = room.coupling.supply_states_c
        assert states is not None
        # The failed unit's supply state approaches its failure rise
        # from below: a transient, not a constant offset.
        rise = cfg.crac.failure_supply_rise_c
        row = room.coupling.crac_unit_rows[0]
        assert 0.9 * rise < states[row] < rise

    def test_supply_state_monotone_toward_forcing(self):
        """The RC filter approaches a constant forcing monotonically."""
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=2,
            servers_per_rack=2,
            crac=CRACConfig(
                supply_time_constant_s=50.0, return_sensitivity_k_per_k=0.0
            ),
        )
        room = uniform_room(cfg, duration_s=60.0, seed=0, forcing_units=(0,))
        coupling = room.coupling
        coupling.prepare_run(1.0)
        coupling.set_supply_forcing(0, 4.0)
        rises = np.zeros(room.n_servers)
        previous = 0.0
        row = coupling.crac_unit_rows[0]
        for _ in range(300):
            coupling.apply(rises)
            current = coupling.supply_states_c[row]
            assert current >= previous
            previous = current
        assert previous == pytest.approx(4.0, rel=1e-2)

    def test_static_failed_crac_forcing_row_not_double_counted(self):
        """A tau=0 failed unit's rise lives in the base inlets only.

        Adding a forcing row for it (as brownout campaigns do) must not
        re-apply failure_supply_rise_c through the filter.
        """
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        plain = failed_crac_room(cfg, duration_s=120.0, seed=3)
        forced = failed_crac_room(
            cfg, duration_s=120.0, seed=3, forcing_units=(0,)
        )
        assert forced.coupling.is_dynamic
        a = RoomSimulator(plain, dt_s=0.1).run(120.0)
        b = RoomSimulator(forced, dt_s=0.1).run(120.0)
        _assert_results_equal(a, b)

    def test_dynamic_coupling_requires_prepare_run(self):
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        room = uniform_room(cfg, duration_s=60.0, seed=0, forcing_units=(0,))
        with pytest.raises(RoomError):
            room.coupling.apply(np.zeros(room.n_servers))


class TestFaultScenariosAndMetrics:
    def test_registry_builders(self):
        rack, schedule = build_fault_scenario("sensor_blackout", n_servers=4)
        assert schedule.has_dropout
        assert rack.n_servers == 4
        rack, schedule = seized_fan_rack(n_servers=3, seized_index=1)
        assert schedule.events[0].kind == "fan_seize"
        room, schedule = cascading_failures(
            room=RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        )
        assert [event.kind for event in schedule.events] == [
            "fouling",
            "fan_seize",
            "dropout",
        ]
        with pytest.raises(FaultConfigError):
            build_fault_scenario("not_a_scenario")

    def test_sensor_blackout_run_and_metrics(self):
        rack, schedule = sensor_blackout(
            n_servers=4, duration_s=200.0, seed=1, start_s=60.0, blackout_s=50.0
        )
        result = FleetSimulator(
            rack, dt_s=0.1, record_decimation=1, faults=schedule
        ).run(200.0)
        impact = fault_impact(result.extras["faults"])
        assert impact.n_fired == 2
        assert impact.failsafe_engagements == 2
        assert impact.mean_detection_latency_s == pytest.approx(10.0)
        assert impact.failsafe_time_s > 0.0
        assert impact.failsafe_energy_penalty_j > 0.0
        assert math.isfinite(impact.as_dict()["failsafe_energy_penalty_j"])

    def test_brownout_rejects_nonzero_unit(self):
        with pytest.raises(FaultConfigError):
            crac_brownout(duration_s=60.0, unit=1)

    def test_overheat_exposure(self):
        rack, schedule = seized_fan_rack(
            n_servers=2,
            duration_s=400.0,
            seed=1,
            start_s=60.0,
            seize_s=300.0,
        )
        faulted = FleetSimulator(
            rack, dt_s=0.1, record_decimation=1, faults=schedule
        ).run(400.0)
        clean_rack = homogeneous_rack(n_servers=2, duration_s=400.0, seed=1)
        clean = FleetSimulator(clean_rack, dt_s=0.1, record_decimation=1).run(
            400.0
        )
        limit = 77.0
        exposure_faulted = fleet_overheat_exposure_c_s(
            faulted.server_results, limit
        )
        exposure_clean = fleet_overheat_exposure_c_s(
            clean.server_results, limit
        )
        assert exposure_faulted > exposure_clean
        assert overheat_exposure_c_s(faulted.server_results[0], 200.0) == 0.0
