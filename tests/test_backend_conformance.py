"""Property-based backend-conformance suite: the two-tier contract.

``docs/backends.md`` formalizes equivalence between the three execution
backends as two tiers:

* **Tier A** (scalar vs. vectorized): *bit-for-bit* - every telemetry
  channel, energy total, and summary agrees to the last bit, whatever
  the topology, workload, scheme, or fault schedule.
* **Tier B** (fused vs. vectorized): decision channels (measurements,
  fan commands, caps, applied utilization, set-points, timestamps) stay
  bit-for-bit, while the window-scanned thermal trajectories and the
  trapezoid energy totals are tolerance-bounded (the closed-form scan
  reorders arithmetic; measured drift is ~1e-13, the bounds below keep
  three orders of margin).

The randomized tests draw topologies (rack width, recirculation
fraction), workloads/seeds, Table III schemes, and fault schedules from
hypothesis - also for racks that mix vectorized and scalar-fallback
controllers under a dropout, and at the sensing layer alone, where a
``BatchSensorBank`` over mixed lags, LSBs, intervals, noise and sensor
faults must read what one scalar sensor per row reads; the
deterministic tests pin every scheme on the array lane (zero
controller fallbacks), six simulated hours of a faulted rack across
dozens of demand chunks, scalar-resume-after-fused sync-back, and
divergence detection on both array lanes.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig, RoomConfig, SensingConfig, ServerConfig
from repro.core.global_controller import GlobalController
from repro.errors import ThermalModelError
from repro.faults.events import SENSOR_FAULTS, FaultEvent, FaultSchedule
from repro.faults.states import SensorFaultState
from repro.fleet import FleetSimulator, Rack, build_fleet_scenario, homogeneous_rack
from repro.obs import MonitorConfig, ObsConfig
from repro.room import RoomSimulator, uniform_room
from repro.sensing.sensor import TemperatureSensor
from repro.sim.batch import _CHUNK_STEPS, BatchSensorBank, BatchStepper
from repro.sim.fused import FusedStepper

_DT = 0.1

#: Table III coordination schemes; all five must ride the array lane.
SCHEMES = (
    "uncoordinated",
    "rcoord",
    "rcoord_atref",
    "ecoord",
    "rcoord_atref_ssfan",
)

#: Channels the fused backend must reproduce bit-for-bit (tier B).
EXACT_CHANNELS = (
    "applied", "cpu_cap", "demand", "fan_speed", "t_ref", "time", "tmeas",
)
#: Channels covered by the tier-B thermal tolerance.
THERMAL_CHANNELS = ("junction", "heatsink")

#: Tier-B bounds, with ~3 orders of margin over measured drift (~1e-13
#: absolute on trajectories, ~1e-14 relative on energies).
THERMAL_ATOL = 1e-9
ENERGY_RTOL = 1e-11
INLET_ATOL = 1e-9


def _rack(scheme, n=4, seed=11, recirc=0.3, duration=60.0):
    return build_fleet_scenario(
        "homogeneous",
        n_servers=n,
        duration_s=duration,
        seed=seed,
        fleet=FleetConfig(n_servers=n, recirc_fraction=recirc),
        scheme=scheme,
    )


def _run(backend, scheme, n=4, seed=11, recirc=0.3, duration=60.0,
         dec=5, faults=None):
    sim = FleetSimulator(
        _rack(scheme, n=n, seed=seed, recirc=recirc, duration=duration),
        dt_s=_DT,
        record_decimation=dec,
        backend=backend,
        faults=faults,
    )
    result = sim.run(duration, label=f"{scheme}/{backend}")
    assert result.extras["backend"] == backend
    return result


def assert_tier_a(scalar, vectorized):
    """Scalar and vectorized results must agree to the last bit."""
    assert scalar.n_servers == vectorized.n_servers
    for i in range(scalar.n_servers):
        rs, rv = scalar.server(i), vectorized.server(i)
        for name, channel in rs.channels.items():
            assert np.array_equal(
                channel, rv.channels[name], equal_nan=True
            ), f"tier A: server {i} channel {name} diverged"
        assert rs.summary() == rv.summary(), f"tier A: server {i} summary"
        assert rs.performance == rv.performance, (
            f"tier A: server {i} deadline tracker"
        )
    assert scalar.mean_inlet_c == vectorized.mean_inlet_c
    if "faults" in scalar.extras or "faults" in vectorized.extras:
        assert scalar.extras["faults"] == vectorized.extras["faults"]


def assert_tier_b(vectorized, fused):
    """Fused must match vectorized exactly on decisions, within
    tolerance on window-scanned thermals and trapezoid energies."""
    assert fused.n_servers == vectorized.n_servers
    for i in range(vectorized.n_servers):
        rv, rf = vectorized.server(i), fused.server(i)
        for name in EXACT_CHANNELS:
            assert np.array_equal(
                rv.channels[name], rf.channels[name], equal_nan=True
            ), f"tier B: server {i} decision channel {name} diverged"
        for name in THERMAL_CHANNELS:
            drift = np.max(np.abs(rv.channels[name] - rf.channels[name]))
            assert drift < THERMAL_ATOL, (
                f"tier B: server {i} {name} drift {drift:.3e} "
                f"exceeds {THERMAL_ATOL:.0e}"
            )
        sv, sf = rv.summary(), rf.summary()
        for key in ("fan_energy_j", "cpu_energy_j"):
            rel = abs(sv[key] - sf[key]) / max(abs(sv[key]), 1e-12)
            assert rel < ENERGY_RTOL, (
                f"tier B: server {i} {key} rel drift {rel:.3e}"
            )
        assert sv["violation_percent"] == sf["violation_percent"]
    inlet_drift = np.max(
        np.abs(np.asarray(vectorized.mean_inlet_c)
               - np.asarray(fused.mean_inlet_c))
    )
    assert inlet_drift < INLET_ATOL
    if "faults" in vectorized.extras or "faults" in fused.extras:
        assert vectorized.extras["faults"] == fused.extras["faults"]


class TestTableThreeSchemes:
    """All five schemes, all three backends, array lane end to end."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_two_tier_contract(self, scheme):
        scalar = _run("scalar", scheme)
        vectorized = _run("vectorized", scheme)
        fused = _run("fused", scheme)
        assert_tier_a(scalar, vectorized)
        assert_tier_b(vectorized, fused)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fused_keeps_whole_rack_on_array_lane(self, scheme):
        """No silent scalar-controller fallback on any scheme."""
        fused = _run("fused", scheme)
        assert fused.extras["controller_backend"] == "vectorized"
        assert "controller_fallbacks" not in fused.extras


# Fault kinds the randomized schedules draw from, with magnitude rules.
_FAULT_KINDS = st.sampled_from(
    ["dropout", "stuck", "offset", "fan_seize", "fouling", "drift"]
)


@st.composite
def _conformance_case(draw, with_faults=False):
    n = draw(st.integers(min_value=2, max_value=5))
    case = {
        "n": n,
        "scheme": draw(st.sampled_from(SCHEMES)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "recirc": draw(
            st.floats(min_value=0.0, max_value=0.45,
                      allow_nan=False, allow_infinity=False)
        ),
        "dec": draw(st.integers(min_value=1, max_value=7)),
        "duration": draw(st.sampled_from([20.0, 30.0, 40.0])),
    }
    if not with_faults:
        return case
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(_FAULT_KINDS)
        magnitude = None
        if kind == "offset":
            magnitude = draw(st.sampled_from([-4.0, -1.5, 2.0, 5.0]))
        elif kind == "fouling":
            magnitude = draw(st.sampled_from([0.1, 0.3, 0.6]))
        elif kind == "drift":
            magnitude = draw(st.sampled_from([0.005, 0.02, 0.05]))
        events.append(
            FaultEvent(
                kind=kind,
                server=draw(st.integers(min_value=0, max_value=n - 1)),
                start_s=draw(st.sampled_from([3.0, 7.5, 12.0])),
                duration_s=draw(st.sampled_from([5.0, 10.0, 20.0])),
                magnitude=magnitude,
            )
        )
    case["faults"] = FaultSchedule(events)
    return case


class TestRandomizedConformance:
    """Hypothesis: the contract holds across random topologies,
    workloads (per-server seeded), schemes, and fault schedules."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_conformance_case())
    def test_two_tier_contract_randomized(self, case):
        scalar = _run("scalar", case["scheme"], n=case["n"],
                      seed=case["seed"], recirc=case["recirc"],
                      duration=case["duration"], dec=case["dec"])
        vectorized = _run("vectorized", case["scheme"], n=case["n"],
                          seed=case["seed"], recirc=case["recirc"],
                          duration=case["duration"], dec=case["dec"])
        fused = _run("fused", case["scheme"], n=case["n"],
                     seed=case["seed"], recirc=case["recirc"],
                     duration=case["duration"], dec=case["dec"])
        assert_tier_a(scalar, vectorized)
        assert_tier_b(vectorized, fused)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_conformance_case(with_faults=True))
    def test_two_tier_contract_under_faults(self, case):
        kw = dict(n=case["n"], seed=case["seed"], recirc=case["recirc"],
                  duration=case["duration"], dec=case["dec"],
                  faults=case["faults"])
        scalar = _run("scalar", case["scheme"], **kw)
        vectorized = _run("vectorized", case["scheme"], **kw)
        fused = _run("fused", case["scheme"], **kw)
        assert_tier_a(scalar, vectorized)
        assert_tier_b(vectorized, fused)


class _RenamedController(GlobalController):
    """A stock controller under another class name.  The batch lanes
    reject non-stock controllers, so its server steps the scalar objects
    inside an otherwise batched run (per-server fallback)."""


def _mixed_rack(case):
    """The case's rack with the drawn slots' controllers renamed."""
    rack = _rack(case["scheme"], n=case["n"], seed=case["seed"],
                 recirc=case["recirc"], duration=case["duration"])
    slots = list(rack.slots)
    for i in case["scalar_slots"]:
        c = slots[i].controller
        slots[i] = replace(slots[i], controller=_RenamedController(
            control=c.control,
            fan_controller=c.fan_controller,
            coordinator=c.coordinator,
            cpu_capper=c.cpu_capper,
            setpoint=c.setpoint,
            single_step=c.single_step,
            initial_state=c.state,
        ))
    return Rack(slots, coupling=rack.coupling, exhaust=rack.exhaust)


@st.composite
def _mixed_fault_case(draw):
    case = draw(_conformance_case(with_faults=True))
    n = case["n"]
    case["scalar_slots"] = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1),
                 min_size=1, max_size=n - 1, unique=True)
    )
    # A dropout whose NaN samples clear the 10 s sensor lag before the
    # shortest horizon ends, so the telemetry failsafe engages.  Listed
    # last, it applies after any stuck register on its server.
    dropout = FaultEvent(
        kind="dropout",
        server=draw(st.integers(min_value=0, max_value=n - 1)),
        start_s=draw(st.sampled_from([3.0, 7.5])),
        duration_s=draw(st.sampled_from([5.0, 10.0, 20.0])),
    )
    case["faults"] = FaultSchedule(case["faults"].events + (dropout,))
    return case


class TestMixedRackUnderFaults:
    """Tier A where the three control branches meet: vectorized slots,
    per-server scalar-fallback slots and the dropout failsafe, in one
    batched run under random fault schedules."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_mixed_fault_case())
    def test_mixed_rack_matches_scalar_under_faults(self, case):
        results = {}
        for backend in ("scalar", "vectorized"):
            sim = FleetSimulator(
                _mixed_rack(case),
                dt_s=_DT,
                record_decimation=case["dec"],
                backend=backend,
                faults=case["faults"],
            )
            results[backend] = sim.run(case["duration"])
            assert results[backend].extras["backend"] == backend
        vectorized = results["vectorized"]
        assert vectorized.extras["controller_backend"] == "mixed"
        assert sorted(vectorized.extras["controller_fallbacks"]) == sorted(
            f"srv{i:02d}" for i in case["scalar_slots"]
        )
        assert vectorized.extras["faults"]["failsafe"]["engagements"] >= 1
        assert_tier_a(results["scalar"], vectorized)


class TestLongHorizonUnderFaults:
    """Tier A over six simulated hours: a faulted two-server rack (a
    sensor dropout that engages the failsafe, fouling, a seized fan and
    a stuck sensor) on a 2 s CPU period at dt = 0.2 s, so every window
    is ten steps wide and the run crosses 26 demand chunks."""

    HORIZON_S = 6 * 3600.0
    DT_S = 0.2

    def _run(self, backend):
        n = 2
        config = ServerConfig().with_control(cpu_interval_s=2.0)
        faults = FaultSchedule(
            events=(
                FaultEvent("dropout", server=0, start_s=3600.0, duration_s=900.0),
                FaultEvent(
                    "fouling", server=1, start_s=7200.0, duration_s=3600.0,
                    magnitude=0.3,
                ),
                FaultEvent("fan_seize", server=1, start_s=12000.0, duration_s=1200.0),
                FaultEvent("stuck", server=0, start_s=16000.0, duration_s=900.0),
            ),
            seed=3,
        )
        rack = build_fleet_scenario(
            "staggered_waves",
            n_servers=n,
            duration_s=self.HORIZON_S,
            seed=5,
            fleet=FleetConfig(n_servers=n, recirc_fraction=0.3),
            config=config,
        )
        sim = FleetSimulator(
            rack,
            dt_s=self.DT_S,
            record_decimation=50,
            backend=backend,
            faults=faults,
            obs=ObsConfig(trace=False, monitor=MonitorConfig()),
        )
        result = sim.run(self.HORIZON_S)
        assert result.extras["backend"] == backend
        return result

    def test_six_hours_bit_for_bit(self):
        steps = round(self.HORIZON_S / self.DT_S)
        assert steps > 24 * _CHUNK_STEPS
        scalar, vectorized, fused = (
            self._run(backend) for backend in ("scalar", "vectorized", "fused")
        )
        assert vectorized.extras["faults"]["failsafe"]["engagements"] == 1
        assert_tier_a(scalar, vectorized)
        for i in range(vectorized.n_servers):
            assert scalar.server(i).energy == vectorized.server(i).energy
            for name in EXACT_CHANNELS:
                assert np.array_equal(
                    vectorized.server(i).channels[name],
                    fused.server(i).channels[name],
                    equal_nan=True,
                ), f"fused: server {i} decision channel {name} diverged"
        incidents = vectorized.extras["obs"]["incidents"]
        assert incidents
        assert scalar.extras["obs"]["incidents"] == incidents
        assert fused.extras["obs"]["incidents"] == incidents


class TestScalarResumeAfterFused:
    """The fused stepper syncs state back into the scalar objects, so a
    follow-up scalar run continues from where the batch left off."""

    def test_sync_back_state_matches_vectorized(self):
        rack_v = _rack("rcoord_atref")
        rack_f = _rack("rcoord_atref")
        FleetSimulator(rack_v, dt_s=_DT, backend="vectorized").run(30.0)
        FleetSimulator(rack_f, dt_s=_DT, backend="fused").run(30.0)
        for slot_v, slot_f in zip(rack_v, rack_f):
            assert slot_f.sensor.is_primed
            assert slot_v.plant.time_s == slot_f.plant.time_s
            sv, sf = slot_v.plant.state, slot_f.plant.state
            assert sv.junction_c == pytest.approx(
                sf.junction_c, abs=THERMAL_ATOL
            )
            assert sv.heatsink_c == pytest.approx(
                sf.heatsink_c, abs=THERMAL_ATOL
            )
            assert sv.fan_speed_rpm == sf.fan_speed_rpm
            assert sv.utilization == sf.utilization
            assert slot_v.inlet.offset_c == pytest.approx(
                slot_f.inlet.offset_c, abs=INLET_ATOL
            )

    def test_scalar_resume_trajectories_stay_bounded(self):
        """Resumed scalar runs from fused- and vectorized-synced racks
        track each other within the tier-B drift (the resumed lane is
        scalar on both sides; only the starting state differs)."""
        rack_v = _rack("rcoord_atref")
        rack_f = _rack("rcoord_atref")
        FleetSimulator(rack_v, dt_s=_DT, backend="vectorized").run(30.0)
        FleetSimulator(rack_f, dt_s=_DT, backend="fused").run(30.0)
        res_v = FleetSimulator(rack_v, dt_s=_DT, backend="auto").run(20.0)
        res_f = FleetSimulator(rack_f, dt_s=_DT, backend="auto").run(20.0)
        # Primed sensors force the scalar reference loop on both racks.
        assert res_v.extras["backend"] == "scalar"
        assert res_f.extras["backend"] == "scalar"
        for i in range(res_v.n_servers):
            rv, rf = res_v.server(i), res_f.server(i)
            for name, channel in rv.channels.items():
                assert np.allclose(
                    channel, rf.channels[name],
                    atol=1e-6, rtol=0.0, equal_nan=True,
                ), f"resumed server {i} channel {name}"


def _nan_load_after(advance, t_nan: float):
    """Wrap a lane's window advance so server 1's applied load is NaN
    in every window ending at or after ``t_nan``.  The plant itself
    diverges: demands are validated per chunk, before any window."""

    def poisoned(self, j, e, applied, times, times_arr, clock):
        if times[e - 1] >= t_nan:
            applied = applied.copy()
            applied[1] = math.nan
        return advance(self, j, e, applied, times, times_arr, clock)

    return poisoned


class TestDivergenceDetection:
    """A diverging plant raises before any non-finite junction
    temperature reaches the sensing pipeline: every window ends with
    one ``check_finite`` probe, ahead of its sensing tail."""

    @pytest.mark.parametrize("backend", ["vectorized", "fused"])
    def test_nan_never_reaches_sensing(self, backend, monkeypatch):
        rack = homogeneous_rack(n_servers=4, duration_s=60.0, seed=0)
        for lane in (BatchStepper, FusedStepper):
            monkeypatch.setattr(
                lane,
                "_advance_window",
                _nan_load_after(lane.__dict__["_advance_window"], 20.0),
            )
        observe = BatchSensorBank.observe
        non_finite = []

        def counting_observe(self, time_s, time_plus, true_temps):
            non_finite.append(int(np.count_nonzero(~np.isfinite(true_temps))))
            return observe(self, time_s, time_plus, true_temps)

        monkeypatch.setattr(BatchSensorBank, "observe", counting_observe)
        sim = FleetSimulator(rack, dt_s=_DT, backend=backend)
        with pytest.raises(ThermalModelError):
            sim.run(60.0)
        assert non_finite, "the run never reached sensing"
        assert sum(non_finite) == 0


class TestRoomConformance:
    """The contract holds one level up: stacked rooms with sparse
    cross-rack coupling and CRAC supply dynamics."""

    def _room_result(self, backend):
        config = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=3)
        room = uniform_room(config, duration_s=40.0, seed=5)
        sim = RoomSimulator(
            room, dt_s=_DT, record_decimation=4, backend=backend
        )
        result = sim.run(40.0)
        assert result.extras["backend"] == backend
        return result

    def test_room_two_tier_contract(self):
        scalar = self._room_result("scalar")
        vectorized = self._room_result("vectorized")
        fused = self._room_result("fused")
        for rs, rv, rf in zip(
            scalar.rack_results,
            vectorized.rack_results,
            fused.rack_results,
        ):
            assert_tier_a(rs, rv)
            assert_tier_b(rv, rf)
            assert rf.extras["backend"] == "fused"
        assert np.allclose(
            np.asarray(vectorized.supply_c), np.asarray(fused.supply_c),
            atol=INLET_ATOL, rtol=0.0,
        )
        rel = abs(vectorized.crac_energy_j - fused.crac_energy_j) / max(
            vectorized.crac_energy_j, 1e-12
        )
        assert rel < 1e-9


def _same_bits(a: float, b: float) -> bool:
    """Bit-for-bit float equality: NaN matches NaN, -0.0 differs from 0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def _sensing_case(draw):
    """Per-row sensing configs drawn from small per-case palettes, so rows
    share sample intervals and lags (grouping) as well as differ."""
    n = draw(st.integers(min_value=1, max_value=6))
    lag = st.one_of(
        st.sampled_from([0.0, 5.0, 10.0, 20.0]),
        st.floats(min_value=0.0, max_value=25.0,
                  allow_nan=False, allow_infinity=False),
    )
    lags = draw(st.lists(lag, min_size=1, max_size=3))
    intervals = draw(
        st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=1, max_size=2)
    )
    rows = []
    for _ in range(n):
        config = SensingConfig(
            lag_s=draw(st.sampled_from(lags)),
            quantization_step_c=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            # -0.0 puts the code-0 sign fold on the bank's path.
            adc_min_c=draw(st.sampled_from([0.0, -0.0])),
            noise_std_c=draw(st.sampled_from([0.0, 0.0, 0.4, 1.5])),
            sample_interval_s=draw(st.sampled_from(intervals)),
        )
        rows.append((config, draw(st.integers(min_value=0, max_value=2**16))))
    dt = draw(st.sampled_from([0.1, 0.25, 0.7]))
    steps = draw(st.integers(min_value=40, max_value=300))
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(SENSOR_FAULTS))
        magnitude = {
            "offset": draw(st.sampled_from([-3.0, 2.5])),
            "drift": draw(st.sampled_from([0.01, -0.05])),
            "noise_burst": draw(st.sampled_from([0.5, 2.0])),
        }.get(kind)
        events.append(
            FaultEvent(
                kind=kind,
                server=draw(st.integers(min_value=0, max_value=n - 1)),
                start_s=draw(st.sampled_from([0.0, 2.0, 6.3, 15.0])),
                duration_s=draw(st.sampled_from([1.0, 4.0, 12.0])),
                magnitude=magnitude,
            )
        )
    return {
        "rows": rows,
        "dt": dt,
        "steps": steps,
        "schedule": FaultSchedule(tuple(events), seed=draw(st.integers(0, 99))),
        "temps_seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _junction_rows(seed: int, n: int, steps: int) -> np.ndarray:
    """Random-walk junction rows; about a third land on quarter-degree
    grid points (ADC rounding ties), some just below 0 or past full
    scale."""
    rng = np.random.default_rng(seed)
    walk = 60.0 + np.cumsum(rng.normal(0.0, 1.5, size=(steps, n)), axis=0)
    edges = rng.random((steps, n)) < 0.05
    walk[edges] = rng.choice([-3.0, -0.1, 150.0], size=int(edges.sum()))
    ties = rng.random((steps, n)) < 0.3
    # + 0.0: rounding may give -0.0, which no plant produces.
    walk[ties] = np.round(walk[ties] * 4.0) / 4.0 + 0.0
    return walk


def _fault_states(schedule: FaultSchedule, n: int) -> list:
    """Fresh per-row sensor fault pipelines, as FaultInjector builds them."""
    states = []
    for i in range(n):
        indexed = [
            (k, event)
            for k, event in enumerate(schedule.events)
            if event.server == i
        ]
        states.append(
            SensorFaultState(indexed, schedule.seed) if indexed else None
        )
    return states


class TestSensorBankConformance:
    """Tier A at the sensing layer: a BatchSensorBank over mixed lags,
    LSBs, sample intervals, noise and sensor faults reads exactly what
    one scalar TemperatureSensor per row reads, step by step, and its
    handed-back pipeline state continues exactly like the scalar one."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_sensing_case())
    def test_bank_matches_scalar_twins(self, case):
        rows = case["rows"]
        n, dt, steps = len(rows), case["dt"], case["steps"]
        twins = [TemperatureSensor(cfg, seed=seed) for cfg, seed in rows]
        sensors = [TemperatureSensor(cfg, seed=seed) for cfg, seed in rows]
        twin_faults = _fault_states(case["schedule"], n)
        bank_faults = _fault_states(case["schedule"], n)
        for twin, state in zip(twins, twin_faults):
            twin.set_fault_state(state)
        has_faults = any(state is not None for state in bank_faults)
        bank = BatchSensorBank(sensors, bank_faults if has_faults else None)

        # The tail after the hand-back steps finer than any interval (so
        # the handed-back next sample instant decides when sampling
        # resumes) and outlasts the longest lag (so every in-flight
        # sample surfaces).
        tail_dt = 0.1
        total = steps + 1 + int(math.ceil(30.0 / tail_dt))
        temps = _junction_rows(case["temps_seed"], n, total)
        start = 0.0
        # Uncopied rows: a bank that wrote into its input would corrupt
        # what the twins read next.
        bank.prime(start, temps[0])
        for i, twin in enumerate(twins):
            twin.observe(start, float(temps[0, i]))
        for k in range(1, steps + 1):
            t = start + k * dt
            bank.observe(t, t + 1e-9, temps[k])
            bank.pop_until(t)
            for i, twin in enumerate(twins):
                twin.observe(t, float(temps[k, i]))
                expected = twin.read(t).value_c
                got = float(bank.current[i])
                assert _same_bits(got, expected), (
                    f"row {i} ({rows[i][0]}) at t={t}: bank {got!r}, "
                    f"scalar {expected!r}"
                )

        for i, sensor in enumerate(sensors):
            sensor.restore_pipeline(*bank.state_of(i))
            sensor.set_fault_state(bank_faults[i])
        end = start + steps * dt
        for k in range(steps + 1, total):
            t = end + (k - steps) * tail_dt
            for i, (sensor, twin) in enumerate(zip(sensors, twins)):
                sensor.observe(t, float(temps[k, i]))
                twin.observe(t, float(temps[k, i]))
                got = sensor.read(t).value_c
                expected = twin.read(t).value_c
                assert _same_bits(got, expected), (
                    f"row {i} resumed at t={t}: {got!r} vs {expected!r}"
                )
