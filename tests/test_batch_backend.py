"""Vectorized batch backend: equivalence with the scalar engine.

The batch backend's contract is *bit-for-bit* agreement with the scalar
path for every stock configuration: it runs the same floating-point
operations in the same order, element-wise.  These tests pin that
contract across all four rack scenario builders, a seeded parameter
sweep, a decoupled rack against independent single-server runs, and the
heterogeneous-structure fallback.  At the layer below, the window-wide
exact scan is pinned against the per-step loop it replaced, for every
coupling kind.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    CRACConfig,
    FleetConfig,
    RoomConfig,
    SensingConfig,
    ServerConfig,
)
from repro.errors import SimulationError, UnitsError
from repro.fleet import (
    FleetSimulator,
    Rack,
    RecirculationMatrix,
    build_fleet_scenario,
    build_server_slot,
)
from repro.fleet.rack import ServerSlot
from repro.fleet.scenarios import _SEED_STRIDE
from repro.room import Room, RoomSimulator, uniform_room
from repro.sensing.noise import GaussianNoise
from repro.sensing.sensor import TemperatureSensor
from repro.sim import (
    BatchRunSpec,
    ParameterSweep,
    Simulator,
    batch_unsupported_reason,
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
    run_batch,
)
from repro.sim.batch import BatchStepper
from repro.thermal.ambient import StepAmbient
from repro.thermal.server import ServerThermalModel
from repro.workload.base import Workload
from repro.workload.spikes import SpikeProcess
from repro.workload.synthetic import (
    CompositeWorkload,
    ConstantWorkload,
    NoisyWorkload,
    SquareWaveWorkload,
    StepWorkload,
)

_N = 4
_DUR = 60.0
_DT = 0.1
_DEC = 3


def _scenario_rack(name: str, recirc: float = 0.3, seed: int = 11):
    return build_fleet_scenario(
        name,
        n_servers=_N,
        duration_s=_DUR,
        seed=seed,
        fleet=FleetConfig(n_servers=_N, recirc_fraction=recirc),
    )


def _assert_results_identical(a, b):
    """Two FleetResults must agree bit-for-bit."""
    assert a.n_servers == b.n_servers
    for i in range(a.n_servers):
        ra, rb = a.server(i), b.server(i)
        for name, channel in ra.channels.items():
            assert np.array_equal(channel, rb.channels[name]), (
                f"server {i} channel {name} diverged"
            )
        assert ra.performance == rb.performance, f"server {i} performance"
        assert ra.energy == rb.energy, f"server {i} energy"
    assert a.mean_inlet_c == b.mean_inlet_c


class TestRackEquivalence:
    @pytest.mark.parametrize(
        "scenario",
        ["homogeneous", "hetero_sensors", "staggered_waves", "hot_spot"],
    )
    def test_vectorized_matches_scalar_bit_for_bit(self, scenario):
        scalar = FleetSimulator(
            _scenario_rack(scenario), dt_s=_DT, record_decimation=_DEC,
            backend="scalar",
        ).run(_DUR)
        vectorized = FleetSimulator(
            _scenario_rack(scenario), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert vectorized.extras["backend"] == "vectorized"
        assert scalar.extras["backend"] == "scalar"
        _assert_results_identical(scalar, vectorized)

    @pytest.mark.parametrize(
        "scenario",
        ["homogeneous", "hetero_sensors", "staggered_waves", "hot_spot"],
    )
    def test_plant_and_inlet_state_synced_back(self, scenario):
        """After a batch run the rack objects hold the same final state a
        scalar run leaves behind (mixed workflows stay consistent)."""
        rack_scalar = _scenario_rack(scenario)
        rack_vec = _scenario_rack(scenario)
        FleetSimulator(rack_scalar, dt_s=_DT, backend="scalar").run(_DUR)
        FleetSimulator(rack_vec, dt_s=_DT, backend="vectorized").run(_DUR)
        for slot_s, slot_v in zip(rack_scalar, rack_vec):
            assert slot_s.plant.state == slot_v.plant.state
            assert slot_s.plant.time_s == slot_v.plant.time_s
            assert slot_s.inlet.offset_c == slot_v.inlet.offset_c

    def test_auto_backend_picks_vectorized_when_supported(self):
        result = FleetSimulator(
            _scenario_rack("homogeneous"), dt_s=_DT, backend="auto"
        ).run(_DUR)
        assert result.extras["backend"] == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            FleetSimulator(_scenario_rack("homogeneous"), backend="gpu")


class TestDecoupledRack:
    def test_vectorized_decoupled_matches_independent_runs_exactly(self):
        """A decoupled rack on the batch backend must reproduce N
        independent single-server scalar Simulator runs bit-for-bit."""
        seed = 7
        rack = build_fleet_scenario(
            "homogeneous",
            n_servers=3,
            duration_s=_DUR,
            seed=seed,
            fleet=FleetConfig(n_servers=3, recirc_fraction=0.0),
        )
        fleet_res = FleetSimulator(
            rack, dt_s=_DT, record_decimation=_DEC, backend="vectorized"
        ).run(_DUR)
        assert fleet_res.extras["backend"] == "vectorized"

        cfg = ServerConfig()
        for i in range(3):
            s = seed + _SEED_STRIDE * i
            single = Simulator(
                build_plant(cfg),
                build_sensor(cfg, seed=s),
                paper_workload(_DUR, seed=s),
                build_global_controller("rcoord", cfg),
                dt_s=_DT,
                record_decimation=_DEC,
            ).run(_DUR)
            for name, channel in single.channels.items():
                assert np.array_equal(
                    channel, fleet_res.server(i).channels[name]
                ), f"server {i} channel {name} diverged"
            assert single.energy == fleet_res.server(i).energy
            assert single.performance == fleet_res.server(i).performance


def _sweep_pieces(lag_s: float):
    cfg = ServerConfig().with_sensing(lag_s=lag_s)
    return (
        build_plant(cfg),
        build_sensor(cfg, seed=5),
        paper_workload(_DUR, seed=5),
        build_global_controller("rcoord", cfg),
    )


def _sweep_runner(lag_s: float):
    plant, sensor, workload, controller = _sweep_pieces(lag_s)
    return Simulator(
        plant, sensor, workload, controller, dt_s=_DT, record_decimation=_DEC
    ).run(_DUR, label=f"lag={lag_s}")


def _sweep_spec(lag_s: float) -> BatchRunSpec:
    plant, sensor, workload, controller = _sweep_pieces(lag_s)
    return BatchRunSpec(
        plant=plant,
        sensor=sensor,
        workload=workload,
        controller=controller,
        duration_s=_DUR,
        dt_s=_DT,
        record_decimation=_DEC,
        label=f"lag={lag_s}",
    )


class TestSweepEquivalence:
    def test_vectorized_sweep_matches_scalar_runner(self):
        values = [0.0, 5.0, 10.0, 20.0]
        metric_fns = {"fan_j": lambda r: r.fan_energy_j}
        scalar = ParameterSweep(_sweep_runner, metric_fns).run(values)
        vectorized = ParameterSweep(
            _sweep_runner, metric_fns, spec_builder=_sweep_spec
        ).run(values, backend="vectorized")
        for ps, pv in zip(scalar, vectorized):
            assert ps.value == pv.value
            assert ps.metrics == pv.metrics
            for name, channel in ps.result.channels.items():
                assert np.array_equal(channel, pv.result.channels[name]), (
                    f"value {ps.value} channel {name} diverged"
                )
            assert ps.result.performance == pv.result.performance
            assert ps.result.energy == pv.result.energy

    def test_spec_only_sweep_scalar_backend(self):
        points = ParameterSweep(spec_builder=_sweep_spec).run([0.0, 10.0])
        assert [p.result.label for p in points] == ["lag=0.0", "lag=10.0"]

    def test_auto_sweep_runs_vectorized_lane(self):
        values = [0.0, 10.0]
        sweep = ParameterSweep(spec_builder=_sweep_spec)
        auto = sweep.run(values, backend="auto")
        vectorized = sweep.run(values, backend="vectorized")
        for pa, pv in zip(auto, vectorized):
            for name, channel in pa.result.channels.items():
                assert np.array_equal(channel, pv.result.channels[name])
            assert pa.result.energy == pv.result.energy

    def test_unknown_backend_rejected(self):
        sweep = ParameterSweep(_sweep_runner, spec_builder=_sweep_spec)
        with pytest.raises(SimulationError, match="choose from"):
            sweep.run([1.0], backend="vectorised")

    def test_vectorized_without_spec_builder_rejected(self):
        sweep = ParameterSweep(_sweep_runner)
        with pytest.raises(SimulationError):
            sweep.run([1.0], backend="vectorized")

    def test_sweep_needs_runner_or_spec_builder(self):
        with pytest.raises(SimulationError):
            ParameterSweep()


class TestFallback:
    def _time_varying_rack(self):
        slot = build_server_slot("srv00", workload=ConstantWorkload(0.4))
        plant = ServerThermalModel(
            slot.plant.config,
            ambient=StepAmbient(25.0, 30.0, step_time_s=10.0),
        )
        odd = ServerSlot(
            name="srv00",
            plant=plant,
            sensor=slot.sensor,
            workload=slot.workload,
            controller=slot.controller,
            inlet=slot.inlet,
        )
        return Rack([odd], coupling=RecirculationMatrix.decoupled(1))

    def test_vectorized_falls_back_on_time_varying_ambient(self):
        result = FleetSimulator(
            self._time_varying_rack(), dt_s=_DT, backend="vectorized"
        ).run(30.0)
        assert result.extras["backend"] == "scalar"
        assert "ambient" in result.extras["fallback_reason"]

    def test_auto_records_fallback_reason_for_rack(self):
        result = FleetSimulator(self._time_varying_rack(), dt_s=_DT).run(30.0)
        assert result.extras["backend"] == "scalar"
        assert "ambient" in result.extras["fallback_reason"]

    def test_auto_records_fallback_reason_for_room(self):
        room = Room([self._time_varying_rack()])
        result = RoomSimulator(room, dt_s=_DT).run(30.0)
        assert result.extras["backend"] == "scalar"
        assert "ambient" in result.extras["fallback_reason"]

    def test_unsupported_reasons(self):
        plant, sensor, workload, controller = _sweep_pieces(10.0)
        assert batch_unsupported_reason([plant], [sensor]) is None
        # A primed sensor carries state the batch backend cannot adopt.
        sensor.observe(0.0, 70.0)
        reason = batch_unsupported_reason([plant], [sensor])
        assert reason is not None and "primed" in reason

        class OddPlant(ServerThermalModel):
            pass

        odd = OddPlant(ServerConfig())
        reason = batch_unsupported_reason([odd], [build_sensor(ServerConfig())])
        assert reason is not None and "OddPlant" in reason

    def test_noise_shared_across_intervals_is_unsupported(self):
        """The bank samples one cadence group at a time, so one noise
        stream may only be shared by sensors that sample together."""
        shared = GaussianNoise(0.5, seed=3)
        plants = [ServerThermalModel(ServerConfig()) for _ in range(3)]

        def sensors(*intervals):
            return [
                TemperatureSensor(SensingConfig(sample_interval_s=s), noise=shared)
                for s in intervals
            ]

        assert batch_unsupported_reason(plants, sensors(1.0, 1.0, 1.0)) is None
        reason = batch_unsupported_reason(plants, sensors(1.0, 0.5, 1.0))
        assert reason is not None and "server 1" in reason and "noise" in reason

    def test_run_batch_rejects_mismatched_grids(self):
        with pytest.raises(SimulationError):
            run_batch([])
        spec_a = _sweep_spec(0.0)
        plant, sensor, workload, controller = _sweep_pieces(5.0)
        spec_b = BatchRunSpec(
            plant=plant,
            sensor=sensor,
            workload=workload,
            controller=controller,
            duration_s=2 * _DUR,
        )
        with pytest.raises(SimulationError):
            run_batch([spec_a, spec_b])

    def test_batch_stepper_rejects_unsupported_servers(self):
        plant, sensor, workload, controller = _sweep_pieces(0.0)
        sensor.observe(0.0, 70.0)
        with pytest.raises(SimulationError):
            BatchStepper(
                plants=[plant],
                sensors=[sensor],
                workloads=[workload],
                controllers=[controller],
                n_steps=10,
                dt_s=_DT,
            )


class TestStateSyncAndFallbackRegressions:
    def test_scalar_run_after_vectorized_matches_scalar_after_scalar(self):
        """Sensors (not just plants/inlets) are synced back after a batch
        run, so a follow-up scalar run continues identically."""
        rack_a = _scenario_rack("homogeneous")
        rack_b = _scenario_rack("homogeneous")
        FleetSimulator(rack_a, dt_s=_DT, backend="scalar").run(30.0)
        FleetSimulator(rack_b, dt_s=_DT, backend="vectorized").run(30.0)
        for slot in rack_b:
            assert slot.sensor.is_primed
        # The second run falls back to scalar on both racks (sensors now
        # carry state) and must agree bit-for-bit.
        res_a = FleetSimulator(rack_a, dt_s=_DT, backend="auto").run(30.0)
        res_b = FleetSimulator(rack_b, dt_s=_DT, backend="auto").run(30.0)
        assert res_b.extras["backend"] == "scalar"
        _assert_results_identical(res_a, res_b)

    def test_auto_falls_back_when_coupled_plant_lacks_coupled_inlet(self):
        """A rack whose plant ambient is not the slot's CoupledInlet must
        fall back to scalar, not crash, on backend='auto'."""
        from repro.thermal.ambient import ConstantAmbient

        slot = build_server_slot("srv00", workload=ConstantWorkload(0.4))
        plant = ServerThermalModel(
            slot.plant.config, ambient=ConstantAmbient(28.0)
        )
        odd = ServerSlot(
            name="srv00",
            plant=plant,
            sensor=slot.sensor,
            workload=slot.workload,
            controller=slot.controller,
            inlet=slot.inlet,
        )
        rack = Rack([odd], coupling=RecirculationMatrix.decoupled(1))
        result = FleetSimulator(rack, dt_s=_DT, backend="auto").run(30.0)
        assert result.extras["backend"] == "scalar"

    def test_spike_train_long_spike_matches_scalar_scan(self):
        """Spikes outliving the scalar scan's 3600 s break heuristic must
        still agree between demand() and demand_array()."""
        from repro.workload.spikes import Spike, SpikeTrain

        train = SpikeTrain(
            [Spike(0.0, 7200.0, 0.5), Spike(100.0, 5.0, 0.3)]
        )
        times = np.array([50.0, 102.0, 4000.0, 8000.0])
        expected = np.array([train.demand(float(t)) for t in times])
        assert np.array_equal(train.demand_array(times), expected)

    def test_scalar_engine_respects_plant_step_override(self):
        """ServerStepper's fast path must not bypass a subclass step()."""
        calls = []

        class TracingPlant(ServerThermalModel):
            def step(self, dt_s, utilization, fan_speed_rpm):
                calls.append(dt_s)
                return super().step(dt_s, utilization, fan_speed_rpm)

        cfg = ServerConfig()
        sim = Simulator(
            TracingPlant(cfg),
            build_sensor(cfg, seed=1),
            ConstantWorkload(0.4),
            build_global_controller("rcoord", cfg),
            dt_s=0.5,
        )
        sim.run(5.0)
        assert len(calls) == 10


class TestDemandArrayEquivalence:
    """demand_array must equal per-step demand() calls, draw for draw."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConstantWorkload(0.4),
            lambda: StepWorkload(0.2, 0.8, step_time_s=7.3),
            lambda: SquareWaveWorkload(low=0.1, high=0.7, half_period_s=13.0),
            lambda: NoisyWorkload(
                SquareWaveWorkload(half_period_s=9.0), std=0.05, seed=3
            ),
            lambda: SpikeProcess(
                horizon_s=120.0, rate_per_s=1.0 / 10.0, seed=9
            ),
            lambda: CompositeWorkload(
                [
                    SquareWaveWorkload(half_period_s=11.0),
                    SpikeProcess(horizon_s=120.0, rate_per_s=0.2, seed=2),
                ]
            ),
            lambda: paper_workload(120.0, seed=4),
        ],
        ids=[
            "constant",
            "step",
            "square",
            "noisy",
            "spikes",
            "composite",
            "paper",
        ],
    )
    def test_matches_scalar_loop(self, factory):
        times = np.array([0.0 + (k + 1) * 0.1 for k in range(1200)])
        scalar_wl = factory()
        array_wl = factory()
        expected = np.array([scalar_wl.demand(float(t)) for t in times])
        assert np.array_equal(array_wl.demand_array(times), expected)


# ---------------------------------------------------------------------------
# Layer pin: the window-wide exact scan against the per-step loop.

_PIN_KINDS = ("uncoupled", "dense", "sparse", "dynamic", "decoupled")
#: Fan commands the pin draws between windows; 20000 rpm clamps to max.
_PIN_SPEEDS = (1500.0, 2000.0, 3500.0, 5000.0, 8000.0, 20000.0)


def _pin_stepper(kind: str) -> BatchStepper:
    """A fresh, deterministic stepper whose coupling is of ``kind``."""
    if kind == "uncoupled":
        pieces = [_sweep_pieces(lag) for lag in (0.0, 5.0, 10.0, 20.0)]
        plants, sensors, workloads, controllers = zip(*pieces)
        return BatchStepper(
            plants, sensors, workloads, controllers, n_steps=10_000, dt_s=_DT
        )
    if kind in ("dense", "decoupled"):
        rack = _scenario_rack(
            "hot_spot", recirc=0.3 if kind == "dense" else 0.0
        )
        slots, coupling, exhaust = list(rack), rack.coupling, rack.exhaust
    else:
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=2,
            servers_per_rack=3,
            crac=CRACConfig(
                supply_time_constant_s=30.0 if kind == "dynamic" else 0.0
            ),
        )
        room = uniform_room(
            cfg, duration_s=_DUR, seed=4, forcing_units=(0,) if kind == "dynamic" else ()
        )
        slots, coupling, exhaust = room.slots, room.coupling, room.exhaust
        assert coupling.is_dynamic == (kind == "dynamic")
        coupling.prepare_run(_DT)
    assert coupling.is_decoupled == (kind == "decoupled")
    return BatchStepper(
        [s.plant for s in slots],
        [s.sensor for s in slots],
        [s.workload for s in slots],
        [s.controller for s in slots],
        n_steps=10_000,
        dt_s=_DT,
        coupling=coupling,
        exhaust=exhaust,
    )


def _plant_step(plant, ambient, util):
    """One ``(B,)`` exact-exponential step of the batch plant."""
    socket_power = plant.p_static + plant.p_dynamic * util
    hs_ss = ambient + plant.r_hs * socket_power
    hs = hs_ss + (plant.hs_temp - hs_ss) * plant.hs_decay
    die_ss = hs + plant.r_die * socket_power
    die = die_ss + (plant.die_temp - die_ss) * plant.die_decay
    plant.hs_temp = hs
    plant.die_temp = die
    return die, hs, socket_power * plant.n_sockets


def _per_step_window(stepper, j, e, applied, times):
    """The exact scan step by step: coupling, one plant step, the
    trapezoid energy update and the inlet sum per step."""
    plant = stepper._plant
    ambient = None if stepper._coupled else stepper._ambient_const
    die_rows, hs_rows = [], []
    for c in range(e - j):
        if stepper._coupled:
            offsets = stepper._zero_offsets
            if not stepper._decoupled:
                conductance = np.maximum(
                    stepper._g_floor,
                    stepper._g_max * stepper._state_fan_speed / stepper._v_max_exh,
                )
                offsets = stepper._coupling.apply(
                    (stepper._state_cpu_w + stepper._state_fan_w) / conductance
                )
            stepper._last_offsets = offsets
            ambient = stepper._room + offsets
            stepper._inlet_sums += ambient
        die, hs, cpu_w = _plant_step(plant, ambient, applied[:, c])
        fan_w = plant.fan_w
        t = times[j + c]
        dt_energy = t - stepper._energy_last_t
        stepper._cpu_j += 0.5 * (stepper._state_cpu_w + cpu_w) * dt_energy
        stepper._fan_j += 0.5 * (stepper._state_fan_w + fan_w) * dt_energy
        stepper._energy_last_t = t
        stepper._state_fan_speed = plant.clamped_speed
        stepper._state_cpu_w = cpu_w
        stepper._state_fan_w = fan_w
        die_rows.append(die)
        hs_rows.append(hs)
    stepper._last_applied = applied[:, -1]
    stepper._last_ambient = ambient
    return np.array(die_rows), np.array(hs_rows)


def _bits(values) -> bytes:
    """Raw float64 bytes: NaN payloads and the sign of zero count."""
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@st.composite
def _pin_windows(draw):
    windows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        windows.append(
            {
                "width": draw(st.integers(min_value=1, max_value=64)),
                "seed": draw(st.integers(min_value=0, max_value=2**16)),
                "special": draw(st.sampled_from([None, "negzero", "nan"])),
                "fans": draw(
                    st.lists(
                        st.tuples(
                            st.integers(min_value=0, max_value=5),
                            st.sampled_from(_PIN_SPEEDS),
                        ),
                        max_size=3,
                    )
                ),
                "fouling": draw(
                    st.none()
                    | st.tuples(
                        st.integers(min_value=0, max_value=5),
                        st.sampled_from([0.0, 0.05, 0.3]),
                    )
                ),
            }
        )
    return {
        "windows": windows,
        "room": draw(st.sampled_from(["as_built", "negzero", "nan"])),
    }


class TestWindowScanPin:
    """The vectorized lane's window-wide scan is the per-step exact scan,
    bit for bit: every junction and heat-sink row, the energy and inlet
    folds, and the lagged plant-state mirrors, across coupling kinds,
    window widths, special values and fan/fouling changes between
    windows."""

    @pytest.mark.parametrize("kind", _PIN_KINDS)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_pin_windows())
    def test_window_scan_matches_per_step_loop(self, kind, case):
        window, reference = _pin_stepper(kind), _pin_stepper(kind)
        n = window.n_servers
        for stepper in (window, reference):
            # Special inlet values run through both paths: -0.0 keeps its
            # sign only if nothing adds a +0.0 the loop did not.
            base = stepper._room if stepper._coupled else stepper._ambient_const
            if case["room"] == "negzero":
                base[::2] = -0.0
            elif case["room"] == "nan":
                base[n - 1] = np.nan
        total = sum(spec["width"] for spec in case["windows"])
        times = [(k + 1) * _DT for k in range(total)]
        times_arr = np.array(times)
        j = 0
        for spec in case["windows"]:
            e = j + spec["width"]
            rng = np.random.default_rng(spec["seed"])
            applied = rng.random((n, e - j))
            if spec["special"] == "negzero":
                applied[rng.random(applied.shape) < 0.3] = -0.0
            elif spec["special"] == "nan":
                applied[rng.integers(n), rng.integers(e - j)] = np.nan
            got = window._advance_window(j, e, applied, times, times_arr, None)
            expected = _per_step_window(reference, j, e, applied, times)
            for name, a, b in zip(("junction", "heatsink"), got, expected):
                assert _bits(a) == _bits(b), f"{kind}: {name} rows, window {j}:{e}"
            for attr in (
                "_cpu_j",
                "_fan_j",
                "_energy_last_t",
                "_state_fan_speed",
                "_state_cpu_w",
                "_state_fan_w",
                "_last_applied",
                "_last_ambient",
            ) + (("_inlet_sums", "_last_offsets") if window._coupled else ()):
                assert _bits(getattr(window, attr)) == _bits(
                    getattr(reference, attr)
                ), f"{kind}: {attr} after window {j}:{e}"
            for attr in ("hs_temp", "die_temp"):
                assert _bits(getattr(window._plant, attr)) == _bits(
                    getattr(reference._plant, attr)
                ), f"{kind}: plant {attr} after window {j}:{e}"

            # Decisions between windows: new fan levels and fouling,
            # copy-on-write as the kernel applies them.
            for stepper in (window, reference):
                plant = stepper._plant
                plant.snapshot_fan_state()
                for i, speed in spec["fans"]:
                    plant.apply_fan_speed(i % n, speed)
                if spec["fouling"] is not None:
                    i, level = spec["fouling"]
                    plant.set_fouling(i % n, level)
                    plant.apply_fan_speed(i % n, float(plant.clamped_speed[i % n]))
            j = e


class _DemandTurnsBad(Workload):
    """Demand 0.5 until t = 5 s, then ``bad`` (outside [0, 1] or NaN)."""

    def __init__(self, bad: float) -> None:
        self._bad = bad

    def demand(self, t_s: float) -> float:
        return self._bad if t_s >= 5.0 else 0.5


def _bad_demand_spec(workload: Workload) -> BatchRunSpec:
    cfg = ServerConfig()
    return BatchRunSpec(
        plant=build_plant(cfg),
        sensor=build_sensor(cfg, seed=3),
        workload=workload,
        controller=build_global_controller("rcoord", cfg),
        duration_s=20.0,
        dt_s=0.1,
        record_decimation=10,
    )


class TestBadDemand:
    """Demand outside [0, 1], or NaN, fails with ``UnitsError`` on every
    lane.  The scalar lane validates each demand it records; the array
    lanes check each demand chunk before stepping it, naming the first
    bad server and time."""

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    def test_scalar_lane(self, bad):
        spec = _bad_demand_spec(_DemandTurnsBad(bad))
        sim = Simulator(
            spec.plant,
            spec.sensor,
            spec.workload,
            spec.controller,
            dt_s=spec.dt_s,
            record_decimation=spec.record_decimation,
        )
        with pytest.raises(UnitsError):
            sim.run(spec.duration_s)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("backend", ["vectorized", "fused"])
    def test_array_lanes(self, backend, bad):
        specs = [
            _bad_demand_spec(ConstantWorkload(0.5)),
            _bad_demand_spec(_DemandTurnsBad(bad)),
        ]
        with pytest.raises(UnitsError, match=r"server 1 demand at t=5 s"):
            run_batch(specs, backend=backend)
