"""Simulation engine, result container, scenario builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.base import ControlState
from repro.core.fan_baselines import StaticFanController
from repro.core.global_controller import GlobalController
from repro.errors import AnalysisError, ExperimentError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.scenarios import (
    SCHEME_NAMES,
    build_fan_controller,
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
    run_fan_only,
)
from repro.workload.synthetic import ConstantWorkload


def make_static_sim(config=None, speed=4000.0, dt=0.5) -> Simulator:
    cfg = config or ServerConfig()
    controller = GlobalController(
        control=cfg.control,
        fan_controller=StaticFanController(speed),
        initial_state=ControlState(fan_speed_rpm=speed, cpu_cap=1.0),
    )
    return Simulator(
        plant=build_plant(cfg),
        sensor=build_sensor(cfg),
        workload=ConstantWorkload(0.5),
        controller=controller,
        dt_s=dt,
    )


class TestSimulator:
    def test_run_produces_aligned_channels(self):
        result = make_static_sim().run(60.0)
        lengths = {arr.size for arr in result.channels.values()}
        assert len(lengths) == 1

    def test_time_axis(self):
        result = make_static_sim(dt=0.5).run(30.0)
        assert result.times[0] == pytest.approx(0.5)
        assert result.times[-1] == pytest.approx(30.0)

    def test_static_fan_reaches_steady_state(self, steady):
        result = make_static_sim(speed=4000.0).run(1200.0)
        expected = steady.junction_c(0.5, 4000.0)
        assert result.junction_c[-1] == pytest.approx(expected, abs=0.2)

    def test_tmeas_is_quantized(self):
        result = make_static_sim().run(120.0)
        assert np.allclose(result.tmeas_c, np.round(result.tmeas_c))

    def test_tmeas_lags_junction(self):
        """After the startup transient the measurement matches the junction
        value from lag seconds earlier."""
        cfg = ServerConfig()
        result = make_static_sim(cfg, dt=0.5).run(240.0)
        times = result.times
        lag = cfg.sensing.lag_s
        idx_now = np.searchsorted(times, 200.0)
        idx_then = np.searchsorted(times, 200.0 - lag)
        measured = result.tmeas_c[idx_now]
        true_then = result.junction_c[idx_then]
        assert abs(measured - true_then) <= 1.0  # within one LSB

    def test_dt_larger_than_cpu_interval_rejected(self):
        cfg = ServerConfig()
        with pytest.raises(SimulationError):
            Simulator(
                plant=build_plant(cfg),
                sensor=build_sensor(cfg),
                workload=ConstantWorkload(0.5),
                controller=GlobalController(
                    control=cfg.control, fan_controller=StaticFanController(4000.0)
                ),
                dt_s=2.0,
            )

    def test_decimation(self):
        sim = make_static_sim(dt=0.5)
        sim._decimation = 10  # 10 * 0.5 s per record
        result = sim.run(60.0)
        assert result.times.size == 12

    def test_energy_accumulates(self):
        result = make_static_sim().run(60.0)
        assert result.fan_energy_j > 0.0
        assert result.cpu_energy_j > 0.0

    def test_fan_energy_matches_static_speed(self):
        result = make_static_sim(speed=8500.0).run(100.0)
        assert result.fan_energy_j == pytest.approx(29.4 * 100.0, rel=0.02)


class TestSimulationResult:
    def test_unknown_channel_raises(self):
        result = make_static_sim().run(10.0)
        with pytest.raises(AnalysisError):
            result.channel("nonexistent")

    def test_summary_keys(self):
        summary = make_static_sim().run(10.0).summary()
        assert {"violation_percent", "fan_energy_j", "max_junction_c"} <= set(
            summary
        )

    def test_normalized_fan_energy(self):
        a = make_static_sim(speed=4000.0).run(50.0)
        b = make_static_sim(speed=8000.0).run(50.0)
        assert b.normalized_fan_energy(a) > 1.0
        assert a.normalized_fan_energy(a) == pytest.approx(1.0)


class TestScenarios:
    def test_build_plant_settled_at_t_ref(self, config):
        plant = build_plant(config, initial_utilization=0.1)
        assert plant.junction_c == pytest.approx(75.0, abs=0.5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ExperimentError):
            build_global_controller("definitely-not-a-scheme")

    def test_all_schemes_buildable(self, config, fast_schedule):
        for scheme in SCHEME_NAMES:
            controller = build_global_controller(scheme, config, fast_schedule)
            assert controller.state.cpu_cap == 1.0

    def test_scheme_composition(self, config, fast_schedule):
        from repro.core.ecoord import EnergyAwareCoordinator
        from repro.core.rules import RuleBasedCoordinator
        from repro.core.uncoordinated import UncoordinatedCoordinator

        assert isinstance(
            build_global_controller("uncoordinated", config, fast_schedule).coordinator,
            UncoordinatedCoordinator,
        )
        assert isinstance(
            build_global_controller("ecoord", config, fast_schedule).coordinator,
            EnergyAwareCoordinator,
        )
        assert isinstance(
            build_global_controller("rcoord", config, fast_schedule).coordinator,
            RuleBasedCoordinator,
        )

    def test_paper_workload_range(self):
        workload = paper_workload(600.0, seed=1)
        demands = [workload.demand(float(t)) for t in range(0, 600, 7)]
        assert all(0.0 <= d <= 1.0 for d in demands)
        assert max(demands) > 0.5  # reaches the high phase
        assert min(demands) < 0.3  # reaches the low phase

    def test_paper_workload_reproducible(self):
        a = paper_workload(300.0, seed=9)
        b = paper_workload(300.0, seed=9)
        assert [a.demand(float(t)) for t in range(300)] == [
            b.demand(float(t)) for t in range(300)
        ]

    def test_run_fan_only_short(self, config, fast_schedule):
        controller = build_fan_controller(
            config, schedule=fast_schedule, initial_speed_rpm=2000.0
        )
        result = run_fan_only(
            controller, ConstantWorkload(0.4), 120.0, config=config, dt_s=0.5
        )
        assert result.times.size > 0
        assert result.cpu_cap.min() == 1.0  # no capper in fan-only mode
