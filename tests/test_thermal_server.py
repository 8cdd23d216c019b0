"""Server plant and steady-state model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServerConfig
from repro.errors import UnitsError
from repro.thermal.server import ServerThermalModel
from repro.thermal.steady_state import SteadyStateServerModel


class TestSteadyStateModel:
    def test_junction_above_ambient(self, steady):
        assert steady.junction_c(0.0, 4000.0) > steady.config.ambient_c

    def test_junction_increases_with_load(self, steady):
        assert steady.junction_c(0.9, 4000.0) > steady.junction_c(0.1, 4000.0)

    def test_junction_decreases_with_fan_speed(self, steady):
        assert steady.junction_c(0.5, 8000.0) < steady.junction_c(0.5, 2000.0)

    def test_slope_negative_and_region_dependent(self, steady):
        s2000 = steady.junction_slope_per_rpm(0.4, 2000.0)
        s6000 = steady.junction_slope_per_rpm(0.4, 6000.0)
        assert s2000 < 0.0 and s6000 < 0.0
        # Section IV-B: low-speed region ~8x more sensitive.
        assert 5.0 < s2000 / s6000 < 12.0

    def test_slope_matches_finite_difference(self, steady):
        eps = 1.0
        numeric = (
            steady.junction_c(0.4, 3000.0 + eps)
            - steady.junction_c(0.4, 3000.0 - eps)
        ) / (2.0 * eps)
        assert steady.junction_slope_per_rpm(0.4, 3000.0) == pytest.approx(
            numeric, rel=1e-4
        )

    def test_required_fan_speed_inverts_junction(self, steady):
        speed = steady.required_fan_speed_rpm(0.5, 75.0)
        assert steady.junction_c(0.5, speed) == pytest.approx(75.0, abs=1e-6)

    def test_required_fan_speed_clamps_to_max(self, steady):
        # An unreachable target (too cold) returns max speed.
        assert steady.required_fan_speed_rpm(1.0, 50.0) == 8500.0

    def test_required_fan_speed_clamps_to_min(self, steady):
        # A very permissive target returns min speed.
        assert steady.required_fan_speed_rpm(0.0, 120.0) == 1000.0

    def test_required_speed_monotone_in_load(self, steady):
        assert steady.required_fan_speed_rpm(0.7, 75.0) > steady.required_fan_speed_rpm(
            0.1, 75.0
        )

    @settings(max_examples=30)
    @given(st.floats(0.0, 1.0), st.floats(70.0, 90.0))
    def test_required_speed_roundtrip_property(self, util, target):
        steady = SteadyStateServerModel(ServerConfig())
        speed = steady.required_fan_speed_rpm(util, target)
        junction = steady.junction_c(util, speed)
        if 1000.0 < speed < 8500.0:
            assert junction == pytest.approx(target, abs=1e-6)
        elif speed == 8500.0:
            assert junction >= target - 1e-6  # even max fan can't go colder
        else:
            assert junction <= target + 1e-6  # min fan already cold enough

    def test_marginal_fan_power_increases_with_speed(self, steady):
        assert steady.marginal_fan_power_w_per_rpm(
            8000.0
        ) > steady.marginal_fan_power_w_per_rpm(2000.0)

    def test_marginal_cpu_power_is_pdyn(self, steady):
        assert steady.marginal_cpu_power_w_per_util() == 64.0


class TestServerThermalModel:
    def test_initial_state_is_settled(self, config):
        plant = ServerThermalModel(config, initial_utilization=0.3,
                                   initial_fan_speed_rpm=3000.0)
        before = plant.junction_c
        plant.step(0.1, 0.3, 3000.0)
        assert plant.junction_c == pytest.approx(before, abs=1e-6)

    def test_step_advances_time(self, plant):
        plant.step(0.1, 0.5, 4000.0)
        plant.step(0.1, 0.5, 4000.0)
        assert plant.time_s == pytest.approx(0.2)

    def test_commanded_speed_clamped(self, plant):
        state = plant.step(0.1, 0.5, 99999.0)
        assert state.fan_speed_rpm == 8500.0
        state = plant.step(0.1, 0.5, 0.0)
        assert state.fan_speed_rpm == 1000.0

    def test_total_power_is_sum(self, plant):
        state = plant.step(0.1, 0.5, 4000.0)
        assert state.total_power_w == pytest.approx(
            state.cpu_power_w + state.fan_power_w
        )

    def test_cpu_power_follows_eqn1(self, plant):
        state = plant.step(0.1, 0.5, 4000.0)
        assert state.cpu_power_w == pytest.approx(96.0 + 64.0 * 0.5)

    def test_settle_jumps_to_steady_state(self, plant):
        plant.settle(0.7, 6000.0)
        expected = plant.steady_state_junction_c(0.7, 6000.0)
        assert plant.junction_c == pytest.approx(expected, abs=1e-9)

    def test_junction_tracks_heatsink_plus_die_rise(self, plant):
        plant.settle(0.5, 4000.0)
        state = plant.state
        rise = plant.config.die.r_die_k_per_w * (96.0 + 32.0)
        assert state.junction_c - state.heatsink_c == pytest.approx(rise, abs=1e-9)

    def test_long_run_converges_to_steady_state(self, plant):
        for _ in range(5000):
            plant.step(0.5, 0.6, 5000.0)
        assert plant.junction_c == pytest.approx(
            plant.steady_state_junction_c(0.6, 5000.0), abs=0.01
        )

    def test_invalid_utilization_rejected(self, plant):
        with pytest.raises(UnitsError):
            plant.step(0.1, 1.5, 4000.0)

    def test_multi_socket_scales_power(self):
        config = ServerConfig(n_sockets=2)
        plant = ServerThermalModel(config)
        state = plant.step(0.1, 0.5, 4000.0)
        assert state.cpu_power_w == pytest.approx(2 * (96.0 + 32.0))

    def test_steady_state_delegation_matches(self, plant, steady):
        assert plant.steady_state_junction_c(0.4, 3000.0) == pytest.approx(
            steady.junction_c(0.4, 3000.0)
        )


# Operating points in both gain-schedule regions, (utilization, rpm).
OPERATING_POINTS = [
    (0.0, 1500.0), (0.3, 2000.0), (0.6, 4000.0), (0.9, 6000.0), (1.0, 8000.0),
]


def series_resistance_temps_c(config, util, speed):
    """Eqns 1-3 in closed form: die and heat sink resistances in series
    between the junction and the ambient. Returns (junction, heat sink)."""
    hs = config.heatsink
    power = config.cpu.p_static_w + config.cpu.p_dynamic_w * util
    r_hs = hs.r_base_k_per_w + hs.r_coeff / speed**hs.r_exponent
    heatsink = config.ambient_c + power * r_hs
    return heatsink + power * config.die.r_die_k_per_w, heatsink


class TestSeriesResistance:
    def test_two_node_steady_state_matches_series_resistance(self, config):
        plant = ServerThermalModel(config)
        for util, speed in OPERATING_POINTS:
            junction, heatsink = series_resistance_temps_c(config, util, speed)
            state = plant.settle(util, speed)
            assert state.junction_c == pytest.approx(junction, abs=1e-9)
            assert state.heatsink_c == pytest.approx(heatsink, abs=1e-9)

    def test_steady_state_model_matches_series_resistance(self, steady):
        for util, speed in OPERATING_POINTS:
            junction, _ = series_resistance_temps_c(steady.config, util, speed)
            assert steady.junction_c(util, speed) == pytest.approx(
                junction, abs=1e-9
            )
