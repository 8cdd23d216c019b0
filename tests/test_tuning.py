"""Ziegler-Nichols tuning pipeline (Eqns 5-7 and the Ku/Pu search).

The tuner runs its experiments in lockstep rounds on the batch plant.
Its contract is exactness: every experiment and every gain must equal,
bit for bit, the sequential search that runs one scalar P-only loop at a
time.  That sequential search is kept here, and only here, as the
reference (``_reference_p_only_loop`` / ``_reference_ultimate_gain``),
and the tuned schedules are pinned as ``float.hex`` literals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.tuning import (
    DEFAULT_REGION_SPEEDS_RPM,
    UltimateGain,
    ZieglerNicholsRule,
    _p_only_rows,
    default_gain_schedule,
    find_ultimate_gain,
    measure_oscillation,
    simulate_p_only_loop,
    tune_region,
    ziegler_nichols_gains,
)
from repro.errors import ThermalModelError, TuningError, UnitsError
from repro.fleet.scenarios import HETERO_SENSOR_LADDER
from repro.sensing.adc import AdcQuantizer
from repro.sensing.delay import DelayLine
from repro.thermal.server import ServerThermalModel
from repro.units import check_duration, check_utilization, clamp


def _reference_p_only_loop(
    config: ServerConfig,
    kp: float,
    fan_speed_rpm: float,
    utilization: float = 0.4,
    duration_s: float = 2400.0,
    dt_s: float = 1.0,
    perturbation_c: float = 2.0,
    quantized: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The P-only experiment as one scalar plant, delay line and ADC."""
    check_utilization(utilization, "utilization")
    check_duration(duration_s, "duration_s")
    plant = ServerThermalModel(config)
    s_op = plant.clamp_fan_speed(fan_speed_rpm)
    plant.settle(utilization, s_op)
    t_op = plant.junction_c
    plant.heatsink.reset(plant.state.heatsink_c + perturbation_c)
    plant.die.reset(plant.junction_c + perturbation_c)

    quantizer = AdcQuantizer.from_config(config.sensing) if quantized else None
    initial = quantizer.quantize(t_op) if quantizer is not None else t_op
    delay = DelayLine(config.sensing.lag_s, initial_value=initial)
    fan_interval = config.control.fan_interval_s
    fan = config.fan
    speed = s_op
    next_decision = fan_interval

    n_steps = int(round(duration_s / dt_s))
    times = np.empty(n_steps)
    errors = np.empty(n_steps)
    for k in range(n_steps):
        t = (k + 1) * dt_s
        state = plant.step(dt_s, utilization, speed)
        sample = state.junction_c
        if quantizer is not None:
            sample = quantizer.quantize(sample)
        delay.push(t, sample)
        error = delay.read(t) - t_op
        if t + 1e-9 >= next_decision:
            speed = clamp(s_op + kp * error, fan.min_speed_rpm, fan.max_speed_rpm)
            next_decision += fan_interval
        times[k] = t
        errors[k] = error
    return times, errors


def _reference_ultimate_gain(
    config: ServerConfig,
    fan_speed_rpm: float,
    utilization: float = 0.4,
    sustained_threshold: float = 0.97,
    max_doublings: int = 12,
    bisection_steps: int = 10,
    duration_s: float = 2400.0,
    quantized: bool = False,
) -> UltimateGain:
    """The sequential Ku/Pu search: one scalar experiment per gain."""
    plant = ServerThermalModel(config)
    slope = plant.steady_state.junction_slope_per_rpm(utilization, fan_speed_rpm)
    if slope == 0.0:
        raise TuningError("plant has zero sensitivity at this operating point")
    kp = 1.0 / abs(slope)

    def decay_at(gain: float) -> float:
        times, errors = _reference_p_only_loop(
            config,
            gain,
            fan_speed_rpm,
            utilization,
            duration_s=duration_s,
            quantized=quantized,
        )
        return measure_oscillation(times, errors).decay_ratio

    kp_low = 0.0
    kp_high = None
    for _ in range(max_doublings):
        if decay_at(kp) >= sustained_threshold:
            kp_high = kp
            break
        kp_low = kp
        kp *= 2.0
    if kp_high is None:
        raise TuningError(
            f"no sustained oscillation up to kp={kp:.1f} rpm/K at "
            f"{fan_speed_rpm} rpm; is the loop saturating?"
        )
    if kp_low == 0.0:
        kp_low = kp_high / 2.0
        while decay_at(kp_low) >= sustained_threshold:
            kp_high = kp_low
            kp_low /= 2.0
            if kp_low < 1e-6:
                raise TuningError("loop appears unstable at arbitrarily small gain")

    for _ in range(bisection_steps):
        mid = 0.5 * (kp_low + kp_high)
        if decay_at(mid) >= sustained_threshold:
            kp_high = mid
        else:
            kp_low = mid

    ku = kp_high
    times, errors = _reference_p_only_loop(
        config,
        ku,
        fan_speed_rpm,
        utilization,
        duration_s=duration_s,
        quantized=quantized,
    )
    oscillation = measure_oscillation(times, errors)
    if oscillation.period_s <= 0.0:
        raise TuningError("boundary gain produced no measurable period")
    return UltimateGain(ku=ku, pu_s=oscillation.period_s)


def _ladder_config(lag_s: float, lsb_c: float) -> ServerConfig:
    return ServerConfig().with_sensing(lag_s=lag_s, quantization_step_c=lsb_c)


#: ``default_gain_schedule`` of each sensing-ladder config, generated with
#: the sequential search: ``(kp, ki, kd)`` per region (2000, 6000 rpm).
#: The first rung is the Table I server, ``ServerConfig()``.
PINNED_SCHEDULES = {
    (10.0, 1.0): (
        ("0x1.2634d3f222213p+8", "0x1.a26d44308b8ffp+2", "0x1.13d186b2ffff2p+13"),
        ("0x1.2a91e97fb5d27p+11", "0x1.68f01b69768a6p+5", "0x1.494e1be371f36p+16"),
    ),
    (0.0, 0.5): (
        ("0x1.6bb873638dc88p+7", "0x1.83f7f28c52f80p+2", "0x1.c6a6903c713aap+11"),
        ("0x1.741fa909cdde7p+10", "0x1.7fb36b2b1ad0ep+5", "0x1.e131c483d9a88p+14"),
    ),
    (5.0, 1.0): (
        ("0x1.000e34e5e1038p+8", "0x1.1120386cabbf7p+3", "0x1.4011c21f59446p+12"),
        ("0x1.71b442bcd72eep+10", "0x1.8a59e0c96e0fep+5", "0x1.ce21536c0cfaap+14"),
    ),
    (20.0, 2.0): (
        ("0x1.50560dca44582p+7", "0x1.54843fb7160b2p+1", "0x1.baf1547260dd2p+12"),
        ("0x1.0b1db7972ee83p+10", "0x1.1cec7f903208cp+4", "0x1.4de5257cfaa24p+15"),
    ),
}


def _assert_rows_match_reference(quantized: bool, duration_s: float) -> None:
    """Lockstep rows of mixed operating points and gains against the
    scalar reference loop, one experiment per row."""
    config = _ladder_config(5.0, 1.0)
    rows = [(2000.0, 150.0), (6000.0, 2400.0), (2000.0, 1800.0), (6000.0, 90.0)]
    times, errors = _p_only_rows(
        config,
        [speed for speed, _ in rows],
        [kp for _, kp in rows],
        0.4,
        duration_s=duration_s,
        dt_s=0.5,
        perturbation_c=3.0,
        quantized=quantized,
    )
    for (speed, kp), trace in zip(rows, errors):
        ref_times, ref_errors = _reference_p_only_loop(
            config,
            kp,
            speed,
            duration_s=duration_s,
            dt_s=0.5,
            perturbation_c=3.0,
            quantized=quantized,
        )
        assert np.array_equal(times, ref_times)
        assert np.array_equal(trace, ref_errors)


def _hex_gains(regions) -> tuple:
    return tuple(
        (r.gains.kp.hex(), r.gains.ki.hex(), r.gains.kd.hex()) for r in regions
    )


class TestZieglerNicholsRules:
    def test_classic_pid_matches_eqns_5_to_7(self):
        gains = ziegler_nichols_gains(1000.0, 90.0, ZieglerNicholsRule.CLASSIC_PID)
        assert gains.kp == pytest.approx(600.0)  # 0.6 Ku
        assert gains.ki == pytest.approx(600.0 * 2.0 / 90.0)  # KP * 2 / Pu
        assert gains.kd == pytest.approx(600.0 * 90.0 / 8.0)  # KP * Pu / 8

    def test_p_only_has_no_integral(self):
        gains = ziegler_nichols_gains(1000.0, 90.0, ZieglerNicholsRule.P_ONLY)
        assert gains.kp == 500.0
        assert gains.ki == 0.0
        assert gains.kd == 0.0

    def test_pi_has_no_derivative(self):
        gains = ziegler_nichols_gains(1000.0, 90.0, ZieglerNicholsRule.CLASSIC_PI)
        assert gains.kd == 0.0
        assert gains.ki > 0.0

    def test_no_overshoot_is_gentlest(self):
        classic = ziegler_nichols_gains(1000.0, 90.0, ZieglerNicholsRule.CLASSIC_PID)
        gentle = ziegler_nichols_gains(1000.0, 90.0, ZieglerNicholsRule.NO_OVERSHOOT)
        assert gentle.kp < classic.kp

    def test_invalid_inputs_rejected(self):
        with pytest.raises(UnitsError):
            ziegler_nichols_gains(0.0, 90.0)
        with pytest.raises(UnitsError):
            ziegler_nichols_gains(100.0, 0.0)


class TestPOnlyLoop:
    def test_error_decays_at_low_gain(self, config):
        times, errors = simulate_p_only_loop(
            config, kp=50.0, fan_speed_rpm=3000.0, duration_s=1200.0,
            quantized=False,
        )
        # Tail error well below the 2 degC perturbation.
        assert abs(errors[-100:]).max() < 0.5

    def test_high_gain_sustains_oscillation(self, config):
        times, errors = simulate_p_only_loop(
            config, kp=2500.0, fan_speed_rpm=2000.0, duration_s=1800.0,
            quantized=False,
        )
        measurement = measure_oscillation(times, errors)
        assert measurement.decay_ratio > 0.9
        assert measurement.period_s > 0.0

    def test_quantized_loop_limit_cycles_earlier(self, config):
        """On the quantized loop, a moderate gain already limit-cycles."""
        _, errors_q = simulate_p_only_loop(
            config, kp=800.0, fan_speed_rpm=2000.0, duration_s=1800.0,
            quantized=True,
        )
        _, errors_i = simulate_p_only_loop(
            config, kp=800.0, fan_speed_rpm=2000.0, duration_s=1800.0,
            quantized=False,
        )
        assert abs(errors_q[-300:]).max() > abs(errors_i[-300:]).max()


class TestMeasureOscillation:
    def test_overdamped_signal(self):
        times = np.linspace(0.0, 100.0, 500)
        errors = 2.0 * np.exp(-times / 10.0)
        result = measure_oscillation(times, errors)
        assert result.decay_ratio == 0.0

    def test_sustained_sine(self):
        times = np.linspace(0.0, 1000.0, 5000)
        errors = np.sin(2 * np.pi * times / 90.0)
        result = measure_oscillation(times, errors)
        assert result.decay_ratio == pytest.approx(1.0, abs=0.02)
        assert result.period_s == pytest.approx(90.0, rel=0.02)

    def test_decaying_sine(self):
        times = np.linspace(0.0, 1000.0, 5000)
        errors = np.exp(-times / 300.0) * np.sin(2 * np.pi * times / 90.0)
        result = measure_oscillation(times, errors)
        assert result.decay_ratio < 0.95

    def test_growing_sine(self):
        times = np.linspace(0.0, 600.0, 3000)
        errors = np.exp(times / 300.0) * np.sin(2 * np.pi * times / 90.0)
        result = measure_oscillation(times, errors)
        assert result.decay_ratio > 1.0


class TestDefaultSchedule:
    def test_two_regions_at_paper_speeds(self, tuned_schedule):
        speeds = [r.ref_speed_rpm for r in tuned_schedule.regions]
        assert speeds == list(DEFAULT_REGION_SPEEDS_RPM)

    def test_high_region_hotter(self, tuned_schedule):
        """Section IV-B: the low-speed region is ~8x more sensitive, so
        its gains must be correspondingly smaller."""
        low, high = tuned_schedule.regions
        ratio = high.gains.kp / low.gains.kp
        assert 4.0 < ratio < 14.0

    def test_all_gains_positive(self, tuned_schedule):
        for region in tuned_schedule.regions:
            assert region.gains.kp > 0.0
            assert region.gains.ki > 0.0
            assert region.gains.kd > 0.0

    def test_cached(self):
        a = default_gain_schedule(ServerConfig())
        b = default_gain_schedule(ServerConfig())
        assert a is b


class TestPinnedGains:
    """The tuned schedules match the sequential search bit for bit."""

    def test_ladder_covers_pins(self):
        assert set(PINNED_SCHEDULES) == set(HETERO_SENSOR_LADDER)

    def test_table1_server(self):
        assert ServerConfig() == _ladder_config(*HETERO_SENSOR_LADDER[0])
        schedule = default_gain_schedule(ServerConfig())
        assert _hex_gains(schedule.regions) == PINNED_SCHEDULES[(10.0, 1.0)]

    @pytest.mark.parametrize("rung", HETERO_SENSOR_LADDER)
    def test_sensor_ladder(self, rung):
        schedule = default_gain_schedule(_ladder_config(*rung))
        assert [r.ref_speed_rpm for r in schedule.regions] == list(
            DEFAULT_REGION_SPEEDS_RPM
        )
        assert _hex_gains(schedule.regions) == PINNED_SCHEDULES[rung]

    @pytest.mark.parametrize("rung", [(0.0, 0.5), (20.0, 2.0)])
    def test_single_region_tuning(self, rung):
        """One region alone tunes to the same gains as inside a schedule."""
        config = _ladder_config(*rung)
        regions = [tune_region(config, s) for s in DEFAULT_REGION_SPEEDS_RPM]
        assert _hex_gains(regions) == PINNED_SCHEDULES[rung]


class TestLockstepMatchesSequential:
    """The batched experiments and search against the scalar reference."""

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize(
        ("rung", "kp", "speed"),
        [
            ((10.0, 1.0), 300.0, 2000.0),
            ((10.0, 1.0), 2.0e5, 6000.0),  # saturates the fan both ways
            ((0.0, 0.5), 1500.0, 6000.0),
            ((20.0, 2.0), 900.0, 3100.0),
        ],
    )
    def test_p_only_loop_bit_identical(self, quantized, rung, kp, speed):
        config = _ladder_config(*rung)
        times, errors = simulate_p_only_loop(
            config, kp, speed, duration_s=600.0, quantized=quantized
        )
        ref_times, ref_errors = _reference_p_only_loop(
            config, kp, speed, duration_s=600.0, quantized=quantized
        )
        assert np.array_equal(times, ref_times)
        assert np.array_equal(errors, ref_errors)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_rows_bit_identical(self, quantized):
        """Rows of mixed operating points and gains share one run."""
        _assert_rows_match_reference(quantized, duration_s=300.0)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_rows_bit_identical_horizon_between_decisions(self, quantized):
        """A horizon ending between fan decisions leaves a last window
        with no decision; its rows must match too."""
        _assert_rows_match_reference(quantized, duration_s=317.5)

    @pytest.mark.parametrize(
        ("speed", "quantized"), [(2000.0, False), (6000.0, False), (2000.0, True)]
    )
    def test_search_bit_identical(self, speed, quantized):
        config = ServerConfig()
        found = find_ultimate_gain(config, speed, duration_s=1200.0, quantized=quantized)
        reference = _reference_ultimate_gain(
            config, speed, duration_s=1200.0, quantized=quantized
        )
        assert found.ku.hex() == reference.ku.hex()
        assert found.pu_s.hex() == reference.pu_s.hex()

    def test_halving_branch(self):
        """An unstable unity-gain first guess is halved until stable."""
        config = ServerConfig()
        slope = ServerThermalModel(config).steady_state.junction_slope_per_rpm(
            0.4, 6000.0
        )
        found = find_ultimate_gain(config, 6000.0, duration_s=1200.0, quantized=True)
        reference = _reference_ultimate_gain(
            config, 6000.0, duration_s=1200.0, quantized=True
        )
        assert found.ku < 1.0 / abs(slope)
        assert found.ku.hex() == reference.ku.hex()
        assert found.pu_s.hex() == reference.pu_s.hex()

    def test_no_oscillation_raises(self):
        config = ServerConfig()
        kwargs = dict(max_doublings=2, duration_s=600.0)
        with pytest.raises(TuningError) as reference:
            _reference_ultimate_gain(config, 2000.0, **kwargs)
        with pytest.raises(TuningError, match="no sustained oscillation") as found:
            find_ultimate_gain(config, 2000.0, **kwargs)
        assert str(found.value) == str(reference.value)

    def test_unstable_at_any_gain_raises(self):
        config = ServerConfig()
        kwargs = dict(sustained_threshold=0.0, duration_s=120.0)
        with pytest.raises(TuningError) as reference:
            _reference_ultimate_gain(config, 2000.0, **kwargs)
        with pytest.raises(TuningError, match="arbitrarily small gain") as found:
            find_ultimate_gain(config, 2000.0, **kwargs)
        assert str(found.value) == str(reference.value)

    def test_divergence_raises(self, config):
        with pytest.raises(ThermalModelError):
            simulate_p_only_loop(config, float("nan"), 2000.0, duration_s=120.0)
