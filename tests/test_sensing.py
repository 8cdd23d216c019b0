"""Sensing pipeline: quantizer, delay line, noise, I2C bus, sensor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SensingConfig
from repro.errors import SensorError
from repro.sensing.adc import AdcQuantizer
from repro.sensing.delay import DelayLine
from repro.sensing.i2c import I2CBus
from repro.sensing.noise import GaussianNoise, NoNoise, UniformNoise
from repro.sensing.sensor import TemperatureSensor


class TestAdcQuantizer:
    def test_one_degree_lsb(self):
        adc = AdcQuantizer(step=1.0, bits=8)
        assert adc.quantize(75.4) == 75.0
        assert adc.quantize(75.6) == 76.0

    def test_half_step_rounds(self):
        adc = AdcQuantizer(step=1.0, bits=8)
        assert adc.quantize(74.5) in (74.0, 75.0)  # banker's rounding allowed

    def test_saturation(self):
        adc = AdcQuantizer(step=1.0, bits=8)
        assert adc.quantize(500.0) == 255.0
        assert adc.quantize(-40.0) == 0.0

    def test_code_range(self):
        adc = AdcQuantizer(step=1.0, bits=8)
        assert adc.code(500.0) == 255
        assert adc.code(-40.0) == 0

    def test_pass_through_mode(self):
        adc = AdcQuantizer(step=0.0)
        assert adc.quantize(75.4321) == 75.4321

    def test_pass_through_code_raises(self):
        with pytest.raises(SensorError):
            AdcQuantizer(step=0.0).code(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(SensorError):
            AdcQuantizer(step=1.0).quantize(float("nan"))

    def test_from_config(self):
        adc = AdcQuantizer.from_config(SensingConfig())
        assert adc.step == 1.0
        assert adc.bits == 8

    @settings(max_examples=50)
    @given(st.floats(0.0, 255.0))
    def test_quantization_error_bounded(self, value):
        adc = AdcQuantizer(step=1.0, bits=8)
        assert abs(adc.quantize(value) - value) <= 0.5 + 1e-9

    @settings(max_examples=50)
    @given(st.floats(0.0, 255.0))
    def test_idempotent(self, value):
        adc = AdcQuantizer(step=1.0, bits=8)
        once = adc.quantize(value)
        assert adc.quantize(once) == once

    @settings(max_examples=25)
    @given(st.floats(0.0, 255.0), st.floats(0.0, 255.0))
    def test_monotone(self, a, b):
        adc = AdcQuantizer(step=1.0, bits=8)
        if a <= b:
            assert adc.quantize(a) <= adc.quantize(b)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-100.0, 600.0), min_size=1, max_size=20),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 0.1]),
        st.integers(1, 12),
        st.floats(-50.0, 50.0),
    )
    def test_array_matches_scalar_bitwise(self, values, step, bits, minimum):
        """quantize_array is the scalar quantize, element by element,
        including half-step ties and saturation at both code limits."""
        adc = AdcQuantizer(step=step, bits=bits, minimum=minimum)
        ties = [minimum + (k + 0.5) * step for k in range(-2, 3)]
        x = np.array(values + ties)
        expected = [adc.quantize(v).hex() for v in x.tolist()]
        assert [v.hex() for v in adc.quantize_array(x).tolist()] == expected


class TestDelayLine:
    def test_fixed_delay(self):
        line = DelayLine(10.0)
        line.push(0.0, 1.0)
        line.push(5.0, 2.0)
        assert line.read(10.0) == 1.0
        assert line.read(14.9) == 1.0
        assert line.read(15.0) == 2.0

    def test_zero_delay_is_transparent(self):
        line = DelayLine(0.0)
        line.push(1.0, 42.0)
        assert line.read(1.0) == 42.0

    def test_initial_value_before_first_sample(self):
        line = DelayLine(10.0, initial_value=99.0)
        line.push(0.0, 1.0)
        assert line.read(5.0) == 99.0

    def test_read_without_data_raises(self):
        line = DelayLine(10.0)
        line.push(0.0, 1.0)
        with pytest.raises(SensorError):
            line.read(5.0)

    def test_peek_returns_none_instead(self):
        line = DelayLine(10.0)
        line.push(0.0, 1.0)
        assert line.peek(5.0) is None
        assert line.peek(10.0) == 1.0

    def test_out_of_order_push_rejected(self):
        line = DelayLine(10.0)
        line.push(5.0, 1.0)
        with pytest.raises(SensorError):
            line.push(4.0, 2.0)

    def test_zero_order_hold(self):
        line = DelayLine(2.0)
        line.push(0.0, 5.0)
        assert line.read(2.0) == 5.0
        assert line.read(100.0) == 5.0  # holds last delivered value

    @settings(max_examples=25)
    @given(st.floats(0.0, 30.0), st.lists(st.floats(-50, 150), min_size=1, max_size=20))
    def test_delayed_identity_property(self, delay, values):
        """Reading at t + delay returns exactly the value pushed at t."""
        line = DelayLine(delay)
        for i, value in enumerate(values):
            line.push(float(i), value)
        for i, value in enumerate(values):
            assert line.read(float(i) + delay) == value


class TestNoiseModels:
    def test_no_noise(self):
        assert NoNoise().sample() == 0.0

    def test_gaussian_zero_std(self):
        assert GaussianNoise(0.0).sample() == 0.0

    def test_gaussian_reproducible(self):
        a = [GaussianNoise(1.0, seed=7).sample() for _ in range(3)]
        b = [GaussianNoise(1.0, seed=7).sample() for _ in range(3)]
        # Same seed, same stream -- but built separately so compare first draws
        assert a[0] == b[0]

    def test_gaussian_statistics(self):
        noise = GaussianNoise(2.0, seed=1)
        samples = [noise.sample() for _ in range(4000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert abs(mean) < 0.15
        assert 3.0 < var < 5.0

    def test_uniform_bounded(self):
        noise = UniformNoise(0.5, seed=3)
        for _ in range(200):
            assert -0.5 <= noise.sample() <= 0.5

    def test_uniform_zero_width(self):
        assert UniformNoise(0.0).sample() == 0.0


class TestI2CBus:
    def test_round_robin_delivery(self):
        bus = I2CBus(transaction_time_s=1.0)
        bus.attach("a")
        bus.attach("b")
        bus.step(2.0, {"a": 10.0, "b": 20.0})
        assert bus.read("a", 2.0) == 10.0
        assert bus.read("b", 2.0) == 20.0

    def test_value_captured_at_transaction_start(self):
        bus = I2CBus(transaction_time_s=1.0)
        bus.attach("a")
        bus.step(0.5, {"a": 1.0})  # transaction started at t=0 with value 1.0
        bus.step(1.5, {"a": 99.0})
        assert bus.read("a", 1.5) == 1.0

    def test_base_latency(self):
        bus = I2CBus(transaction_time_s=1.0, base_latency_s=5.0)
        bus.attach("a")
        bus.step(1.0, {"a": 7.0})
        assert bus.read("a", 1.0) is None  # delivered but latency pending
        assert bus.read("a", 6.0) == 7.0

    def test_worst_case_lag_grows_with_devices(self):
        bus = I2CBus(transaction_time_s=0.5)
        bus.attach("a")
        lag_one = bus.worst_case_lag_s()
        for i in range(7):
            bus.attach(f"d{i}")
        assert bus.worst_case_lag_s() > lag_one

    def test_duplicate_attach_rejected(self):
        bus = I2CBus()
        bus.attach("a")
        with pytest.raises(SensorError):
            bus.attach("a")

    def test_no_devices_rejected(self):
        with pytest.raises(SensorError):
            I2CBus().step(1.0, {})

    def test_missing_value_rejected(self):
        bus = I2CBus()
        bus.attach("a")
        with pytest.raises(SensorError):
            bus.step(1.0, {})

    def test_time_monotonic(self):
        bus = I2CBus()
        bus.attach("a")
        bus.step(5.0, {"a": 1.0})
        with pytest.raises(SensorError):
            bus.step(4.0, {"a": 1.0})

    def test_history_records_transactions(self):
        bus = I2CBus(transaction_time_s=1.0)
        bus.attach("a")
        bus.step(3.0, {"a": 1.0})
        assert len(bus.history) == 3
        assert all(txn.duration_s == pytest.approx(1.0) for txn in bus.history)

    def test_contention_staleness(self):
        """With N devices each device refreshes every N transactions."""
        bus = I2CBus(transaction_time_s=1.0)
        for name in ("a", "b", "c", "d"):
            bus.attach(name)
        bus.step(4.0, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        # After 4 transactions each device was read exactly once.
        devices = [txn.device for txn in bus.history]
        assert devices == ["a", "b", "c", "d"]


class TestTemperatureSensor:
    def test_reports_quantized_delayed_value(self):
        sensor = TemperatureSensor(SensingConfig(lag_s=10.0))
        for t in range(0, 31):
            sensor.observe(float(t), 70.0 + 0.3 * t)
        reading = sensor.read(30.0)
        # Value sampled at ~t=20 (lag 10): 76.0 quantized.
        assert reading.value_c == pytest.approx(76.0)

    def test_read_before_observe_raises(self):
        sensor = TemperatureSensor(SensingConfig())
        with pytest.raises(SensorError):
            sensor.read(0.0)

    def test_first_observation_primes_pipeline(self):
        sensor = TemperatureSensor(SensingConfig(lag_s=10.0))
        sensor.observe(0.0, 55.4)
        assert sensor.read(0.0).value_c == 55.0

    def test_sampling_cadence(self):
        sensor = TemperatureSensor(SensingConfig(lag_s=0.0, sample_interval_s=1.0))
        sensor.observe(0.0, 50.0)
        # Sub-interval observations are ignored.
        sensor.observe(0.5, 99.0)
        assert sensor.read(0.5).value_c == 50.0
        sensor.observe(1.0, 60.0)
        assert sensor.read(1.0).value_c == 60.0

    def test_ideal_sensor_passthrough(self):
        config = SensingConfig(lag_s=0.0, quantization_step_c=0.0)
        sensor = TemperatureSensor(config)
        sensor.observe(0.0, 71.234)
        assert sensor.read(0.0).value_c == pytest.approx(71.234)

    def test_lag_visible_end_to_end(self):
        sensor = TemperatureSensor(SensingConfig(lag_s=10.0))
        for t in range(0, 25):
            sensor.observe(float(t), 60.0 if t < 12 else 80.0)
        # At t=21 the sensor still reports the pre-step value sampled at 11.
        assert sensor.read(21.0).value_c == 60.0
        # At t=22 the t=12 sample (80) has cleared the 10 s delay.
        assert sensor.read(22.0).value_c == 80.0

    def test_last_reading_property(self):
        sensor = TemperatureSensor(SensingConfig())
        sensor.observe(0.0, 50.0)
        sensor.read(0.0)
        assert sensor.last_reading is not None
        assert sensor.last_reading.value_c == 50.0
