"""Workload generators, filters, and the deadline-violation model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.filters import EwmaFilter, MovingAverageFilter
from repro.workload.performance import DeadlineTracker
from repro.workload.spikes import Spike, SpikeProcess, SpikeTrain
from repro.workload.synthetic import (
    CompositeWorkload,
    ConstantWorkload,
    NoisyWorkload,
    SineWorkload,
    SquareWaveWorkload,
    StepWorkload,
)
from repro.workload.traces import TraceWorkload


class TestSynthetic:
    def test_constant(self):
        assert ConstantWorkload(0.4).demand(123.0) == 0.4

    def test_step(self):
        wl = StepWorkload(0.1, 0.7, 60.0)
        assert wl.demand(59.9) == 0.1
        assert wl.demand(60.0) == 0.7

    def test_square_wave_alternation(self):
        wl = SquareWaveWorkload(low=0.1, high=0.7, half_period_s=100.0)
        assert wl.demand(50.0) == 0.1
        assert wl.demand(150.0) == 0.7
        assert wl.demand(250.0) == 0.1

    def test_square_wave_phase(self):
        wl = SquareWaveWorkload(low=0.1, high=0.7, half_period_s=100.0, phase_s=100.0)
        assert wl.demand(50.0) == 0.7

    def test_square_wave_order_validated(self):
        with pytest.raises(WorkloadError):
            SquareWaveWorkload(low=0.8, high=0.2)

    def test_sine_bounds_validated(self):
        with pytest.raises(WorkloadError):
            SineWorkload(mean=0.9, amplitude=0.3)

    def test_sine_midline(self):
        wl = SineWorkload(mean=0.4, amplitude=0.3, period_s=100.0)
        assert wl.demand(0.0) == pytest.approx(0.4)
        assert wl.demand(25.0) == pytest.approx(0.7)

    def test_noisy_wraps_and_clamps(self):
        wl = NoisyWorkload(ConstantWorkload(0.02), std=0.5, seed=1)
        for t in range(100):
            assert 0.0 <= wl.demand(float(t)) <= 1.0

    def test_noisy_consistent_within_resolution(self):
        wl = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=2, resolution_s=1.0)
        assert wl.demand(3.1) == wl.demand(3.9)

    def test_noisy_reproducible_by_seed(self):
        a = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=3)
        b = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=3)
        assert a.demand(5.0) == b.demand(5.0)

    def test_noisy_zero_std_passthrough(self):
        wl = NoisyWorkload(ConstantWorkload(0.5), std=0.0)
        assert wl.demand(1.0) == 0.5

    def test_composite_sums_and_clamps(self):
        wl = CompositeWorkload([ConstantWorkload(0.7), ConstantWorkload(0.6)])
        assert wl.demand(0.0) == 1.0

    def test_composite_empty_rejected(self):
        with pytest.raises(WorkloadError):
            CompositeWorkload([])

    def test_demands_vectorized(self):
        wl = ConstantWorkload(0.25)
        assert wl.demands([0.0, 1.0, 2.0]) == [0.25, 0.25, 0.25]

    @settings(max_examples=25)
    @given(st.floats(0.0, 10000.0))
    def test_square_wave_always_valid_property(self, t):
        wl = SquareWaveWorkload()
        assert wl.demand(t) in (0.1, 0.7)


class TestDemandArrayExactness:
    """Vectorized demand_array overrides match the scalar loop bit-for-bit.

    The batch backend's equivalence contract leans on these: the scalar
    engine calls demand() per step, the batch engine demand_array() per
    chunk, and both must see the exact same floats.
    """

    #: The batch stepper's visiting pattern: ascending uniform grid.
    TIMES = np.array([0.1 * (k + 1) for k in range(5000)])

    def _assert_exact(self, workload, times=None):
        times = self.TIMES if times is None else times
        scalar = np.array([workload.demand(float(t)) for t in times])
        assert np.array_equal(workload.demand_array(times), scalar)

    def test_sine_exact(self):
        # np.sin routes float64 through the same libm call math.sin
        # makes; this pin is what the override's exactness rests on.
        self._assert_exact(SineWorkload(mean=0.4, amplitude=0.3, period_s=137.0))

    def test_trace_exact_hold_and_wrap(self):
        samples = np.linspace(0.0, 1.0, 101)
        self._assert_exact(TraceWorkload(samples, sample_interval_s=0.7))
        self._assert_exact(
            TraceWorkload(samples, sample_interval_s=0.7, wrap=True)
        )

    def test_trace_array_rejects_negative_times(self):
        wl = TraceWorkload([0.5])
        with pytest.raises(WorkloadError):
            wl.demand_array(np.array([1.0, -0.1]))

    def test_spike_train_chunked_and_out_of_order(self):
        # demand_array visits only the spikes that can overlap the span
        # it is asked about; chunked, reversed and shuffled queries, and
        # times on and next to every spike edge, must still see each
        # active spike exactly as the scalar scan does.
        train = SpikeProcess(
            6000.0, 1 / 15.0, duration_range_s=(0.05, 400.0), seed=21
        )
        assert len(train.spikes) > 300
        grid = np.array([0.1 * (k + 1) for k in range(60_000)])
        for lo in range(0, grid.size, 4096):
            self._assert_exact(train, grid[lo : lo + 4096])
        self._assert_exact(train, grid[::-1].copy())
        rng = np.random.default_rng(4)
        self._assert_exact(train, rng.permutation(grid)[:5000])
        edges = np.array(
            [t for s in train.spikes for t in (s.start_s, s.end_s)]
        )
        for chunk in np.array_split(rng.permutation(edges), 7):
            near = np.concatenate(
                (chunk, np.nextafter(chunk, -np.inf), np.nextafter(chunk, np.inf))
            )
            self._assert_exact(train, near)

    def test_noisy_bulk_draws_match_scalar_stream(self):
        # Fresh twin instances: the array path's bulk normal(size=k)
        # draws must consume the RNG stream exactly as the scalar
        # per-slot draws do.
        array_wl = NoisyWorkload(SquareWaveWorkload(), std=0.04, seed=11)
        scalar_wl = NoisyWorkload(SquareWaveWorkload(), std=0.04, seed=11)
        scalar = np.array([scalar_wl.demand(float(t)) for t in self.TIMES])
        assert np.array_equal(array_wl.demand_array(self.TIMES), scalar)

    def test_noisy_bulk_handles_repeated_slots(self):
        # Non-ascending public calls can revisit a slot inside one
        # demand_array; the repeat must cache-hit its first draw, not
        # consume an extra draw and desync the stream.
        times = np.array([5.0, 7.0, 5.0, 9.0])
        array_wl = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=1)
        scalar_wl = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=1)
        scalar = np.array([scalar_wl.demand(float(t)) for t in times])
        assert np.array_equal(array_wl.demand_array(times), scalar)
        # The streams stay aligned afterwards too.
        assert array_wl.demand(11.0) == scalar_wl.demand(11.0)

    def test_noisy_bulk_respects_prior_cache(self):
        # Slots already drawn by scalar demand() calls must be reused,
        # with only the cache misses drawn (in order) from the stream.
        array_wl = NoisyWorkload(SquareWaveWorkload(), std=0.04, seed=13)
        scalar_wl = NoisyWorkload(SquareWaveWorkload(), std=0.04, seed=13)
        for t in self.TIMES[1000:1500]:
            array_wl.demand(float(t))
            scalar_wl.demand(float(t))
        scalar = np.array([scalar_wl.demand(float(t)) for t in self.TIMES])
        assert np.array_equal(array_wl.demand_array(self.TIMES), scalar)

    def test_noisy_bulk_crosses_the_cache_clear(self):
        # 100 050 one-second slots overflow the 100 000-slot noise cache
        # inside one demand_array call.  The clear must land where the
        # per-step path puts it, on the insert of slot 100 001: slot
        # 100 000 and earlier are drawn anew afterwards, slot 100 001
        # and later still hit, and the streams stay aligned.
        times = np.arange(100_050) + 0.5
        array_wl = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=17)
        scalar_wl = NoisyWorkload(ConstantWorkload(0.5), std=0.1, seed=17)
        scalar = np.array([scalar_wl.demand(float(t)) for t in times])
        assert np.array_equal(array_wl.demand_array(times), scalar)
        later = [100_000.5, 100_001.5, 3.5, 100_049.5, 200_000.5]
        assert [array_wl.demand(t) for t in later] == [
            scalar_wl.demand(t) for t in later
        ]


class TestSpikes:
    def test_spike_active_window(self):
        spike = Spike(start_s=10.0, duration_s=5.0, height=0.3)
        assert not spike.active(9.9)
        assert spike.active(10.0)
        assert spike.active(14.9)
        assert not spike.active(15.0)

    def test_train_demand(self):
        train = SpikeTrain([Spike(10.0, 5.0, 0.3)])
        assert train.demand(12.0) == 0.3
        assert train.demand(20.0) == 0.0

    def test_overlapping_spikes_take_max(self):
        train = SpikeTrain([Spike(0.0, 10.0, 0.2), Spike(5.0, 10.0, 0.5)])
        assert train.demand(7.0) == 0.5

    def test_process_reproducible(self):
        a = SpikeProcess(1000.0, 0.01, seed=5)
        b = SpikeProcess(1000.0, 0.01, seed=5)
        assert [s.start_s for s in a.spikes] == [s.start_s for s in b.spikes]

    def test_process_rate(self):
        process = SpikeProcess(100000.0, 0.01, seed=7)
        count = len(process.spikes)
        # Poisson with mean 1000: within 4 sigma.
        assert 850 < count < 1150

    def test_process_horizon_respected(self):
        process = SpikeProcess(500.0, 0.05, seed=2)
        assert all(s.start_s < 500.0 for s in process.spikes)

    def test_process_ranges_respected(self):
        process = SpikeProcess(
            5000.0, 0.01, height_range=(0.2, 0.3), duration_range_s=(5.0, 10.0),
            seed=3,
        )
        for spike in process.spikes:
            assert 0.2 <= spike.height <= 0.3
            assert 5.0 <= spike.duration_s <= 10.0

    def test_bad_ranges_rejected(self):
        with pytest.raises(WorkloadError):
            SpikeProcess(100.0, 0.1, height_range=(0.5, 0.2))


class TestTraces:
    def test_zero_order_hold(self):
        wl = TraceWorkload([0.1, 0.5, 0.9], sample_interval_s=10.0)
        assert wl.demand(0.0) == 0.1
        assert wl.demand(9.9) == 0.1
        assert wl.demand(10.0) == 0.5
        assert wl.demand(25.0) == 0.9

    def test_holds_last_without_wrap(self):
        wl = TraceWorkload([0.1, 0.5], sample_interval_s=1.0)
        assert wl.demand(100.0) == 0.5

    def test_wrap(self):
        wl = TraceWorkload([0.1, 0.5], sample_interval_s=1.0, wrap=True)
        assert wl.demand(2.0) == 0.1
        assert wl.demand(3.0) == 0.5

    def test_invalid_samples_rejected(self):
        with pytest.raises(WorkloadError):
            TraceWorkload([0.1, 1.5])
        with pytest.raises(WorkloadError):
            TraceWorkload([])

    def test_negative_time_rejected(self):
        wl = TraceWorkload([0.5])
        with pytest.raises(WorkloadError):
            wl.demand(-1.0)

    def test_csv_roundtrip(self, tmp_path):
        wl = TraceWorkload([0.1, 0.2, 0.3])
        path = tmp_path / "trace.csv"
        wl.to_csv(path)
        loaded = TraceWorkload.from_csv(path)
        assert np.allclose(loaded.samples, wl.samples)

    def test_duration(self):
        assert TraceWorkload([0.1] * 10, sample_interval_s=2.0).duration_s == 20.0


class TestFilters:
    def test_moving_average_partial_window(self):
        f = MovingAverageFilter(window=4)
        assert f.update(1.0) == 1.0
        assert f.update(3.0) == 2.0

    def test_moving_average_sliding(self):
        f = MovingAverageFilter(window=2)
        f.update(1.0)
        f.update(3.0)
        assert f.update(5.0) == 4.0  # (3 + 5) / 2

    def test_moving_average_empty_value(self):
        assert MovingAverageFilter().value == 0.0

    def test_moving_average_reset(self):
        f = MovingAverageFilter(window=3)
        f.update(9.0)
        f.reset()
        assert f.value == 0.0
        assert f.count == 0

    def test_invalid_window(self):
        with pytest.raises(WorkloadError):
            MovingAverageFilter(window=0)

    def test_ewma_first_sample(self):
        f = EwmaFilter(alpha=0.5)
        assert f.update(10.0) == 10.0

    def test_ewma_smoothing(self):
        f = EwmaFilter(alpha=0.5)
        f.update(0.0)
        assert f.update(10.0) == 5.0

    def test_ewma_alpha_one_tracks_input(self):
        f = EwmaFilter(alpha=1.0)
        f.update(1.0)
        assert f.update(7.0) == 7.0

    def test_ewma_zero_alpha_rejected(self):
        with pytest.raises(WorkloadError):
            EwmaFilter(alpha=0.0)

    @settings(max_examples=25)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_moving_average_bounded_property(self, samples):
        f = MovingAverageFilter(window=5)
        for s in samples:
            value = f.update(s)
            assert 0.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestDeadlineTracker:
    def test_no_violation_when_cap_sufficient(self):
        tracker = DeadlineTracker()
        assert not tracker.record(demanded=0.5, applied=0.5)
        assert tracker.summary.violation_percent == 0.0

    def test_violation_when_throttled(self):
        tracker = DeadlineTracker()
        assert tracker.record(demanded=0.8, applied=0.5)
        assert tracker.summary.violations == 1

    def test_tolerance(self):
        tracker = DeadlineTracker(tolerance=0.05)
        assert not tracker.record(demanded=0.52, applied=0.50)

    def test_violation_percent(self):
        tracker = DeadlineTracker()
        tracker.record(0.8, 0.5)
        tracker.record(0.5, 0.5)
        assert tracker.summary.violation_percent == pytest.approx(50.0)

    def test_recent_degradation_window(self):
        tracker = DeadlineTracker(window=2)
        tracker.record(0.8, 0.5)  # gap 0.3
        tracker.record(0.5, 0.5)  # gap 0
        assert tracker.recent_degradation == pytest.approx(0.15)
        tracker.record(0.5, 0.5)  # gap 0; 0.3 falls out of window
        assert tracker.recent_degradation == pytest.approx(0.0)

    def test_degradation_fraction(self):
        tracker = DeadlineTracker()
        tracker.record(1.0, 0.5)
        summary = tracker.summary
        assert summary.degradation_fraction == pytest.approx(0.5)

    def test_reset(self):
        tracker = DeadlineTracker()
        tracker.record(0.9, 0.1)
        tracker.reset()
        assert tracker.summary.periods == 0
        assert tracker.recent_degradation == 0.0

    def test_empty_summary(self):
        summary = DeadlineTracker().summary
        assert summary.violation_fraction == 0.0
        assert summary.degradation_fraction == 0.0
