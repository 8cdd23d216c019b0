"""Ablation benchmarks for the model's design choices.

* Eqn 10 quantization guard on/off (Section IV-C),
* measurement-lag sweep (the paper's core non-ideality),
* gain-schedule region count (Section IV-B),
* SSfan trigger threshold (Section V-C).

Each prints a small table of the swept metric.  The grids are lists of
:class:`~repro.sim.batch.BatchRunSpec` run by
:func:`~repro.sim.batch.run_batch`, so the whole ablation executes on
the vectorized batch backend as one ``(B,)`` array run (identical
results to per-point scalar simulation).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.stability import oscillation_amplitude
from repro.config import ServerConfig
from repro.core.single_step import SingleStepFanScaling
from repro.core.tuning import default_gain_schedule
from repro.core.gain_schedule import GainSchedule
from repro.sim.batch import BatchRunSpec, run_batch
from repro.sim.scenarios import (
    build_fan_controller,
    build_global_controller,
    build_plant,
    build_sensor,
    fan_only_spec,
    paper_workload,
)
from repro.thermal.steady_state import SteadyStateServerModel
from repro.workload.synthetic import ConstantWorkload


def test_ablation_quantization_guard(benchmark):
    """Without Eqn 10 the fan chatters on LSB dither at constant load."""
    cfg = ServerConfig()

    def run_pair():
        variants = (True, False)
        results = run_batch(
            [
                fan_only_spec(
                    build_fan_controller(
                        cfg, with_guard=with_guard, initial_speed_rpm=2500.0
                    ),
                    ConstantWorkload(0.5),
                    1500.0,
                    config=cfg,
                    initial_utilization=0.5,
                    dt_s=0.5,
                    label=f"guard={with_guard}",
                )
                for with_guard in variants
            ]
        )
        return {
            with_guard: oscillation_amplitude(result.fan_speed_rpm)
            for with_guard, result in zip(variants, results)
        }

    amplitudes = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["Eqn 10 guard", "trailing fan amplitude [rpm]"],
            [["on", amplitudes[True]], ["off", amplitudes[False]]],
        )
    )
    assert amplitudes[True] <= amplitudes[False]


def _lag_spec(lag_s: float) -> BatchRunSpec:
    cfg = ServerConfig().with_sensing(lag_s=lag_s)
    return BatchRunSpec(
        plant=build_plant(cfg),
        sensor=build_sensor(cfg, seed=4),
        workload=paper_workload(900.0, seed=4, include_spikes=False),
        controller=build_global_controller("rcoord", cfg),
        duration_s=900.0,
        dt_s=0.2,
        record_decimation=10,
        label=f"lag={lag_s:g}",
    )


def test_ablation_lag_sweep(benchmark):
    """Longer transport lag -> larger junction excursions."""
    lags = [0.0, 5.0, 10.0, 20.0]

    def sweep():
        results = run_batch([_lag_spec(lag) for lag in lags])
        return [
            [lag, r.max_junction_c, r.violation_percent]
            for lag, r in zip(lags, results)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(["lag [s]", "max Tj [C]", "violations [%]"], rows))
    # The 20 s system must not be cooler than the ideal-lag system.
    assert rows[-1][1] >= rows[0][1] - 0.5


def test_ablation_region_count(benchmark):
    """One region (fixed gains) vs the paper's two: stability at low speed."""
    cfg = ServerConfig()
    tuned = default_gain_schedule(cfg)

    def run_variants():
        variants = {
            "1 region (@6000)": GainSchedule.fixed(
                tuned.regions[-1].gains, tuned.regions[-1].ref_speed_rpm
            ),
            "2 regions (paper)": tuned,
        }
        results = run_batch(
            [
                fan_only_spec(
                    build_fan_controller(
                        cfg, schedule=schedule, initial_speed_rpm=1500.0
                    ),
                    ConstantWorkload(0.3),
                    1500.0,
                    config=cfg,
                    initial_utilization=0.3,
                    dt_s=0.5,
                    label=name,
                )
                for name, schedule in variants.items()
            ]
        )
        return {
            name: oscillation_amplitude(result.fan_speed_rpm)
            for name, result in zip(variants, results)
        }

    results = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["schedule", "trailing fan amplitude [rpm]"],
            [[name, amp] for name, amp in results.items()],
        )
    )
    assert results["2 regions (paper)"] < results["1 region (@6000)"]


def test_ablation_tuning_signal(benchmark):
    """Ultimate-gain search on the quantized vs the ideal (lag-only) loop.

    As :mod:`repro.core.tuning` explains, searching on the quantized
    loop finds the quantization limit cycle first, which collapses the
    ~8x inter-region Ku ratio the Section IV-B adaptive scheme is built
    on.
    """
    from repro.core.tuning import find_ultimate_gain

    cfg = ServerConfig()

    def sweep():
        rows = []
        for quantized in (False, True):
            kus = [
                find_ultimate_gain(cfg, speed, quantized=quantized).ku
                for speed in (2000.0, 6000.0)
            ]
            rows.append(
                ["quantized" if quantized else "lag-only", kus[0], kus[1],
                 kus[1] / kus[0]]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["search signal", "Ku@2000 [rpm/K]", "Ku@6000 [rpm/K]",
             "Ku ratio"],
            rows,
        )
    )
    lag_only_ratio = rows[0][3]
    quantized_ratio = rows[1][3]
    assert lag_only_ratio > 4.0  # the Section IV-B sensitivity story
    assert quantized_ratio < lag_only_ratio


def test_ablation_ssfan_threshold(benchmark):
    """SSfan trigger threshold: lower thresholds boost more often.

    The batch controller vectorizes SSfan with a per-server threshold
    and syncs each scaler's state back after the run, which is what
    lets ``scalers`` report the boost counts.
    """
    cfg = ServerConfig()
    steady = SteadyStateServerModel(cfg)
    scalers: dict[float, SingleStepFanScaling] = {}

    def ssfan_spec(threshold: float) -> BatchRunSpec:
        controller = build_global_controller("rcoord_atref_ssfan", cfg)
        scaler = SingleStepFanScaling(steady, degradation_threshold=threshold)
        controller._single_step = scaler
        scalers[threshold] = scaler
        return BatchRunSpec(
            plant=build_plant(cfg),
            sensor=build_sensor(cfg, seed=2),
            workload=paper_workload(1200.0, seed=2),
            controller=controller,
            duration_s=1200.0,
            dt_s=0.2,
            record_decimation=10,
            label=f"threshold={threshold:g}",
        )

    thresholds = [0.04, 0.08, 0.16]

    def sweep():
        scalers.clear()
        results = run_batch([ssfan_spec(t) for t in thresholds])
        return [
            [t, scalers[t].boost_count, r.violation_percent, r.fan_energy_j]
            for t, r in zip(thresholds, results)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["threshold", "boosts", "violations [%]", "fan energy [J]"], rows
        )
    )
    boosts = [row[1] for row in rows]
    assert boosts[0] >= boosts[-1]
