"""Ziegler-Nichols closed-loop tuning (Section IV-A, Eqns 5-7).

The paper tunes its PID with the classic closed-loop recipe [21]:

1. With proportional-only control, find the *ultimate gain* ``Ku`` - the
   gain at which the loop oscillates indefinitely at steady state.
2. Measure the *ultimate period* ``Pu`` of that oscillation.
3. Set ``KP = 0.6 Ku``, ``KI = KP * 2 / Pu``, ``KD = KP * Pu / 8``.

This module runs that procedure as an actual experiment on the simulated
server: a proportional-only loop is perturbed from equilibrium, the decay
ratio of the error oscillation is measured, and ``Ku`` is found by
bisection on the stable/unstable boundary.

The search runs in *lockstep rounds*: every gain candidate of a round is
one row of a single P-only run on
:class:`~repro.thermal.batch.BatchThermalPlant`, and all regions of a
schedule share each round.  The first round holds every doubling of the
initial guess; each later round holds the whole midpoint subtree of the
next :data:`_ROUND_LEVELS` bisection levels.  The sequential doubling,
halving and bisection logic then replays over the measured decay
ratios, and ``Pu`` is read from the round that already ran ``Ku``.  The
batch plant is bit-identical to the scalar one and the ADC step uses the
same expression as the batch sensing bank, so ``Ku``, ``Pu`` and every
gain are bit-identical to running the experiments one at a time.

The ultimate-gain search runs on the *lagged but unquantized* loop by
default (``quantized=False``): the 10 s transport delay is what truly
limits the achievable gain, and it preserves the ~8x sensitivity ratio
between the 2000 and 6000 rpm regions that drives the whole Section IV-B
adaptive story.  Searching on the quantized loop instead
(``quantized=True``) finds the quantization-induced limit cycle first,
which collapses the region ratio - useful as an ablation, not as the
default.

Because the LSB granularity is handled separately (Eqn 10 hold + deadband
error shaping in the fan controller), the shipped gain rule must satisfy
the capture bound ``KP * T_Q <= hold-window width in rpm``; the classic
0.6-Ku rule violates it ~3x on this plant, so :func:`tune_region`
defaults to the no-overshoot variant (``KP = 0.2 Ku``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.config import ServerConfig
from repro.core.gain_schedule import GainRegion, GainSchedule
from repro.core.pid import PIDGains
from repro.errors import TuningError
from repro.peaks import find_peaks
from repro.sensing.adc import AdcQuantizer
from repro.thermal.batch import BatchThermalPlant
from repro.thermal.server import ServerThermalModel
from repro.units import check_duration, check_positive, check_utilization

#: Bisection levels one lockstep round speculates: a round runs the whole
#: midpoint subtree of the next ``_ROUND_LEVELS`` levels
#: (``2**_ROUND_LEVELS - 1`` gains per region), so the default ten levels
#: take two rounds after the doubling round.
_ROUND_LEVELS = 5

#: The halving search gives up once the next gain would fall below this.
_MIN_GAIN = 1e-6


@dataclass(frozen=True)
class UltimateGain:
    """Result of the ultimate-gain search."""

    ku: float
    pu_s: float

    def __post_init__(self) -> None:
        check_positive(self.ku, "ku")
        check_positive(self.pu_s, "pu_s")


@dataclass(frozen=True)
class OscillationMeasurement:
    """Decay ratio and period extracted from a closed-loop error trace."""

    decay_ratio: float
    period_s: float
    n_peaks: int


class ZieglerNicholsRule(enum.Enum):
    """Tuning-rule variants; CLASSIC_PID is the paper's Eqns 5-7."""

    P_ONLY = "p_only"
    CLASSIC_PI = "classic_pi"
    CLASSIC_PID = "classic_pid"
    PESSEN = "pessen"
    SOME_OVERSHOOT = "some_overshoot"
    NO_OVERSHOOT = "no_overshoot"


#: (kp_factor, Ti as fraction of Pu or None, Td as fraction of Pu or None)
_RULE_TABLE: dict[ZieglerNicholsRule, tuple[float, float | None, float | None]] = {
    ZieglerNicholsRule.P_ONLY: (0.5, None, None),
    ZieglerNicholsRule.CLASSIC_PI: (0.45, 1.0 / 1.2, None),
    ZieglerNicholsRule.CLASSIC_PID: (0.6, 0.5, 0.125),
    ZieglerNicholsRule.PESSEN: (0.7, 0.4, 0.15),
    ZieglerNicholsRule.SOME_OVERSHOOT: (0.33, 0.5, 1.0 / 3.0),
    ZieglerNicholsRule.NO_OVERSHOOT: (0.2, 0.5, 1.0 / 3.0),
}


def ziegler_nichols_gains(
    ku: float,
    pu_s: float,
    rule: ZieglerNicholsRule = ZieglerNicholsRule.CLASSIC_PID,
) -> PIDGains:
    """Map (Ku, Pu) to PID gains under the chosen rule.

    For CLASSIC_PID this is exactly Eqns (5)-(7): ``KP = 0.6 Ku``,
    ``KI = KP * 2 / Pu``, ``KD = KP * Pu / 8``.
    """
    check_positive(ku, "ku")
    check_duration(pu_s, "pu_s")
    kp_factor, ti_frac, td_frac = _RULE_TABLE[rule]
    kp = kp_factor * ku
    ki = 0.0 if ti_frac is None else kp / (ti_frac * pu_s)
    kd = 0.0 if td_frac is None else kp * (td_frac * pu_s)
    return PIDGains(kp=kp, ki=ki, kd=kd)


def _p_only_rows(
    config: ServerConfig,
    speeds_rpm: Sequence[float],
    gains: Sequence[float],
    utilization: float,
    *,
    duration_s: float,
    dt_s: float,
    perturbation_c: float,
    quantized: bool,
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Lockstep P-only experiments, one row per ``(speed, gain)`` pair.

    Returns the sample times and an iterator over each row's error
    trace, in row order.  Every row repeats the scalar experiment of
    :func:`simulate_p_only_loop` with the same float operations: the
    plant rows are seeded from one settled, perturbed scalar plant per
    operating point, and the fan-decision instants and the delay-line
    arrivals depend only on time, so one schedule serves every row.
    Readings live in one preallocated ``(steps + 1, rows)`` history
    whose row 0 is each experiment's power-on reading.
    """
    check_utilization(utilization, "utilization")
    check_duration(duration_s, "duration_s")
    dt_s = check_duration(dt_s, "dt_s")
    quantizer = AdcQuantizer.from_config(config.sensing) if quantized else None

    plants, s_op, t_op, initial = [], [], [], []
    points: dict[float, tuple[ServerThermalModel, float, float, float]] = {}
    for speed in speeds_rpm:
        if speed not in points:
            plant = ServerThermalModel(config)
            op_speed = plant.clamp_fan_speed(speed)
            plant.settle(utilization, op_speed)
            op_temp = plant.junction_c
            # Perturb the slow state so the loop has something to regulate away.
            plant.heatsink.reset(plant.state.heatsink_c + perturbation_c)
            plant.die.reset(plant.junction_c + perturbation_c)
            reading = quantizer.quantize(op_temp) if quantizer is not None else op_temp
            points[speed] = (plant, op_speed, op_temp, reading)
        plant, op_speed, op_temp, reading = points[speed]
        plants.append(plant)
        s_op.append(op_speed)
        t_op.append(op_temp)
        initial.append(reading)
    n_rows = len(plants)
    batch = BatchThermalPlant(plants, dt_s)
    for r, speed in enumerate(s_op):
        batch.apply_fan_speed(r, speed)
    s_op_arr = np.array(s_op)
    t_op_arr = np.array(t_op)
    gain_arr = np.array(gains, dtype=float)
    ambient = np.full(n_rows, plants[0].ambient.temperature_c(0.0))
    socket_w, _ = batch.power(np.full(n_rows, utilization))

    n_steps = int(round(duration_s / dt_s))
    times = np.arange(1, n_steps + 1) * dt_s
    # Newest sample that has cleared the transport delay at each step, as
    # a history row (0 = the power-on reading).
    cols = np.searchsorted(times + config.sensing.lag_s, times, side="right")
    # Fan decisions run after the physics of their step, so fan levels
    # are frozen over each window that ends at a decision step: one
    # advance per window, its readings quantized in one call.
    fan_interval = config.control.fan_interval_s
    decisions = []
    next_decision = fan_interval
    for k, t in enumerate(times.tolist(), 1):
        if t + 1e-9 >= next_decision:
            next_decision += fan_interval
            decisions.append(k)
    last_decision = decisions[-1] if decisions else 0
    bounds = [0, *decisions]
    if last_decision < n_steps:
        bounds.append(n_steps)

    history = np.empty((n_steps + 1, n_rows))
    history[0] = initial
    for start, end in zip(bounds, bounds[1:]):
        junction, _ = batch.advance(
            ambient, np.broadcast_to(socket_w, (end - start, n_rows))
        )
        if quantizer is not None:
            junction = quantizer.quantize_array(junction)
        history[start + 1 : end + 1] = junction
        if end <= last_decision:
            speeds = s_op_arr + gain_arr * (history[cols[end - 1]] - t_op_arr)
            for r, speed in enumerate(speeds.tolist()):
                batch.apply_fan_speed(r, speed)
    batch.check_finite()
    return times, (history[cols, r] - t_op_arr[r] for r in range(n_rows))


def simulate_p_only_loop(
    config: ServerConfig,
    kp: float,
    fan_speed_rpm: float,
    utilization: float = 0.4,
    duration_s: float = 2400.0,
    dt_s: float = 1.0,
    perturbation_c: float = 2.0,
    quantized: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop P-only experiment around one operating point.

    The plant is settled at ``(utilization, fan_speed_rpm)``, the setpoint
    is placed at the corresponding steady-state junction temperature, the
    heat sink is perturbed by ``perturbation_c``, and the loop

        s(k+1) = s_op + kp * (T_measured(k) - T_op)

    runs with fan decisions every ``control.fan_interval_s`` while the
    measurement passes through the configured lag and (when ``quantized``)
    the ADC quantizer.  Returns ``(times, errors)`` sampled every ``dt_s``.
    This is a one-row run of the lockstep batch the tuner uses.
    """
    times, rows = _p_only_rows(
        config,
        [fan_speed_rpm],
        [kp],
        utilization,
        duration_s=duration_s,
        dt_s=dt_s,
        perturbation_c=perturbation_c,
        quantized=quantized,
    )
    return times, next(rows)


def measure_oscillation(
    times: np.ndarray,
    errors: np.ndarray,
    settle_fraction: float = 0.2,
    min_prominence: float = 0.02,
) -> OscillationMeasurement:
    """Extract decay ratio and period from a closed-loop error trace.

    The first ``settle_fraction`` of the trace is discarded (initial
    transient), peaks of the error are located, and the decay ratio is the
    geometric mean of successive peak-amplitude ratios.  Fewer than three
    peaks means the response is overdamped: decay ratio 0.
    """
    start = int(len(errors) * settle_fraction)
    tail_t = np.asarray(times)[start:]
    tail_e = np.asarray(errors)[start:]
    peak_idx = find_peaks(tail_e, min_prominence)
    if len(peak_idx) < 3:
        return OscillationMeasurement(decay_ratio=0.0, period_s=0.0, n_peaks=len(peak_idx))
    amplitudes = tail_e[peak_idx]
    positive = amplitudes > 0.0
    if np.count_nonzero(positive) < 3:
        return OscillationMeasurement(decay_ratio=0.0, period_s=0.0, n_peaks=len(peak_idx))
    amps = amplitudes[positive]
    peak_times = tail_t[peak_idx][positive]
    ratios = amps[1:] / amps[:-1]
    decay = float(np.exp(np.mean(np.log(ratios))))
    period = float(np.mean(np.diff(peak_times)))
    return OscillationMeasurement(
        decay_ratio=decay, period_s=period, n_peaks=int(np.count_nonzero(positive))
    )


class _Unmeasured(Exception):
    """The replayed search reached a gain no round has measured yet.

    ``gains`` is the next round's share for this region: the gain the
    search needs now plus every gain it may need within the round.
    """

    def __init__(self, gains: list[float]) -> None:
        super().__init__(gains)
        self.gains = gains


def _doublings(kp: float, count: int) -> list[float]:
    """The doubling phase's gains: ``kp, 2 kp, 4 kp, ...``."""
    gains = []
    for _ in range(count):
        gains.append(kp)
        kp *= 2.0
    return gains


def _halvings(kp: float, count: int) -> list[float]:
    """The halving phase's gains: ``kp, kp / 2, kp / 4, ...``."""
    gains = []
    for _ in range(count):
        gains.append(kp)
        kp /= 2.0
    return gains


def _midpoints(kp_low: float, kp_high: float, levels: int) -> list[float]:
    """Every midpoint the next ``levels`` bisection steps can visit."""
    if levels == 0:
        return []
    mid = 0.5 * (kp_low + kp_high)
    return (
        [mid]
        + _midpoints(kp_low, mid, levels - 1)
        + _midpoints(mid, kp_high, levels - 1)
    )


def _replay_search(
    kp: float,
    measured: dict[float, OscillationMeasurement],
    sustained_threshold: float,
    fan_speed_rpm: float,
    max_doublings: int,
    bisection_steps: int,
) -> float:
    """The sequential Ku search over measured experiments; returns Ku.

    Raises :class:`_Unmeasured` at the first gain not in ``measured``,
    naming the gains of the next round for the phase it stopped in.
    """

    def unstable(gain: float, speculate: Callable[[], list[float]]) -> bool:
        found = measured.get(gain)
        if found is None:
            raise _Unmeasured(speculate())
        return found.decay_ratio >= sustained_threshold

    kp0 = kp
    # Grow until unstable.
    kp_low = 0.0
    kp_high = None
    for _ in range(max_doublings):
        if unstable(kp, lambda: _doublings(kp0, max_doublings)):
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
        while unstable(kp_low, lambda: _halvings(kp_low, max_doublings)):
            kp_high = kp_low
            kp_low /= 2.0
            if kp_low < _MIN_GAIN:
                raise TuningError("loop appears unstable at arbitrarily small gain")

    for level in range(bisection_steps):
        mid = 0.5 * (kp_low + kp_high)
        levels = min(_ROUND_LEVELS, bisection_steps - level)
        if unstable(mid, lambda: _midpoints(kp_low, kp_high, levels)):
            kp_high = mid
        else:
            kp_low = mid
    return kp_high


def _ultimate_gains(
    config: ServerConfig,
    speeds_rpm: Sequence[float],
    utilization: float,
    sustained_threshold: float = 0.97,
    max_doublings: int = 12,
    bisection_steps: int = 10,
    duration_s: float = 2400.0,
    quantized: bool = False,
) -> list[UltimateGain]:
    """(Ku, Pu) for each operating point, searched in lockstep rounds.

    A region's failure is raised only after every region is resolved,
    and the first failing region in ``speeds_rpm`` order wins, as if the
    regions had been searched one after another.
    """
    steady = ServerThermalModel(config).steady_state
    outcomes: list[UltimateGain | TuningError | None] = []
    first_guess: dict[int, float] = {}
    for i, speed in enumerate(speeds_rpm):
        slope = steady.junction_slope_per_rpm(utilization, speed)
        if slope == 0.0:
            outcomes.append(
                TuningError("plant has zero sensitivity at this operating point")
            )
        else:
            outcomes.append(None)
            first_guess[i] = 1.0 / abs(slope)
    measured: dict[int, dict[float, OscillationMeasurement]] = {
        i: {} for i in first_guess
    }
    while True:
        pending: dict[int, list[float]] = {}
        for i, kp in first_guess.items():
            if outcomes[i] is not None:
                continue
            try:
                ku = _replay_search(
                    kp,
                    measured[i],
                    sustained_threshold,
                    speeds_rpm[i],
                    max_doublings,
                    bisection_steps,
                )
            except _Unmeasured as more:
                pending[i] = more.gains
                continue
            except TuningError as error:
                outcomes[i] = error
                continue
            period = measured[i][ku].period_s
            outcomes[i] = (
                UltimateGain(ku=ku, pu_s=period)
                if period > 0.0
                else TuningError("boundary gain produced no measurable period")
            )
        if not pending:
            break
        rows = [(i, gain) for i, gains in pending.items() for gain in gains]
        times, errors = _p_only_rows(
            config,
            [speeds_rpm[i] for i, _ in rows],
            [gain for _, gain in rows],
            utilization,
            duration_s=duration_s,
            dt_s=1.0,
            perturbation_c=2.0,
            quantized=quantized,
        )
        for (i, gain), trace in zip(rows, errors):
            measured[i][gain] = measure_oscillation(times, trace)
    for outcome in outcomes:
        if isinstance(outcome, TuningError):
            raise outcome
    return outcomes


def find_ultimate_gain(
    config: ServerConfig,
    fan_speed_rpm: float,
    utilization: float = 0.4,
    sustained_threshold: float = 0.97,
    max_doublings: int = 12,
    bisection_steps: int = 10,
    duration_s: float = 2400.0,
    quantized: bool = False,
) -> UltimateGain:
    """Search for (Ku, Pu) at one operating point by bisection.

    The initial proportional-gain guess targets unity static loop gain
    (``1 / |dTj/dV|``); it is doubled until the loop's decay ratio reaches
    ``sustained_threshold`` (unstable side), then bisected against the
    last stable gain.  ``Pu`` is measured at the found boundary gain.
    The experiments run in lockstep rounds (see the module docstring).

    Raises :class:`TuningError` if no oscillation can be provoked (e.g.
    the fan saturates before the loop destabilizes).
    """
    return _ultimate_gains(
        config,
        [fan_speed_rpm],
        utilization,
        sustained_threshold,
        max_doublings,
        bisection_steps,
        duration_s,
        quantized,
    )[0]


def tune_region(
    config: ServerConfig,
    fan_speed_rpm: float,
    utilization: float = 0.4,
    rule: ZieglerNicholsRule = ZieglerNicholsRule.NO_OVERSHOOT,
) -> GainRegion:
    """Tune one operating region end-to-end (Ku/Pu search + ZN rule).

    The default rule is the no-overshoot variant (``KP = 0.2 Ku``): with a
    1 degC LSB the controller must satisfy the capture bound
    ``KP * T_Q <= deadband width in rpm`` or it hops across the Eqn 10
    hold window forever, and the classic 0.6-Ku rule violates that bound
    by ~3x on this plant.  The SASO tuning freedom the
    paper invokes [9], [21] explicitly covers choosing the variant.
    """
    ultimate = find_ultimate_gain(config, fan_speed_rpm, utilization)
    return _region(fan_speed_rpm, ultimate, rule)


def _region(
    fan_speed_rpm: float, ultimate: UltimateGain, rule: ZieglerNicholsRule
) -> GainRegion:
    gains = ziegler_nichols_gains(ultimate.ku, ultimate.pu_s, rule)
    return GainRegion(ref_speed_rpm=fan_speed_rpm, gains=gains)


#: The paper's two tuned regions (Section IV-B: "two regions, i.e., 2000
#: and 6000 rpm, are enough to linearize the relationship within 5% error").
DEFAULT_REGION_SPEEDS_RPM = (2000.0, 6000.0)


@lru_cache(maxsize=8)
def default_gain_schedule(
    config: ServerConfig | None = None,
    region_speeds_rpm: tuple[float, ...] = DEFAULT_REGION_SPEEDS_RPM,
    utilization: float = 0.4,
    rule: ZieglerNicholsRule = ZieglerNicholsRule.NO_OVERSHOOT,
) -> GainSchedule:
    """Tuned gain schedule for the Table I server (cached).

    Runs the full Ziegler-Nichols pipeline once per (config, regions)
    combination, all regions sharing each lockstep round; the frozen
    config dataclasses make the cache key exact.
    """
    cfg = config or ServerConfig()
    ultimates = _ultimate_gains(cfg, region_speeds_rpm, utilization)
    return GainSchedule(
        [
            _region(speed, ultimate, rule)
            for speed, ultimate in zip(region_speeds_rpm, ultimates)
        ]
    )
