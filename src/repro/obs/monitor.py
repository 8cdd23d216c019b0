"""Streaming health monitors and the incident layer (``repro.obs.monitor``).

The PR 5 watchdog only catches the degenerate NaN sensor failure; this
module adds the continuous health evaluation ROADMAP item 4 asks for:
detectors that ride the :class:`~repro.obs.ObsCollector` cadence and
evaluate per-server / per-rack rules *during* the run, emitting
severity-tagged incident records with onset/clear times.

Detector taxonomy
-----------------

========================  ========  ======================================
detector                  severity  fires when
========================  ========  ======================================
``tmeas_margin``          critical  measured junction within
                                    ``tmeas_margin_c`` of the critical
                                    limit
``fan_saturation``        warning   commanded fan >= ``fan_sat_fraction``
                                    of max for ``fan_sat_dwell_s``
``supply_margin``         warning   rack supply air (asymptotic CRAC
                                    setpoint + active brownout forcing)
                                    within ``supply_margin_c`` of the
                                    room inlet limit
``stuck_sensor``          critical  reading bit-identical for
                                    ``stuck_periods`` fan periods while
                                    applied utilization moved by at least
                                    ``stuck_min_util_delta``
``sensor_drift``          warning   fast/slow EWMA residual on the
                                    measurement exceeds
                                    ``drift_residual_c`` while applied
                                    utilization is steady
========================  ========  ======================================

The cardinal rule is inherited from PR 6 and is *hard*: monitors read
channel values the simulation already produced, never mutate simulator
state, and never draw randomness.  A monitored run is bit-for-bit
identical to a bare run on every lane.

Cross-lane incident identity
----------------------------

Detectors consume only the decision channels the tier-B backend
contract pins **exactly** across scalar / vectorized / fused (measured
temperature, commanded fan, applied utilization; see docs/backends.md).
The batch lanes cast array entries to python floats and run the very
same per-server update code as the scalar lane, so the incident list is
identical -- not merely close -- whichever backend produced the run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.errors import ObsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (collector -> config)
    from repro.faults.events import FaultSchedule
    from repro.obs.collector import ObsCollector

__all__ = [
    "SEVERITIES",
    "MonitorConfig",
    "HealthMonitor",
    "arm_run_monitor",
    "score_detections",
]

#: Incident severities, mildest first.
SEVERITIES = ("warning", "critical")

#: Fault-schedule kinds with a dedicated detector, used by
#: :func:`score_detections` to pair seeded faults with incidents.
DETECTOR_FOR_KIND = {
    "stuck": "stuck_sensor",
    "drift": "sensor_drift",
    "crac_brownout": "supply_margin",
}

_EPS = 1e-9


def _check_positive(value: float, name: str) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ObsError(f"{name} must be finite and > 0, got {value!r}")


def _check_nonnegative(value: float, name: str) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ObsError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class MonitorConfig:
    """Health-monitor settings, carried on ``ObsConfig.monitor``.

    All fields are scalars so the config stays hashable (campaign chunk
    keys hash their ``ObsConfig``).  Thresholds default to values
    calibrated against the PR 5 seeded fault schedules: every seeded
    stuck/drift/brownout scenario is caught while the fault-free golden
    traces stay incident-free.
    """

    enabled: bool = True
    #: Detector evaluation cadence in sim seconds.  The default (5 s, a
    #: multiple of ``cpu_interval_s`` so scalar-lane samples land on
    #: control instants where a sensor reading already exists) keeps the
    #: detector sweep inside the <= 5% overhead budget the bench gates
    #: while still taking 12+ samples per detector dwell (60-90 s): the
    #: cadence adds at most one sample interval of onset latency.  Set
    #: ``1.0`` to sample every control instant.
    sample_every_s: float = 5.0
    #: ``tmeas_margin`` fires when the measured junction is within this
    #: many degC of the critical limit.
    tmeas_margin_c: float = 2.0
    #: Override for the junction limit; ``None`` arms from the
    #: controller's ``t_critical_c``.
    tmeas_limit_c: float | None = None
    #: ``fan_saturation`` considers the fan saturated at this fraction
    #: of max speed...
    fan_sat_fraction: float = 0.98
    #: ...and fires once it has dwelled there this long.
    fan_sat_dwell_s: float = 60.0
    #: ``stuck_sensor`` needs the reading frozen this many fan periods.
    stuck_periods: int = 2
    #: ...while the fast-EWMA-smoothed applied utilization moved by at
    #: least this much (a legitimately quiet - or well-regulated -
    #: server may hold one ADC code for a long time; only a *sustained*
    #: power shift guarantees a real junction crosses an LSB).
    stuck_min_util_delta: float = 0.25
    #: ``sensor_drift`` fast/slow EWMA time constants (seconds).
    drift_tau_fast_s: float = 10.0
    drift_tau_slow_s: float = 60.0
    #: Residual (fast minus slow EWMA) magnitude that flags drift.
    drift_residual_c: float = 1.5
    #: Residual must persist this long before the incident opens: a
    #: workload-transient residual decays within ~``drift_tau_slow_s``,
    #: a true calibration drift holds its residual indefinitely.
    drift_dwell_s: float = 90.0
    #: Drift checks are gated on applied utilization being steady: the
    #: fast/slow utilization EWMAs must agree within this band.
    drift_util_band: float = 0.05
    #: Suppress drift openings this long after run start: the initial
    #: thermal ramp is a genuine transient at steady utilization.
    drift_warmup_s: float = 120.0
    #: ``supply_margin`` fires when rack supply air is within this many
    #: degC of the room inlet limit.
    supply_margin_c: float = 3.0

    def __post_init__(self) -> None:
        _check_positive(self.sample_every_s, "sample_every_s")
        _check_nonnegative(self.tmeas_margin_c, "tmeas_margin_c")
        if self.tmeas_limit_c is not None and not math.isfinite(
            self.tmeas_limit_c
        ):
            raise ObsError(
                f"tmeas_limit_c must be finite, got {self.tmeas_limit_c!r}"
            )
        if not 0.0 < self.fan_sat_fraction <= 1.0:
            raise ObsError(
                "fan_sat_fraction must be in (0, 1], got "
                f"{self.fan_sat_fraction!r}"
            )
        _check_nonnegative(self.fan_sat_dwell_s, "fan_sat_dwell_s")
        if self.stuck_periods < 1:
            raise ObsError(
                f"stuck_periods must be >= 1, got {self.stuck_periods!r}"
            )
        _check_nonnegative(self.stuck_min_util_delta, "stuck_min_util_delta")
        _check_positive(self.drift_tau_fast_s, "drift_tau_fast_s")
        _check_positive(self.drift_tau_slow_s, "drift_tau_slow_s")
        if self.drift_tau_slow_s <= self.drift_tau_fast_s:
            raise ObsError(
                "drift_tau_slow_s must exceed drift_tau_fast_s, got "
                f"{self.drift_tau_slow_s!r} <= {self.drift_tau_fast_s!r}"
            )
        _check_positive(self.drift_residual_c, "drift_residual_c")
        _check_nonnegative(self.drift_dwell_s, "drift_dwell_s")
        _check_nonnegative(self.drift_util_band, "drift_util_band")
        _check_nonnegative(self.drift_warmup_s, "drift_warmup_s")
        _check_nonnegative(self.supply_margin_c, "supply_margin_c")


class _ServerDetectors:
    """One server's detector thresholds and streaming state.

    Slots keep a server's fields in one object, so a sample touches one
    record per server instead of one list per field.
    """

    __slots__ = (
        "scope",
        "tm_threshold",
        "tm_open",
        "fan_threshold",
        "fan_since",
        "fan_open",
        "util_fast",
        "util_slow",
        "ring",
        "stuck_hold",
        "stuck_last",
        "stuck_since",
        "stuck_umin",
        "stuck_umax",
        "stuck_open",
        "drift_fast",
        "drift_slow",
        "drift_since",
        "drift_open",
    )

    def __init__(
        self,
        *,
        scope: str,
        tm_threshold: float,
        fan_threshold: float,
        stuck_hold: float,
        stuck_since: float,
        ring_depth: int,
    ) -> None:
        self.scope = scope
        self.tm_threshold = tm_threshold
        self.tm_open: dict | None = None
        self.fan_threshold = fan_threshold
        self.fan_since: float | None = None
        self.fan_open: dict | None = None
        self.util_fast: float | None = None
        self.util_slow = 0.0
        # Fast-EWMA history one lag deep, oldest first, seeded with None.
        self.ring: deque[float | None] = deque(
            [None] * ring_depth, maxlen=ring_depth
        )
        self.stuck_hold = stuck_hold
        self.stuck_last: float | None = None
        self.stuck_since = stuck_since
        self.stuck_umin = 0.0
        self.stuck_umax = 0.0
        self.stuck_open: dict | None = None
        self.drift_fast: float | None = None
        self.drift_slow = 0.0
        self.drift_since: float | None = None
        self.drift_open: dict | None = None


class HealthMonitor:
    """Per-run streaming detector state machine.

    Simulators arm one monitor per run (:func:`arm_run_monitor`), feed
    it one sample per server at each due instant, then ``commit`` the
    sample to run rack-scope checks and advance the cadence.  Scalar
    lanes call :meth:`sample_server` per stepper and let the *last*
    stepper commit.  Batch lanes :meth:`hold` each due sample, which
    advances the cadence at once, and sweep the held samples once per
    chunk (:meth:`flush`, which the collector also calls before every
    snapshot): :meth:`ingest_batch` runs every server in index order,
    then the rack checks, sample by sample -- the same incident append
    order either way.
    """

    def __init__(
        self,
        config: MonitorConfig,
        *,
        limits_c: Sequence[float],
        fan_max_rpm: Sequence[float],
        fan_interval_s: Sequence[float],
        start_s: float,
        label: str = "",
        sensor_lag_s: Sequence[float] | None = None,
        rack_supplies: Sequence[tuple[float, tuple]] = (),
        inlet_limit_c: float | None = None,
    ) -> None:
        n = len(limits_c)
        if len(fan_max_rpm) != n or len(fan_interval_s) != n:
            raise ObsError(
                "limits_c, fan_max_rpm and fan_interval_s must have one "
                f"entry per server, got {n}/{len(fan_max_rpm)}/"
                f"{len(fan_interval_s)}"
            )
        self._cfg = config
        self._n = n
        self._label = label
        self._collector: ObsCollector | None = None
        self.incidents: list[dict] = []
        self.next_due_s = start_s + config.sample_every_s
        self._every = config.sample_every_s
        # Batch-lane samples held for the next flush: their instants and
        # one (tmeas, fan, applied) row of 3n floats each.
        self._held_t: list[float] = []
        self._held: list[Any] = []

        # Lag alignment for the stuck gate: the reading reflects the
        # junction ``lag_s`` ago, so "power moved while frozen" must
        # look at utilization over the *same* delayed horizon - after a
        # workload step, applied power moves a full transport lag before
        # the measurement may legitimately respond.  Each server keeps a
        # ring of fast-EWMA values one lag deep; the gate consumes the
        # oldest entry.
        if sensor_lag_s is None:
            sensor_lag_s = [0.0] * n
        limit = config.tmeas_limit_c
        self._servers = [
            _ServerDetectors(
                scope=f"server:{i}",
                tm_threshold=(
                    limit if limit is not None else limits_c[i]
                ) - config.tmeas_margin_c,
                fan_threshold=config.fan_sat_fraction * fan_max_rpm[i],
                stuck_hold=config.stuck_periods * fan_interval_s[i],
                stuck_since=start_s,
                ring_depth=1 + max(
                    0, int(math.ceil(sensor_lag_s[i] / config.sample_every_s))
                ),
            )
            for i in range(n)
        ]

        # EWMA smoothing factors for one detector sample interval and
        # the per-sample thresholds, as one tuple: the detector sweep is
        # the subsystem's hot path (every server, every due instant) and
        # binds them all with one unpack.
        self._sweep_constants = (
            min(1.0, config.sample_every_s / config.drift_tau_fast_s),
            min(1.0, config.sample_every_s / config.drift_tau_slow_s),
            config.fan_sat_dwell_s,
            config.stuck_min_util_delta,
            config.drift_util_band,
            config.drift_residual_c,
            config.drift_dwell_s,
            start_s + config.drift_warmup_s,
        )

        # Rack-scope supply checks: (base_supply_c, brownout windows).
        # Windows are (start_s, end_s, magnitude) triples taken from the
        # fault schedule at arm time; evaluating the asymptotic supply
        # (base + active forcing) keeps the check lane-independent --
        # the RC transient lives in the room coupling, not here.
        self._racks = [
            (float(base), tuple(windows)) for base, windows in rack_supplies
        ]
        self._sup_open: list[dict | None] = [None] * len(self._racks)
        self._sup_threshold = None
        if self._racks:
            if inlet_limit_c is None:
                raise ObsError(
                    "rack supply monitoring needs the room inlet limit"
                )
            self._sup_threshold = inlet_limit_c - config.supply_margin_c

    # -- wiring ---------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return self._n

    def bind(self, collector: ObsCollector) -> None:
        """Route opened incidents into *collector* (sinks, spans, list)."""
        self._collector = collector

    # -- incident lifecycle --------------------------------------------

    def _open(
        self, detector: str, severity: str, scope: str, t: float, value: float
    ) -> dict:
        incident = {
            "detector": detector,
            "severity": severity,
            "scope": scope,
            "onset_s": t,
            "clear_s": None,
            "value": value,
            "run": self._label,
        }
        self.incidents.append(incident)
        if self._collector is not None:
            self._collector.record_incident(incident)
        return incident

    @staticmethod
    def _close(incident: dict, t: float) -> None:
        incident["clear_s"] = t

    # -- per-sample detector updates -----------------------------------

    def sample_server(
        self,
        t: float,
        i: int,
        tmeas_c: float,
        fan_cmd_rpm: float,
        applied_util: float,
    ) -> None:
        """Run every per-server detector on one sample.

        Pure float arithmetic on already-produced channel values; the
        batch lanes feed the exact same code via :meth:`ingest_batch`.
        """
        self._sample_rows(
            t, ((self._servers[i], tmeas_c, fan_cmd_rpm, applied_util),)
        )

    def _sample_rows(
        self,
        t: float,
        rows: Iterable[tuple[_ServerDetectors, float, float, float]],
    ) -> None:
        """The per-server detectors over ``(server, tmeas, fan, util)`` rows.

        Rows run in the order given.  This is the subsystem's hot path
        (every server, every due instant): each server's state sits in
        one slotted record, and the shared thresholds are bound to
        locals once per call.
        """
        open_, close = self._open, self._close
        (
            alpha_fast,
            alpha_slow,
            sat_dwell,
            stuck_delta,
            drift_band,
            drift_thresh,
            drift_dwell,
            drift_armed_s,
        ) = self._sweep_constants
        isfinite, eps = math.isfinite, _EPS
        for s, tmeas_c, fan_cmd_rpm, applied_util in rows:
            finite = isfinite(tmeas_c)

            # tmeas margin to the critical limit.
            inc = s.tm_open
            if finite and tmeas_c >= s.tm_threshold:
                if inc is None:
                    s.tm_open = open_(
                        "tmeas_margin", "critical", s.scope, t, tmeas_c
                    )
            elif inc is not None:
                close(inc, t)
                s.tm_open = None

            # Fan saturation dwell.
            if fan_cmd_rpm >= s.fan_threshold:
                since = s.fan_since
                if since is None:
                    s.fan_since = since = t
                if s.fan_open is None and t - since + eps >= sat_dwell:
                    s.fan_open = open_(
                        "fan_saturation", "warning", s.scope, t, fan_cmd_rpm
                    )
            else:
                s.fan_since = None
                inc = s.fan_open
                if inc is not None:
                    close(inc, t)
                    s.fan_open = None

            # Utilization EWMAs, shared by the stuck gate (fast) and the
            # drift gate (fast vs slow): thermal inertia filters brief
            # spikes, so detectors reason about *sustained* power
            # movement.
            uf = s.util_fast
            if uf is None:
                uf = us = applied_util
            else:
                uf = uf + alpha_fast * (applied_util - uf)
                us = s.util_slow
                us = us + alpha_slow * (applied_util - us)
            s.util_fast = uf
            s.util_slow = us
            # The ring's oldest entry is the fast EWMA one lag ago.
            # During the first ``depth`` samples it is still the None
            # seed and the current value stands in - harmless, because
            # the stuck hold (>= one fan period) cannot elapse that
            # early in a run.
            ring = s.ring
            uf_lag = ring[0]
            ring.append(uf)
            if uf_lag is None:
                uf_lag = uf

            if not finite:
                # A non-finite reading restarts the stuck tracker, and a
                # NaN sample would poison the drift EWMAs: reset both
                # and let the watchdog own this failure mode.
                s.stuck_last = None
                inc = s.stuck_open
                if inc is not None:
                    close(inc, t)
                    s.stuck_open = None
                s.drift_fast = None
                s.drift_since = None
                inc = s.drift_open
                if inc is not None:
                    close(inc, t)
                    s.drift_open = None
                continue

            # Stuck-at: reading bit-identical over multiple fan periods
            # while *smoothed* utilization moved.  Exact float equality
            # on purpose - the quantized reading is the channel being
            # tested.  The gate uses the fast EWMA's excursion, not raw
            # min/max: a regulated server under a bursty workload holds
            # one ADC code for minutes while instantaneous power spikes
            # (the plant's thermal mass filters them), but a *sustained*
            # shift of ``stuck_min_util_delta`` must move a real
            # junction past one LSB between 30 s fan corrections.  The
            # excursion is evaluated on the *lag-delayed* EWMA
            # (``uf_lag``): the reading at t reflects the junction
            # ``lag_s`` earlier, so power that moved within the last
            # transport lag cannot yet show up in a healthy measurement
            # and must not count against it.
            if tmeas_c != s.stuck_last:
                s.stuck_last = tmeas_c
                s.stuck_since = t
                s.stuck_umin = uf_lag
                s.stuck_umax = uf_lag
                inc = s.stuck_open
                if inc is not None:
                    close(inc, t)
                    s.stuck_open = None
            else:
                # umin <= umax, so at most one bound moves.
                if uf_lag < s.stuck_umin:
                    s.stuck_umin = uf_lag
                elif uf_lag > s.stuck_umax:
                    s.stuck_umax = uf_lag
                if (
                    s.stuck_open is None
                    and t - s.stuck_since + eps >= s.stuck_hold
                    and s.stuck_umax - s.stuck_umin >= stuck_delta
                ):
                    s.stuck_open = open_(
                        "stuck_sensor", "critical", s.scope, t, tmeas_c
                    )

            # Drift: fast/slow EWMA residual, gated on steady utilization.
            ef = s.drift_fast
            if ef is None:
                s.drift_fast = tmeas_c
                s.drift_slow = tmeas_c
                residual = 0.0
            else:
                ef = ef + alpha_fast * (tmeas_c - ef)
                s.drift_fast = ef
                es = s.drift_slow
                es = es + alpha_slow * (tmeas_c - es)
                s.drift_slow = es
                residual = ef - es
            if abs(uf - us) <= drift_band and abs(residual) >= drift_thresh:
                since = s.drift_since
                if since is None:
                    s.drift_since = since = t
                if (
                    s.drift_open is None
                    and t >= drift_armed_s
                    and t - since + eps >= drift_dwell
                ):
                    s.drift_open = open_(
                        "sensor_drift", "warning", s.scope, t, residual
                    )
            else:
                s.drift_since = None
                inc = s.drift_open
                if inc is not None:
                    close(inc, t)
                    s.drift_open = None

    def commit(self, t: float) -> None:
        """Finish the sample at *t*: rack checks, then advance the cadence."""
        self._check_racks(t)
        self._advance(t)

    def _check_racks(self, t: float) -> None:
        """The rack-scope supply checks of the sample at *t*."""
        threshold = self._sup_threshold
        if threshold is None:
            return
        for r, (base, windows) in enumerate(self._racks):
            supply = base
            for start_s, end_s, magnitude in windows:
                if start_s <= t + _EPS < end_s:
                    supply += magnitude
            inc = self._sup_open[r]
            if supply >= threshold:
                if inc is None:
                    self._sup_open[r] = self._open(
                        "supply_margin", "warning", f"rack:{r}", t, supply
                    )
            elif inc is not None:
                self._close(inc, t)
                self._sup_open[r] = None

    def _advance(self, t: float) -> None:
        """Move the next due instant past *t*, one chained add per period."""
        due = self.next_due_s
        t_plus = t + _EPS
        while due <= t_plus:
            due += self._every
        self.next_due_s = due

    def hold(self, t: float, tmeas, fan_cmd, applied) -> None:
        """Batch-lane sample at a due instant, swept at the next :meth:`flush`.

        Copies the three ``(n,)`` decision channels and advances the
        cadence now, with :meth:`commit`'s float chain, so the next due
        instant is known before the detectors run.
        """
        self._held_t.append(t)
        self._held.append(np.concatenate((tmeas, fan_cmd, applied)))
        self._advance(t)

    def flush(self) -> None:
        """Sweep the held samples in sample order (:meth:`ingest_batch`).

        Batch lanes call this at every chunk end, and the collector
        before every snapshot, so streamed records see each sample taken
        up to their instant.
        """
        if self._held_t:
            times, rows = self._held_t, np.array(self._held)
            self._held_t, self._held = [], []
            n = self._n
            self.ingest_batch(
                times, rows[:, :n], rows[:, n : 2 * n], rows[:, 2 * n :]
            )

    def ingest_batch(self, times, tmeas, fan_cmd, applied) -> None:
        """Batch-lane detector sweep over ``(k, n)`` rows sampled at *times*.

        Runs each sample in order: every server in index order, then the
        rack checks -- :meth:`sample_server` plus :meth:`commit` without
        the cadence, which :meth:`hold` already advanced.  Array entries
        are converted to python floats (``tolist`` - one bulk conversion
        per channel, not ``k * n`` scalar indexings) so the detector
        arithmetic is bitwise-identical to the scalar lane, and the
        detector records stay cache-hot across the samples.
        """
        servers = self._servers
        for t, tm, fan, util in zip(
            times, tmeas.tolist(), fan_cmd.tolist(), applied.tolist()
        ):
            self._sample_rows(t, zip(servers, tm, fan, util))
            self._check_racks(t)


def _controller_interval(controller: Any, name: str, default: float) -> float:
    control = getattr(controller, "control", None)
    if control is None:
        return default
    return float(getattr(control, name, default))


def _supply_windows(
    schedule: FaultSchedule | None, room: Any
) -> list[tuple[float, tuple]]:
    """Per-rack (base supply, brownout windows) from room topology."""
    if room is None:
        return []
    supplies = room.supply_temperatures_c()
    windows: list[list[tuple[float, float, float]]] = [
        [] for _ in range(room.n_racks)
    ]
    if schedule is not None:
        cracs = room.cracs
        for event in schedule.events_of("crac_brownout"):
            if event.server >= len(cracs):
                continue
            span = (event.start_s, event.end_s, event.magnitude)
            for rack_index in cracs[event.server].racks:
                windows[rack_index].append(span)
    return [
        (float(supplies[r]), tuple(windows[r])) for r in range(room.n_racks)
    ]


def arm_run_monitor(
    obs: Any,
    *,
    plants: Sequence[Any],
    controllers: Sequence[Any],
    start_s: float,
    label: str = "",
    sensors: Sequence[Any] | None = None,
    schedule: FaultSchedule | None = None,
    room: Any = None,
    inlet_limit_c: float | None = None,
) -> HealthMonitor | None:
    """Build and bind this run's monitor from the collector's config.

    Called by every simulator right after ``arm_stream``.  Always
    (re)assigns ``obs.monitor`` so a collector reused across runs never
    carries a stale monitor into an unmonitored run.  Returns the
    monitor (or ``None`` when monitoring is not configured).
    """
    if obs is None:
        return None
    config = getattr(obs.config, "monitor", None)
    if config is None or not config.enabled:
        obs.monitor = None
        return None
    limits = [
        config.tmeas_limit_c
        if config.tmeas_limit_c is not None
        else float(controller.control.t_critical_c)
        for controller in controllers
    ]
    fan_max = [float(plant.config.fan.max_speed_rpm) for plant in plants]
    fan_interval = [
        _controller_interval(controller, "fan_interval_s", 30.0)
        for controller in controllers
    ]
    lags = None
    if sensors is not None:
        lags = [
            float(getattr(getattr(s, "config", None), "lag_s", 0.0))
            for s in sensors
        ]
    monitor = HealthMonitor(
        config,
        limits_c=limits,
        fan_max_rpm=fan_max,
        fan_interval_s=fan_interval,
        start_s=start_s,
        label=label,
        sensor_lag_s=lags,
        rack_supplies=_supply_windows(schedule, room),
        inlet_limit_c=inlet_limit_c,
    )
    obs.arm_monitor(monitor)
    return monitor


def score_detections(
    incidents: Iterable[dict],
    schedule: FaultSchedule,
    *,
    grace_s: float = 60.0,
) -> dict:
    """Score a run's incidents against its seeded fault schedule.

    Pairs each scheduled fault that has a dedicated detector (see
    ``DETECTOR_FOR_KIND``) with the earliest matching incident at or
    after its onset, recording the detection latency.  Incidents from
    those detectors that fall outside every scheduled window (plus
    *grace_s* for dwell/transport lag) count as false positives.
    """
    incidents = list(incidents)
    events = []
    scored_detectors = set(DETECTOR_FOR_KIND.values())
    for event in schedule.events:
        detector = DETECTOR_FOR_KIND.get(event.kind)
        if detector is None:
            continue
        scope_prefix = (
            "rack:" if event.kind == "crac_brownout" else f"server:{event.server}"
        )
        matched = None
        for incident in incidents:
            if incident["detector"] != detector:
                continue
            if not incident["scope"].startswith(scope_prefix):
                continue
            onset = incident["onset_s"]
            if onset + _EPS < event.start_s:
                continue
            if matched is None or onset < matched["onset_s"]:
                matched = incident
        events.append(
            {
                "kind": event.kind,
                "index": event.server,
                "start_s": event.start_s,
                "detector": detector,
                "detected": matched is not None,
                "latency_s": (
                    None
                    if matched is None
                    else matched["onset_s"] - event.start_s
                ),
            }
        )
    false_positives = []
    for incident in incidents:
        if incident["detector"] not in scored_detectors:
            continue
        onset = incident["onset_s"]
        explained = False
        for event in schedule.events:
            if DETECTOR_FOR_KIND.get(event.kind) != incident["detector"]:
                continue
            if event.start_s - _EPS <= onset < event.end_s + grace_s:
                explained = True
                break
        if not explained:
            false_positives.append(incident)
    latencies = [e["latency_s"] for e in events if e["latency_s"] is not None]
    return {
        "events": events,
        "detected": sum(1 for e in events if e["detected"]),
        "missed": [e for e in events if not e["detected"]],
        "false_positives": false_positives,
        "max_latency_s": max(latencies) if latencies else None,
    }
