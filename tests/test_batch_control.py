"""Vectorized controller backend: equivalence, sync-back, and fallback.

The :class:`~repro.sim.batch_control.BatchGlobalController` contract is
bit-for-bit agreement with the scalar controller objects for every stock
DTM composition - all five Table III schemes, SSfan and E-coord
included - *including* the state it writes back after a run: a scalar
run resumed from a vectorized run must continue the exact trajectory.
Compositions it cannot represent (custom subclasses, non-stock models)
must demote only their own server to the scalar objects, with the
reason recorded in ``result.extras``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.config import ControlConfig, FleetConfig, ServerConfig
from repro.core.base import ControlInputs
from repro.core.cpu_capper import DeadzoneCpuCapper
from repro.core.ecoord import EnergyAwareCoordinator
from repro.core.global_controller import GlobalController
from repro.core.rules import RuleBasedCoordinator
from repro.core.setpoint import AdaptiveSetpoint
from repro.core.single_step import SingleStepFanScaling, SingleStepPhase
from repro.fleet import FleetSimulator, Rack, build_fleet_scenario
from repro.fleet.rack import ServerSlot
from repro.sim import (
    SCHEME_NAMES,
    BatchGlobalController,
    BatchRunSpec,
    Simulator,
    batch_controller_unsupported_reason,
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
    run_batch,
)
from repro.sim.batch_control import BatchTrackerBank
from repro.sim.scenarios import build_fan_controller
from repro.thermal.steady_state import SteadyStateServerModel
from repro.workload.performance import DeadlineTracker
from repro.workload.synthetic import NoisyWorkload, SquareWaveWorkload
from tests.test_backend_conformance import (
    ENERGY_RTOL,
    EXACT_CHANNELS,
    THERMAL_ATOL,
    THERMAL_CHANNELS,
)

_N = 4
_DUR = 90.0
_DT = 0.1
_DEC = 3

#: All Table III schemes vectorize (SSfan and E-coord included).
VECTORIZED_SCHEMES = (
    "uncoordinated",
    "ecoord",
    "rcoord",
    "rcoord_atref",
    "rcoord_atref_ssfan",
)


def _rack(scheme: str, seed: int = 11, n: int = _N):
    return build_fleet_scenario(
        "homogeneous",
        n_servers=n,
        duration_s=_DUR,
        seed=seed,
        fleet=FleetConfig(n_servers=n, recirc_fraction=0.3),
        scheme=scheme,
    )


def _assert_results_identical(a, b):
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


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
    def test_vectorized_controller_bit_for_bit(self, scheme):
        scalar = FleetSimulator(
            _rack(scheme), dt_s=_DT, record_decimation=_DEC, backend="scalar"
        ).run(_DUR)
        vectorized = FleetSimulator(
            _rack(scheme), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert vectorized.extras["controller_backend"] == "vectorized"
        assert "controller_fallbacks" not in vectorized.extras
        _assert_results_identical(scalar, vectorized)

    def test_no_scheme_falls_back(self):
        """All five Table III schemes run on the array lane (the fused
        backend's throughput targets assume zero controller fallbacks)."""
        for scheme in VECTORIZED_SCHEMES:
            result = FleetSimulator(
                _rack(scheme), dt_s=_DT, record_decimation=_DEC,
                backend="vectorized",
            ).run(_DUR)
            assert result.extras["controller_backend"] == "vectorized"
            assert "controller_fallbacks" not in result.extras


class TestMixedRack:
    def _mixed_rack(self, seed: int = 5):
        """One slot's controller is a custom subclass (cannot batch)."""
        rack = _rack("rcoord", seed=seed)
        victim = rack.slots[1]

        class TracingController(GlobalController):
            pass

        cfg = victim.plant.config
        odd = TracingController(
            control=cfg.control,
            fan_controller=victim.controller.fan_controller,
            coordinator=victim.controller.coordinator,
            cpu_capper=victim.controller.cpu_capper,
            initial_state=victim.controller.state,
        )
        slots = list(rack.slots)
        slots[1] = ServerSlot(
            name=victim.name,
            plant=victim.plant,
            sensor=victim.sensor,
            workload=victim.workload,
            controller=odd,
            inlet=victim.inlet,
        )
        return Rack(slots, coupling=rack.coupling, exhaust=rack.exhaust)

    def _mixed_rack_scalar_twin(self, seed: int = 5):
        """The same composition but with the stock class (for reference)."""
        return _rack("rcoord", seed=seed)

    def test_per_server_fallback_is_recorded_and_exact(self):
        vec = FleetSimulator(
            self._mixed_rack(), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert vec.extras["backend"] == "vectorized"
        assert vec.extras["controller_backend"] == "mixed"
        fallbacks = vec.extras["controller_fallbacks"]
        assert list(fallbacks) == ["srv01"]
        assert "TracingController" in fallbacks["srv01"]

        scalar = FleetSimulator(
            self._mixed_rack(), dt_s=_DT, record_decimation=_DEC,
            backend="scalar",
        ).run(_DUR)
        _assert_results_identical(scalar, vec)

    def test_subclass_behaves_like_stock_here(self):
        """Sanity for the fixture: the pass-through subclass changes
        nothing, so the mixed rack matches the all-stock rack too."""
        vec = FleetSimulator(
            self._mixed_rack(), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        stock = FleetSimulator(
            self._mixed_rack_scalar_twin(), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert stock.extras["controller_backend"] == "vectorized"
        _assert_results_identical(stock, vec)


class TestControllerSyncBack:
    @pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
    def test_controller_state_matches_scalar_twin(self, scheme):
        """Every piece of observable controller state written back after
        a vectorized run equals the state a scalar run leaves behind."""
        rack_s, rack_v = _rack(scheme), _rack(scheme)
        FleetSimulator(rack_s, dt_s=_DT, backend="scalar").run(_DUR)
        FleetSimulator(rack_v, dt_s=_DT, backend="vectorized").run(_DUR)
        for slot_s, slot_v in zip(rack_s, rack_v):
            cs, cv = slot_s.controller, slot_v.controller
            assert cs.state == cv.state
            assert cs.t_ref_c == cv.t_ref_c
            assert cs.next_fan_decision_s == cv.next_fan_decision_s
            assert cs.last_proposals == cv.last_proposals
            fs, fv = cs.fan_controller, cv.fan_controller
            assert fs.applied_speed_rpm == fv.applied_speed_rpm
            assert fs.region_index == fv.region_index
            assert fs.pid.gains == fv.pid.gains
            assert fs.pid.setpoint == fv.pid.setpoint
            assert fs.pid.output_offset == fv.pid.output_offset
            assert fs.pid.integral == fv.pid.integral
            assert fs.pid.prev_error == fv.pid.prev_error
            assert fs.pid.last_output == fv.pid.last_output
            gs, gv = fs.quantization_guard, fv.quantization_guard
            if gs is not None:
                assert gs.hold_count == gv.hold_count
            if isinstance(
                cs.coordinator, (RuleBasedCoordinator, EnergyAwareCoordinator)
            ):
                assert cs.coordinator.last_action == cv.coordinator.last_action
                assert (
                    cs.coordinator.action_counts == cv.coordinator.action_counts
                )
            if cs.single_step is not None:
                ss, sv = cs.single_step, cv.single_step
                assert ss.phase == sv.phase
                assert ss.periods_in_phase == sv.periods_in_phase
                assert ss.boost_count == sv.boost_count
            if cs.setpoint is not None:
                ps, pv = cs.setpoint.prediction_filter, cv.setpoint.prediction_filter
                assert ps.samples == pv.samples
                assert ps.running_sum == pv.running_sum

    def test_tracker_state_synced_back(self):
        rack_s, rack_v = _rack("rcoord"), _rack("rcoord")
        sim_s = FleetSimulator(rack_s, dt_s=_DT, backend="scalar")
        sim_v = FleetSimulator(rack_v, dt_s=_DT, backend="vectorized")
        res_s = sim_s.run(_DUR)
        res_v = sim_v.run(_DUR)
        for i in range(rack_s.n_servers):
            assert res_s.server(i).performance == res_v.server(i).performance

    @pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
    def test_scalar_resume_after_vectorized_run(self, scheme):
        """A scalar run resumed from a vectorized run's synced-back state
        must produce the same trajectory as scalar-after-scalar."""
        rack_s, rack_v = _rack(scheme), _rack(scheme)
        FleetSimulator(rack_s, dt_s=_DT, backend="scalar").run(_DUR)
        FleetSimulator(rack_v, dt_s=_DT, backend="vectorized").run(_DUR)
        resumed_s = FleetSimulator(
            rack_s, dt_s=_DT, record_decimation=_DEC, backend="scalar"
        ).run(_DUR)
        resumed_v = FleetSimulator(
            rack_v, dt_s=_DT, record_decimation=_DEC, backend="scalar"
        ).run(_DUR)
        _assert_results_identical(resumed_s, resumed_v)


def _scheme_sweep_spec(scheme: str) -> BatchRunSpec:
    cfg = ServerConfig()
    return BatchRunSpec(
        plant=build_plant(cfg),
        sensor=build_sensor(cfg, seed=7),
        workload=paper_workload(_DUR, seed=7),
        controller=build_global_controller(scheme, cfg),
        duration_s=_DUR,
        dt_s=_DT,
        record_decimation=_DEC,
        label=scheme,
    )


class TestSeededSweep:
    def test_scheme_grid_matches_scalar(self):
        """All five schemes in one run_batch grid: the vectorized lane
        equals the scalar lane bit for bit, and fused agrees within the
        tier-B bounds."""
        lanes = {
            backend: run_batch(
                [_scheme_sweep_spec(s) for s in VECTORIZED_SCHEMES], backend
            )
            for backend in ("scalar", "vectorized", "fused")
        }
        for backend, results in lanes.items():
            assert [r.extras["backend"] for r in results] == [backend] * 5
        for scheme, rs, rv, rf in zip(VECTORIZED_SCHEMES, *lanes.values()):
            for name, channel in rs.channels.items():
                assert np.array_equal(channel, rv.channels[name]), (
                    f"scheme {scheme} channel {name} diverged"
                )
            assert rs.performance == rv.performance
            assert rs.energy == rv.energy
            for name in EXACT_CHANNELS:
                assert np.array_equal(rv.channels[name], rf.channels[name]), (
                    f"scheme {scheme} fused decision channel {name} diverged"
                )
            for name in THERMAL_CHANNELS:
                drift = np.max(np.abs(rv.channels[name] - rf.channels[name]))
                assert drift < THERMAL_ATOL, f"scheme {scheme} fused {name}"
            assert rv.performance == rf.performance
            for key in ("cpu_j", "fan_j"):
                ev, ef = getattr(rv.energy, key), getattr(rf.energy, key)
                assert abs(ev - ef) <= ENERGY_RTOL * abs(ev), (
                    f"scheme {scheme} fused {key}"
                )


def _interval_pieces(cpu_interval_s: float):
    """One server whose CPU period differs from its batch peers'."""
    cfg = replace(
        ServerConfig(),
        control=ControlConfig(cpu_interval_s=cpu_interval_s, fan_interval_s=3.0),
    )
    workload = NoisyWorkload(
        SquareWaveWorkload(low=0.1, high=0.7, half_period_s=15.0),
        std=0.04,
        seed=5,
    )
    return (
        build_plant(cfg),
        build_sensor(cfg, seed=5),
        workload,
        build_global_controller("rcoord", cfg),
    )


class TestHeterogeneousCpuPeriods:
    def test_subset_control_steps_bit_for_bit(self):
        """Mixed CPU periods make fan decisions land on steps where only
        a strict subset of the batch is due; those subset steps must
        apply fan changes to the plant exactly like the scalar engine
        (regression: the whole-rack lane once aliased its fan mirror to
        the controller arrays, defeating the changed-fan detection)."""
        intervals = (1.0, 2.0)

        def spec(cpu_interval_s: float) -> BatchRunSpec:
            plant, sensor, workload, controller = _interval_pieces(
                cpu_interval_s
            )
            return BatchRunSpec(
                plant=plant,
                sensor=sensor,
                workload=workload,
                controller=controller,
                duration_s=120.0,
                dt_s=_DT,
                record_decimation=_DEC,
                label=f"cpu={cpu_interval_s:g}",
            )

        vectorized = run_batch([spec(ci) for ci in intervals])
        for i, cpu_interval_s in enumerate(intervals):
            plant, sensor, workload, controller = _interval_pieces(
                cpu_interval_s
            )
            scalar = Simulator(
                plant, sensor, workload, controller,
                dt_s=_DT, record_decimation=_DEC,
            ).run(120.0)
            for name, channel in scalar.channels.items():
                assert np.array_equal(channel, vectorized[i].channels[name]), (
                    f"cpu_interval {cpu_interval_s} channel {name} diverged"
                )
            assert scalar.performance == vectorized[i].performance
            assert scalar.energy == vectorized[i].energy


def _pin_config(fan_interval_s: float) -> ServerConfig:
    return replace(
        ServerConfig(),
        control=replace(ControlConfig(), fan_interval_s=fan_interval_s),
    )


def _pin_rows() -> list[tuple[GlobalController, DeadlineTracker]]:
    """Scalar (controller, tracker) pairs for one decision-level run.

    Every Table III scheme twice (fan periods of 3, 7 and 30 s, tracker
    windows of 10 and 4), then: SSfan without A-Tref on a short
    boost/refractory cycle; A-Tref on a 3-sample window with an SSfan
    that never triggers (zero threshold); E-coord whose fan-admission
    gate (84 degC) sits above the deadzone, so it refuses cap-downs
    between 80 and 84 degC; and rule-based and uncoordinated rows
    without a capper.  The A-Tref and the capless rule-based rows start
    with their PID reference moved off the controller's ``T_ref``, so
    the batch must keep the two apart.
    """
    rows = []
    for k, scheme in enumerate(SCHEME_NAMES * 2):
        cfg = _pin_config((3.0, 7.0, 30.0)[k % 3])
        rows.append(
            (
                build_global_controller(scheme, cfg),
                DeadlineTracker(window=(10, 4)[k % 2]),
            )
        )
    cfg = _pin_config(5.0)
    control = cfg.control
    steady = SteadyStateServerModel(cfg)

    def capper() -> DeadzoneCpuCapper:
        return DeadzoneCpuCapper(
            t_low_c=control.t_low_c,
            t_high_c=control.t_high_c,
            step=control.cap_step,
            cap_min=control.cap_min,
        )

    extras = (
        dict(
            coordinator=RuleBasedCoordinator(),
            cpu_capper=capper(),
            single_step=SingleStepFanScaling(
                steady, max_boost_periods=2, refractory_periods=4
            ),
        ),
        dict(
            coordinator=RuleBasedCoordinator(),
            cpu_capper=capper(),
            setpoint=AdaptiveSetpoint(window=3),
            single_step=SingleStepFanScaling(steady, degradation_threshold=0.0),
        ),
        dict(
            coordinator=EnergyAwareCoordinator(
                steady, t_emergency_c=85.0, t_comfort_c=control.t_low_c
            ),
            cpu_capper=capper(),
        ),
        dict(coordinator=RuleBasedCoordinator()),
        dict(),
    )
    for kwargs in extras:
        controller = GlobalController(
            control, fan_controller=build_fan_controller(cfg), **kwargs
        )
        rows.append((controller, DeadlineTracker(window=7)))
    for controller, _ in (rows[-4], rows[-2]):
        controller.fan_controller.set_reference(72.0)
    return rows


#: Decision-level runs are this many CPU periods long.
_PIN_PERIODS = 300
#: Stretch regimes as (tmeas band, demand band); a band of None draws
#: edges.  Hot stretches cut the cap and deadzone stretches hold it, so
#: saturating demand then stays above the cap for a while.
_COOL, _DEAD, _HOT = (60.0, 76.0), (76.0, 80.0), (80.0, 88.0)
_LIGHT, _MEDIUM, _SATURATING = (0.0, 0.4), (0.3, 0.8), (0.85, 1.0)
_PIN_REGIMES = (
    (_COOL, _LIGHT),
    (_COOL, _SATURATING),
    (_DEAD, _MEDIUM),
    (_DEAD, _SATURATING),
    (_HOT, _SATURATING),
    (_HOT, _SATURATING),
    (_HOT, _MEDIUM),
    (None, _MEDIUM),
    (None, _SATURATING),
)
#: Deadzone edges, the stock and raised E-coord gates.
_PIN_EDGES = (76.0, 79.0, 80.0, 84.0)
_PIN_NUDGES = (0.0, 1e-9, -1e-9, 1e-7, -1e-7)


def _raw(values) -> list:
    """Floats as their raw float64 bytes, everything else as is."""
    out = []
    for value in values:
        if isinstance(value, float):
            out.append(struct.pack("<d", value))
        elif isinstance(value, (tuple, list)):
            out.append(_raw(value))
        else:
            out.append(value)
    return out


def _synced_fields(controller: GlobalController, tracker: DeadlineTracker):
    """Every field sync-back writes, in comparable raw form."""
    fan = controller.fan_controller
    pid = fan.pid
    fields = [
        controller.state.fan_speed_rpm,
        controller.state.cpu_cap,
        controller.t_ref_c,
        controller.next_fan_decision_s,
        controller.last_proposals,
        fan.applied_speed_rpm,
        fan.region_index,
        (pid.gains.kp, pid.gains.ki, pid.gains.kd),
        pid.setpoint,
        pid.output_offset,
        pid.integral,
        pid.prev_error,
        pid.last_output,
    ]
    if fan.quantization_guard is not None:
        fields.append(fan.quantization_guard.hold_count)
    coordinator = controller.coordinator
    if isinstance(coordinator, (RuleBasedCoordinator, EnergyAwareCoordinator)):
        fields.append(coordinator.last_action)
        fields.append(tuple(coordinator.action_counts.items()))
    if controller.single_step is not None:
        ss = controller.single_step
        fields.append((ss.phase, ss.periods_in_phase, ss.boost_count))
    if controller.setpoint is not None:
        flt = controller.setpoint.prediction_filter
        fields.append((flt.samples, flt.running_sum))
    summary = tracker.summary
    fields.append(
        (
            summary.periods,
            summary.violations,
            summary.lost_utilization,
            summary.demanded_utilization,
            tracker.recent_gaps,
        )
    )
    return _raw(fields)


def _pin_run(seed: int, subset_share: float) -> dict[str, int]:
    """Drive the array controller and tracker bank against scalar twins
    period by period; returns counts of what the run exercised."""
    rng = np.random.default_rng(seed)
    scalar = _pin_rows()
    twins = _pin_rows()
    ctrl = BatchGlobalController([c for c, _ in twins])
    bank = BatchTrackerBank([tr for _, tr in twins])
    n = len(scalar)
    all_idx = np.arange(n)
    seen = {"subset_steps": 0, "active_ss_rows": 0, "ecoord_refusals": 0}
    stretch = 0
    for k in range(1, _PIN_PERIODS + 1):
        if stretch == 0:
            stretch = int(rng.integers(5, 40))
            band, demand_band = _PIN_REGIMES[int(rng.integers(len(_PIN_REGIMES)))]
        stretch -= 1
        t = float(k)
        tmeas = rng.uniform(*(band or _DEAD), n)
        # Edges: the deadzone and E-coord gates, and each row's guard
        # deadband around its current T_ref (one LSB), nudged by +-ulps.
        edgy = rng.random(n) < (0.1 if band else 0.8)
        for i in np.flatnonzero(edgy):
            edges = _PIN_EDGES + (ctrl.t_ref_c[i] - 1.0, ctrl.t_ref_c[i] + 1.0)
            tmeas[i] = edges[int(rng.integers(len(edges)))] + _PIN_NUDGES[
                int(rng.integers(len(_PIN_NUDGES)))
            ]
        demand = np.clip(rng.uniform(*demand_band, n), 0.0, 1.0)
        if rng.random() < subset_share:
            size = int(rng.integers(1, n))
            idx = np.sort(rng.choice(n, size=size, replace=False))
            seen["subset_steps"] += 1
        else:
            idx = all_idx

        cap = ctrl.cpu_cap[idx]
        bank.record(idx, demand[idx], cap)
        degradation = (
            bank.recent_degradation_all()
            if idx.size == n
            else bank.recent_degradation(idx)
        )
        ctrl.step_due(
            idx, t, tmeas[idx], np.minimum(demand[idx], cap), demand[idx],
            degradation,
        )
        for i in idx:
            controller, tracker = scalar[i]
            d = float(demand[i])
            cap_i = controller.state.cpu_cap
            tracker.record(d, cap_i)
            refusable = (
                isinstance(controller.coordinator, EnergyAwareCoordinator)
                and controller.cpu_capper.propose(t, float(tmeas[i]), cap_i) < cap_i
            )
            controller.step(
                ControlInputs(
                    time_s=t,
                    tmeas_c=float(tmeas[i]),
                    measured_util=min(d, cap_i),
                    recent_degradation=tracker.recent_degradation,
                    demand_estimate=d,
                )
            )
            if refusable and controller.state.cpu_cap == cap_i:
                seen["ecoord_refusals"] += 1
            ss = controller.single_step
            if ss is not None and ss.phase is not SingleStepPhase.INACTIVE:
                seen["active_ss_rows"] += 1

        for name, batch, scalar_values in (
            ("fan", ctrl.fan_speed_rpm, [c.state.fan_speed_rpm for c, _ in scalar]),
            ("cap", ctrl.cpu_cap, [c.state.cpu_cap for c, _ in scalar]),
            ("t_ref", ctrl.t_ref_c, [c.t_ref_c for c, _ in scalar]),
            (
                "degradation",
                bank.recent_degradation_all(),
                [tr.recent_degradation for _, tr in scalar],
            ),
        ):
            assert batch.tobytes() == np.array(scalar_values).tobytes(), (
                f"period {k}: {name} diverged"
            )

    ctrl.sync_back()
    bank.sync_back()
    for i, ((cs, ts), (cv, tv)) in enumerate(zip(scalar, twins)):
        assert _synced_fields(cs, ts) == _synced_fields(cv, tv), f"row {i}"
    seen["boosts"] = sum(
        c.single_step.boost_count for c, _ in scalar if c.single_step is not None
    )
    return seen


class TestDecisionLevelPin:
    """:class:`BatchGlobalController` and :class:`BatchTrackerBank`
    against per-row scalar twins, decision by decision, with no plant or
    sensors in the loop.  Inputs cross the deadzone edges, the guard
    deadband and the E-coord gates, and saturating demand against a
    falling cap drives SSfan through boosts, max-boost expiry and
    refractory landings, on whole-batch periods and due subsets alike.
    After every period the knobs, T_ref and the recent degradation
    match as raw float64 bytes; at the end, every synced-back field."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        subset_share=st.sampled_from((0.0, 0.3, 0.7)),
    )
    def test_decisions_match_scalar_twins(self, seed, subset_share):
        _pin_run(seed, subset_share)

    def test_pin_reaches_the_quiet_period_exits(self):
        """The generator really leaves the quiet paths: SSfan boosts and
        stays active on subset steps, and E-coord refuses cap-downs."""
        seen = _pin_run(seed=20, subset_share=0.3)
        assert seen["subset_steps"] >= 50
        assert seen["boosts"] >= 3
        assert seen["active_ss_rows"] >= 30
        assert seen["ecoord_refusals"] >= 5


class TestUnsupportedReasons:
    def test_stock_compositions_supported(self):
        for scheme in VECTORIZED_SCHEMES:
            controller = build_global_controller(scheme, ServerConfig())
            assert batch_controller_unsupported_reason(controller) is None

    def test_non_stock_models_unsupported(self):
        """SSfan/E-coord vectorize only with the stock steady-state
        model whose closed forms the array lane replays."""
        from repro.core.single_step import SingleStepFanScaling
        from repro.thermal.steady_state import SteadyStateServerModel

        class OddModel(SteadyStateServerModel):
            pass

        cfg = ServerConfig()
        base = build_global_controller("rcoord_atref_ssfan", cfg)
        odd = GlobalController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=base.coordinator,
            cpu_capper=base.cpu_capper,
            setpoint=base.setpoint,
            single_step=SingleStepFanScaling(OddModel(cfg)),
        )
        reason = batch_controller_unsupported_reason(odd)
        assert reason is not None and "SSfan model" in reason

        eco = GlobalController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=EnergyAwareCoordinator(OddModel(cfg)),
            cpu_capper=base.cpu_capper,
        )
        reason = batch_controller_unsupported_reason(eco)
        assert reason is not None and "E-coord model" in reason

    def test_subclasses_unsupported(self):
        cfg = ServerConfig()
        base = build_global_controller("rcoord", cfg)

        class OddController(GlobalController):
            pass

        odd = OddController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=base.coordinator,
        )
        reason = batch_controller_unsupported_reason(odd)
        assert reason is not None and "OddController" in reason

        class OddCapper(DeadzoneCpuCapper):
            pass

        capped = GlobalController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=base.coordinator,
            cpu_capper=OddCapper(t_low_c=76.0, t_high_c=80.0),
        )
        reason = batch_controller_unsupported_reason(capped)
        assert reason is not None and "OddCapper" in reason

    def test_fan_only_composition_supported(self):
        """No capper (Figs 3/4 wiring) still vectorizes."""
        from repro.sim.scenarios import build_fan_controller

        cfg = ServerConfig()
        controller = GlobalController(
            control=cfg.control,
            fan_controller=build_fan_controller(cfg),
        )
        assert batch_controller_unsupported_reason(controller) is None
