"""Fused-backend internals: coefficient caches and window semantics.

The fused kernel (:mod:`repro.sim.fused`) caches two things per plant
*version* - the closed-form scan coefficients (``powers``/``geom`` per
node and window width) and the plant-coefficient column views - because
:class:`~repro.sim.batch.BatchThermalPlant` mutates its coefficient
arrays **in place** (array identity never changes).  These tests pin the
version counter's bump rules, prove the fused caches go stale and
rebuild at exactly the instants fan commands or mid-run fouling faults
change the coefficients, and hold the closed-form scan to the exact
recurrence across its span edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig, ServerConfig
from repro.faults.events import FaultEvent, FaultSchedule
from repro.fleet import FleetSimulator, build_fleet_scenario
from repro.sim.backends import exp_scan_numpy, scan_tables
from repro.sim.batch import BatchThermalPlant
from repro.sim.fused import FusedStepper
from repro.thermal.server import ServerThermalModel

_DT = 0.1

#: Tier-B thermal bound (docs/backends.md), in degC.
_SCAN_ATOL = 1e-9
#: Widths above this stay one closed-form block in the property test.
_SCAN_MAX_SPAN = 2000


def _plants(n=3):
    return [ServerThermalModel(ServerConfig()) for _ in range(n)]


def _rack(scheme="rcoord_atref", n=4, seed=11, duration=60.0):
    return build_fleet_scenario(
        "homogeneous",
        n_servers=n,
        duration_s=duration,
        seed=seed,
        fleet=FleetConfig(n_servers=n, recirc_fraction=0.3),
        scheme=scheme,
    )


class TestPlantVersionCounter:
    """The monotonic counter every coefficient-derived cache keys on."""

    def test_apply_fan_speed_bumps_version(self):
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        v0 = plant.version
        plant.apply_fan_speed(0, 4000.0)
        assert plant.version == v0 + 1
        # Re-applying a cached level still counts as a coefficient write
        # (the arrays are mutated in place either way).
        plant.apply_fan_speed(0, 4000.0)
        assert plant.version == v0 + 2

    def test_set_fouling_bumps_version_and_clears_level_cache(self):
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        plant.apply_fan_speed(1, 5000.0)
        r_clean = plant.r_hs[1]
        v0 = plant.version
        plant.set_fouling(1, 0.4)
        assert plant.version == v0 + 1
        # The stale cached level must not be served after fouling: the
        # re-applied speed resolves against the fouled resistance.
        plant.apply_fan_speed(1, 5000.0)
        assert plant.r_hs[1] == pytest.approx(r_clean + 0.4)

    def test_noop_fouling_does_not_bump(self):
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        plant.set_fouling(2, 0.0)
        assert plant.version == 0

    def test_coefficient_arrays_keep_identity(self):
        """In-place mutation is the whole reason the counter exists: a
        cache keyed on array identity would never invalidate."""
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        r_hs, hs_decay = plant.r_hs, plant.hs_decay
        plant.apply_fan_speed(0, 3000.0)
        plant.set_fouling(0, 0.2)
        plant.apply_fan_speed(0, 3000.0)
        assert plant.r_hs is r_hs
        assert plant.hs_decay is hs_decay

    def test_snapshot_detaches_fan_arrays(self):
        """Copy-on-write for the fan-state mirrors the stepper holds."""
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        for i in range(3):
            plant.apply_fan_speed(i, 3000.0)
        fan_w, clamped = plant.fan_w, plant.clamped_speed
        plant.snapshot_fan_state()
        plant.apply_fan_speed(0, 8000.0)
        # The held references keep their pre-decision values.
        assert plant.fan_w is not fan_w
        assert plant.clamped_speed is not clamped
        assert clamped[0] == 3000.0
        assert plant.clamped_speed[0] == 8000.0


def _fused_stepper(rack, n_steps=600):
    slots = list(rack)
    return FusedStepper(
        plants=[s.plant for s in slots],
        sensors=[s.sensor for s in slots],
        workloads=[s.workload for s in slots],
        controllers=[s.controller for s in slots],
        n_steps=n_steps,
        dt_s=_DT,
        coupling=rack.coupling,
        exhaust=rack.exhaust,
    )


class TestFusedCoefficientCache:
    def test_cache_rebuilds_on_version_change(self):
        stepper = _fused_stepper(_rack())
        assert stepper._coeff_version == -1
        assert stepper._cols is None
        stepper.run()
        plant = stepper._plant
        # The caches were built against a live plant version.  They may
        # trail it by the run-ending control decision (fan writes land
        # *after* the last window's version check) but never by more:
        # every window start re-checks, so a stale cache survives at most
        # until the next window boundary.
        assert 0 <= stepper._coeff_version <= plant.version
        assert stepper._cols is not None
        assert stepper._coeff_cache
        # A coefficient write leaves them stale for the next window
        # check to rebuild.
        v = stepper._coeff_version
        plant.apply_fan_speed(0, 8500.0)
        assert plant.version > v

    def test_cached_columns_track_plant_arrays(self):
        """The cached column views alias the live coefficient arrays, so
        in-place writes flow through without a rebuild mid-window."""
        stepper = _fused_stepper(_rack())
        stepper.run()
        _, _, _, r_hs_col, _ = stepper._cols
        assert r_hs_col.base is stepper._plant.r_hs

    def test_mid_run_fouling_stays_equivalent(self):
        """A fouling fault mid-run changes r_hs/hs_decay in place; the
        fused lane must pick the change up at the fault instant, not
        serve a stale scan cache.  Pinned against the vectorized lane."""
        faults = FaultSchedule(
            [
                FaultEvent(
                    kind="fouling",
                    server=1,
                    start_s=20.0,
                    duration_s=25.0,
                    magnitude=0.5,
                ),
                FaultEvent(
                    kind="fan_seize", server=2, start_s=15.0, duration_s=30.0
                ),
            ]
        )
        results = {}
        for backend in ("vectorized", "fused"):
            sim = FleetSimulator(
                _rack(),
                dt_s=_DT,
                record_decimation=2,
                backend=backend,
                faults=faults,
            )
            results[backend] = sim.run(60.0)
            assert results[backend].extras["backend"] == backend
        rv, rf = results["vectorized"], results["fused"]
        assert rv.extras["faults"] == rf.extras["faults"]
        for i in range(rv.n_servers):
            sv, sf = rv.server(i), rf.server(i)
            for name in ("tmeas", "fan_speed", "cpu_cap", "applied"):
                assert np.array_equal(
                    sv.channels[name], sf.channels[name], equal_nan=True
                ), f"server {i} {name}"
            for name in ("junction", "heatsink"):
                drift = np.max(
                    np.abs(sv.channels[name] - sf.channels[name])
                )
                assert drift < 1e-9, f"server {i} {name}: {drift:.3e}"


class TestWindowSemantics:
    def test_counters_match_vectorized(self):
        """Window fusion must not change how often control/sensing run:
        the obs counters (control decisions, server steps) agree with
        the per-dt vectorized lane."""
        from repro.obs import ObsConfig

        summaries = {}
        for backend in ("vectorized", "fused"):
            sim = FleetSimulator(
                _rack(),
                dt_s=_DT,
                record_decimation=5,
                backend=backend,
                obs=ObsConfig(trace=False),
            )
            result = sim.run(60.0)
            summaries[backend] = result.extras["obs"]["counters"]
        vec, fus = summaries["vectorized"], summaries["fused"]
        assert vec["server_steps"] == fus["server_steps"]
        assert vec.get("control_steps") == fus.get("control_steps")

    def test_single_step_windows_still_work(self):
        """dt equal to the control period forces w=1 windows - the fused
        kernel degenerates to the per-dt lane and must still agree."""
        results = {}
        for backend in ("vectorized", "fused"):
            rack = build_fleet_scenario(
                "homogeneous",
                n_servers=3,
                duration_s=30.0,
                seed=3,
                fleet=FleetConfig(n_servers=3, recirc_fraction=0.2),
            )
            sim = FleetSimulator(
                rack, dt_s=1.0, record_decimation=1, backend=backend
            )
            results[backend] = sim.run(30.0)
        rv, rf = results["vectorized"], results["fused"]
        for i in range(rv.n_servers):
            sv, sf = rv.server(i), rf.server(i)
            for name in ("tmeas", "fan_speed", "cpu_cap"):
                assert np.array_equal(
                    sv.channels[name], sf.channels[name]
                ), f"server {i} {name}"
            for name in ("junction", "heatsink"):
                assert np.max(
                    np.abs(sv.channels[name] - sf.channels[name])
                ) < 1e-9


def _recurrence(x0, decay, forcing):
    """The exact per-step recurrence ``x <- s + (x - s) * a``."""
    out = np.empty_like(forcing)
    x = x0
    for c in range(forcing.shape[1]):
        s = forcing[:, c]
        x = s + (x - s) * decay
        out[:, c] = x
    return out


#: Per-row decays: exactly 0, underflowing ones, and the plant's range.
_DECAYS = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-200, 1e-310, 5e-324]),
    st.floats(min_value=0.5, max_value=0.9999999),
)


@st.composite
def _scan_case(draw):
    decay = np.array(draw(st.lists(_DECAYS, min_size=1, max_size=4)))
    # Spans past _SCAN_MAX_SPAN are one block at any width tested here.
    span = scan_tables(decay, _SCAN_MAX_SPAN)[2]
    kind = draw(st.sampled_from(["1", "span-1", "span", "span+1", "spans"]))
    if kind == "spans":
        w = draw(st.integers(2, 4)) * span + draw(st.integers(0, span - 1))
    else:
        w = {"1": 1, "span-1": span - 1, "span": span, "span+1": span + 1}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(20.0, 120.0, decay.size)
    forcing = rng.uniform(20.0, 120.0, (decay.size, max(1, w)))
    return x0, decay, forcing


class TestClosedFormScan:
    """The fused lane's scan against the exact recurrence, built from the
    stepper's own tables: single blocks and restarts past the span."""

    def test_span_edges(self):
        for a in (0.0, 1e-200, 5e-324):
            assert scan_tables(np.array([a, 0.9]), 50)[2] == 1
        # Mixed rows: the span follows the smallest decay.
        alone = scan_tables(np.array([0.5]), 100)[2]
        assert 1 < alone < 100
        assert scan_tables(np.array([0.9999999, 0.5]), 100)[2] == alone

    @settings(max_examples=60, deadline=None)
    @given(case=_scan_case())
    def test_matches_recurrence(self, case):
        x0, decay, forcing = case
        powers, geom, span = scan_tables(decay, forcing.shape[1])
        got = exp_scan_numpy(x0, forcing, powers, geom, span)
        want = _recurrence(x0, decay, forcing)
        assert np.max(np.abs(got - want)) <= _SCAN_ATOL
