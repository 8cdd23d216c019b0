"""Output checks for lane runs, built on the public ``repro.obs.diff``.

Two tiers, as ``docs/backends.md`` defines them:

* ``"A"`` - bit-for-bit: every telemetry channel, energy total and
  performance summary identical (scalar vs vectorized, and any lane vs
  an earlier run of itself).
* ``"B"`` - fused vs vectorized: decision channels identical, thermal
  channels within 1e-9 degC, energies within a relative 1e-11, room
  CRAC energy within a relative 1e-9.

Every function returns ``None`` when the outputs agree and a one-line
description of the first mismatch otherwise.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.obs.diff import DECISION_CHANNELS, diff_results

#: Tier-B bounds from docs/backends.md.
THERMAL_ATOL_C = 1e-9
ENERGY_RTOL = 1e-11
CRAC_ENERGY_RTOL = 1e-9
THERMAL_CHANNELS = ("junction", "heatsink")


def _close(a: float, b: float, tier: str, rtol: float = 0.0, atol: float = 0.0) -> bool:
    if tier == "A":
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def summary_tolerance(key: str) -> dict[str, float]:
    """Tier-B tolerance for one headline-summary key."""
    if "energy" in key:
        return {"rtol": CRAC_ENERGY_RTOL if "crac" in key else ENERGY_RTOL}
    if any(word in key for word in ("junction", "spread", "inlet", "supply")):
        return {"atol": THERMAL_ATOL_C}
    return {}


def compare_summaries(a: dict, b: dict, tier: str, where: str = "") -> str | None:
    """Flat ``summary()`` dicts: same keys, values within the tier."""
    if a.keys() != b.keys():
        return f"{where}summary keys differ: {sorted(a)} vs {sorted(b)}"
    for key in a:
        if not _close(float(a[key]), float(b[key]), tier, **summary_tolerance(key)):
            return f"{where}summary {key!r}: {a[key]!r} != {b[key]!r}"
    return None


def compare_servers(a: Sequence[Any], b: Sequence[Any], tier: str) -> str | None:
    """Per-server :class:`~repro.sim.result.SimulationResult` lists."""
    if len(a) != len(b):
        return f"server counts differ: {len(a)} vs {len(b)}"
    for i, (ra, rb) in enumerate(zip(a, b)):
        if tier == "A":
            found = diff_results(ra, rb)
        else:
            found = diff_results(ra, rb, channels=DECISION_CHANNELS) or diff_results(
                ra, rb, channels=THERMAL_CHANNELS, atol=THERMAL_ATOL_C
            )
        if found is not None:
            return f"server {i}: {found.describe()}"
        for key in ("cpu_j", "fan_j"):
            ea, eb = getattr(ra.energy, key), getattr(rb.energy, key)
            if not _close(ea, eb, tier, rtol=ENERGY_RTOL):
                return f"server {i}: energy {key} {ea!r} != {eb!r}"
        if ra.performance != rb.performance:
            return f"server {i}: performance {ra.performance} != {rb.performance}"
    return None


def _values(a: Sequence[float], b: Sequence[float], tier: str, what: str, **tol) -> str | None:
    if len(a) != len(b):
        return f"{what}: lengths differ"
    for i, (x, y) in enumerate(zip(a, b)):
        if not _close(float(x), float(y), tier, **tol):
            return f"{what}[{i}]: {x!r} != {y!r}"
    return None


def compare_fleet(a: Any, b: Any, tier: str, where: str = "") -> str | None:
    """Two :class:`~repro.fleet.result.FleetResult` runs of one rack."""
    found = compare_servers(a.server_results, b.server_results, tier)
    if found is not None:
        return where + found
    return (
        _values(
            a.mean_inlet_c, b.mean_inlet_c, tier, where + "mean_inlet_c",
            atol=THERMAL_ATOL_C,
        )
        or compare_summaries(a.summary(), b.summary(), tier, where)
    )


def compare_room(a: Any, b: Any, tier: str) -> str | None:
    """Two :class:`~repro.room.result.RoomResult` runs of one room."""
    if len(a.rack_results) != len(b.rack_results):
        return "rack counts differ"
    for r, (ra, rb) in enumerate(zip(a.rack_results, b.rack_results)):
        found = compare_fleet(ra, rb, tier, where=f"rack {r}: ")
        if found is not None:
            return found
    if not _close(a.crac_energy_j, b.crac_energy_j, tier, rtol=CRAC_ENERGY_RTOL):
        return f"crac_energy_j {a.crac_energy_j!r} != {b.crac_energy_j!r}"
    return _values(a.supply_c, b.supply_c, tier, "supply_c", atol=THERMAL_ATOL_C)


def compare_decisions(a: Sequence[Any], b: Sequence[Any]) -> str | None:
    """Decision channels of two per-server result lists, bit for bit."""
    if len(a) != len(b):
        return f"server counts differ: {len(a)} vs {len(b)}"
    for i, (ra, rb) in enumerate(zip(a, b)):
        found = diff_results(ra, rb, channels=DECISION_CHANNELS)
        if found is not None:
            return f"server {i}: {found.describe()}"
    return None


def sane_servers(results: Sequence[Any], n_records: int, horizon_s: float) -> str | None:
    """A reference run's own plausibility: grid, finiteness, junction range."""
    for i, result in enumerate(results):
        times = result.channels["time"]
        if times.shape != (n_records,):
            return f"server {i}: {times.shape[0]} records, expected {n_records}"
        if not math.isclose(float(times[-1]), horizon_s, abs_tol=1.0):
            return f"server {i}: last record at {times[-1]} s, horizon {horizon_s} s"
        for name, values in result.channels.items():
            # tmeas is NaN while a dropout fault holds the sensor dark.
            if name != "tmeas" and not np.all(np.isfinite(values)):
                return f"server {i}: non-finite {name!r}"
        junction = result.channels["junction"]
        if not (20.0 < junction.min() and junction.max() < 130.0):
            return (
                f"server {i}: junction {junction.min():.1f}..{junction.max():.1f}"
                " degC outside 20..130"
            )
    return None
