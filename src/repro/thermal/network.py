"""General multi-node thermal RC network (HotSpot-style, ref [18]).

The two-node die/heat-sink plant in :mod:`repro.thermal.server` is what the
paper uses; this module provides the general formulation so the library can
model richer packages (spreader, per-core nodes, DIMMs sharing airflow) and
so the two-node model can be validated against an independent solver.

State equation (thermal/electrical duality)::

    C * dT/dt = -G * (T - T_amb * 1) + P(t)

with ``C`` the diagonal capacitance matrix and ``G`` the conductance
(Laplacian-like) matrix built from node-to-node and node-to-ambient
conductances.  The step update uses the exact matrix exponential via
scipy (imported on first use, so scipy stays off the package's import
path), with inputs held constant over the step:

    T(t+dt) = T_ss + expm(-C^-1 G dt) @ (T(t) - T_ss)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ThermalModelError
from repro.units import check_duration, check_positive, check_temperature

#: Propagator-cache capacity.  Fan control toggles among a handful of
#: discrete conductance levels, so a small LRU holds every working-set
#: propagator while bounding memory for conductance-sweep workloads.
_PROPAGATOR_CACHE_MAX = 32


@dataclass
class ThermalNode:
    """One node of a thermal RC network.

    ``conductance_to_ambient_w_per_k`` may be zero for internal nodes that
    only couple to other nodes.
    """

    name: str
    capacitance_j_per_k: float
    conductance_to_ambient_w_per_k: float = 0.0
    initial_temp_c: float = 25.0
    neighbors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive(self.capacitance_j_per_k, "capacitance_j_per_k")
        if self.conductance_to_ambient_w_per_k < 0.0:
            raise ThermalModelError(
                f"node {self.name!r}: ambient conductance must be >= 0"
            )
        check_temperature(self.initial_temp_c, "initial_temp_c")


class ThermalNetwork:
    """A thermal RC network solved with the exact matrix exponential.

    Parameters
    ----------
    nodes:
        Node definitions.  ``neighbors`` maps neighbor node name to the
        pairwise conductance in W/K; each edge needs to appear on only one
        endpoint (it is symmetrized internally).
    ambient_c:
        Ambient temperature (can be changed via :meth:`set_ambient`).
    """

    def __init__(self, nodes: list[ThermalNode], ambient_c: float = 25.0) -> None:
        if not nodes:
            raise ThermalModelError("a thermal network needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ThermalModelError(f"duplicate node names: {names}")
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._ambient_c = check_temperature(ambient_c, "ambient_c")

        n = len(nodes)
        capacitances = np.array([node.capacitance_j_per_k for node in nodes])
        conductance = np.zeros((n, n))
        for node in nodes:
            i = self._index[node.name]
            conductance[i, i] += node.conductance_to_ambient_w_per_k
            for other, g in node.neighbors.items():
                if other not in self._index:
                    raise ThermalModelError(
                        f"node {node.name!r} references unknown neighbor {other!r}"
                    )
                if g <= 0.0:
                    raise ThermalModelError(
                        f"edge {node.name!r}-{other!r} conductance must be > 0"
                    )
                j = self._index[other]
                if j == i:
                    raise ThermalModelError(f"node {node.name!r} links to itself")
                # Symmetrize: add the full edge once per declaration.
                conductance[i, i] += g
                conductance[j, j] += g
                conductance[i, j] -= g
                conductance[j, i] -= g

        if not any(node.conductance_to_ambient_w_per_k > 0.0 for node in nodes):
            raise ThermalModelError(
                "network has no path to ambient; temperatures would diverge"
            )
        self._capacitance = capacitances
        self._conductance = conductance
        self._ambient_coupling = np.array(
            [node.conductance_to_ambient_w_per_k for node in nodes]
        )
        self._temps = np.array([node.initial_temp_c for node in nodes], dtype=float)
        # Keyed by (dt, conductance fingerprint) so conductance changes do
        # not invalidate propagators for *other* conductance states: a
        # controller toggling among discrete fan levels reuses the expm of
        # every level it has visited.
        self._propagator_cache: OrderedDict[tuple[float, bytes], np.ndarray] = (
            OrderedDict()
        )
        self._conductance_key: bytes | None = None

    @property
    def node_names(self) -> list[str]:
        """Node names in state-vector order."""
        return list(self._names)

    @property
    def ambient_c(self) -> float:
        """Current ambient temperature."""
        return self._ambient_c

    def set_ambient(self, temp_c: float) -> None:
        """Change the ambient temperature (no cache invalidation needed)."""
        self._ambient_c = check_temperature(temp_c, "temp_c")

    def set_edge_conductance(self, a: str, b: str, conductance_w_per_k: float) -> None:
        """Update the conductance of the edge between nodes ``a`` and ``b``.

        Used to model fan-speed-dependent convection in network form.
        Invalidates cached propagators.
        """
        if conductance_w_per_k <= 0.0:
            raise ThermalModelError("edge conductance must be > 0")
        i, j = self._index[a], self._index[b]
        if i == j:
            raise ThermalModelError("cannot set a self-edge")
        old = -self._conductance[i, j]
        delta = conductance_w_per_k - old
        self._conductance[i, i] += delta
        self._conductance[j, j] += delta
        self._conductance[i, j] -= delta
        self._conductance[j, i] -= delta
        self._conductance_key = None

    def set_ambient_conductance(self, name: str, conductance_w_per_k: float) -> None:
        """Update a node's conductance to ambient.  Invalidates caches."""
        if conductance_w_per_k < 0.0:
            raise ThermalModelError("ambient conductance must be >= 0")
        i = self._index[name]
        delta = conductance_w_per_k - self._ambient_coupling[i]
        self._ambient_coupling[i] += delta
        self._conductance[i, i] += delta
        self._conductance_key = None

    def temperature_c(self, name: str) -> float:
        """Current temperature of one node."""
        return float(self._temps[self._index[name]])

    def temperatures_c(self) -> dict[str, float]:
        """Current temperatures of all nodes."""
        return {name: float(self._temps[i]) for name, i in self._index.items()}

    def steady_state_c(self, power_w: dict[str, float]) -> dict[str, float]:
        """Steady-state temperatures for a constant power injection.

        Solves ``G (T - T_amb 1) = P`` (the coupling to ambient is already
        folded into G's diagonal, with the ambient offset handled by the
        change of variables ``x = T - T_amb``).
        """
        p = self._power_vector(power_w)
        x = np.linalg.solve(self._conductance, p)
        return {
            name: float(x[i] + self._ambient_c) for name, i in self._index.items()
        }

    def step(self, dt_s: float, power_w: dict[str, float]) -> dict[str, float]:
        """Advance all nodes by ``dt_s`` with constant power injections."""
        dt = check_duration(dt_s, "dt_s")
        p = self._power_vector(power_w)
        x = self._temps - self._ambient_c
        x_ss = np.linalg.solve(self._conductance, p)
        propagator = self._propagator(dt)
        x_next = x_ss + propagator @ (x - x_ss)
        self._temps = x_next + self._ambient_c
        if not np.all(np.isfinite(self._temps)):
            raise ThermalModelError("thermal network state diverged")
        return self.temperatures_c()

    def reset(self, temps_c: dict[str, float]) -> None:
        """Force node temperatures (missing nodes keep their value)."""
        for name, value in temps_c.items():
            self._temps[self._index[name]] = check_temperature(value, name)

    def _power_vector(self, power_w: dict[str, float]) -> np.ndarray:
        p = np.zeros(len(self._names))
        for name, value in power_w.items():
            if name not in self._index:
                raise ThermalModelError(f"unknown node in power map: {name!r}")
            if value < 0.0:
                raise ThermalModelError(f"negative power injection at {name!r}")
            p[self._index[name]] = value
        return p

    def _propagator(self, dt_s: float) -> np.ndarray:
        if self._conductance_key is None:
            self._conductance_key = self._conductance.tobytes()
        key = (dt_s, self._conductance_key)
        cached = self._propagator_cache.get(key)
        if cached is None:
            from scipy.linalg import expm

            a = -self._conductance / self._capacitance[:, None]
            cached = expm(a * dt_s)
            self._propagator_cache[key] = cached
            if len(self._propagator_cache) > _PROPAGATOR_CACHE_MAX:
                self._propagator_cache.popitem(last=False)
        else:
            self._propagator_cache.move_to_end(key)
        return cached
