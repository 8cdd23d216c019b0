"""Inter-server thermal coupling: exhaust rise and recirculation mixing.

A rack couples its servers through the air: every server dumps its total
power into its airstream (exhaust temperature rise above inlet), and a
fraction of that hot exhaust recirculates into downstream intakes
instead of returning to the CRAC.  This module provides the two halves:

* :class:`ExhaustModel` - ``dT = P / G(V)`` with the airflow heat
  conductance ``G`` scaling linearly with fan speed (mass flow ~ rpm),
  floored so the rise stays bounded at low speeds.
* :class:`CouplingOperator` - the linear-operator contract every
  coupling representation implements: map per-server exhaust rises to
  per-server inlet offsets.  Simulation drivers only ever call
  :meth:`CouplingOperator.apply` - ``Rack.update_inlets`` with one
  step's rises, the exact batch lane with a control window's ``(w, N)``
  block of rises, one row per step - so dense rack matrices and the
  room-scale block-sparse operator (:class:`repro.room.coupling.
  SparseCoupling`) are interchangeable.
* :class:`RecirculationMatrix` - the dense operator: a nonnegative
  mixing matrix ``M`` with zero diagonal, ``offset = M @ rise``.
  :meth:`RecirculationMatrix.chain` builds the standard front-to-back
  rack topology where server ``i`` receives ``f**(i-j)`` of server
  ``j``'s rise for every upstream ``j``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.config import FleetConfig
from repro.errors import FleetError
from repro.thermal.server import ServerState
from repro.units import check_positive


class ExhaustModel:
    """Exhaust-air temperature rise of one server above its inlet.

    Parameters
    ----------
    conductance_at_max_w_per_k:
        Airflow heat conductance ``G = m_dot * c_p`` at maximum fan
        speed.  50 W/K gives a ~4 K rise for a 200 W server at full
        airflow, typical of 1U enterprise machines.
    max_speed_rpm:
        Fan speed at which the full conductance is reached.
    min_conductance_fraction:
        Floor on ``G(V)/G(V_max)``; real chassis keep some airflow even
        at minimum fan speed, and the floor keeps the rise finite.
    """

    def __init__(
        self,
        conductance_at_max_w_per_k: float = 50.0,
        max_speed_rpm: float = 8500.0,
        min_conductance_fraction: float = 0.15,
    ) -> None:
        self._g_max = check_positive(
            conductance_at_max_w_per_k, "conductance_at_max_w_per_k"
        )
        self._v_max = check_positive(max_speed_rpm, "max_speed_rpm")
        if not 0.0 < min_conductance_fraction <= 1.0:
            raise FleetError(
                "min_conductance_fraction must be in (0, 1], got "
                f"{min_conductance_fraction}"
            )
        self._g_floor = self._g_max * min_conductance_fraction

    @classmethod
    def from_config(cls, fleet: FleetConfig, max_speed_rpm: float) -> "ExhaustModel":
        """Build from rack-level config plus the fan's top speed."""
        return cls(
            conductance_at_max_w_per_k=fleet.exhaust_conductance_w_per_k,
            max_speed_rpm=max_speed_rpm,
            min_conductance_fraction=fleet.min_conductance_fraction,
        )

    @property
    def conductance_at_max_w_per_k(self) -> float:
        """Airflow heat conductance at maximum fan speed."""
        return self._g_max

    @property
    def max_speed_rpm(self) -> float:
        """Fan speed at which the full conductance is reached."""
        return self._v_max

    @property
    def conductance_floor_w_per_k(self) -> float:
        """Lower bound on the conductance (airflow at minimum fan speed)."""
        return self._g_floor

    def conductance_w_per_k(self, fan_speed_rpm: float) -> float:
        """Airflow heat conductance at the given fan speed."""
        if fan_speed_rpm < 0.0:
            raise FleetError(f"fan_speed_rpm must be >= 0, got {fan_speed_rpm}")
        return max(self._g_floor, self._g_max * fan_speed_rpm / self._v_max)

    def rise_c(self, total_power_w: float, fan_speed_rpm: float) -> float:
        """Exhaust temperature rise above inlet for one server."""
        if total_power_w < 0.0:
            raise FleetError(f"total_power_w must be >= 0, got {total_power_w}")
        return total_power_w / self.conductance_w_per_k(fan_speed_rpm)

    def rise_from_state(self, state: ServerState) -> float:
        """Exhaust rise implied by a plant state snapshot."""
        return self.rise_c(state.total_power_w, state.fan_speed_rpm)

    def same_parameters(self, other: "ExhaustModel") -> bool:
        """Whether another model computes identical rises.

        Stacked multi-rack runs share one exhaust model across every
        rack, which is only sound when the racks' models agree exactly.
        """
        return (
            self._g_max == other._g_max
            and self._v_max == other._v_max
            and self._g_floor == other._g_floor
        )


class CouplingOperator(ABC):
    """Linear map from per-server exhaust rises to inlet offsets.

    The contract every coupling representation satisfies:

    * :meth:`apply` is the validation-free hot path.  It takes one
      step's ``(N,)`` rises (the scalar lane, once per step) or a ``(w,
      N)`` block with one row per step (the exact batch lane, once per
      control window) and returns the same shape.  Row ``k`` of a block
      must equal ``apply(rises[k])`` byte for byte, and a stateful
      operator advances once per row, in row order, so both call
      patterns run the same floating-point operations.
    * :meth:`to_dense` materializes the equivalent dense matrix ``M``
      with ``apply(r) ~= M @ r`` (used for equivalence tests and for
      composing operators into larger block structures).
    * :attr:`is_decoupled` lets drivers short-circuit to zero offsets
      without touching the exhaust model, preserving bit-for-bit
      equality with uncoupled runs.
    """

    @property
    @abstractmethod
    def n_servers(self) -> int:
        """Number of servers the operator couples."""

    @property
    @abstractmethod
    def is_decoupled(self) -> bool:
        """True when the operator is identically zero."""

    @abstractmethod
    def apply(self, rises_c: np.ndarray) -> np.ndarray:
        """Inlet offsets from ``(N,)`` or ``(w, N)`` rises; no validation."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """The equivalent dense ``(n_servers, n_servers)`` matrix."""

    def inlet_offsets_c(self, rises_c: np.ndarray) -> np.ndarray:
        """Validated :meth:`apply`: checks the rise vector shape first."""
        rises = np.asarray(rises_c, dtype=float)
        if rises.shape != (self.n_servers,):
            raise FleetError(
                f"expected {self.n_servers} rises, got shape {rises.shape}"
            )
        return self.apply(rises)

    def prepare_run(self, dt_s: float) -> None:
        """Arm per-run state for a run on a ``dt_s`` grid.

        Drivers call this once before every run.  Stateless operators
        have nothing to arm; the room operator's dynamic CRAC supply
        filter overrides it to reset its states.
        """

    def apply_window(self, rises_c: np.ndarray) -> np.ndarray:
        """Apply the operator to a ``(n_servers, w)`` window of rises.

        Column ``j`` of the result is ``apply(rises_c[:, j])``.  The
        base implementation hands the columns to :meth:`apply` as one
        ``(w, N)`` block, which keeps *stateful* operators exact - a
        dynamic supply filter advances once per column, just as it
        advances once per step on the scalar and vectorized lanes.
        Purely linear subclasses override this with one batched gemm,
        which the fused backend calls once per control window.
        """
        return np.ascontiguousarray(
            self.apply(np.ascontiguousarray(rises_c.T)).T
        )


class RecirculationMatrix(CouplingOperator):
    """Dense mixing matrix mapping exhaust rises to inlet offsets.

    ``offsets = M @ rises`` where ``M[i, j]`` is the fraction of server
    ``j``'s exhaust rise appearing at server ``i``'s inlet.  The matrix
    must be square and nonnegative with a zero diagonal (a server does
    not re-ingest its own exhaust in this model; front-to-back airflow
    carries it downstream).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise FleetError(f"coupling matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise FleetError("coupling matrix must be finite")
        if np.any(m < 0.0):
            raise FleetError("coupling matrix must be nonnegative")
        if np.any(np.diag(m) != 0.0):
            raise FleetError("coupling matrix must have a zero diagonal")
        self._m = m

    @classmethod
    def chain(cls, n_servers: int, fraction: float) -> "RecirculationMatrix":
        """Front-to-back chain: ``M[i, j] = fraction**(i - j)`` for ``j < i``.

        The immediate upstream neighbour contributes ``fraction`` of its
        rise, the one before that ``fraction**2``, and so on - the
        geometric attenuation of recirculated air mixing back into the
        cold aisle at each slot.  ``fraction = 0`` yields the zero
        matrix (fully decoupled rack).
        """
        if n_servers < 1:
            raise FleetError(f"n_servers must be >= 1, got {n_servers}")
        if not 0.0 <= fraction < 1.0:
            raise FleetError(f"fraction must be in [0, 1), got {fraction}")
        m = np.zeros((n_servers, n_servers))
        if fraction > 0.0:
            for i in range(n_servers):
                for j in range(i):
                    m[i, j] = fraction ** (i - j)
        return cls(m)

    @classmethod
    def decoupled(cls, n_servers: int) -> "RecirculationMatrix":
        """All-zero matrix: every server breathes pure room air."""
        return cls.chain(n_servers, 0.0)

    @property
    def n_servers(self) -> int:
        """Number of servers the matrix couples."""
        return self._m.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """A copy of the mixing matrix."""
        return self._m.copy()

    @property
    def is_decoupled(self) -> bool:
        """True when the matrix is identically zero."""
        return not np.any(self._m)

    def apply(self, rises_c: np.ndarray) -> np.ndarray:
        """``M @ rises`` per step, with no validation (the hot path).

        A ``(w, n)`` block runs one stacked matmul over ``(w, n, 1)``:
        NumPy hands each row to the same BLAS gemv ``M @ rises[k]``
        runs, so row ``k`` equals the one-step result bit for bit.
        """
        if rises_c.ndim == 1:
            return self._m @ rises_c
        return np.matmul(self._m, rises_c[..., None])[..., 0]

    def apply_window(self, rises_c: np.ndarray) -> np.ndarray:
        """``M @ rises`` on a whole ``(n, w)`` window as one gemm."""
        return self._m @ rises_c

    def to_dense(self) -> np.ndarray:
        """A copy of the mixing matrix (same as :attr:`matrix`)."""
        return self._m.copy()
