"""Block-structured sparse recirculation for multi-rack rooms.

A room's dense mixing matrix is almost entirely zero: recirculation is
strong *within* a rack (the front-to-back chain), weak between adjacent
racks sharing an aisle, and zero everywhere else.  :class:`SparseCoupling`
stores exactly that structure instead of the ``(N, N)`` dense matrix:

* **diagonal blocks** - one dense per-rack matrix each (the same
  matrices :class:`~repro.fleet.coupling.RecirculationMatrix` holds for
  a standalone rack),
* **cross blocks** - an explicit ``(dst_rack, src_rack) -> matrix``
  dictionary for the few rack pairs that exchange aisle air (CSR-style:
  only stored pairs cost anything),
* an optional **low-rank term** ``gain.T @ (mix @ rises)`` coupling
  every server through shared plenum air - how the CRAC supply-return
  loop enters the operator (rank one per CRAC unit).

:meth:`SparseCoupling.apply` is a block-sparse mat-vec: one gemv per
rack block plus one per stored cross block plus ``2K`` dot products for
the rank-``K`` term - ``O(sum B_r**2)`` instead of ``O(N**2)``.  When
every rack has the same width ``B`` (every room the scenario builders
make), the constructor stacks those blocks into a **block plan**: the
diagonal blocks as one ``(R, B, B)`` array, and the cross blocks in
rounds whose destination racks are distinct.  :meth:`~SparseCoupling.
apply` then runs one stacked matmul plus one gathered stacked matmul
per round instead of a Python loop over racks and pairs.  It takes one
step's ``(N,)`` rises (the scalar lane) or a ``(w, N)`` block with one
row per step (the exact batch lane, once per control window), viewed as
``(w, R, B, 1)``: the same plan, with the diagonal stack broadcast over
the steps.  :meth:`~SparseCoupling.apply_window` runs the plan on a
whole ``(N, w)`` window as gemms for the fused lane.  NumPy hands each
``(B, B) @ (B, 1)`` slice of a stacked matmul to the same BLAS gemv the
per-rack loop calls (and each ``(B, w)`` slice to the same gemm), and
each rack sums its cross terms in the same order, so the plan's floats
equal the loop's bit for bit, and every row of a block equals its
one-step call.  With no cross blocks and no low-rank term each rack's
offsets are therefore computed by *the same gemv on the same values* as
a standalone dense rack, which is what makes a zero-inter-rack room
bit-for-bit equal to independent per-rack runs.  Racks of different
widths run the per-rack loop itself, with one stacked matmul per block.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import RoomError
from repro.fleet.coupling import CouplingOperator, RecirculationMatrix


def _check_nonnegative_matrix(m: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise RoomError(f"{what} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise RoomError(f"{what} must be finite")
    if np.any(arr < 0.0):
        raise RoomError(f"{what} must be nonnegative")
    return arr


class SparseCoupling(CouplingOperator):
    """Block-structured sparse inlet-recirculation operator.

    Parameters
    ----------
    blocks:
        Per-rack dense mixing matrices in rack order.  Each must be
        square, finite, nonnegative, and zero-diagonal - the exact
        :class:`~repro.fleet.coupling.RecirculationMatrix` contract.
    cross:
        Optional ``{(dst_rack, src_rack): matrix}`` inter-rack blocks;
        ``matrix[i, j]`` is the fraction of server ``j``-of-``src``'s
        rise reaching server ``i``-of-``dst``'s inlet.  Keys must name
        distinct racks (a rack's self-coupling belongs in its block).
    feedback_gain, feedback_mix:
        Optional ``(K, N)`` (or ``(N,)`` for rank one) arrays of the
        low-rank term ``offsets += gain.T @ (mix @ rises)``; both must
        be given together.  Row ``k`` is one plenum/CRAC path: ``mix[k]``
        weights how much of each server's rise reaches that return
        plenum, ``gain[k]`` how strongly the resulting supply rise hits
        each server's inlet.
    feedback_tau:
        Optional ``(K,)`` per-row first-order time constants turning the
        low-rank term into a **dynamic supply filter**: each row carries
        an RC state ``s_k`` advanced once per simulation step (once per
        :meth:`apply` call on one step's rises, once per row of a
        block) toward ``mix[k] @ rises + forcing_k``, and the output
        becomes ``gain.T @ s``.  ``tau = 0`` rows settle
        instantly, reproducing the static term bit for bit, so the
        static model is exactly the all-zero limit.  Dynamic operators
        must be armed with :meth:`prepare_run` before stepping.
    feedback_forcing:
        Optional ``(K,)`` baseline exogenous supply rises (e.g. a failed
        CRAC's failure rise) driven through the filter.  Requires
        ``feedback_tau``.
    crac_unit_rows:
        Optional mapping (sequence, one entry per CRAC unit, ``None`` =
        no path) from CRAC unit index to its forcing row, letting the
        fault injector target units by index
        (:meth:`set_supply_forcing`).
    """

    def __init__(
        self,
        blocks: Sequence[np.ndarray],
        cross: Mapping[tuple[int, int], np.ndarray] | None = None,
        feedback_gain: np.ndarray | None = None,
        feedback_mix: np.ndarray | None = None,
        feedback_tau: np.ndarray | None = None,
        feedback_forcing: np.ndarray | None = None,
        crac_unit_rows: Sequence[int | None] | None = None,
    ) -> None:
        if not blocks:
            raise RoomError("sparse coupling needs at least one rack block")
        validated = []
        for r, block in enumerate(blocks):
            arr = _check_nonnegative_matrix(block, f"rack {r} block")
            if arr.shape[0] != arr.shape[1]:
                raise RoomError(
                    f"rack {r} block must be square, got shape {arr.shape}"
                )
            if np.any(np.diag(arr) != 0.0):
                raise RoomError(f"rack {r} block must have a zero diagonal")
            validated.append(arr)
        self._blocks = tuple(validated)
        sizes = [b.shape[0] for b in self._blocks]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        self._starts = tuple(int(v) for v in bounds[:-1])
        self._stops = tuple(int(v) for v in bounds[1:])
        self._n = int(bounds[-1])

        self._cross: dict[tuple[int, int], np.ndarray] = {}
        for key, matrix in dict(cross or {}).items():
            dst, src = key
            if not (0 <= dst < self.n_racks and 0 <= src < self.n_racks):
                raise RoomError(
                    f"cross block {key} names a rack outside "
                    f"[0, {self.n_racks})"
                )
            if dst == src:
                raise RoomError(
                    f"cross block {key} couples a rack to itself; use its "
                    "diagonal block"
                )
            arr = _check_nonnegative_matrix(matrix, f"cross block {key}")
            expected = (sizes[dst], sizes[src])
            if arr.shape != expected:
                raise RoomError(
                    f"cross block {key} must have shape {expected}, got "
                    f"{arr.shape}"
                )
            if np.any(arr):
                self._cross[(int(dst), int(src))] = arr

        if (feedback_gain is None) != (feedback_mix is None):
            raise RoomError(
                "feedback_gain and feedback_mix must be given together"
            )
        dynamic = feedback_tau is not None
        if dynamic and feedback_gain is None:
            raise RoomError("feedback_tau needs feedback_gain/feedback_mix rows")
        if feedback_forcing is not None and not dynamic:
            raise RoomError("feedback_forcing needs feedback_tau")
        if feedback_gain is None:
            self._gain: np.ndarray | None = None
            self._mix: np.ndarray | None = None
        else:
            gain = np.atleast_2d(np.asarray(feedback_gain, dtype=float))
            mix = np.atleast_2d(np.asarray(feedback_mix, dtype=float))
            for name, arr in (("feedback_gain", gain), ("feedback_mix", mix)):
                _check_nonnegative_matrix(arr, name)
                if arr.shape[1] != self._n:
                    raise RoomError(
                        f"{name} must have {self._n} columns, got shape "
                        f"{arr.shape}"
                    )
            if gain.shape[0] != mix.shape[0]:
                raise RoomError(
                    f"feedback rank mismatch: gain has {gain.shape[0]} rows, "
                    f"mix has {mix.shape[0]}"
                )
            # Dynamic operators keep zero-mix rows: those are pure
            # forcing paths (a CRAC's exogenous supply rise) that only
            # the filter state drives.
            if np.any(gain) and (np.any(mix) or dynamic):
                self._gain, self._mix = gain, mix
            else:
                self._gain = self._mix = None

        # Dynamic supply filter (CRAC thermal time constants + forcing).
        self._tau: np.ndarray | None = None
        self._base_forcing: np.ndarray | None = None
        self._forcing: np.ndarray | None = None
        self._states: np.ndarray | None = None
        self._decay: np.ndarray | None = None
        self._crac_unit_rows: tuple[int | None, ...] = ()
        if dynamic and self._gain is not None:
            k = self._gain.shape[0]
            tau = np.asarray(feedback_tau, dtype=float).reshape(-1)
            if tau.shape != (k,):
                raise RoomError(
                    f"feedback_tau must have {k} entries, got shape {tau.shape}"
                )
            if not np.all(np.isfinite(tau)) or np.any(tau < 0.0):
                raise RoomError("feedback_tau entries must be finite and >= 0")
            self._tau = tau
            if feedback_forcing is None:
                forcing = np.zeros(k)
            else:
                forcing = np.asarray(feedback_forcing, dtype=float).reshape(-1)
                if forcing.shape != (k,):
                    raise RoomError(
                        f"feedback_forcing must have {k} entries, got shape "
                        f"{forcing.shape}"
                    )
                if not np.all(np.isfinite(forcing)) or np.any(forcing < 0.0):
                    raise RoomError(
                        "feedback_forcing entries must be finite and >= 0"
                    )
            self._base_forcing = forcing
            self._forcing = forcing.copy()
            self._states = np.zeros(k)
            if crac_unit_rows is not None:
                rows = tuple(
                    None if row is None else int(row) for row in crac_unit_rows
                )
                for row in rows:
                    if row is not None and not 0 <= row < k:
                        raise RoomError(
                            f"crac_unit_rows entry {row} outside [0, {k})"
                        )
                self._crac_unit_rows = rows

        # Block plan for racks of one width (every room the scenario
        # builders make): the diagonal blocks as one (R, B, B) stack,
        # and the cross blocks grouped into rounds of (dst, src, stack).
        # Round k holds each destination's k-th stored cross block in
        # dict order, so a round's destinations are distinct and each
        # destination still sums its cross terms in dict order.  Racks
        # of different widths leave the plan empty (_diag is None) and
        # run the per-rack loop.
        self._diag: np.ndarray | None = None
        self._rounds: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = ()
        if len(set(sizes)) == 1:
            self._diag = np.stack(self._blocks)
            rounds: list[list[tuple[int, int, np.ndarray]]] = []
            depth: dict[int, int] = {}
            for (dst, src), matrix in self._cross.items():
                k = depth.get(dst, 0)
                depth[dst] = k + 1
                if k == len(rounds):
                    rounds.append([])
                rounds[k].append((dst, src, matrix))
            self._rounds = tuple(
                (
                    np.array([dst for dst, _, _ in terms], dtype=np.intp),
                    np.array([src for _, src, _ in terms], dtype=np.intp),
                    np.stack([matrix for _, _, matrix in terms]),
                )
                for terms in rounds
            )

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def block_diagonal(
        cls, blocks: Sequence[np.ndarray]
    ) -> "SparseCoupling":
        """Purely intra-rack coupling (no aisle exchange, no feedback)."""
        return cls(blocks)

    @classmethod
    def from_racks(
        cls,
        racks: Sequence,
        cross: Mapping[tuple[int, int], np.ndarray] | None = None,
        feedback_gain: np.ndarray | None = None,
        feedback_mix: np.ndarray | None = None,
        feedback_tau: np.ndarray | None = None,
        feedback_forcing: np.ndarray | None = None,
        crac_unit_rows: Sequence[int | None] | None = None,
    ) -> "SparseCoupling":
        """Diagonal blocks taken from each rack's own coupling operator."""
        return cls(
            [rack.coupling.to_dense() for rack in racks],
            cross=cross,
            feedback_gain=feedback_gain,
            feedback_mix=feedback_mix,
            feedback_tau=feedback_tau,
            feedback_forcing=feedback_forcing,
            crac_unit_rows=crac_unit_rows,
        )

    # ------------------------------------------------------------------
    # Structure

    @property
    def n_servers(self) -> int:
        """Total servers across all racks."""
        return self._n

    @property
    def n_racks(self) -> int:
        """Number of diagonal blocks."""
        return len(self._blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Servers per rack, in rack order."""
        return tuple(b.shape[0] for b in self._blocks)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Copies of the diagonal (intra-rack) blocks."""
        return tuple(b.copy() for b in self._blocks)

    @property
    def cross_blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """Copies of the stored inter-rack blocks."""
        return {key: m.copy() for key, m in self._cross.items()}

    @property
    def feedback_rank(self) -> int:
        """Rank of the low-rank plenum/CRAC term (0 when absent)."""
        return 0 if self._gain is None else self._gain.shape[0]

    @property
    def is_dynamic(self) -> bool:
        """Whether the low-rank term carries first-order supply states."""
        return self._tau is not None

    @property
    def crac_unit_rows(self) -> tuple[int | None, ...]:
        """Per-CRAC-unit forcing-row indices (empty tuple = no mapping)."""
        return self._crac_unit_rows

    @property
    def supply_states_c(self) -> np.ndarray | None:
        """Current per-row supply-rise states (None for static operators)."""
        return None if self._states is None else self._states.copy()

    def prepare_run(self, dt_s: float) -> None:
        """Arm the dynamic supply filter for a run on a fixed time grid.

        Computes the per-row decay ``exp(-dt / tau)`` (0 for ``tau = 0``
        rows, which therefore settle in one step - the static limit),
        resets the RC states to zero, and restores forcings to their
        construction baseline, so repeated runs of the same room are
        deterministic.  A no-op for static operators.
        """
        if self._tau is None:
            return
        if not dt_s > 0.0:
            raise RoomError(f"prepare_run needs dt_s > 0, got {dt_s}")
        self._decay = np.where(
            self._tau > 0.0, np.exp(-dt_s / np.where(self._tau > 0.0, self._tau, 1.0)), 0.0
        )
        self._states = np.zeros(self._gain.shape[0])
        self._forcing = self._base_forcing.copy()

    def set_supply_forcing(self, unit: int, rise_c: float) -> None:
        """Set one CRAC unit's exogenous supply rise (fault injection).

        The value is *added on top of* the unit's baseline forcing and
        enters the first-order filter, so a brownout step produces an RC
        response at every served inlet.  Requires the unit to have a
        forcing row (``crac_unit_rows``).
        """
        if not self._crac_unit_rows or unit >= len(self._crac_unit_rows):
            raise RoomError(
                f"no CRAC unit {unit} in this coupling's forcing map"
            )
        row = self._crac_unit_rows[unit]
        if row is None:
            raise RoomError(
                f"CRAC unit {unit} has no dynamic supply path; rebuild the "
                "room with forcing_units including it"
            )
        if not np.isfinite(rise_c) or rise_c < 0.0:
            raise RoomError(f"supply forcing must be finite and >= 0, got {rise_c!r}")
        self._forcing[row] = self._base_forcing[row] + float(rise_c)

    def rack_slice(self, rack: int) -> slice:
        """The server-index range rack ``rack`` occupies."""
        if not 0 <= rack < self.n_racks:
            raise RoomError(
                f"rack index must be in [0, {self.n_racks}), got {rack}"
            )
        return slice(self._starts[rack], self._stops[rack])

    @property
    def is_decoupled(self) -> bool:
        """True when every stored term is identically zero."""
        if self._gain is not None or self._cross:
            return False
        return not any(np.any(b) for b in self._blocks)

    @property
    def nnz(self) -> int:
        """Stored (block + cross) entries that are nonzero."""
        count = sum(int(np.count_nonzero(b)) for b in self._blocks)
        count += sum(int(np.count_nonzero(m)) for m in self._cross.values())
        return count

    @property
    def density(self) -> float:
        """Nonzero stored entries over the dense ``N**2`` footprint."""
        return self.nnz / float(self._n * self._n)

    # ------------------------------------------------------------------
    # The operator

    def _block_terms(self, x: np.ndarray) -> np.ndarray:
        """Diagonal plus cross terms for rises laid out as ``(L, N, c)``.

        ``(w, N, 1)`` is a block of ``w`` steps, one gemv per slice;
        ``(1, N, w)`` is the fused lane's window, one gemm per slice.
        With the block plan: one stacked matmul of the diagonal blocks
        over ``x`` viewed as ``(L, R, B, c)``, then per round one
        gathered stacked matmul added into the round's destination
        racks.  Each ``(B, B) @ (B, 1)`` slice runs the same BLAS gemv
        as ``block @ rises[start:stop]`` and each ``(B, w)`` slice the
        same gemm as ``block @ rises[start:stop, :]``, so the floats
        equal the per-rack loop's bit for bit.
        """
        out = np.empty(x.shape)
        diag = self._diag
        if diag is None:
            starts, stops = self._starts, self._stops
            for start, stop, block in zip(starts, stops, self._blocks):
                out[:, start:stop] = np.matmul(block, x[:, start:stop])
            for (dst, src), matrix in self._cross.items():
                out[:, starts[dst] : stops[dst]] += np.matmul(
                    matrix, x[:, starts[src] : stops[src]]
                )
            return out
        lead, _, c = x.shape
        r, b, _ = diag.shape
        xv = x.reshape(lead, r, b, c)
        y = out.reshape(lead, r, b, c)
        np.matmul(diag, xv, out=y)
        for dst, src, stack in self._rounds:
            y[:, dst] += np.matmul(stack, xv[:, src])
        return out

    def apply(self, rises_c: np.ndarray) -> np.ndarray:
        """Block-sparse mat-vec (plus the low-rank term); no validation.

        Takes one step's ``(N,)`` rises or a ``(w, N)`` block with one
        row per step, and runs the block plan on it viewed as ``(w, R,
        B, 1)`` (``w = 1`` for one step): one stacked matmul of the
        diagonal blocks, one gathered stacked matmul and one add per
        cross-block round, then the low-rank term as two stacked gemvs.
        Every slice is the gemv a per-rack ``block @ rises[slice]``
        runs, so zero-inter-rack rooms stay bit-for-bit equal to
        independent per-rack simulations, and row ``k`` of a block
        equals ``apply(rises[k])``.  Racks of different widths run that
        per-rack loop itself.

        Dynamic operators advance their supply-filter states here, once
        per step: the block's targets come from one stacked gemv, then
        the states step row by row in row order; ``tau = 0`` rows
        settle to their target each step, making the static term the
        exact all-zero-tau limit: ``target + (state - target) * 0.0`` is
        bitwise ``target`` for finite values.
        """
        # One step is a block of one: (w, N, 1), one gemv per slice.
        x = rises_c.reshape(-1, self._n, 1)
        out = self._block_terms(x)
        if self._gain is not None:
            gain_t = self._gain.T
            if self._tau is None:
                out += np.matmul(gain_t, np.matmul(self._mix, x))
            else:
                if self._decay is None:
                    raise RoomError(
                        "dynamic coupling needs prepare_run(dt_s) before apply"
                    )
                targets = np.matmul(self._mix, x)[..., 0]
                targets += self._forcing
                states = np.empty(targets.shape)
                s, decay = self._states, self._decay
                for k, target in enumerate(targets):
                    s = states[k] = target + (s - target) * decay
                self._states = s
                out += np.matmul(gain_t, states[..., None])
        return out.reshape(rises_c.shape)

    def apply_window(self, rises_c: np.ndarray) -> np.ndarray:
        """Block-sparse mat-*mat* over a ``(N, w)`` window of rises.

        The fused lane's path.  The static operator is linear, so a
        whole control window runs the same block plan as :meth:`apply`
        on ``(R, B, w)``: one stacked gemm per rack, one gathered
        stacked gemm per cross-block round, and two gemms for the
        low-rank term.  Each slice is the gemm a per-block ``matrix @
        rises[rows]`` runs.  A gemm column is not bitwise a gemv, which
        is why the exact lane calls :meth:`apply` on a ``(w, N)`` block
        instead.

        Dynamic operators carry supply-filter state that must advance
        once per step, so they take the base class's path - one
        :meth:`apply` on the transposed block: same states, same order,
        same floats as stepping :meth:`apply` per column.
        """
        if self._tau is not None:
            return CouplingOperator.apply_window(self, rises_c)
        out = self._block_terms(rises_c[None])[0]
        if self._gain is not None:
            out += self._gain.T @ (self._mix @ rises_c)
        return out

    # ------------------------------------------------------------------
    # Conversions

    def to_dense(self) -> np.ndarray:
        """The equivalent dense ``(N, N)`` matrix (all terms included)."""
        dense = np.zeros((self._n, self._n))
        for start, stop, block in zip(self._starts, self._stops, self._blocks):
            dense[start:stop, start:stop] = block
        for (dst, src), matrix in self._cross.items():
            dense[
                self._starts[dst] : self._stops[dst],
                self._starts[src] : self._stops[src],
            ] += matrix
        if self._gain is not None:
            dense += self._gain.T @ self._mix
        return dense

    def to_recirculation_matrix(self) -> RecirculationMatrix:
        """Densify into a :class:`RecirculationMatrix` for equivalence runs.

        Raises :class:`~repro.errors.FleetError` (via the dense
        constructor) when the low-rank term puts recirculation on the
        diagonal - a server re-ingesting its own exhaust through the
        plenum - which the dense class forbids.
        """
        return RecirculationMatrix(self.to_dense())

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored sparsity as CSR ``(indptr, indices, data)`` arrays.

        Covers the diagonal and cross blocks (the explicit sparsity);
        the dense low-rank term is deliberately excluded - materializing
        ``gain.T @ mix`` would fill the matrix.  Entries within each row
        are ordered by column index, zeros dropped.
        """
        rows: list[list[tuple[int, float]]] = [[] for _ in range(self._n)]

        def scatter(matrix: np.ndarray, row0: int, col0: int) -> None:
            for i, j in zip(*np.nonzero(matrix)):
                rows[row0 + int(i)].append((col0 + int(j), float(matrix[i, j])))

        for start, block in zip(self._starts, self._blocks):
            scatter(block, start, start)
        for (dst, src), matrix in self._cross.items():
            scatter(matrix, self._starts[dst], self._starts[src])

        indptr = np.zeros(self._n + 1, dtype=np.int64)
        indices: list[int] = []
        data: list[float] = []
        for i, entries in enumerate(rows):
            entries.sort()
            indptr[i + 1] = indptr[i] + len(entries)
            indices.extend(col for col, _ in entries)
            data.extend(value for _, value in entries)
        return (
            indptr,
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=float),
        )
