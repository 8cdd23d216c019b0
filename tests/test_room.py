"""Room subsystem: sparse coupling, topology, CRAC, stacked execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CRACConfig, FleetConfig, RoomConfig
from repro.errors import RoomError, SimulationError
from repro.faults import FaultEvent, FaultSchedule
from repro.fleet import (
    FleetSimulator,
    Rack,
    RecirculationMatrix,
    heterogeneous_sensor_rack,
    homogeneous_rack,
)
from repro.fleet.coupling import CouplingOperator
from repro.obs.diff import diff_results
from repro.room import (
    CRACUnit,
    Room,
    RoomSimulator,
    RoomTopology,
    SparseCoupling,
    build_room_scenario,
    run_stacked_racks,
    stacked_unsupported_reason,
    uniform_room,
)
from repro.room.scenarios import (
    ROOM_SCENARIOS,
    failed_crac_room,
    hot_spot_rack_room,
    mixed_aisles_room,
)


def _chain_blocks(n_racks, servers, fraction=0.25):
    return [
        RecirculationMatrix.chain(servers, fraction).matrix
        for _ in range(n_racks)
    ]


def _assert_results_equal(a, b):
    """Two FleetResults hold bit-for-bit identical runs."""
    assert a.mean_inlet_c == b.mean_inlet_c
    for ra, rb in zip(a.server_results, b.server_results):
        for name, channel in ra.channels.items():
            assert np.array_equal(channel, rb.channels[name]), name
        assert ra.energy == rb.energy
        assert ra.performance == rb.performance


class TestSparseCoupling:
    def test_block_diagonal_matches_dense(self):
        blocks = _chain_blocks(3, 4)
        sparse = SparseCoupling.block_diagonal(blocks)
        dense = sparse.to_dense()
        rises = np.linspace(0.5, 3.0, 12)
        # Block-diagonal apply runs the same per-rack gemvs as the dense
        # racks would, so this holds exactly, not just to tolerance.
        per_rack = np.concatenate(
            [block @ rises[4 * r : 4 * (r + 1)] for r, block in enumerate(blocks)]
        )
        assert np.array_equal(sparse.apply(rises), per_rack)
        assert np.allclose(sparse.apply(rises), dense @ rises)

    def test_cross_and_feedback_match_dense_to_tolerance(self):
        blocks = _chain_blocks(2, 3)
        cross = {(0, 1): 0.05 * np.eye(3), (1, 0): 0.02 * np.ones((3, 3))}
        gain = 0.3 * np.ones(6)
        mix = np.full(6, 0.7 / 6)
        sparse = SparseCoupling(
            blocks, cross=cross, feedback_gain=gain, feedback_mix=mix
        )
        rises = np.array([1.0, 2.0, 0.5, 3.0, 0.25, 1.5])
        dense = sparse.to_dense()
        assert np.allclose(sparse.apply(rises), dense @ rises, rtol=1e-12)
        assert sparse.feedback_rank == 1

    def test_csr_arrays_reconstruct_sparsity(self):
        blocks = _chain_blocks(2, 3)
        cross = {(1, 0): 0.05 * np.eye(3)}
        sparse = SparseCoupling(blocks, cross=cross)
        indptr, indices, data = sparse.csr_arrays()
        dense = np.zeros((6, 6))
        for i in range(6):
            for k in range(indptr[i], indptr[i + 1]):
                dense[i, indices[k]] = data[k]
        assert np.array_equal(dense, sparse.to_dense())
        assert indptr[-1] == sparse.nnz
        assert 0.0 < sparse.density < 1.0

    def test_is_decoupled(self):
        zero = SparseCoupling.block_diagonal([np.zeros((2, 2))] * 2)
        assert zero.is_decoupled
        assert not SparseCoupling.block_diagonal(_chain_blocks(1, 2)).is_decoupled
        # A nonzero low-rank term couples even over zero blocks.
        fed = SparseCoupling(
            [np.zeros((2, 2))],
            feedback_gain=np.ones(2),
            feedback_mix=np.ones(2),
        )
        assert not fed.is_decoupled

    def test_is_a_coupling_operator(self):
        from repro.errors import FleetError

        sparse = SparseCoupling.block_diagonal(_chain_blocks(2, 2))
        assert isinstance(sparse, CouplingOperator)
        with pytest.raises(FleetError):
            sparse.inlet_offsets_c(np.zeros(3))

    def test_to_recirculation_matrix_round_trips(self):
        sparse = SparseCoupling(
            _chain_blocks(2, 2), cross={(0, 1): 0.1 * np.eye(2)}
        )
        dense = sparse.to_recirculation_matrix()
        rises = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(dense.apply(rises), sparse.apply(rises))

    def test_validation(self):
        with pytest.raises(RoomError):
            SparseCoupling([])
        with pytest.raises(RoomError):
            SparseCoupling([np.ones((2, 3))])  # not square
        with pytest.raises(RoomError):
            SparseCoupling([np.eye(2)])  # nonzero diagonal
        with pytest.raises(RoomError):
            SparseCoupling([-np.ones((2, 2)) + np.eye(2)])  # negative
        blocks = _chain_blocks(2, 2)
        with pytest.raises(RoomError):
            SparseCoupling(blocks, cross={(0, 0): np.zeros((2, 2))})
        with pytest.raises(RoomError):
            SparseCoupling(blocks, cross={(0, 2): np.zeros((2, 2))})
        with pytest.raises(RoomError):
            SparseCoupling(blocks, cross={(0, 1): np.zeros((3, 2))})
        with pytest.raises(RoomError):
            SparseCoupling(blocks, feedback_gain=np.ones(4))  # missing mix
        with pytest.raises(RoomError):
            SparseCoupling(
                blocks,
                feedback_gain=np.ones(3),
                feedback_mix=np.ones(4),
            )


def _loop_block_terms(coupling, rises):
    """The per-rack and per-pair loop the block plan replaced.

    Works on ``(N,)`` rises (one gemv per block) and on ``(N, w)``
    windows (one gemm per block); the reference every plan result must
    equal bit for bit.
    """
    bounds = np.concatenate(([0], np.cumsum(coupling.block_sizes)))
    out = np.empty(rises.shape)
    for r, block in enumerate(coupling.blocks):
        out[bounds[r] : bounds[r + 1]] = block @ rises[bounds[r] : bounds[r + 1]]
    for (dst, src), matrix in coupling.cross_blocks.items():
        out[bounds[dst] : bounds[dst + 1]] += (
            matrix @ rises[bounds[src] : bounds[src + 1]]
        )
    return out


#: Steps per stacked ``(w, N)`` block that ``apply`` must run row by row.
_BLOCK_WIDTHS = (1, 2, 7, 10, 64)


def _step_block(n, w, seed):
    """A ``(w, N)`` block of rises, one row per step, with -0.0 and NaN."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.0, 25.0, size=(w, n))
    block[rng.random(block.shape) < 0.1] = -0.0
    block[rng.integers(w), rng.integers(n)] = np.nan
    return block


def _assert_block_matches_rows(apply, one_step, n):
    """``apply`` on a ``(w, N)`` block equals ``one_step`` per row, bytewise."""
    for seed, w in enumerate(_BLOCK_WIDTHS):
        block = _step_block(n, w, seed)
        expected = np.array([one_step(row) for row in block])
        got = apply(block)
        assert got.shape == block.shape, w
        assert got.tobytes() == expected.tobytes(), (w, seed)


class TestBlockPlan:
    """apply/apply_window equal the per-rack and per-pair loop bit for bit.

    ``apply`` on a ``(w, N)`` block of steps must equal the loop's gemv
    row by row; ``apply_window`` on an ``(N, w)`` window the loop's gemm.
    """

    @staticmethod
    def _rises(n, w=None, seed=0):
        rng = np.random.default_rng(seed)
        shape = (n,) if w is None else (n, w)
        return rng.uniform(0.0, 25.0, size=shape)

    def _assert_matches_loop(self, coupling, extra=None):
        """``extra(rises)`` is the low-rank term the operator adds."""

        def loop(rises):
            expected = _loop_block_terms(coupling, rises)
            if extra is not None:
                expected += extra(rises)
            return expected

        for seed, w in enumerate((None, 1, 2, 7, 10)):
            rises = self._rises(coupling.n_servers, w, seed)
            got = coupling.apply(rises) if w is None else coupling.apply_window(rises)
            assert np.array_equal(got, loop(rises)), (w, seed)
        _assert_block_matches_rows(coupling.apply, loop, coupling.n_servers)

    @pytest.mark.parametrize("name", sorted(ROOM_SCENARIOS))
    @pytest.mark.parametrize("grid", [(1, 16), (2, 4)])
    def test_room_scenarios(self, name, grid):
        cfg = RoomConfig(n_rows=grid[0], racks_per_row=grid[1])
        coupling = build_room_scenario(
            name, room=cfg, duration_s=10.0, seed=2
        ).coupling
        assert coupling.cross_blocks
        # The same blocks and cross dict, without the scenario's CRAC
        # term: exactly the part the block plan computes.
        self._assert_matches_loop(
            SparseCoupling(coupling.blocks, cross=coupling.cross_blocks)
        )

    def test_two_cross_blocks_for_one_destination_out_of_order(self):
        rng = np.random.default_rng(5)
        blocks = [0.1 * rng.random((4, 4)) * (1 - np.eye(4)) for _ in range(3)]
        cross = {
            (2, 1): 0.05 * rng.random((4, 4)),
            (0, 2): 0.05 * rng.random((4, 4)),
            (2, 0): 0.05 * rng.random((4, 4)),
            (1, 0): 0.05 * rng.random((4, 4)),
        }
        gain = 0.3 * np.ones(12)
        mix = np.full(12, 0.7 / 12)
        coupling = SparseCoupling(
            blocks, cross=cross, feedback_gain=gain, feedback_mix=mix
        )
        g, m = np.atleast_2d(gain), np.atleast_2d(mix)
        self._assert_matches_loop(coupling, lambda rises: g.T @ (m @ rises))
        # Rack 2 sums (2, 1) before (2, 0); the other order gives other
        # floats here, so the check above does see the order.
        rises = self._rises(12, 10, seed=3)
        swapped = blocks[2] @ rises[8:]
        swapped += cross[(2, 0)] @ rises[:4]
        swapped += cross[(2, 1)] @ rises[4:8]
        assert not np.array_equal(
            swapped, _loop_block_terms(coupling, rises)[8:]
        )

    def test_one_rack(self):
        block = RecirculationMatrix.chain(5, 0.25).matrix
        self._assert_matches_loop(SparseCoupling([block]))
        gain, mix = 0.2 * np.ones(5), np.full(5, 0.1)
        g, m = np.atleast_2d(gain), np.atleast_2d(mix)
        self._assert_matches_loop(
            SparseCoupling([block], feedback_gain=gain, feedback_mix=mix),
            lambda rises: g.T @ (m @ rises),
        )

    def test_racks_of_different_widths(self):
        rng = np.random.default_rng(9)
        sizes = (2, 5, 3)
        blocks = [0.1 * rng.random((b, b)) * (1 - np.eye(b)) for b in sizes]
        cross = {
            (1, 0): 0.05 * rng.random((5, 2)),
            (1, 2): 0.05 * rng.random((5, 3)),
            (2, 1): 0.05 * rng.random((3, 5)),
        }
        self._assert_matches_loop(SparseCoupling(blocks, cross=cross))

    @staticmethod
    def _dynamic_operator():
        blocks = _chain_blocks(4, 3)
        cross = {(1, 0): 0.08 * np.eye(3), (0, 1): 0.08 * np.eye(3)}
        gain = np.vstack([0.4 * np.ones(12), np.r_[np.ones(6), np.zeros(6)]])
        mix = np.vstack([np.full(12, 0.05), np.zeros(12)])
        coupling = SparseCoupling(
            blocks,
            cross=cross,
            feedback_gain=gain,
            feedback_mix=mix,
            feedback_tau=np.array([30.0, 60.0]),
            feedback_forcing=np.array([0.0, 0.0]),
            crac_unit_rows=(1,),
        )
        coupling.prepare_run(0.1)
        return coupling, gain

    def test_recirculation_matrix_block(self):
        rng = np.random.default_rng(11)
        dense = 0.05 * rng.random((16, 16)) * (1 - np.eye(16))
        for matrix in (
            RecirculationMatrix.chain(16, 0.3),
            RecirculationMatrix(dense),
        ):
            m = matrix.matrix
            _assert_block_matches_rows(matrix.apply, lambda r: m @ r, 16)

    def test_dynamic_block_steps_once_per_row(self):
        # A block advances the supply filter once per row, in row order:
        # the same offsets and states as w one-step calls on a twin.
        block_op, _ = self._dynamic_operator()
        row_op, _ = self._dynamic_operator()
        for seed, w in enumerate(_BLOCK_WIDTHS):
            if seed == 2:
                for op in (block_op, row_op):
                    op.set_supply_forcing(0, 4.0)
            block = self._rises(12, w, seed).T.copy()
            block[0, seed] = -0.0
            got = block_op.apply(block)
            expected = np.array([row_op.apply(row) for row in block])
            assert got.tobytes() == expected.tobytes(), w
            assert (
                block_op.supply_states_c.tobytes()
                == row_op.supply_states_c.tobytes()
            ), w
        # apply_window on an (N, w) window steps the same way.
        window = self._rises(12, 10, seed=9)
        got = block_op.apply_window(window)
        expected = np.array([row_op.apply(col) for col in window.T]).T
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_dynamic_crac_operator_stepped(self):
        coupling, gain = self._dynamic_operator()
        for step in range(8):
            if step == 3:
                coupling.set_supply_forcing(0, 4.0)
            rises = self._rises(12, seed=step)
            got = coupling.apply(rises)
            expected = _loop_block_terms(coupling, rises)
            expected += gain.T @ coupling.supply_states_c
            assert np.array_equal(got, expected), step
        # A scenario room with dynamic CRACs runs the same plan.
        cfg = RoomConfig(
            n_rows=2, racks_per_row=4, crac=CRACConfig(supply_time_constant_s=30.0)
        )
        room = uniform_room(cfg, duration_s=10.0, seed=4, forcing_units=(0,))
        assert room.coupling.is_dynamic
        self._assert_matches_loop(
            SparseCoupling(room.coupling.blocks, cross=room.coupling.cross_blocks)
        )


class TestRoomTopology:
    def test_grid_positions_and_rows(self):
        topo = RoomTopology(2, 3)
        assert topo.n_racks == 6
        assert topo.position(4) == (1, 1)
        assert topo.racks_in_row(1) == (3, 4, 5)
        assert topo.row_of(5) == 1

    def test_neighbors_stay_in_row(self):
        topo = RoomTopology(2, 3)
        assert topo.neighbors(0) == (1,)
        assert topo.neighbors(1) == (0, 2)
        # Rack 2 ends row 0; rack 3 starts row 1 - not neighbours.
        assert topo.neighbors(2) == (1,)
        assert topo.neighbors(3) == (4,)
        pairs = topo.aisle_pairs()
        assert (2, 3) not in pairs and (3, 2) not in pairs

    def test_containment_orders_factors(self):
        none = RoomTopology(1, 2, containment="none")
        cold = RoomTopology(1, 2, containment="cold_aisle")
        hot = RoomTopology(1, 2, containment="hot_aisle")
        assert none.inter_rack_factor > cold.inter_rack_factor > hot.inter_rack_factor
        assert none.return_mix_factor > cold.return_mix_factor > hot.return_mix_factor

    def test_validation(self):
        with pytest.raises(RoomError):
            RoomTopology(0, 2)
        with pytest.raises(RoomError):
            RoomTopology(1, 2, containment="open_plan")
        with pytest.raises(RoomError):
            RoomTopology(1, 2).position(2)


class TestCRACUnit:
    def test_failed_unit_supply_and_energy(self):
        cfg = CRACConfig(supply_setpoint_c=22.0, failure_supply_rise_c=6.0)
        healthy = CRACUnit(cfg, racks=(0,))
        failed = CRACUnit(cfg, racks=(1,), failed=True)
        assert healthy.supply_temperature_c == 22.0
        assert failed.supply_temperature_c == 28.0
        assert healthy.energy_j(700.0) == pytest.approx(700.0 / cfg.cop)
        assert failed.energy_j(700.0) == 0.0

    def test_feedback_rows(self):
        crac = CRACUnit(CRACConfig(return_sensitivity_k_per_k=0.4), racks=(0,))
        mask = np.array([True, True, False, False])
        gain, mix = crac.feedback_rows(mask, return_mix_factor=0.5)
        assert np.array_equal(gain, [0.4, 0.4, 0.0, 0.0])
        assert np.array_equal(mix, [0.25, 0.25, 0.0, 0.0])
        # Failed units sever the loop.
        dead = CRACUnit(CRACConfig(), racks=(0,), failed=True)
        gain, mix = dead.feedback_rows(mask, 0.5)
        assert not gain.any() and not mix.any()

    def test_validation(self):
        with pytest.raises(RoomError):
            CRACUnit(racks=(0, 0))
        with pytest.raises(RoomError):
            CRACUnit(racks=(-1,))
        with pytest.raises(RoomError):
            CRACUnit().energy_j(-1.0)


class TestRoomComposition:
    def test_crac_partition_validated(self):
        racks = [homogeneous_rack(n_servers=2, duration_s=30.0) for _ in range(2)]
        with pytest.raises(RoomError):
            Room(racks, cracs=(CRACUnit(racks=(0,)),))  # rack 1 unfed
        with pytest.raises(RoomError):
            Room(
                racks,
                cracs=(CRACUnit(racks=(0, 1)), CRACUnit(racks=(1,))),
            )  # rack 1 fed twice

    def test_coupling_block_sizes_validated(self):
        racks = [homogeneous_rack(n_servers=2, duration_s=30.0) for _ in range(2)]
        with pytest.raises(RoomError):
            Room(racks, coupling=SparseCoupling.block_diagonal(_chain_blocks(2, 3)))

    def test_defaults_are_block_diagonal_one_crac(self):
        racks = [homogeneous_rack(n_servers=2, duration_s=30.0) for _ in range(3)]
        room = Room(racks)
        assert room.n_servers == 6
        assert room.coupling.n_racks == 3
        assert room.coupling.feedback_rank == 0
        assert room.crac_of(2) is room.cracs[0]
        assert room.rack_slice(1) == slice(2, 4)


class TestStackedEquivalence:
    """The acceptance-criteria equivalences, all bit-for-bit."""

    def test_stacked_racks_match_per_rack_runs(self):
        """run_stacked_racks == FleetSimulator per rack, bit-for-bit."""
        def build(seed):
            return homogeneous_rack(
                n_servers=3,
                duration_s=40.0,
                seed=seed,
                fleet=FleetConfig(n_servers=3, recirc_fraction=0.25),
            )

        stacked = run_stacked_racks(
            [build(0), build(7)], duration_s=40.0, dt_s=0.5, record_decimation=2
        )
        for seed, stacked_result in zip((0, 7), stacked):
            solo = FleetSimulator(
                build(seed), dt_s=0.5, record_decimation=2, backend="vectorized"
            ).run(40.0, label=stacked_result.label)
            _assert_results_equal(stacked_result, solo)
            assert stacked_result.extras["backend"] == "vectorized"
            assert stacked_result.extras["stacked"]["n_racks"] == 2
            assert stacked_result.extras["stacked"]["width"] == 6

    def test_zero_inter_rack_room_matches_independent_racks(self):
        """A room with no inter-rack terms == independent per-rack runs."""
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=3,
            servers_per_rack=4,
            inter_rack_fraction=0.0,
            crac=CRACConfig(return_sensitivity_k_per_k=0.0),
        )
        room = uniform_room(cfg, duration_s=40.0, seed=3)
        assert room.coupling.feedback_rank == 0
        assert not room.coupling.cross_blocks
        result = RoomSimulator(room, dt_s=0.5, record_decimation=2).run(40.0)
        assert result.extras["backend"] == "vectorized"

        from repro.room.scenarios import _rack_seed

        for r in range(3):
            solo_rack = homogeneous_rack(
                n_servers=4,
                duration_s=40.0,
                seed=_rack_seed(3, r),
                fleet=cfg.fleet_config(),
            )
            solo = FleetSimulator(
                solo_rack, dt_s=0.5, record_decimation=2, backend="vectorized"
            ).run(40.0, label=result.rack_results[r].label)
            _assert_results_equal(result.rack_results[r], solo)

    def test_sparse_matches_equivalent_dense_matrix(self):
        """Sparse room coupling == one dense RecirculationMatrix rack."""
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=2,
            servers_per_rack=2,
            inter_rack_fraction=0.1,
            crac=CRACConfig(return_sensitivity_k_per_k=0.0),
        )
        sparse_room = uniform_room(cfg, duration_s=40.0, seed=5)
        dense_room = uniform_room(cfg, duration_s=40.0, seed=5)
        dense = dense_room.coupling.to_recirculation_matrix()
        # One 4-server "rack" spanning the room, coupled by the dense
        # equivalent matrix - same physics, different mat-vec.
        from repro.fleet.rack import Rack

        flat = Rack(
            dense_room.slots, coupling=dense, exhaust=dense_room.exhaust
        )
        dense_result = FleetSimulator(
            flat, dt_s=0.5, record_decimation=2, backend="vectorized"
        ).run(40.0)
        sparse_result = RoomSimulator(
            sparse_room, dt_s=0.5, record_decimation=2, backend="vectorized"
        ).run(40.0)
        sparse_servers = [
            s for rack in sparse_result.rack_results for s in rack.server_results
        ]
        for sparse_server, dense_server in zip(
            sparse_servers, dense_result.server_results
        ):
            for name, channel in sparse_server.channels.items():
                assert np.allclose(
                    channel,
                    dense_server.channels[name],
                    rtol=1e-10,
                    atol=1e-9,
                ), name

    def test_scalar_room_backend_matches_vectorized(self):
        cfg = RoomConfig(n_rows=2, racks_per_row=2, servers_per_rack=2)
        scalar = RoomSimulator(
            uniform_room(cfg, duration_s=30.0, seed=1),
            dt_s=0.5,
            record_decimation=2,
            backend="scalar",
        ).run(30.0)
        vectorized = RoomSimulator(
            uniform_room(cfg, duration_s=30.0, seed=1),
            dt_s=0.5,
            record_decimation=2,
            backend="vectorized",
        ).run(30.0)
        assert scalar.extras["backend"] == "scalar"
        assert vectorized.extras["backend"] == "vectorized"
        for rack_s, rack_v in zip(scalar.rack_results, vectorized.rack_results):
            _assert_results_equal(rack_s, rack_v)
        assert scalar.summary() == vectorized.summary()

    def test_stacked_rejects_mismatched_exhaust(self):
        a = homogeneous_rack(n_servers=2, duration_s=30.0)
        b = homogeneous_rack(
            n_servers=2,
            duration_s=30.0,
            fleet=FleetConfig(n_servers=2, exhaust_conductance_w_per_k=80.0),
        )
        assert stacked_unsupported_reason([a, b]) is not None
        with pytest.raises(SimulationError):
            run_stacked_racks([a, b], duration_s=30.0, dt_s=0.5)


_LANES = ("scalar", "vectorized", "fused")


def _assert_servers_equal(servers_a, servers_b):
    """Per-server channels, energy and performance agree bit for bit."""
    assert len(servers_a) == len(servers_b)
    for a, b in zip(servers_a, servers_b):
        assert diff_results(a, b) is None
        assert a.energy == b.energy
        assert a.performance == b.performance


class TestOneDriver:
    """Racks and rooms share one lockstep driver, so they agree exactly."""

    @pytest.mark.parametrize("backend", _LANES)
    def test_one_rack_room_matches_rack_under_faults(self, backend):
        schedule = FaultSchedule(
            events=(
                FaultEvent("dropout", server=1, start_s=20.0, duration_s=40.0),
                FaultEvent("fan_seize", server=2, start_s=30.0, duration_s=60.0),
                FaultEvent(
                    "offset", server=3, start_s=10.0, duration_s=80.0, magnitude=-3.0
                ),
            )
        )

        def rack():
            return heterogeneous_sensor_rack(n_servers=4, duration_s=120.0)

        fleet = FleetSimulator(rack(), backend=backend, faults=schedule).run(120.0)
        room = RoomSimulator(
            Room([rack()]), backend=backend, faults=schedule
        ).run(120.0)
        (racked,) = room.rack_results
        assert fleet.extras["backend"] == room.extras["backend"] == backend
        _assert_servers_equal(racked.server_results, fleet.server_results)
        assert racked.mean_inlet_c == fleet.mean_inlet_c
        assert room.extras["faults"] == fleet.extras["faults"]

    @pytest.mark.parametrize("backend", _LANES)
    def test_rack_carrying_dynamic_coupling_matches_room(self, backend):
        cfg = RoomConfig(
            n_rows=1,
            racks_per_row=2,
            servers_per_rack=3,
            crac=CRACConfig(supply_time_constant_s=30.0),
        )
        room = uniform_room(cfg, duration_s=60.0)
        assert room.coupling.is_dynamic
        rack = Rack(room.slots, coupling=room.coupling, exhaust=room.exhaust)
        flat = FleetSimulator(rack, dt_s=0.5, backend=backend).run(60.0)
        reference = RoomSimulator(
            uniform_room(cfg, duration_s=60.0), dt_s=0.5, backend=backend
        ).run(60.0)
        assert flat.extras["backend"] == backend
        _assert_servers_equal(
            flat.server_results,
            [s for r in reference.rack_results for s in r.server_results],
        )
        assert flat.mean_inlet_c == tuple(
            v for r in reference.rack_results for v in r.mean_inlet_c
        )

    @pytest.mark.parametrize("decimation", [0, 2.5])
    @pytest.mark.parametrize("scope", ["rack", "room"])
    @pytest.mark.parametrize("backend", _LANES)
    def test_record_decimation_rejected_at_construction(
        self, backend, scope, decimation
    ):
        if scope == "rack":
            driver = FleetSimulator
            target = homogeneous_rack(n_servers=2, duration_s=10.0)
        else:
            driver = RoomSimulator
            target = uniform_room(
                RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2),
                duration_s=10.0,
            )
        with pytest.raises(SimulationError, match="record_decimation"):
            driver(target, backend=backend, record_decimation=decimation)


class TestRoomScenariosAndResult:
    def test_registry_builds_and_runs_vectorized(self):
        cfg = RoomConfig(n_rows=2, racks_per_row=2, servers_per_rack=2)
        for name in sorted(ROOM_SCENARIOS):
            room = build_room_scenario(name, cfg, duration_s=20.0, seed=2)
            assert room.n_racks == 4
            result = RoomSimulator(room, dt_s=0.5, record_decimation=5).run(20.0)
            assert result.extras["backend"] == "vectorized"
            assert result.extras["controller_backend"] == "vectorized"
            summary = result.summary()
            assert all(np.isfinite(v) for v in summary.values()), name

    def test_failed_crac_heats_its_group(self):
        cfg = RoomConfig(n_rows=2, racks_per_row=2, servers_per_rack=2)
        room = failed_crac_room(cfg, duration_s=20.0, seed=2, failed_unit=0)
        supplies = room.supply_temperatures_c()
        rise = room.cracs[0].config.failure_supply_rise_c
        setpoint = room.cracs[0].config.supply_setpoint_c
        assert supplies[0] == supplies[1] == setpoint + rise
        assert supplies[2] == supplies[3] == setpoint

    def test_hot_spot_rack_spreads_inlets(self):
        cfg = RoomConfig(n_rows=1, racks_per_row=3, servers_per_rack=2)
        hot = hot_spot_rack_room(cfg, duration_s=60.0, seed=1, hot_rack=0)
        result = RoomSimulator(hot, dt_s=0.5, record_decimation=5).run(60.0)
        per_rack = result.metrics.per_rack_mean_inlet_c
        # The hot rack's neighbours breathe its exhaust; rack 2 is fed
        # only through the (weaker) CRAC loop, so inlets fall with
        # distance from the hot rack.
        assert per_rack[1] > per_rack[2]
        assert result.metrics.inlet_spread_c > 0.0

    def test_mixed_aisles_alternates_schemes(self):
        cfg = RoomConfig(n_rows=2, racks_per_row=2, servers_per_rack=2)
        room = mixed_aisles_room(
            cfg, duration_s=20.0, seed=1, schemes=("rcoord", "uncoordinated")
        )
        from repro.core.rules import RuleBasedCoordinator
        from repro.core.uncoordinated import UncoordinatedCoordinator

        row0 = room.racks[0].slots[0].controller.coordinator
        row1 = room.racks[2].slots[0].controller.coordinator
        assert isinstance(row0, RuleBasedCoordinator)
        assert isinstance(row1, UncoordinatedCoordinator)

    def test_containment_reduces_coupling(self):
        def spread(containment):
            cfg = RoomConfig(
                n_rows=1,
                racks_per_row=3,
                servers_per_rack=2,
                containment=containment,
            )
            room = hot_spot_rack_room(cfg, duration_s=60.0, seed=1)
            result = RoomSimulator(room, dt_s=0.5, record_decimation=5).run(60.0)
            return result.metrics.per_rack_mean_inlet_c[1]

        assert spread("none") > spread("hot_aisle")

    def test_room_result_metrics_and_crac_energy(self):
        cfg = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        room = uniform_room(cfg, duration_s=20.0, seed=1)
        result = RoomSimulator(room, dt_s=0.5, record_decimation=5).run(20.0)
        metrics = result.metrics
        it_energy = sum(r.metrics.total_energy_j for r in result.rack_results)
        assert metrics.crac_energy_j == pytest.approx(
            it_energy / cfg.crac.cop
        )
        assert metrics.room_energy_j == pytest.approx(
            it_energy + metrics.crac_energy_j
        )
        assert result.n_servers == 4
        assert len(result.server_results) == 4
        assert result.times.size == result.rack(0).times.size

    def test_inlet_limit_flows_from_config_to_metric(self):
        cfg_a = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=2)
        cfg_b = RoomConfig(
            n_rows=1, racks_per_row=2, servers_per_rack=2, inlet_limit_c=30.0
        )
        result_a = RoomSimulator(
            uniform_room(cfg_a, duration_s=20.0, seed=1),
            dt_s=0.5,
            record_decimation=5,
        ).run(20.0)
        result_b = RoomSimulator(
            uniform_room(cfg_b, duration_s=20.0, seed=1),
            dt_s=0.5,
            record_decimation=5,
        ).run(20.0)
        # Same physics, tighter limit: the margin shifts by exactly the
        # limit difference.
        assert result_b.metrics.supply_margin_c == pytest.approx(
            result_a.metrics.supply_margin_c - 5.0
        )
        # An explicit simulator override still wins over the room's limit.
        result_c = RoomSimulator(
            uniform_room(cfg_b, duration_s=20.0, seed=1),
            dt_s=0.5,
            record_decimation=5,
            inlet_limit_c=40.0,
        ).run(20.0)
        assert result_c.inlet_limit_c == 40.0

    def test_unknown_scenario_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            build_room_scenario("warehouse")
