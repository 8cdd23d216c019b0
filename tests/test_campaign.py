"""Campaign runner, shared parallel machinery, and parallel sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FleetError, SimulationError
from repro.fleet import CampaignRunner, CampaignTask, campaign_grid
from repro.sim.backends import BACKENDS
from repro.sim.parallel import parallel_map, resolve_workers
from repro.sim.sweep import ParameterSweep


def _square(x):
    return x * x


def _run_short_static(speed):
    """Module-level sweep runner so the process pool can pickle it."""
    from tests.test_sim import make_static_sim

    return make_static_sim(speed=speed).run(20.0)


class TestParallelMap:
    def test_serial_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        assert parallel_map(_square, list(range(8)), workers=2) == [
            x * x for x in range(8)
        ]

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            parallel_map(_square, [1], workers=-1)

    def test_resolve_workers_caps_at_items(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(0, 3) == 1


class TestCampaignTask:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(FleetError):
            CampaignTask(scenario="nope")

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(FleetError, match="vectorised"):
            CampaignTask(scenario="homogeneous", backend="vectorised")
        for backend in BACKENDS:
            assert CampaignTask(scenario="homogeneous", backend=backend)

    def test_label_is_stable(self):
        task = CampaignTask(
            scenario="hot_spot", n_servers=4, seed=3, recirc_fraction=0.25
        )
        assert task.label == "hot_spot/n4/f0.25/s3"

    def test_grid_order_and_count(self):
        tasks = campaign_grid(
            ["homogeneous", "hot_spot"],
            seeds=[0, 1],
            recirc_fractions=[0.0, 0.3],
            n_servers=2,
            duration_s=30.0,
        )
        assert len(tasks) == 8
        assert tasks[0].scenario == "homogeneous"
        assert [t.seed for t in tasks[:2]] == [0, 1]
        assert tasks[0].recirc_fraction == 0.0
        assert tasks[2].recirc_fraction == 0.3


class TestCampaignRunner:
    def test_empty_campaign_rejected(self):
        with pytest.raises(FleetError):
            CampaignRunner().run([])

    def test_sixteen_server_hetero_campaign_parallel_matches_serial(self):
        """Acceptance: a 16-server heterogeneous-rack campaign through
        workers=4 produces identical FleetResult metrics as the serial
        path."""
        tasks = [
            CampaignTask(
                scenario="hetero_sensors",
                n_servers=16,
                seed=seed,
                duration_s=60.0,
                dt_s=0.5,
                record_decimation=5,
                recirc_fraction=0.25,
            )
            for seed in (0, 1)
        ]
        serial = CampaignRunner(workers=None).run(tasks)
        parallel = CampaignRunner(workers=4).run(tasks)

        assert len(serial) == len(parallel) == 2
        for s, p in zip(serial, parallel):
            assert s.n_servers == p.n_servers == 16
            assert s.summary() == p.summary()
            assert s.mean_inlet_c == p.mean_inlet_c
            for rs, rp in zip(s.server_results, p.server_results):
                for name, channel in rs.channels.items():
                    assert np.array_equal(channel, rp.channels[name])

    def test_results_keep_task_order_and_labels(self):
        tasks = campaign_grid(
            ["hot_spot", "homogeneous"],
            seeds=[5],
            recirc_fractions=[0.2],
            n_servers=2,
            duration_s=20.0,
            dt_s=0.5,
            record_decimation=5,
        )
        results = CampaignRunner().run(tasks)
        assert [r.label for r in results] == [t.label for t in tasks]
        assert all(r.extras["task"] == t for r, t in zip(results, tasks))

    def test_run_summaries_flattens(self):
        task = CampaignTask(
            scenario="homogeneous",
            n_servers=2,
            duration_s=20.0,
            dt_s=0.5,
            record_decimation=5,
        )
        summaries = CampaignRunner().run_summaries([task])
        assert summaries[0]["n_servers"] == 2.0
        assert summaries[0]["total_energy_j"] > 0.0


class TestCampaignChunking:
    """Same-shape tasks stack into one batch run without changing results."""

    def _tasks(self, n_servers=3, seeds=(0, 1, 2)):
        return [
            CampaignTask(
                scenario="homogeneous",
                n_servers=n_servers,
                seed=seed,
                duration_s=30.0,
                dt_s=0.5,
                record_decimation=5,
            )
            for seed in seeds
        ]

    def test_chunked_matches_unchunked_bit_for_bit(self):
        tasks = self._tasks()
        solo = CampaignRunner(chunk_size=1).run(tasks)
        chunked = CampaignRunner(chunk_size=4).run(tasks)
        for s, c in zip(solo, chunked):
            assert s.label == c.label
            assert s.mean_inlet_c == c.mean_inlet_c
            for rs, rc in zip(s.server_results, c.server_results):
                for name, channel in rs.channels.items():
                    assert np.array_equal(channel, rc.channels[name])

    def test_chunk_composition_recorded_in_extras(self):
        tasks = self._tasks()
        results = CampaignRunner(chunk_size=2).run(tasks)
        # Three same-shape tasks, chunk_size 2 -> a pair and a singleton.
        assert results[0].extras["chunk"] == {
            "size": 2,
            "labels": (tasks[0].label, tasks[1].label),
            "position": 0,
        }
        assert results[1].extras["chunk"]["position"] == 1
        assert results[0].extras["stacked"]["width"] == 6
        assert "chunk" not in results[2].extras  # singleton runs solo
        assert all(r.extras["task"] == t for r, t in zip(results, tasks))

    def test_mixed_shapes_chunk_separately_in_task_order(self):
        tasks = self._tasks(n_servers=2, seeds=(0,)) + self._tasks(
            n_servers=3, seeds=(1,)
        ) + self._tasks(n_servers=2, seeds=(2,))
        results = CampaignRunner(chunk_size=4).run(tasks)
        assert [r.label for r in results] == [t.label for t in tasks]
        assert [r.n_servers for r in results] == [2, 3, 2]
        # The two 2-server tasks stacked together despite the 3-server
        # task sitting between them.
        assert results[0].extras["chunk"]["size"] == 2
        assert results[2].extras["chunk"]["position"] == 1

    def test_scalar_backend_tasks_do_not_stack(self):
        tasks = [
            CampaignTask(
                scenario="homogeneous",
                n_servers=2,
                seed=seed,
                duration_s=20.0,
                dt_s=0.5,
                record_decimation=5,
                backend="scalar",
            )
            for seed in (0, 1)
        ]
        results = CampaignRunner(chunk_size=4).run(tasks)
        for result in results:
            assert result.extras["backend"] == "scalar"
            assert "chunk" not in result.extras

    def test_chunked_parallel_matches_serial(self):
        tasks = self._tasks(seeds=(0, 1, 2, 3))
        serial = CampaignRunner(workers=None, chunk_size=2).run(tasks)
        parallel = CampaignRunner(workers=2, chunk_size=2).run(tasks)
        for s, p in zip(serial, parallel):
            assert s.summary() == p.summary()

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(FleetError):
            CampaignRunner(chunk_size=0)


class TestParallelSweep:
    def test_workers_match_sequential(self):
        sweep = ParameterSweep(
            _run_short_static, metric_fns={"fan_j": lambda r: r.fan_energy_j}
        )
        values = [2000.0, 5000.0, 8000.0]
        seq = sweep.run(values)
        par = sweep.run(values, workers=2)
        assert [p.value for p in par] == values
        assert [p.metrics["fan_j"] for p in par] == [
            p.metrics["fan_j"] for p in seq
        ]
