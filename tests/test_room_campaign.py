"""Room campaign tasks: pickling, registry validation, determinism.

The contract mirrors the fleet campaign's: a :class:`RoomTask` is pure
data, a worker rebuilds the identical room (and fault schedule) from it,
and serial vs process-pool execution produce value-identical results -
including for mixed rack/room campaigns and fault scenarios.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import FleetError, ReproError
from repro.faults import FaultEvent, FaultSchedule
from repro.fleet import CampaignRunner, CampaignTask
from repro.room import RoomResult, RoomTask, room_campaign_grid, run_room_task
from repro.sim.backends import BACKENDS


def _tasks():
    schedule = FaultSchedule(
        events=(FaultEvent("dropout", server=0, start_s=20.0, duration_s=25.0),),
        seed=3,
        label="dropout0",
    )
    return [
        CampaignTask(
            scenario="homogeneous", n_servers=2, seed=0, duration_s=60.0, dt_s=0.5
        ),
        RoomTask(
            scenario="uniform",
            racks_per_row=2,
            servers_per_rack=2,
            seed=1,
            duration_s=60.0,
            dt_s=0.5,
        ),
        RoomTask(
            scenario="uniform",
            racks_per_row=2,
            servers_per_rack=2,
            seed=1,
            duration_s=60.0,
            dt_s=0.5,
            faults=schedule,
        ),
        RoomTask(
            scenario="crac_brownout",
            racks_per_row=2,
            servers_per_rack=2,
            seed=2,
            duration_s=60.0,
            dt_s=0.5,
        ),
    ]


def _assert_equal(a, b):
    assert type(a) is type(b)
    assert a.label == b.label
    for ra, rb in zip(a.server_results, b.server_results):
        for name, chan in ra.channels.items():
            assert np.array_equal(chan, rb.channels[name], equal_nan=True)


class TestRoomTask:
    def test_validation(self):
        with pytest.raises(FleetError):
            RoomTask(scenario="no_such_room")
        with pytest.raises(FleetError):
            # Fault scenarios bring their own schedule.
            RoomTask(
                scenario="crac_brownout",
                faults=FaultSchedule(
                    events=(FaultEvent("stuck", server=0),)
                ),
            )

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(FleetError, match="vectorised"):
            RoomTask(scenario="uniform", backend="vectorised")
        for backend in BACKENDS:
            assert RoomTask(scenario="uniform", backend=backend)

    def test_picklable_with_fault_schedule(self):
        task = _tasks()[2]
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.faults.events == task.faults.events

    def test_label_and_grid(self):
        grid = room_campaign_grid(
            ["uniform", "failed_crac"],
            seeds=[0, 1],
            containments=["none", "cold_aisle"],
            racks_per_row=2,
            servers_per_rack=2,
            duration_s=30.0,
        )
        assert len(grid) == 8
        assert len({task.label for task in grid}) == 8

    def test_run_room_task_attaches_task_and_faults(self):
        result = run_room_task(_tasks()[2])
        assert isinstance(result, RoomResult)
        assert result.extras["task"].seed == 1
        assert result.extras["faults"]["n_fired"] == 1

    def test_fault_scenario_task_builds_own_schedule(self):
        result = run_room_task(_tasks()[3])
        assert result.extras["faults"]["schedule"]["label"] == "crac_brownout"

    def test_explicit_crac_brownout_schedule_on_plain_scenario(self):
        """Room scenarios compose with CRAC faults: the worker derives
        the dynamic supply rows from the schedule's targeted units."""
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    "crac_brownout",
                    server=0,
                    start_s=15.0,
                    duration_s=20.0,
                    magnitude=5.0,
                ),
            )
        )
        task = RoomTask(
            scenario="hot_spot_rack",
            racks_per_row=2,
            servers_per_rack=2,
            seed=4,
            duration_s=60.0,
            dt_s=0.5,
            faults=schedule,
            crac_tau_s=30.0,
        )
        result = run_room_task(task)
        assert result.extras["faults"]["n_fired"] == 1


@pytest.mark.parametrize(
    "task_type, scenario, field, value",
    [
        (CampaignTask, "homogeneous", "n_servers", 0),
        (CampaignTask, "homogeneous", "duration_s", -1.0),
        (CampaignTask, "homogeneous", "dt_s", 0.0),
        (CampaignTask, "homogeneous", "record_decimation", 0),
        (CampaignTask, "homogeneous", "scheme", "bogus"),
        (CampaignTask, "homogeneous", "recirc_fraction", 2.0),
        (CampaignTask, "homogeneous", "faults", "x"),
        (RoomTask, "uniform", "containment", "bogus"),
        (RoomTask, "uniform", "scheme", "bogus"),
        (RoomTask, "uniform", "n_rows", 0),
        (RoomTask, "uniform", "dt_s", 0.0),
        (RoomTask, "uniform", "record_decimation", 0),
    ],
)
def test_bad_field_rejected_at_construction(task_type, scenario, field, value):
    """Both task types fail where the campaign is built, naming the
    field, not later inside a pool worker."""
    with pytest.raises(ReproError, match=field):
        task_type(scenario=scenario, **{field: value})


class TestMixedCampaignDeterminism:
    def test_serial_equals_parallel(self):
        tasks = _tasks()
        serial = CampaignRunner(workers=None).run(tasks)
        parallel = CampaignRunner(workers=2).run(tasks)
        assert len(serial) == len(parallel) == len(tasks)
        for a, b in zip(serial, parallel):
            _assert_equal(a, b)

    def test_results_come_back_in_task_order(self):
        tasks = _tasks()
        results = CampaignRunner(workers=2).run(tasks)
        for task, result in zip(tasks, results):
            assert result.extras["task"] == task

    def test_mixed_chunk_rejected(self):
        from repro.fleet import run_campaign_chunk

        tasks = _tasks()
        with pytest.raises(FleetError):
            run_campaign_chunk([tasks[1], tasks[0]])
        with pytest.raises(FleetError):
            run_campaign_chunk([tasks[0], tasks[1]])

    def test_faulted_rack_tasks_do_not_stack(self):
        schedule = FaultSchedule(
            events=(FaultEvent("stuck", server=0, start_s=10.0, duration_s=20.0),)
        )
        tasks = [
            CampaignTask(
                scenario="homogeneous",
                n_servers=2,
                seed=seed,
                duration_s=40.0,
                dt_s=0.5,
                faults=schedule,
            )
            for seed in (0, 1)
        ]
        results = CampaignRunner(workers=None, chunk_size=4).run(tasks)
        for result in results:
            assert "chunk" not in result.extras
            assert result.extras["faults"]["n_fired"] == 1

    def test_faulted_rack_task_matches_direct_run(self):
        from repro.fleet import FleetSimulator, homogeneous_rack
        from repro.config import FleetConfig

        schedule = FaultSchedule(
            events=(
                FaultEvent("dropout", server=1, start_s=15.0, duration_s=20.0),
            )
        )
        task = CampaignTask(
            scenario="homogeneous",
            n_servers=2,
            seed=7,
            duration_s=60.0,
            dt_s=0.5,
            record_decimation=1,
            faults=schedule,
        )
        [via_campaign] = CampaignRunner(workers=None).run([task])
        rack = homogeneous_rack(
            n_servers=2,
            duration_s=60.0,
            seed=7,
            fleet=FleetConfig(n_servers=2, recirc_fraction=0.25),
        )
        direct = FleetSimulator(
            rack, dt_s=0.5, record_decimation=1, faults=schedule
        ).run(60.0)
        for ra, rb in zip(via_campaign.server_results, direct.server_results):
            for name, chan in ra.channels.items():
                assert np.array_equal(
                    chan, rb.channels[name], equal_nan=True
                )
