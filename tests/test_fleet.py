"""The process-parallel training fleet: executors, pickle contracts,
crash containment, and byte-identical parity.

Everything the fleet ships across a process boundary must pickle
round-trip exactly, a SIGKILLed worker must be contained (retried, then
dead-lettered) instead of hanging the pool, and a sweep run through the
fleet must be byte-identical to the serial reference run — worker
placement must never move a random draw or a published parameter.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.core.config import ConfigRecord
from repro.core.registry import ModelRegistry
from repro.core.training import TrainerSettings, TrainingPipeline, train_config
from repro.exceptions import SigmundError, WorkerCrashError
from repro.fleet.executor import (
    CRASHED,
    ERROR,
    OK,
    FleetTask,
    ProcessFleetExecutor,
    SerialExecutor,
)
from repro.fleet.tasks import (
    CHECKPOINT_EVENT,
    DISCARD_EVENT,
    TrainTaskSpec,
    WorkerCheckpointRecorder,
    run_train_task,
)
from repro.mapreduce.runtime import (
    FAIL_JOB,
    SKIP_RECORD,
    MapReduceError,
    MapReduceJob,
    MapReduceRuntime,
    RemoteMapSpec,
)
from repro.mapreduce.splits import uniform_splits
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.optim import Adagrad, Sgd
from repro.models.trainer import BPRTrainer

FAST = TrainerSettings(
    max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
)


# ----------------------------------------------------------------------
# Module-level task functions (spawn workers pickle these by reference)
# ----------------------------------------------------------------------
def _double(payload):
    return payload * 2


def _raise_value_error(payload):
    raise ValueError(f"bad payload {payload!r}")


def _kamikaze(payload):
    """Kill the worker process dead — no exception, no goodbye."""
    os.kill(os.getpid(), signal.SIGKILL)


def _kamikaze_once(path):
    """Die on the first attempt, succeed on the retry (marker on disk)."""
    if os.path.exists(path):
        return "survived"
    with open(path, "w") as handle:
        handle.write("attempt 1")
    os.kill(os.getpid(), signal.SIGKILL)


def _double_or_kill(payload):
    if payload == 13:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * 2


@pytest.fixture(scope="module")
def pool():
    """One 2-worker pool for the whole module (spawn cost paid once)."""
    with ProcessFleetExecutor(n_workers=2) as executor:
        yield executor


def config_for(dataset, number=0, warm_start=False, day=0, model_kind="bpr", **params):
    return ConfigRecord(
        dataset.retailer_id,
        number,
        BPRHyperParams(n_factors=6, seed=number, **params),
        warm_start=warm_start,
        day=day,
        model_kind=model_kind,
    )


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype
        assert np.array_equal(a[name], b[name]), name


# ----------------------------------------------------------------------
# Pickle round-trips: the fleet's wire format
# ----------------------------------------------------------------------
class TestPickleRoundTrips:
    def test_config_record_roundtrip(self, tiny_dataset):
        config = config_for(tiny_dataset, number=3, warm_start=True, day=2)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_output_record_roundtrip(self, tiny_dataset):
        _, output = train_config(config_for(tiny_dataset), tiny_dataset, FAST)
        clone = pickle.loads(pickle.dumps(output))
        assert clone == output
        assert clone.metrics == output.metrics
        assert clone.map_at_10 == output.map_at_10

    def test_model_state_roundtrip_byte_identical(self, trained_model):
        state = trained_model.get_state()
        clone = pickle.loads(pickle.dumps(state))
        assert_states_equal(clone, state)

    def test_dataset_roundtrip_trains_byte_identical(self, tiny_dataset):
        """The regression that matters: a pickled dataset must produce the
        exact same trained model as the original — any nondeterministic
        or lossy field would silently fork fleet results from serial."""
        clone = pickle.loads(pickle.dumps(tiny_dataset))
        assert clone.retailer_id == tiny_dataset.retailer_id
        assert clone.n_items == tiny_dataset.n_items
        assert clone.n_train_interactions == tiny_dataset.n_train_interactions
        config = config_for(tiny_dataset)
        original_model, original_output = train_config(
            config, tiny_dataset, FAST
        )
        cloned_model, cloned_output = train_config(config, clone, FAST)
        assert cloned_output == original_output
        assert_states_equal(cloned_model.get_state(), original_model.get_state())

    def test_train_task_spec_roundtrip(self, tiny_dataset, trained_model):
        spec = TrainTaskSpec(
            config=config_for(tiny_dataset, warm_start=True, day=1),
            dataset=tiny_dataset,
            settings=FAST,
            warm_state=("bpr", trained_model.get_state()),
            resume=None,
            record_crash_checks=True,
            metrics_enabled=True,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.config == spec.config
        assert clone.settings == spec.settings
        assert clone.warm_state[0] == "bpr"
        assert_states_equal(clone.warm_state[1], spec.warm_state[1])


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestSerialExecutor:
    def test_runs_in_order_and_keys_by_id(self):
        tasks = [FleetTask(str(i), _double, i) for i in range(5)]
        outcomes = SerialExecutor().run_tasks(tasks)
        assert [outcomes[str(i)].value for i in range(5)] == [0, 2, 4, 6, 8]
        assert all(o.status == OK for o in outcomes.values())

    def test_error_is_captured_not_raised(self):
        outcomes = SerialExecutor().run_tasks(
            [FleetTask("bad", _raise_value_error, 1), FleetTask("ok", _double, 2)]
        )
        assert outcomes["bad"].status == ERROR
        assert isinstance(outcomes["bad"].error, ValueError)
        assert outcomes["ok"].value == 4


class TestProcessFleetExecutor:
    def test_runs_tasks_across_workers(self, pool):
        tasks = [FleetTask(str(i), _double, i) for i in range(7)]
        outcomes = pool.run_tasks(tasks)
        assert len(outcomes) == 7
        assert [outcomes[str(i)].value for i in range(7)] == [
            0, 2, 4, 6, 8, 10, 12,
        ]

    def test_task_error_ships_back_and_pool_survives(self, pool):
        outcomes = pool.run_tasks([FleetTask("bad", _raise_value_error, 9)])
        assert outcomes["bad"].status == ERROR
        assert isinstance(outcomes["bad"].error, ValueError)
        # The pool is fully usable afterwards.
        again = pool.run_tasks([FleetTask("ok", _double, 21)])
        assert again["ok"].value == 42

    def test_sigkilled_worker_is_contained(self, pool):
        """The failing-before behavior: a worker dying mid-task used to be
        indistinguishable from a hang.  Now the sentinel flags it, the
        task is retried on a fresh worker, and after max_attempts the
        outcome is CRASHED with a WorkerCrashError."""
        outcomes = pool.run_tasks(
            [FleetTask("doomed", _kamikaze, None), FleetTask("fine", _double, 5)]
        )
        assert outcomes["doomed"].status == CRASHED
        assert isinstance(outcomes["doomed"].error, WorkerCrashError)
        assert outcomes["doomed"].attempts == pool.max_attempts
        # The healthy task and the pool itself are unaffected.
        assert outcomes["fine"].value == 10
        assert pool.run_tasks([FleetTask("x", _double, 1)])["x"].value == 2

    def test_transient_crash_is_retried_to_success(self, pool, tmp_path):
        marker = str(tmp_path / "attempt.marker")
        outcomes = pool.run_tasks([FleetTask("flaky", _kamikaze_once, marker)])
        assert outcomes["flaky"].status == OK
        assert outcomes["flaky"].value == "survived"
        assert outcomes["flaky"].attempts == 2

    def test_invalid_sizing_rejected(self):
        with pytest.raises(SigmundError):
            ProcessFleetExecutor(n_workers=0)
        with pytest.raises(SigmundError):
            ProcessFleetExecutor(max_attempts=0)

    def test_defaults_to_cpu_count(self):
        executor = ProcessFleetExecutor()
        try:
            assert executor.n_workers == (os.cpu_count() or 1)
        finally:
            executor.close()

    def test_closed_pool_rejects_work(self):
        executor = ProcessFleetExecutor(n_workers=1)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(SigmundError):
            executor.run_tasks([FleetTask("x", _double, 1)])


# ----------------------------------------------------------------------
# Worker crashes inside the MapReduce runtime (dead-letter containment)
# ----------------------------------------------------------------------
def _remote_double_job(policy):
    return MapReduceJob(
        name="fleet/doubles",
        mapper=lambda record: [(record, record * 2)],
        failure_policy=policy,
        remote=RemoteMapSpec(
            task_fn=_double_or_kill,
            payload_fn=lambda record: record,
            collect_fn=lambda record, value: [(record, value)],
        ),
    )


class TestRuntimeCrashContainment:
    def test_skip_record_dead_letters_crashed_task(self, pool):
        runtime = MapReduceRuntime(executor=pool)
        records = [1, 13, 4]
        outputs, stats = runtime.run(
            _remote_double_job(SKIP_RECORD), uniform_splits(records, 3)
        )
        assert sorted(outputs) == [2, 8]
        assert len(stats.dead_letters) == 1
        letter = stats.dead_letters[0]
        assert letter.record == 13
        assert isinstance(letter.exception, WorkerCrashError)
        assert letter.attempts == pool.max_attempts
        assert stats.records_skipped == 1

    def test_fail_job_aborts_on_crashed_task(self, pool):
        runtime = MapReduceRuntime(executor=pool)
        with pytest.raises(MapReduceError, match="mapper failed"):
            runtime.run(
                _remote_double_job(FAIL_JOB), uniform_splits([1, 13, 4], 3)
            )
        # Containment: the pool is reusable after both policies.
        assert pool.run_tasks([FleetTask("x", _double, 3)])["x"].value == 6

    def test_without_executor_remote_spec_is_ignored(self):
        runtime = MapReduceRuntime()  # no executor: inline reference path
        outputs, stats = runtime.run(
            _remote_double_job(SKIP_RECORD), uniform_splits([1, 2, 3], 3)
        )
        assert sorted(outputs) == [2, 4, 6]
        assert stats.dead_letters == []


# ----------------------------------------------------------------------
# Byte-identical parity: serial vs SerialExecutor vs process fleet
# ----------------------------------------------------------------------
def _run_pipeline(dataset, configs, executor=None, day=0):
    registry = ModelRegistry()
    pipeline = TrainingPipeline(
        build_cluster(n_cells=1, machines_per_cell=4),
        registry,
        settings=FAST,
        executor=executor,
    )
    outputs, stats = pipeline.run(configs, {dataset.retailer_id: dataset}, day=day)
    states = {
        output.config.key: registry.get(
            output.retailer_id, output.config.model_number
        ).model.get_state()
        for output in outputs
    }
    return outputs, stats, states


class TestPipelineParity:
    def test_fleet_outputs_byte_identical_to_serial(self, tiny_dataset, pool):
        configs = [
            config_for(tiny_dataset, number=0),
            config_for(tiny_dataset, number=1, learning_rate=0.1),
            config_for(tiny_dataset, number=2, model_kind="wals"),
        ]
        serial_out, _, serial_states = _run_pipeline(tiny_dataset, configs)
        inline_out, _, inline_states = _run_pipeline(
            tiny_dataset, configs, executor=SerialExecutor()
        )
        fleet_out, _, fleet_states = _run_pipeline(
            tiny_dataset, configs, executor=pool
        )
        assert inline_out == serial_out
        assert fleet_out == serial_out
        for key in serial_states:
            assert_states_equal(inline_states[key], serial_states[key])
            assert_states_equal(fleet_states[key], serial_states[key])

    def test_run_train_task_matches_train_config(self, tiny_dataset):
        """The worker entry point is the serial Train() in a picklable
        coat: same config, same dataset, same output and state."""
        config = config_for(tiny_dataset, number=5)
        model, output = train_config(config, tiny_dataset, FAST)
        result = run_train_task(
            TrainTaskSpec(config=config, dataset=tiny_dataset, settings=FAST)
        )
        assert result.output == output
        assert result.model_kind == "bpr"
        assert_states_equal(result.model_state, model.get_state())
        assert_states_equal(
            result.optimizer_state, model.optimizer.get_state()
        )


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_factors=st.sampled_from([4, 6]),
    learning_rate=st.sampled_from([0.05, 0.1]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_parallel_equals_serial_property(
    tiny_dataset, pool, n_factors, learning_rate, seed
):
    """Property (fleet determinism contract): for any hyper-parameters,
    the fleet-executed sweep equals the serial one exactly — seeds derive
    from logical lanes, never from process identity."""
    configs = [
        ConfigRecord(
            tiny_dataset.retailer_id,
            number,
            BPRHyperParams(
                n_factors=n_factors, learning_rate=learning_rate, seed=seed + number
            ),
        )
        for number in range(2)
    ]
    serial_out, _, serial_states = _run_pipeline(tiny_dataset, configs)
    fleet_out, _, fleet_states = _run_pipeline(tiny_dataset, configs, executor=pool)
    assert fleet_out == serial_out
    for key in serial_states:
        assert_states_equal(fleet_states[key], serial_states[key])


# ----------------------------------------------------------------------
# Optimizer state hand-off
# ----------------------------------------------------------------------
class TestOptimizerState:
    def test_adagrad_roundtrip(self):
        opt = Adagrad(0.1)
        opt.register("w", np.zeros((3, 2)))
        param = np.zeros((3, 2))
        opt.step_rows("w", param, np.array([1]), np.ones((1, 2)))
        state = opt.get_state()
        clone = Adagrad(0.1)
        clone.register("w", np.zeros((3, 2)))
        clone.set_state(state)
        assert np.array_equal(clone.get_state()["w"], state["w"])

    def test_adagrad_set_state_validates(self):
        opt = Adagrad(0.1)
        opt.register("w", np.zeros((3, 2)))
        with pytest.raises(ValueError, match="unregistered"):
            opt.set_state({"nope": np.zeros((3, 2))})
        with pytest.raises(ValueError, match="shape"):
            opt.set_state({"w": np.zeros((2, 2))})

    def test_sgd_state_is_empty_and_strict(self):
        opt = Sgd(0.1)
        assert opt.get_state() == {}
        opt.set_state({})
        with pytest.raises(ValueError, match="stateless"):
            opt.set_state({"w": np.zeros(2)})

    def test_model_state_set_matches_get(self, tiny_dataset, default_params):
        model = BPRModel(tiny_dataset.catalog, tiny_dataset.taxonomy, default_params)
        BPRTrainer(model, tiny_dataset, max_epochs=1, seed=5).train()
        state = model.get_state()
        opt_state = model.optimizer.get_state()
        clone = BPRModel(tiny_dataset.catalog, tiny_dataset.taxonomy, default_params)
        clone.set_state(state)
        clone.optimizer.set_state(opt_state)
        assert_states_equal(clone.get_state(), state)
        assert_states_equal(clone.optimizer.get_state(), opt_state)


# ----------------------------------------------------------------------
# Worker-side checkpoint recorder mirrors the manager's interval logic
# ----------------------------------------------------------------------
class _FakeModel:
    def __init__(self):
        self.state = {"w": np.arange(4.0)}

    def get_state(self):
        return {name: values.copy() for name, values in self.state.items()}

    def set_state(self, state):
        self.state = {name: values.copy() for name, values in state.items()}


class TestWorkerCheckpointRecorder:
    def test_interval_decisions_match_manager_semantics(self):
        events = []
        recorder = WorkerCheckpointRecorder(300.0, None, events)
        model = _FakeModel()
        assert recorder.maybe_checkpoint("k", model, 10.0, 0) is True
        assert recorder.maybe_checkpoint("k", model, 200.0, 1) is False
        assert recorder.maybe_checkpoint("k", model, 320.0, 2) is True
        kinds = [event[0] for event in events]
        assert kinds == [CHECKPOINT_EVENT, CHECKPOINT_EVENT]
        assert events[0][1] == 0 and events[1][1] == 2

    def test_discard_resets_clock_and_records(self):
        events = []
        recorder = WorkerCheckpointRecorder(300.0, None, events)
        model = _FakeModel()
        recorder.maybe_checkpoint("k", model, 10.0, 0)
        recorder.discard("k")
        # Clock reset: the next write is immediate again.
        assert recorder.maybe_checkpoint("k", model, 11.0, 1) is True
        assert [event[0] for event in events] == [
            CHECKPOINT_EVENT,
            DISCARD_EVENT,
            CHECKPOINT_EVENT,
        ]

    def test_restore_applies_resume_state(self):
        model = _FakeModel()
        resume_state = {"w": np.full(4, 9.0)}
        recorder = WorkerCheckpointRecorder(300.0, (resume_state, 3), [])
        assert recorder.try_restore("k", model) == 3
        assert np.array_equal(model.state["w"], resume_state["w"])

    def test_no_resume_returns_none(self):
        recorder = WorkerCheckpointRecorder(300.0, None, [])
        assert recorder.try_restore("k", _FakeModel()) is None

    def test_checkpoint_event_snapshots_state(self):
        """The recorded state must be a copy: later training updates in
        the worker must not mutate an already-recorded checkpoint."""
        events = []
        recorder = WorkerCheckpointRecorder(300.0, None, events)
        model = _FakeModel()
        recorder.maybe_checkpoint("k", model, 10.0, 0)
        model.state["w"][...] = -1.0
        assert np.array_equal(events[0][3]["w"], np.arange(4.0))


# ----------------------------------------------------------------------
# Service-level wiring
# ----------------------------------------------------------------------
class TestServiceWiring:
    def test_default_service_stays_serial(self, tiny_dataset):
        from repro.core.service import SigmundService

        service = SigmundService(build_cluster(n_cells=1, machines_per_cell=2))
        assert service.executor is None
        service.close()  # no-op, never raises

    def test_n_workers_builds_and_owns_a_pool(self):
        from repro.core.service import SigmundService

        with SigmundService(
            build_cluster(n_cells=1, machines_per_cell=2), n_workers=2
        ) as service:
            assert service.executor is not None
            assert service.executor.n_workers == 2
            assert service.training.runtime.executor is service.executor

    def test_injected_executor_is_not_closed(self, pool):
        from repro.core.service import SigmundService

        service = SigmundService(
            build_cluster(n_cells=1, machines_per_cell=2), executor=pool
        )
        service.close()
        # Still alive: the caller owns it (and the module teardown closes it).
        assert pool.run_tasks([FleetTask("x", _double, 2)])["x"].value == 4
