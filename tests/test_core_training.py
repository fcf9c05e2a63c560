"""Tests for Train(), the Hogwild cost model, and the training pipeline."""

from __future__ import annotations

import pathlib
import runpy
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.cluster.machine import MachineSpec
from repro.core.checkpoint import CheckpointManager, InMemoryCheckpointStorage
from repro.core.config import ConfigRecord
from repro.core.grid import GridSpec
from repro.core.recovery import CrashPlan
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import (
    TrainerSettings,
    TrainingPipeline,
    checkpoint_key,
    train_config,
)
from repro.exceptions import ClusterError, ConfigError, DataError, SimulatedCrash
from repro.models.bpr import BPRHyperParams
from tests.conftest import assert_states_equal

FAST = TrainerSettings(
    max_epochs_full=3, max_epochs_incremental=2, sampler="uniform"
)


def config_for(dataset, number=0, warm_start=False, day=0, **params):
    return ConfigRecord(
        dataset.retailer_id,
        number,
        BPRHyperParams(n_factors=6, seed=number, **params),
        warm_start=warm_start,
        day=day,
    )


class TestTrainConfig:
    def test_returns_model_and_metrics(self, small_dataset):
        model, output = train_config(config_for(small_dataset), small_dataset, FAST)
        assert model.retailer_id == small_dataset.retailer_id
        assert 0.0 <= output.map_at_10 <= 1.0
        assert output.epochs_run >= 1
        assert output.sgd_steps > 0
        assert output.train_seconds > 0

    def test_retailer_mismatch_rejected(self, small_dataset, tiny_dataset):
        with pytest.raises(DataError):
            train_config(config_for(small_dataset), tiny_dataset, FAST)

    def test_warm_start_runs_fewer_epochs(self, small_dataset):
        cold_config = config_for(small_dataset, number=1)
        cold_model, cold_output = train_config(cold_config, small_dataset, FAST)
        warm_config = config_for(small_dataset, number=1, warm_start=True, day=1)
        _, warm_output = train_config(
            warm_config, small_dataset, FAST, warm_model=cold_model
        )
        assert warm_output.epochs_run <= FAST.max_epochs_incremental
        assert cold_output.epochs_run <= FAST.max_epochs_full

    def test_checkpoints_written_on_interval(self, small_dataset):
        settings = TrainerSettings(
            max_epochs_full=4,
            sampler="uniform",
            seconds_per_sgd_step=1.0,  # huge: every epoch crosses the interval
            checkpoint_interval_seconds=10.0,
        )
        manager = CheckpointManager(settings.checkpoint_interval_seconds)
        config = config_for(small_dataset)
        train_config(config, small_dataset, settings, checkpoints=manager)
        assert manager.stats.writes >= 2
        # Finished tasks discard their checkpoint.
        assert not manager.has_checkpoint(config.key)

    def test_a_resumed_train_config_reads_its_checkpoint_once(
        self, small_dataset
    ):
        """The resume decodes the blob its existence check read."""

        class CountingStorage(InMemoryCheckpointStorage):
            def __init__(self):
                super().__init__()
                self.reads = Counter()

            def get(self, key):
                self.reads[key] += 1
                return super().get(key)

        settings = TrainerSettings(
            max_epochs_full=4,
            sampler="uniform",
            seconds_per_sgd_step=1.0,  # huge: every epoch crosses the interval
            checkpoint_interval_seconds=10.0,
        )
        storage = CountingStorage()
        manager = CheckpointManager(
            settings.checkpoint_interval_seconds, storage=storage
        )
        config = config_for(small_dataset)
        crash = CrashPlan().crash_at("train_epoch", label=f"{config.key}@e1")
        with pytest.raises(SimulatedCrash):
            train_config(
                config, small_dataset, settings,
                checkpoints=manager, crash_plan=crash,
            )
        storage.reads.clear()
        train_config(config, small_dataset, settings, checkpoints=manager)
        assert manager.stats.restores == 1
        assert storage.reads == {checkpoint_key(config): 1}

    def test_deterministic(self, small_dataset):
        _, a = train_config(config_for(small_dataset), small_dataset, FAST)
        _, b = train_config(config_for(small_dataset), small_dataset, FAST)
        assert a.map_at_10 == b.map_at_10


class TestTrainerSettings:
    def test_thread_speedup(self):
        assert TrainerSettings(n_threads=1).thread_speedup() == 1.0
        four = TrainerSettings(n_threads=4, thread_efficiency=0.85)
        assert four.thread_speedup() == pytest.approx(1 + 3 * 0.85)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainerSettings(n_threads=0)
        with pytest.raises(ConfigError):
            TrainerSettings(sampler="magic")


class TestThreadCostModel:
    """Hogwild threads are modelled, not run: ``thread_speedup()`` bills them."""

    @pytest.mark.parametrize(
        "threads, speedup", [(1, 1.0), (2, 1.85), (4, 3.55), (8, 6.95)]
    )
    def test_default_efficiency_table(self, threads, speedup):
        assert TrainerSettings(n_threads=threads).thread_speedup() == (
            pytest.approx(speedup)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=64),
        efficiency=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_between_one_and_linear(self, threads, efficiency):
        model = TrainerSettings(n_threads=threads, thread_efficiency=efficiency)
        one_more = TrainerSettings(
            n_threads=threads + 1, thread_efficiency=efficiency
        )
        assert 1.0 <= model.thread_speedup() <= threads
        assert model.thread_speedup() <= one_more.thread_speedup()

    def test_simulated_seconds_divide_by_the_speedup(self, small_dataset):
        """Threads shorten the billed time and change nothing that trains."""
        config = config_for(small_dataset)
        _, serial = train_config(
            config, small_dataset, replace(FAST, n_threads=1)
        )
        _, threaded = train_config(
            config, small_dataset, replace(FAST, n_threads=4)
        )
        assert threaded.sgd_steps == serial.sgd_steps
        assert threaded.metrics == serial.metrics
        assert serial.train_seconds / threaded.train_seconds == pytest.approx(
            TrainerSettings(n_threads=4).thread_speedup()
        )

    def test_cost_planning_example_prints_the_modelled_table(self, capsys):
        """The example bills threads through the model, digit for digit."""
        example = (
            pathlib.Path(__file__).resolve().parents[1]
            / "examples"
            / "cluster_cost_planning.py"
        )
        runpy.run_path(str(example), run_name="__main__")
        table = capsys.readouterr().out.splitlines()[-4:]
        assert [line.split() for line in table] == [
            ["1", "3.00", "0.1890"],
            ["2", "1.62", "0.1265"],
            ["4", "0.85", "0.0913"],
            ["8", "0.43", "0.0725"],
        ]


class TestTrainingPipeline:
    def run_pipeline(self, dataset, configs=None, settings=FAST, seed=0):
        cluster = build_cluster(n_cells=2, machines_per_cell=4)
        registry = ModelRegistry()
        pipeline = TrainingPipeline(cluster, registry, settings=settings, seed=seed)
        if configs is None:
            configs = SweepPlanner(GridSpec.small()).full_sweep([dataset]).configs
        outputs, stats = pipeline.run(dataset, configs)
        return registry, outputs, stats

    def test_trains_all_configs_and_publishes(self, tiny_dataset):
        registry, outputs, stats = self.run_pipeline(tiny_dataset)
        assert stats.configs_trained == len(outputs) > 0
        assert registry.model_count(tiny_dataset.retailer_id) == len(outputs)
        assert stats.total_cost > 0
        assert stats.makespan_seconds > 0
        assert stats.failure is None

    def test_splits_across_cells(self, small_dataset):
        registry, outputs, stats = self.run_pipeline(small_dataset)
        assert len(stats.per_cell) == 2
        assert sum(s.map_tasks for s in stats.per_cell.values()) == len(outputs)

    def test_best_model_beats_worst(self, small_dataset):
        registry, outputs, _ = self.run_pipeline(small_dataset)
        maps = sorted(o.map_at_10 for o in outputs)
        best = registry.best(small_dataset.retailer_id)
        assert best.map_at_10 == maps[-1]

    def test_empty_config_list(self, tiny_dataset):
        registry, outputs, stats = self.run_pipeline(tiny_dataset, configs=[])
        assert outputs == []
        assert stats.configs_trained == 0

    def test_a_run_trains_one_retailer(self, tiny_dataset, small_dataset):
        """A config of another retailer is refused before any job runs."""
        configs = SweepPlanner(GridSpec.small()).full_sweep([tiny_dataset, small_dataset]).configs
        registry = ModelRegistry()
        pipeline = TrainingPipeline(build_cluster(n_cells=1, machines_per_cell=4), registry)
        with pytest.raises(DataError, match=small_dataset.retailer_id):
            pipeline.run(tiny_dataset, configs)
        assert registry.retailers() == [] and pipeline.ledger.total() == 0

    def test_a_run_that_cannot_be_split_fails_every_config(self, tiny_dataset, monkeypatch):
        registry = ModelRegistry()
        cluster = build_cluster(n_cells=2, machines_per_cell=4)
        configs = SweepPlanner(GridSpec.small()).full_sweep([tiny_dataset]).configs

        def no_capacity(total_shards):
            raise ClusterError("no free capacity")

        monkeypatch.setattr(cluster, "split_by_capacity", no_capacity)
        outputs, stats = TrainingPipeline(cluster, registry, settings=FAST).run(
            tiny_dataset, configs
        )
        assert outputs == [] and not registry.has_models(tiny_dataset.retailer_id)
        assert (stats.configs_trained, stats.configs_failed) == (0, len(configs))
        assert stats.failure == "training: no free capacity"


class TestSimulatedTrainFanOut:
    """Train()'s workers are slots on the simulated clock: a cell's job
    gets one per free ``n_threads`` CPUs, and the models it trains are
    the same however many there are."""

    def run_on_machines(self, dataset, n_machines):
        cluster = build_cluster(
            n_cells=1,
            machines_per_cell=n_machines,
            machine_spec=MachineSpec(cpus=FAST.n_threads, memory_gb=64.0),
        )
        registry = ModelRegistry()
        configs = [config_for(dataset, number) for number in range(5)]
        outputs, stats = TrainingPipeline(cluster, registry, settings=FAST).run(
            dataset, configs
        )
        return registry, outputs, stats

    @pytest.mark.parametrize("n_machines", [2, 3, 8])
    def test_trained_models_do_not_depend_on_the_worker_count(
        self, tiny_dataset, n_machines
    ):
        one_registry, one_outputs, one_stats = self.run_on_machines(
            tiny_dataset, 1
        )
        registry, outputs, stats = self.run_on_machines(tiny_dataset, n_machines)
        (one_job,) = one_stats.per_cell.values()
        (job,) = stats.per_cell.values()
        assert len(one_job.worker_busy_seconds) == 1
        assert len(job.worker_busy_seconds) == min(n_machines, len(outputs))
        assert outputs == one_outputs
        for output in outputs:
            rid, number = output.retailer_id, output.config.model_number
            assert_states_equal(
                registry.get(rid, number).model.get_state(),
                one_registry.get(rid, number).model.get_state(),
            )
