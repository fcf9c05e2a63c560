"""Tests for Train(), the Hogwild cost model, and the training pipeline."""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.core.checkpoint import CheckpointManager
from repro.core.config import ConfigRecord
from repro.core.grid import GridSpec
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import (
    TrainerSettings,
    TrainingPipeline,
    train_config,
)
from repro.exceptions import ConfigError, DataError
from repro.models.bpr import BPRHyperParams

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
        assert manager.writes >= 2
        # Finished tasks discard their checkpoint.
        assert not manager.has_checkpoint(config.key)

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


class TestTrainingPipeline:
    def run_pipeline(self, datasets, configs=None, settings=FAST, seed=0):
        cluster = build_cluster(n_cells=2, machines_per_cell=4)
        registry = ModelRegistry()
        pipeline = TrainingPipeline(cluster, registry, settings=settings, seed=seed)
        by_id = {d.retailer_id: d for d in datasets}
        if configs is None:
            plan = SweepPlanner(GridSpec.small()).full_sweep(datasets)
            configs = plan.configs
        outputs, stats = pipeline.run(configs, by_id)
        return registry, outputs, stats

    def test_trains_all_configs_and_publishes(self, tiny_dataset):
        registry, outputs, stats = self.run_pipeline([tiny_dataset])
        assert stats.configs_trained == len(outputs) > 0
        assert registry.model_count(tiny_dataset.retailer_id) == len(outputs)
        assert stats.total_cost > 0
        assert stats.makespan_seconds > 0

    def test_splits_across_cells(self, tiny_dataset, small_dataset):
        registry, outputs, stats = self.run_pipeline([tiny_dataset, small_dataset])
        assert len(stats.per_cell) >= 1
        assert sum(s.map_tasks for s in stats.per_cell.values()) == len(outputs)

    def test_best_model_beats_worst(self, small_dataset):
        registry, outputs, _ = self.run_pipeline([small_dataset])
        maps = sorted(o.map_at_10 for o in outputs)
        best = registry.best(small_dataset.retailer_id)
        assert best.map_at_10 == maps[-1]

    def test_empty_config_list(self, tiny_dataset):
        registry, outputs, stats = self.run_pipeline([tiny_dataset], configs=[])
        assert outputs == []
        assert stats.configs_trained == 0
