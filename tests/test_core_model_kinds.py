"""Tests for the WALS drop-in substitution through the pipeline (§VI)."""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.core.config import ConfigRecord
from repro.core.grid import GridSpec, generate_configs
from repro.core.inference import InferencePipeline
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import TrainerSettings, TrainingPipeline, train_config
from repro.exceptions import ConfigError
from repro.models.bpr import BPRHyperParams
from repro.models.wals import WALSModel
from tests.conftest import run_inference

FAST = TrainerSettings(max_epochs_full=3, max_epochs_incremental=2,
                       sampler="uniform")

MIXED_GRID = GridSpec(
    n_factors=(8,),
    learning_rates=(0.08,),
    reg_items=(0.01,),
    reg_contexts=(0.01,),
    use_taxonomy=(True,),
    use_brand=(True,),
    use_price=(True,),
    model_kinds=("bpr", "wals"),
    max_configs=8,
)


class TestConfigModelKind:
    def test_defaults_to_bpr(self):
        record = ConfigRecord("r", 0, BPRHyperParams())
        assert record.model_kind == "bpr"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ConfigRecord("r", 0, BPRHyperParams(), model_kind="nn")

    def test_for_day_preserves_kind(self):
        record = ConfigRecord("r", 0, BPRHyperParams(), model_kind="wals")
        assert record.for_day(3, warm_start=True).model_kind == "wals"

    def test_grid_emits_both_kinds(self, small_dataset):
        configs = generate_configs(small_dataset, MIXED_GRID)
        kinds = {c.model_kind for c in configs}
        assert kinds == {"bpr", "wals"}


class TestWalsTrainConfig:
    def test_trains_and_evaluates(self, small_dataset):
        config = ConfigRecord(
            small_dataset.retailer_id, 0,
            BPRHyperParams(n_factors=8, seed=1), model_kind="wals",
        )
        model, output = train_config(config, small_dataset, FAST)
        assert isinstance(model, WALSModel)
        assert model.retailer_id == small_dataset.retailer_id
        assert 0.0 <= output.map_at_10 <= 1.0
        assert output.epochs_run == FAST.max_epochs_full
        assert output.train_seconds > 0

    def test_warm_start_copies_factors(self, small_dataset):
        import numpy as np

        config = ConfigRecord(
            small_dataset.retailer_id, 0,
            BPRHyperParams(n_factors=8, seed=1), model_kind="wals",
        )
        first, _ = train_config(config, small_dataset, FAST)
        warm_config = config.for_day(1, warm_start=True)
        second, output = train_config(
            warm_config, small_dataset, FAST, warm_model=first
        )
        assert output.epochs_run == FAST.max_epochs_incremental
        assert np.all(np.isfinite(second.item_factors))

    def test_cross_kind_warm_start_ignored(self, small_dataset):
        """Yesterday's WALS model cannot seed today's BPR model (and
        vice versa) — the pipeline just cold-starts instead of crashing."""
        wals_config = ConfigRecord(
            small_dataset.retailer_id, 0,
            BPRHyperParams(n_factors=8, seed=1), model_kind="wals",
        )
        wals_model, _ = train_config(wals_config, small_dataset, FAST)
        bpr_config = ConfigRecord(
            small_dataset.retailer_id, 0,
            BPRHyperParams(n_factors=8, seed=1),
            warm_start=True, day=1,
        )
        model, output = train_config(
            bpr_config, small_dataset, FAST, warm_model=wals_model
        )
        assert output.epochs_run >= 1


class TestMixedPipeline:
    def test_pipeline_trains_both_and_serves_best(self, tiny_dataset):
        cluster = build_cluster(n_cells=1, machines_per_cell=4)
        registry = ModelRegistry()
        pipeline = TrainingPipeline(cluster, registry, settings=FAST, seed=0)
        plan = SweepPlanner(MIXED_GRID).full_sweep([tiny_dataset])
        datasets = {tiny_dataset.retailer_id: tiny_dataset}
        outputs, stats = pipeline.run(plan.configs, datasets)
        kinds_trained = {o.config.model_kind for o in outputs}
        assert kinds_trained == {"bpr", "wals"}
        # Whatever won, inference must serve it through the common
        # interface.
        inference = InferencePipeline(cluster, registry, top_n=3)
        results, _ = run_inference(inference, datasets)
        result = results[tiny_dataset.retailer_id]
        assert result.view_recs
