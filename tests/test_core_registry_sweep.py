"""Tests for the model registry (isolation!) and sweep planning."""

from __future__ import annotations

import pytest

from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.grid import GridSpec
from repro.core.registry import ModelRegistry, TrainedModel
from repro.core.sweep import SweepPlanner
from repro.exceptions import IsolationError, ModelNotTrainedError
from repro.models.bpr import BPRHyperParams, BPRModel


def entry(dataset, number=0, map10=0.5, day=0) -> TrainedModel:
    model = BPRModel(
        dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4, seed=number)
    )
    output = OutputConfigRecord(
        config=ConfigRecord(dataset.retailer_id, number, model.params, day=day),
        metrics={"map@10": map10},
    )
    return TrainedModel(model=model, output=output)


class TestRegistry:
    def test_publish_and_get(self, small_dataset):
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 0, 0.4))
        fetched = registry.get(small_dataset.retailer_id, 0)
        assert fetched.map_at_10 == 0.4

    def test_get_missing_raises(self, small_dataset):
        registry = ModelRegistry()
        with pytest.raises(ModelNotTrainedError):
            registry.get("ghost", 0)
        registry.publish(entry(small_dataset, 0))
        with pytest.raises(ModelNotTrainedError):
            registry.get(small_dataset.retailer_id, 99)

    def test_publish_wrong_retailer_isolated(self, small_dataset, tiny_dataset):
        registry = ModelRegistry()
        bad = entry(small_dataset, 0)
        bad.output = OutputConfigRecord(
            config=ConfigRecord(tiny_dataset.retailer_id, 0, bad.model.params)
        )
        with pytest.raises(IsolationError):
            registry.publish(bad)

    def test_assert_isolated(self):
        registry = ModelRegistry()
        registry.assert_isolated("a", "a")
        with pytest.raises(IsolationError):
            registry.assert_isolated("a", "b")

    def test_best_and_top_k(self, small_dataset):
        registry = ModelRegistry()
        for number, map10 in enumerate([0.2, 0.8, 0.5, 0.6]):
            registry.publish(entry(small_dataset, number, map10))
        rid = small_dataset.retailer_id
        assert registry.best(rid).model_number == 1
        assert [m.model_number for m in registry.top_k(rid, 3)] == [1, 3, 2]

    def test_top_k_tie_break_stable(self, small_dataset):
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 5, 0.5))
        registry.publish(entry(small_dataset, 2, 0.5))
        assert registry.top_k(small_dataset.retailer_id, 2)[0].model_number == 2

    def test_republish_overwrites(self, small_dataset):
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 0, 0.3))
        registry.publish(entry(small_dataset, 0, 0.9))
        assert registry.best(small_dataset.retailer_id).map_at_10 == 0.9
        assert registry.model_count(small_dataset.retailer_id) == 1

    def test_drop_retailer(self, small_dataset):
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 0))
        registry.drop_retailer(small_dataset.retailer_id)
        assert not registry.has_models(small_dataset.retailer_id)

    def test_keep_latest_day_drops_older_days(self, small_dataset, tiny_dataset):
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 0, map10=0.9, day=0))
        registry.publish(entry(small_dataset, 2, map10=0.1, day=0))
        registry.publish(entry(small_dataset, 1, map10=0.2, day=3))
        registry.publish(entry(tiny_dataset, 0, day=0))
        rid = small_dataset.retailer_id
        registry.keep_latest_day(rid)
        assert [m.model_number for m in registry.top_k(rid, 3)] == [1]
        # Another retailer's models, and an unknown retailer, are left be.
        assert registry.model_count(tiny_dataset.retailer_id) == 1
        registry.keep_latest_day("ghost")

    def test_model_count_global(self, small_dataset, tiny_dataset):
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 0))
        registry.publish(entry(tiny_dataset, 0))
        assert registry.model_count() == 2
        assert registry.retailers() == sorted(
            [small_dataset.retailer_id, tiny_dataset.retailer_id]
        )


class TestSweepPlanner:
    def test_full_sweep_covers_all_retailers(self, small_dataset, tiny_dataset):
        planner = SweepPlanner(GridSpec.small())
        plan = planner.full_sweep([small_dataset, tiny_dataset])
        assert set(plan.full_grid_retailers) == {
            small_dataset.retailer_id,
            tiny_dataset.retailer_id,
        }
        assert plan.configs_for(small_dataset.retailer_id)
        assert plan.configs_for(tiny_dataset.retailer_id)

    def test_incremental_uses_top_k(self, small_dataset):
        registry = ModelRegistry()
        for number, map10 in enumerate([0.1, 0.9, 0.5, 0.7]):
            registry.publish(entry(small_dataset, number, map10))
        planner = SweepPlanner(GridSpec.small(), top_k=2)
        plan = planner.incremental_sweep([small_dataset], registry, day=1)
        numbers = sorted(c.model_number for c in plan.configs)
        assert numbers == [1, 3]
        assert all(c.warm_start for c in plan.configs)
        assert all(c.day == 1 for c in plan.configs)

    def test_incremental_new_retailer_gets_full_grid(
        self, small_dataset, tiny_dataset
    ):
        """Paper IV-A: a new retailer in an incremental sweep trains all
        combinations for that retailer alone."""
        registry = ModelRegistry()
        registry.publish(entry(small_dataset, 0, 0.5))
        planner = SweepPlanner(GridSpec.small(), top_k=3)
        plan = planner.incremental_sweep(
            [small_dataset, tiny_dataset], registry, day=2
        )
        assert tiny_dataset.retailer_id in plan.full_grid_retailers
        assert small_dataset.retailer_id in plan.incremental_retailers
        new_configs = plan.configs_for(tiny_dataset.retailer_id)
        from repro.core.grid import generate_configs

        full_grid = generate_configs(tiny_dataset, GridSpec.small(), day=2)
        assert len(new_configs) == len(full_grid)
        assert all(not c.warm_start for c in new_configs)

    def test_permutation_is_deterministic_and_mixing(self, small_dataset, tiny_dataset):
        planner = SweepPlanner(GridSpec.small(), base_seed=5)
        plan_a = planner.full_sweep([small_dataset, tiny_dataset])
        plan_b = planner.full_sweep([small_dataset, tiny_dataset])
        assert [c.key for c in plan_a.configs] == [c.key for c in plan_b.configs]
        # The permutation should interleave retailers, not keep them blocked.
        retailer_sequence = [c.retailer_id for c in plan_a.configs]
        first_block = retailer_sequence[: len(retailer_sequence) // 2]
        assert len(set(first_block)) > 1

    def test_different_days_different_permutations(self, small_dataset, tiny_dataset):
        planner = SweepPlanner(GridSpec.small())
        day0 = planner.full_sweep([small_dataset, tiny_dataset], day=0)
        day1 = planner.full_sweep([small_dataset, tiny_dataset], day=1)
        assert [c.key for c in day0.configs] != [c.key for c in day1.configs]
