"""Tests for config records and the per-retailer grid search."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.grid import (
    GridSpec,
    applicable_factor_counts,
    feature_switch_axes,
    generate_configs,
)
from repro.core.training import TrainerSettings, train_config
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.exceptions import ConfigError
from repro.models.bpr import BPRHyperParams


class TestConfigRecord:
    def test_key(self):
        record = ConfigRecord("r7", 3, BPRHyperParams())
        assert record.key == "r7/m3"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ConfigRecord("", 0, BPRHyperParams())
        with pytest.raises(ConfigError):
            ConfigRecord("r", -1, BPRHyperParams())

    def test_for_day(self):
        record = ConfigRecord("r", 1, BPRHyperParams())
        reissued = record.for_day(5, warm_start=True)
        assert reissued.day == 5
        assert reissued.warm_start
        assert reissued.model_number == record.model_number
        assert reissued.params is record.params

    def test_config_record_roundtrip(self):
        config = ConfigRecord(
            "r", 3, BPRHyperParams(n_factors=6, seed=3), warm_start=True, day=2
        )
        assert pickle.loads(pickle.dumps(config)) == config


class TestOutputRecord:
    def output(self, retailer="r", number=0, map10=0.5):
        return OutputConfigRecord(
            config=ConfigRecord(retailer, number, BPRHyperParams()),
            metrics={"map@10": map10},
        )

    def test_map_accessor(self):
        assert self.output(map10=0.25).map_at_10 == 0.25
        assert OutputConfigRecord(
            config=ConfigRecord("r", 0, BPRHyperParams())
        ).map_at_10 == 0.0

    def test_better_than_by_map(self):
        assert self.output(map10=0.6).better_than(self.output(map10=0.5))
        assert not self.output(map10=0.4).better_than(self.output(map10=0.5))

    def test_better_than_ties_break_by_model_number(self):
        a = self.output(number=1, map10=0.5)
        b = self.output(number=2, map10=0.5)
        assert a.better_than(b)
        assert not b.better_than(a)

    def test_better_than_none(self):
        assert self.output().better_than(None)

    def test_output_record_roundtrip(self, tiny_dataset):
        config = ConfigRecord(tiny_dataset.retailer_id, 0, BPRHyperParams(n_factors=6))
        settings = TrainerSettings(max_epochs_full=2, sampler="uniform")
        _, output = train_config(config, tiny_dataset, settings)
        clone = pickle.loads(pickle.dumps(output))
        assert clone == output
        assert clone.metrics == output.metrics
        assert clone.map_at_10 == output.map_at_10


class TestGrid:
    def test_small_grid_size(self, small_dataset):
        configs = generate_configs(small_dataset, GridSpec.small())
        assert 1 <= len(configs) <= 16
        assert len({c.model_number for c in configs}) == len(configs)

    def test_cross_product_capped(self, small_dataset):
        grid = GridSpec(max_configs=10)
        configs = generate_configs(small_dataset, grid)
        assert len(configs) == 10

    def test_deterministic(self, small_dataset):
        grid = GridSpec(max_configs=20)
        a = generate_configs(small_dataset, grid)
        b = generate_configs(small_dataset, grid)
        assert [c.params for c in a] == [c.params for c in b]

    def test_distinct_seeds_per_model(self, small_dataset):
        configs = generate_configs(small_dataset, GridSpec.small())
        seeds = {c.params.seed for c in configs}
        assert len(seeds) == len(configs)

    def test_factor_counts_scale_with_catalog(self):
        grid = GridSpec()
        assert 200 in applicable_factor_counts(grid, 20000)
        small = applicable_factor_counts(grid, 30)
        assert max(small) <= 15
        assert 5 in small

    def test_tiny_catalog_keeps_minimum(self):
        grid = GridSpec(n_factors=(50, 100))
        assert applicable_factor_counts(grid, 10) == (50,)

    def test_brand_feature_forced_off_at_low_coverage(self):
        """Paper: <10% brand coverage makes the feature detrimental."""
        retailer = generate_retailer(
            RetailerSpec(
                retailer_id="lowbrand", n_items=60, n_users=20, n_events=200,
                brand_coverage=0.05, seed=3,
            )
        )
        dataset = dataset_from_synthetic(retailer)
        grid = GridSpec(use_brand=(True, False))
        _, brand_axis, _ = feature_switch_axes(grid, dataset)
        assert brand_axis == (False,)
        configs = generate_configs(dataset, grid)
        assert all(not c.params.use_brand for c in configs)

    def test_brand_feature_searched_at_high_coverage(self, small_dataset):
        grid = GridSpec(use_brand=(True, False))
        _, brand_axis, _ = feature_switch_axes(grid, small_dataset)
        assert set(brand_axis) == {True, False}

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            GridSpec(max_configs=0)
        with pytest.raises(ConfigError):
            GridSpec(n_factors=())

    def test_day_propagates(self, small_dataset):
        configs = generate_configs(small_dataset, GridSpec.small(), day=7)
        assert all(c.day == 7 for c in configs)
