"""Tests for the synthetic retailer/marketplace generator."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import ConfigRecord
from repro.core.training import TrainerSettings, train_config
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType, count_by_event
from repro.data.generator import (
    MarketplaceSpec,
    RetailerSpec,
    generate_marketplace,
    generate_retailer,
)
from repro.exceptions import DataError
from repro.models.bpr import BPRHyperParams

from tests.conftest import assert_states_equal


class TestSpecValidation:
    def test_too_few_items_rejected(self):
        with pytest.raises(DataError):
            RetailerSpec(retailer_id="r", n_items=1)

    def test_no_users_rejected(self):
        with pytest.raises(DataError):
            RetailerSpec(retailer_id="r", n_users=0)

    def test_bad_coverage_rejected(self):
        with pytest.raises(DataError):
            RetailerSpec(retailer_id="r", brand_coverage=1.5)


class TestRetailerGeneration:
    def test_shapes(self, small_retailer):
        spec = small_retailer.spec
        assert small_retailer.n_items == spec.n_items
        assert small_retailer.n_users == spec.n_users
        assert len(small_retailer.catalog) == spec.n_items
        assert small_retailer.taxonomy.num_items == spec.n_items
        assert small_retailer.true_item_vectors.shape == (
            spec.n_items,
            spec.latent_dim,
        )

    def test_deterministic(self):
        spec = RetailerSpec(retailer_id="d", n_items=40, n_users=25, n_events=300, seed=5)
        a = generate_retailer(spec)
        b = generate_retailer(spec)
        assert [i.brand for i in a.catalog] == [i.brand for i in b.catalog]
        assert len(a.interactions) == len(b.interactions)
        assert all(
            x.item_index == y.item_index for x, y in zip(a.interactions, b.interactions)
        )

    def test_event_funnel_ordering(self, small_retailer):
        """Views dominate, conversions are rarest (paper section III-A)."""
        counts = count_by_event(small_retailer.interactions)
        assert counts[EventType.VIEW] >= counts[EventType.CART]
        assert counts[EventType.CART] >= counts[EventType.CONVERSION]
        assert counts[EventType.VIEW] > 0

    def test_brand_coverage_approximates_spec(self):
        spec = RetailerSpec(
            retailer_id="b", n_items=400, n_users=10, n_events=50,
            brand_coverage=0.3, seed=1,
        )
        retailer = generate_retailer(spec)
        assert 0.2 <= retailer.catalog.brand_coverage() <= 0.4

    def test_zero_brand_coverage(self):
        spec = RetailerSpec(
            retailer_id="nb", n_items=50, n_users=10, n_events=60,
            brand_coverage=0.0, seed=2,
        )
        retailer = generate_retailer(spec)
        assert retailer.catalog.brand_coverage() == 0.0

    def test_affinity_brand_bonus(self, small_retailer):
        """A user with a brand affinity scores matching items higher."""
        brand_users = [
            u for u, b in small_retailer.user_brand_affinity.items() if b is not None
        ]
        assert brand_users, "generator should produce some brand-aware users"

    def test_affinities_vectorized_matches_scalar(self, small_retailer):
        items = [0, 1, 2, 5]
        batch = small_retailer.affinities(0, items)
        singles = [small_retailer.affinity(0, i) for i in items]
        assert np.allclose(batch, singles)

    def test_timestamps_strictly_increase_within_user(self, small_retailer):
        by_user = {}
        for interaction in small_retailer.interactions:
            by_user.setdefault(interaction.user_id, []).append(interaction.timestamp)
        for stamps in by_user.values():
            assert all(a < b for a, b in zip(stamps, stamps[1:]))


class TestMarketplace:
    def test_heterogeneous_sizes(self):
        retailers = generate_marketplace(
            MarketplaceSpec(n_retailers=12, median_items=150, sigma_items=1.3, seed=4)
        )
        sizes = [r.n_items for r in retailers]
        assert len(retailers) == 12
        assert max(sizes) / max(1, min(sizes)) > 3  # real spread

    def test_sizes_clamped(self):
        spec = MarketplaceSpec(
            n_retailers=8, median_items=100, sigma_items=3.0,
            min_items=30, max_items=500, seed=5,
        )
        for retailer in generate_marketplace(spec):
            assert 30 <= retailer.n_items <= 500

    def test_retailer_ids_unique(self):
        retailers = generate_marketplace(MarketplaceSpec(n_retailers=6, seed=6))
        ids = [r.retailer_id for r in retailers]
        assert len(set(ids)) == 6

    def test_prefix_stability(self):
        """Adding retailers never changes the ones already generated."""
        small = generate_marketplace(MarketplaceSpec(n_retailers=3, seed=7))
        large = generate_marketplace(MarketplaceSpec(n_retailers=5, seed=7))
        for a, b in zip(small, large):
            assert a.n_items == b.n_items
            assert len(a.interactions) == len(b.interactions)


class TestDatasetBundle:
    def test_dataset_from_synthetic(self, small_retailer):
        dataset = dataset_from_synthetic(small_retailer)
        assert dataset.retailer_id == small_retailer.retailer_id
        assert dataset.n_items == small_retailer.n_items
        assert dataset.n_train_interactions + len(dataset.holdout) == len(
            small_retailer.interactions
        )
        assert dataset.source is small_retailer

    def test_dataset_roundtrip_trains_byte_identical(self, tiny_dataset):
        """A pickled dataset must train the exact model the original does:
        a nondeterministic or lossy field would fork the two."""
        clone = pickle.loads(pickle.dumps(tiny_dataset))
        assert clone.retailer_id == tiny_dataset.retailer_id
        assert clone.n_items == tiny_dataset.n_items
        assert clone.n_train_interactions == tiny_dataset.n_train_interactions
        config = ConfigRecord(tiny_dataset.retailer_id, 0, BPRHyperParams(n_factors=6))
        settings = TrainerSettings(max_epochs_full=2, sampler="uniform")
        original_model, original_output = train_config(config, tiny_dataset, settings)
        cloned_model, cloned_output = train_config(config, clone, settings)
        assert cloned_output == original_output
        assert_states_equal(cloned_model.get_state(), original_model.get_state())

    def test_describe_keys(self, small_dataset):
        description = small_dataset.describe()
        for key in ("retailer_id", "items", "users", "train_interactions", "events"):
            assert key in description

    def test_interacted_items_sorted_unique(self, small_dataset):
        items = small_dataset.interacted_items()
        assert items == sorted(set(items))
        assert all(0 <= i < small_dataset.n_items for i in items)

    def test_retailer_id_mismatch_rejected(self, small_retailer, tiny_retailer):
        from repro.data.datasets import RetailerDataset

        with pytest.raises(ValueError):
            RetailerDataset(
                retailer_id=tiny_retailer.retailer_id,
                catalog=small_retailer.catalog,
                taxonomy=small_retailer.taxonomy,
                train=[],
                holdout=[],
            )
