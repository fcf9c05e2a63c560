"""Tests for negative-sampling heuristics (paper section III-B3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.sessions import UserContext
from repro.data.events import EventType
from repro.exceptions import DataError
from repro.models.negatives import (
    AffinityNegativeSampler,
    CompositeNegativeSampler,
    CoOccurrenceExcludingSampler,
    TaxonomyAwareSampler,
    UniformNegativeSampler,
)
from tests.reference_taxonomy_walk import lca_distance


def ctx(*items) -> UserContext:
    return UserContext(tuple(items), tuple(EventType.VIEW for _ in items))


RNG = lambda: np.random.default_rng(123)


class TestUniform:
    def test_never_returns_positive(self):
        sampler = UniformNegativeSampler(10)
        rng = RNG()
        for _ in range(200):
            assert sampler.sample(ctx(), 4, rng) != 4

    def test_avoids_context_items(self):
        sampler = UniformNegativeSampler(5)
        rng = RNG()
        draws = {sampler.sample(ctx(0, 1, 2), 3, rng) for _ in range(100)}
        assert draws == {4}

    def test_degenerate_catalog_falls_back(self):
        """Everything except the positive is in the avoid set."""
        sampler = UniformNegativeSampler(3)
        rng = RNG()
        draws = {sampler.sample(ctx(0, 1, 2), 0, rng) for _ in range(50)}
        assert 0 not in draws
        assert draws <= {1, 2}

    def test_tiny_catalog_rejected(self):
        with pytest.raises(DataError):
            UniformNegativeSampler(1)


class TestTaxonomyAware:
    def test_respects_min_distance(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        sampler = TaxonomyAwareSampler(
            small_dataset.n_items, taxonomy, min_distance=2
        )
        rng = RNG()
        positive = 0
        far = 0
        for _ in range(100):
            negative = sampler.sample(ctx(), positive, rng)
            assert negative != positive
            if lca_distance(taxonomy, negative, positive) >= 2:
                far += 1
        # Rejection sampling should satisfy the constraint essentially always
        # on a deep-enough taxonomy.
        assert far >= 95

    def test_unsatisfiable_distance_falls_back_to_uniform(self, small_dataset):
        sampler = TaxonomyAwareSampler(
            small_dataset.n_items, small_dataset.taxonomy, min_distance=99
        )
        negative = sampler.sample(ctx(), 0, RNG())
        assert negative != 0


class TestCoOccurrenceExcluding:
    def test_never_samples_excluded(self):
        co_items = {3: {0, 1}}
        sampler = CoOccurrenceExcludingSampler(6, co_items)
        rng = RNG()
        for _ in range(100):
            negative = sampler.sample(ctx(), 3, rng)
            assert negative not in {0, 1, 3}

    def test_items_without_exclusions_unconstrained(self):
        sampler = CoOccurrenceExcludingSampler(6, {})
        rng = RNG()
        draws = {sampler.sample(ctx(), 0, rng) for _ in range(200)}
        assert draws == {1, 2, 3, 4, 5}


class TestAffinity:
    def test_picks_highest_scoring_candidate(self, trained_model):
        sampler = AffinityNegativeSampler(
            trained_model.n_items, trained_model, pool_size=8
        )
        rng = RNG()
        context = ctx(2, 5)
        # The adaptive sampler must return negatives that score at least as
        # high as a uniform draw on average.
        adaptive_scores, uniform_scores = [], []
        uniform = UniformNegativeSampler(trained_model.n_items)
        for _ in range(60):
            a = sampler.sample(context, 0, rng)
            u = uniform.sample(context, 0, rng)
            adaptive_scores.append(float(trained_model.score_items(context, [a])[0]))
            uniform_scores.append(float(trained_model.score_items(context, [u])[0]))
        assert np.mean(adaptive_scores) > np.mean(uniform_scores)

    def test_never_positive_or_seen(self, trained_model):
        sampler = AffinityNegativeSampler(trained_model.n_items, trained_model)
        rng = RNG()
        for _ in range(50):
            negative = sampler.sample(ctx(1, 2), 3, rng)
            assert negative not in {1, 2, 3}


class TestComposite:
    def test_all_constraints_hold(self, small_dataset, trained_model):
        taxonomy = small_dataset.taxonomy
        co_items = {0: {5, 6, 7}}
        sampler = CompositeNegativeSampler(
            small_dataset.n_items,
            taxonomy=taxonomy,
            co_items=co_items,
            model=trained_model,
            min_lca_distance=2,
        )
        rng = RNG()
        for _ in range(60):
            negative = sampler.sample(ctx(1), 0, rng)
            assert negative not in {0, 1}
            assert negative not in co_items[0]
            assert lca_distance(taxonomy, negative, 0) >= 2

    def test_works_without_optional_components(self, small_dataset):
        sampler = CompositeNegativeSampler(small_dataset.n_items)
        assert sampler.sample(ctx(), 0, RNG()) != 0
