"""Tests for the inference pipeline and the head/tail hybrid."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_cluster
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.cooccurrence.model import CoOccurrenceModel
from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.hybrid import HybridRecommender
from repro.core.inference import InferencePipeline
from repro.core.registry import ModelRegistry, TrainedModel
from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.obs.metrics import MetricsRegistry
from tests.conftest import run_inference


def ctx(*items) -> UserContext:
    return UserContext(tuple(items), tuple(EventType.VIEW for _ in items))


@pytest.fixture(scope="module")
def registry_with_model(small_dataset, trained_model):
    registry = ModelRegistry()
    registry.publish(
        TrainedModel(
            model=trained_model,
            output=OutputConfigRecord(
                config=ConfigRecord(
                    small_dataset.retailer_id, 0, trained_model.params
                ),
                metrics={"map@10": 0.5},
            ),
        )
    )
    return registry


class TestInferencePipeline:
    def test_materializes_recommendations(self, small_dataset, registry_with_model):
        pipeline = InferencePipeline(
            build_cluster(n_cells=1, machines_per_cell=4),
            registry_with_model,
            top_n=5,
        )
        metrics = MetricsRegistry()
        results, _ = run_inference(
            pipeline, {small_dataset.retailer_id: small_dataset}, metrics=metrics
        )
        result = results[small_dataset.retailer_id]
        assert len(result.view_recs) == small_dataset.n_items
        assert metrics.snapshot().counter_total("inference_cost_total") > 0
        # Every item's recs are at most top_n, never include itself.
        for item, recs in result.view_recs.items():
            assert len(recs) <= 5
            assert all(r.item_index != item for r in recs)

    def test_coverage_reported(self, small_dataset, registry_with_model):
        pipeline = InferencePipeline(
            build_cluster(n_cells=1, machines_per_cell=2),
            registry_with_model,
            top_n=5,
        )
        results, _ = run_inference(
            pipeline, {small_dataset.retailer_id: small_dataset}
        )
        result = results[small_dataset.retailer_id]
        assert 0.5 < result.coverage(small_dataset.n_items) <= 1.0

    def test_skips_retailers_without_models(self, small_dataset, tiny_dataset,
                                            registry_with_model):
        pipeline = InferencePipeline(
            build_cluster(n_cells=1, machines_per_cell=2),
            registry_with_model,
        )
        results, _ = run_inference(
            pipeline,
            {
                small_dataset.retailer_id: small_dataset,
                tiny_dataset.retailer_id: tiny_dataset,  # no model trained
            }
        )
        assert tiny_dataset.retailer_id not in results
        assert small_dataset.retailer_id in results

    def test_model_loads_bounded_by_contiguity(self, small_dataset,
                                               registry_with_model):
        """Contiguous-by-retailer splits mean loads ~ number of splits a
        retailer straddles, not number of items (section IV-C2)."""
        pipeline = InferencePipeline(
            build_cluster(n_cells=1, machines_per_cell=4),
            registry_with_model,
            workers_per_cell=4,
        )
        metrics = MetricsRegistry()
        run_inference(
            pipeline, {small_dataset.retailer_id: small_dataset}, metrics=metrics
        )
        loads = metrics.snapshot().counter_total("inference_model_loads_total")
        assert 1 <= loads <= 4  # never per-item

    def test_purchase_recs_distinct_surface(self, small_dataset,
                                            registry_with_model):
        pipeline = InferencePipeline(
            build_cluster(n_cells=1, machines_per_cell=2),
            registry_with_model,
            top_n=5,
        )
        results, _ = run_inference(
            pipeline, {small_dataset.retailer_id: small_dataset}
        )
        result = results[small_dataset.retailer_id]
        assert len(result.purchase_recs) == small_dataset.n_items
        differing = sum(
            1
            for item in result.view_recs
            if [r.item_index for r in result.view_recs[item]]
            != [r.item_index for r in result.purchase_recs[item]]
        )
        assert differing > small_dataset.n_items * 0.3


class TestHybrid:
    @pytest.fixture(scope="class")
    def components(self, small_dataset, trained_model):
        counts = CoOccurrenceCounts.from_interactions(
            small_dataset.n_items, small_dataset.train
        )
        cooc = CoOccurrenceModel(counts)
        hybrid = HybridRecommender(trained_model, cooc, min_support=2.0)
        return cooc, hybrid

    def test_mismatched_catalogs_rejected(self, trained_model, tiny_dataset):
        counts = CoOccurrenceCounts.from_interactions(
            tiny_dataset.n_items, tiny_dataset.train
        )
        with pytest.raises(ValueError):
            HybridRecommender(trained_model, CoOccurrenceModel(counts))

    def test_supported_items_ranked_by_cooccurrence(self, components,
                                                    small_dataset):
        cooc, hybrid = components
        # Find a context item with strong co-occurrence support.
        counts = cooc.counts
        source = max(
            range(small_dataset.n_items),
            key=lambda i: max(counts.co_viewed(i).values(), default=0),
        )
        context = ctx(source)
        recs = hybrid.recommend(context, k=5)
        assert recs, "head context must produce recommendations"
        top = recs[0].item_index
        assert hybrid.source_of(context, top) == "cooccurrence"

    def test_tail_context_falls_back_to_mf(self, components, small_dataset):
        cooc, hybrid = components
        lonely = [
            i
            for i in range(small_dataset.n_items)
            if not cooc.counts.co_viewed(i)
        ]
        if not lonely:
            pytest.skip("every item has co-view data in this fixture")
        context = ctx(lonely[0])
        recs = hybrid.recommend(context, k=5)
        assert recs
        assert all(
            hybrid.source_of(context, r.item_index) == "factorization"
            for r in recs
        )

    def test_score_items_shape_and_finiteness(self, components):
        _, hybrid = components
        scores = hybrid.score_items(ctx(0, 1), range(hybrid.n_items))
        assert scores.shape == (hybrid.n_items,)
        assert np.all(np.isfinite(scores))

    def test_recommend_excludes_context(self, components):
        _, hybrid = components
        recs = hybrid.recommend(ctx(3, 4), k=10)
        assert all(r.item_index not in (3, 4) for r in recs)

    def test_hybrid_covers_more_than_cooccurrence(self, components,
                                                  small_dataset):
        """The conclusion's claim: hybrid covers more inventory with
        non-trivial recommendations than co-occurrence alone."""
        cooc, hybrid = components
        cooc_covered = hybrid_covered = 0
        for item in range(small_dataset.n_items):
            context = ctx(item)
            votes = cooc.context_scores(context)
            if votes:
                cooc_covered += 1
            if hybrid.recommend(context, k=3):
                hybrid_covered += 1
        assert hybrid_covered >= cooc_covered
        assert hybrid_covered == small_dataset.n_items
