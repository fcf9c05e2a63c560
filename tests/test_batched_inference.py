"""Parity of the batched inference fast path with the per-item reference.

The batched stack (``recommend_batch``, the batch candidate selectors,
the batched evaluator, block-based ``InferencePipeline`` records) is a
pure optimization: every test here pins its output to the per-item code
path it replaces — identical items, identical order, identical ranks —
including the awkward corners (diverged NaN models, empty candidate
sets, dead-lettered blocks).
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.inference import InferencePipeline, _item_blocks
from repro.core.registry import ModelRegistry, TrainedModel
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.evaluation.sampled import SampledRankEstimator
from repro.exceptions import TaxonomyError
from repro.mapreduce.runtime import FaultPlan
from repro.models.base import _exclude_items
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer
from tests import reference_set_candidates
from tests.conftest import run_inference

_ENV = None


def _env():
    """Shared (dataset, model, selector) for the hypothesis properties.

    Module-global rather than a fixture because ``@given`` functions
    cannot take function-scoped pytest fixtures.
    """
    global _ENV
    if _ENV is None:
        dataset = dataset_from_synthetic(
            generate_retailer(
                RetailerSpec(
                    retailer_id="batch_env",
                    n_items=120,
                    n_users=80,
                    n_events=1200,
                    taxonomy_depth=3,
                    taxonomy_fanout=3,
                    seed=17,
                )
            )
        )
        model = BPRModel(
            dataset.catalog,
            dataset.taxonomy,
            BPRHyperParams(n_factors=8, seed=3),
        )
        BPRTrainer(model, dataset, max_epochs=2, batch_size=32, seed=7).train()
        counts = CoOccurrenceCounts.from_interactions(
            dataset.n_items, dataset.train
        )
        selector = CandidateSelector(
            dataset.taxonomy,
            counts,
            repurchase=RepurchaseDetector(dataset.taxonomy, dataset.train),
        )
        _ENV = (dataset, model, selector)
    return _ENV


def _assert_same_recs(batched, reference):
    assert [s.item_index for s in batched] == [
        s.item_index for s in reference
    ]
    assert np.allclose(
        [s.score for s in batched],
        [s.score for s in reference],
        equal_nan=True,
    )


# ----------------------------------------------------------------------
# recommend_batch vs recommend
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    query=st.lists(st.integers(min_value=0, max_value=119), min_size=0, max_size=6),
    k=st.integers(min_value=0, max_value=15),
    pool_seed=st.integers(min_value=0, max_value=10_000),
    event=st.sampled_from(list(EventType)),
)
def test_property_recommend_batch_matches_recommend(query, k, pool_seed, event):
    _, model, _ = _env()
    rng = np.random.default_rng(pool_seed)
    pools = [
        rng.choice(model.n_items, size=int(rng.integers(0, 40)), replace=False)
        for _ in query
    ]
    batched = model.recommend_batch(query, pools, k=k, event=event)
    assert len(batched) == len(query)
    for item, pool, recs in zip(query, pools, batched):
        reference = model.recommend(
            UserContext((item,), (event,)), k=k, candidates=pool
        )
        _assert_same_recs(recs, reference)


def test_recommend_batch_empty_candidate_sets():
    _, model, _ = _env()
    ctx = UserContext((0,), (EventType.VIEW,))
    results = model.recommend_batch([0, 0], [[], [5, 9]], k=3)
    assert results[0] == []
    assert [s.item_index for s in results[1]] == [
        s.item_index for s in model.recommend(ctx, k=3, candidates=[5, 9])
    ]


def test_recommend_batch_length_mismatch_raises():
    _, model, _ = _env()
    with pytest.raises(ValueError, match="candidate lists"):
        model.recommend_batch([0], [[1], [2]])


def test_recommend_batch_diverged_model_matches_per_item():
    dataset, model, selector = _env()
    diverged = copy.deepcopy(model)
    diverged.item_embeddings[:] = np.nan
    diverged.invalidate_cache()
    items = list(range(0, dataset.n_items, 7))
    pools = selector.batch_view_based(items)
    batched = diverged.recommend_batch(items, pools, k=5)
    for item, pool, recs in zip(items, pools, batched):
        context = UserContext((item,), (EventType.VIEW,))
        _assert_same_recs(
            recs, diverged.recommend(context, k=5, candidates=pool)
        )


def test_exclude_items_preserves_candidate_order():
    """Regression: exclusion must filter, never sort, the candidate pool.

    Covers both internal paths (the broadcast compare for a handful of
    seen items, ``np.isin`` past 16) with a deliberately unsorted pool.
    """
    pool = np.array([90, 3, 57, 12, 40, 3, 88, 1], dtype=np.int64)
    for n_seen in (1, 5, 20):
        seen = tuple(range(n_seen))
        context = UserContext(seen, tuple(EventType.VIEW for _ in seen))
        kept = _exclude_items(pool, context)
        expected = [p for p in pool.tolist() if p not in set(seen)]
        assert kept.tolist() == expected


# ----------------------------------------------------------------------
# candidate selection vs the frozen set-based selector
# ----------------------------------------------------------------------
def _same_pool(pool, expected):
    """Values *and* type: a pool is a sorted int64 array of what the
    set-based oracle returned as a sorted list."""
    assert isinstance(pool, np.ndarray) and pool.dtype == np.int64
    assert pool.tolist() == expected


@settings(max_examples=25, deadline=None)
@given(
    lca_k=st.integers(min_value=0, max_value=3),
    start=st.integers(min_value=0, max_value=119),
    stride=st.integers(min_value=1, max_value=9),
    max_candidates=st.sampled_from([1, 3, 10, 1000]),
    co_neighbours=st.sampled_from([1, 3, 20]),
)
def test_property_batch_candidates_match_the_set_selector(
    lca_k, start, stride, max_candidates, co_neighbours
):
    dataset, _, shared = _env()
    selector = dataclasses.replace(
        shared,
        view_lca_k=lca_k,
        purchase_lca_k=lca_k,
        max_candidates=max_candidates,
        co_neighbours=co_neighbours,
    )
    items = list(range(start, dataset.n_items, stride))
    views = selector.batch_view_based(items)
    buys = selector.batch_purchase_based(items)
    for item, view, buy in zip(items, views, buys):
        _same_pool(view, reference_set_candidates.view_based(selector, item))
        _same_pool(buy, reference_set_candidates.purchase_based(selector, item))


def test_lca_zero_keeps_the_first_distinct_seeds():
    """``lca_0`` is the seed itself and the early break still applies:
    the union stops at ``4 x max_candidates + 1`` seeds."""
    dataset, _, shared = _env()
    selector = dataclasses.replace(shared, view_lca_k=0, max_candidates=1)
    busy = max(
        range(dataset.n_items),
        key=lambda item: len(shared.counts.top_co_viewed(item, 20)),
    )
    seeds = shared.counts.top_co_viewed(busy, 20)
    assert len(seeds) > 5
    # One candidate survives the cap, chosen among the first five seeds.
    (kept,) = selector.batch_view_based([busy])[0].tolist()
    assert kept in seeds[:5]
    assert [kept] == reference_set_candidates.view_based(selector, busy)


def test_negative_lca_k_is_refused_with_or_without_a_seed():
    """The set-based selector raised only once it expanded a seed: an
    item with no co-bought or co-viewed neighbour got ``[]``."""
    dataset, _, selector = _env()
    unseen = [
        item
        for item in range(dataset.n_items)
        if not selector.counts.top_co_bought(item, 1)
        and not selector.counts.top_co_viewed(item, 1)
    ]
    assert unseen, "the fixture needs an item nobody touched"
    assert reference_set_candidates.purchase_based(selector, unseen[0], lca_k=-1) == []
    negative = dataclasses.replace(selector, view_lca_k=-1, purchase_lca_k=-1)
    for item in (unseen[0], 0):
        with pytest.raises(TaxonomyError, match="non-negative"):
            negative.batch_purchase_based([item])
        with pytest.raises(TaxonomyError, match="non-negative"):
            negative.batch_view_based([item])


def test_batch_candidates_exclude_self_and_respect_cap():
    dataset, _, selector = _env()
    items = list(range(dataset.n_items))
    for item, candidates in zip(items, selector.batch_view_based(items)):
        assert item not in candidates
        assert candidates.size <= selector.max_candidates


# ----------------------------------------------------------------------
# the evaluator vs a per-example loop over the public single-example calls
# ----------------------------------------------------------------------
def _loop_exact_ranks(dataset, model):
    """One ``rank_of`` over the whole catalog per holdout example."""
    return [
        float(model.rank_of(example.context, example.held_out_item))
        for example in dataset.holdout
    ]


def _loop_sampled_ranks(dataset, model, seed):
    """One ``estimate_rank`` per holdout example against one shared sample."""
    estimator = SampledRankEstimator(dataset.n_items, sample_fraction=0.1, seed=seed)
    sample = estimator.draw_sample()
    return [
        estimator.estimate_rank(
            model, example.context, example.held_out_item, sample=sample
        )
        for example in dataset.holdout
    ]


def test_exact_evaluator_matches_rank_of_loop():
    dataset, model, _ = _env()
    result = HoldoutEvaluator(dataset).evaluate(model, force_exact=True)
    assert not result.sampled
    assert result.ranks == _loop_exact_ranks(dataset, model)


def test_sampled_evaluator_matches_estimate_rank_loop():
    dataset, model, _ = _env()
    result = HoldoutEvaluator(dataset, seed=77).evaluate(model, force_sampled=True)
    assert result.sampled
    assert result.ranks == _loop_sampled_ranks(dataset, model, seed=77)


def test_sampled_evaluator_chunking_is_invisible(monkeypatch):
    """Chunk-boundary placement must not change a single rank."""
    dataset, model, _ = _env()
    baseline = HoldoutEvaluator(dataset, seed=5).evaluate(
        model, force_sampled=True
    )
    monkeypatch.setattr("repro.evaluation.sampled._CHUNK_EXAMPLES", 3)
    chunked = HoldoutEvaluator(dataset, seed=5).evaluate(
        model, force_sampled=True
    )
    assert chunked.ranks == baseline.ranks


def test_evaluator_diverged_model_ranks_worst_exact_and_sampled():
    dataset, model, _ = _env()
    diverged = copy.deepcopy(model)
    diverged.item_embeddings[:] = np.nan
    diverged.invalidate_cache()
    evaluator = HoldoutEvaluator(dataset)
    exact = evaluator.evaluate(diverged, force_exact=True)
    assert exact.ranks == _loop_exact_ranks(dataset, diverged)
    sampled = evaluator.evaluate(diverged, force_sampled=True)
    assert sampled.ranks == _loop_sampled_ranks(
        dataset, diverged, seed=evaluator.seed
    )
    for result in (exact, sampled):
        assert all(rank == dataset.n_items for rank in result.ranks)


def test_estimate_ranks_matches_estimate_rank_with_shared_sample():
    dataset, model, _ = _env()
    estimator = SampledRankEstimator(dataset.n_items, seed=9)
    sample = estimator.draw_sample()
    holdout = dataset.holdout[:25]
    contexts = [example.context for example in holdout]
    targets = [example.held_out_item for example in holdout]
    batched = estimator.estimate_ranks(model, contexts, targets, sample=sample)
    scalar = [
        estimator.estimate_rank(model, context, target, sample=sample)
        for context, target in zip(contexts, targets)
    ]
    assert batched == scalar


# ----------------------------------------------------------------------
# block-based InferencePipeline: equivalence + failure semantics
# ----------------------------------------------------------------------
def _pipeline_dataset(retailer_id, seed):
    return dataset_from_synthetic(
        generate_retailer(
            RetailerSpec(
                retailer_id=retailer_id,
                n_items=40,
                n_users=25,
                n_events=260,
                taxonomy_depth=2,
                taxonomy_fanout=3,
                seed=seed,
            )
        )
    )


def _publish(registry, dataset):
    model = BPRModel(
        dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4, seed=2)
    )
    BPRTrainer(model, dataset, max_epochs=2, seed=5).train()
    registry.publish(
        TrainedModel(
            model=model,
            output=OutputConfigRecord(
                config=ConfigRecord(dataset.retailer_id, 0, model.params),
                metrics={"map@10": 0.5},
            ),
        )
    )


@pytest.fixture(scope="module")
def pipeline_fleet():
    datasets = {
        "blk_a": _pipeline_dataset("blk_a", seed=21),
        "blk_b": _pipeline_dataset("blk_b", seed=22),
    }
    registry = ModelRegistry()
    for dataset in datasets.values():
        _publish(registry, dataset)
    return datasets, registry


def _run_pipeline(datasets, registry, **kwargs):
    pipeline = InferencePipeline(
        build_cluster(n_cells=1, machines_per_cell=4),
        registry,
        top_n=5,
        **kwargs,
    )
    return pipeline, *run_inference(pipeline, datasets)


def test_item_blocks_cover_catalog_contiguously():
    """Blocks are cut in taxonomy order: every item exactly once, blocks
    of ``block_size`` but the last, and every subtree's items (the rows
    one ``lca_k`` run serves) one stretch of the order, uncategorised
    items (here the five ids past the taxonomy) last."""
    taxonomy = _env()[0].taxonomy
    index = taxonomy.index()
    n_items = index.item_cat.size + 5
    blocks = _item_blocks(taxonomy, n_items, 16)
    order = [item for block in blocks for item in block]
    assert sorted(order) == list(range(n_items))
    assert [len(block) for block in blocks[:-1]] == [16] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) <= 16
    position = np.empty(n_items, dtype=np.int64)
    position[order] = np.arange(n_items)
    for category in range(len(index.categories)):
        at = position[index.subtree(category)]
        assert at.size == 0 or at.max() - at.min() + 1 == at.size, category
    assert order[-5:] == list(range(n_items - 5, n_items))
    assert _item_blocks(taxonomy, 0, 4) == []


def test_block_size_does_not_change_recommendations(pipeline_fleet):
    """Blocked records pick the same items in the same order as 1-item
    records (scores agree to float tolerance: gemm vs gemv round-off)."""
    datasets, registry = pipeline_fleet
    _, blocked, _ = _run_pipeline(datasets, registry, block_size=16)
    _, single, _ = _run_pipeline(datasets, registry, block_size=1)
    assert blocked.keys() == single.keys()
    for rid in blocked:
        for surface in ("view_recs", "purchase_recs"):
            table_b = getattr(blocked[rid], surface)
            table_s = getattr(single[rid], surface)
            assert table_b.keys() == table_s.keys()
            for item in table_b:
                _assert_same_recs(table_b[item], table_s[item])


def test_dead_lettered_block_degrades_only_its_retailer(pipeline_fleet):
    datasets, registry = pipeline_fleet
    plan = FaultPlan().fail_mapper(
        lambda r: isinstance(r, tuple) and r[0] == "blk_a"
    )
    _, results, failed = _run_pipeline(
        datasets, registry, block_size=16, fault_plan=plan
    )
    assert list(failed) == ["blk_a"]
    assert "blk_a" not in results
    # The healthy retailer still publishes a complete table.
    assert len(results["blk_b"].view_recs) == datasets["blk_b"].n_items


def test_one_poisoned_block_degrades_whole_retailer(pipeline_fleet):
    """A single bad block means a partial table: the retailer degrades."""
    datasets, registry = pipeline_fleet
    plan = FaultPlan().fail_mapper(
        lambda r: isinstance(r, tuple) and r[0] == "blk_a" and 0 in r[1]
    )
    _, results, failed = _run_pipeline(
        datasets, registry, block_size=16, fault_plan=plan
    )
    assert list(failed) == ["blk_a"]
    assert "blk_a" not in results
    assert "blk_b" in results


def test_transient_attempt_fault_is_retried_not_degraded(pipeline_fleet):
    """Task-attempt faults (preemption-style) retry; blocks survive."""
    datasets, registry = pipeline_fleet
    plan = FaultPlan().fail_attempts(
        lambda r: isinstance(r, tuple) and r[0] == "blk_a", failures=1
    )
    _, results, failed = _run_pipeline(
        datasets, registry, block_size=16, fault_plan=plan
    )
    assert failed == {}
    assert len(results["blk_a"].view_recs) == datasets["blk_a"].n_items


def test_selector_cache_reused_across_days(pipeline_fleet):
    datasets, registry = pipeline_fleet
    pipeline, _, _ = _run_pipeline(datasets, registry, block_size=16)
    first = {
        rid: entry[2] for rid, entry in pipeline._selector_cache.items()
    }
    run_inference(pipeline, datasets, day=1)
    for rid, selector in pipeline._selector_cache.items():
        assert selector[2] is first[rid], "selector must be reused day-over-day"
    # A replaced dataset object invalidates only its own entry.
    replaced = dict(datasets)
    replaced["blk_a"] = _pipeline_dataset("blk_a", seed=21)
    run_inference(pipeline, replaced, day=2)
    assert pipeline._selector_cache["blk_a"][2] is not first["blk_a"]
    assert pipeline._selector_cache["blk_b"][2] is first["blk_b"]
