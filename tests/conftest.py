"""Shared fixtures: small synthetic retailers, datasets, trained models.

Expensive artifacts (generated retailers, trained models) are
session-scoped so the suite stays fast; tests must treat them as
read-only and re-derive anything they intend to mutate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import InferenceStats
from repro.data.datasets import RetailerDataset, dataset_from_synthetic
from repro.data.generator import RetailerSpec, SyntheticRetailer, generate_retailer
from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.models.bpr import BPRHyperParams, BPRModel, NegativePlan, PositivePlan
from repro.models.trainer import BPRTrainer, CompiledExamples, ExampleSet
from repro.serving.store import RecommendationStore, as_table


def sgd_step_batch(
    model: BPRModel,
    contexts_csr: tuple,
    positives: np.ndarray,
    negatives: np.ndarray,
) -> np.ndarray:
    """One mini-batch BPR update; returns the per-example log losses.

    ``contexts_csr`` is ``(indptr, rows, weights)``: example ``b``'s
    context occupies ``rows[indptr[b]:indptr[b + 1]]`` with the matching
    ``model.context_weights``.  The batch is planned as a window of one
    (``PositivePlan``, ``NegativePlan``) and taken by ``step_planned``, the
    step a training epoch runs per batch.  A batch of one non-colliding
    triple is the per-triple rule ``tests/reference_scalar_sgd.py`` writes
    out row by row.
    """
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    batch = positives.size
    if batch == 0:
        return np.zeros(0, dtype=np.float64)
    return model.step_planned(
        PositivePlan(model, contexts_csr, positives, batch),
        0,
        NegativePlan(model, negatives, batch),
        0,
    )


def step_one(
    model: BPRModel, context: UserContext, positive: int, negative: int
) -> float:
    """One BPR update on one triple — a batch of one; returns its log loss."""
    csr = (
        np.array([0, len(context)], dtype=np.int64),
        np.asarray(context.item_indices, dtype=np.int64),
        model.context_weights(context),
    )
    losses = sgd_step_batch(model, csr, np.array([positive]), np.array([negative]))
    return float(losses[0])


def assert_states_equal(a: dict, b: dict) -> None:
    """Two state dicts hold the same names, dtypes and values."""
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype
        assert np.array_equal(a[name], b[name]), name


def optimizer_state(optimizer) -> dict:
    """Copies of an optimizer's accumulators, keyed like the model's
    tables (empty for a stateless optimizer)."""
    accumulators = getattr(optimizer, "_accumulators", {})
    return {name: acc.copy() for name, acc in accumulators.items()}


def recompile(trainer: BPRTrainer) -> CompiledExamples:
    """``trainer.examples`` as they stand, flattened again through the
    trainer's own compile — for tests that replace a trainer's examples.
    Each example's negative is taken as it is (``-1`` for none)."""
    examples = trainer.examples
    negatives = np.array(
        [-1 if example.negative is None else example.negative for example in examples],
        dtype=np.int64,
    )
    flat = ExampleSet.of(
        trainer.dataset.retailer_id, examples, trainer.strength_constraints, (), ()
    )
    return trainer._compile(flat, negatives)


def run_inference(pipeline, datasets, day: int = 0):
    """Inference for every retailer of ``datasets`` with a trained model,
    the way a day's ``infer_plan`` / ``infer/<cell>`` / ``infer_finalize``
    blocks drive it: plan the cells, run each, fold its stats, finalize.
    Returns ``(results, stats)``.  A cell job that raises propagates; the
    day's ``infer/<cell>`` block is what degrades its retailers instead.
    """
    stats = InferenceStats()
    results, failed = {}, {}
    for cell_name, group in pipeline.plan(datasets):
        cell_results, job_stats, loads, cell_failed = pipeline.run_cell(
            cell_name, {rid: datasets[rid] for rid in group}, day
        )
        results.update(cell_results)
        failed.update(cell_failed)
        pipeline.fold_cell(stats, cell_name, job_stats, loads)
    pipeline.finalize_stats(stats, results, failed)
    return results, stats


SMALL_SPEC = RetailerSpec(
    retailer_id="fix_small",
    n_items=120,
    n_users=90,
    n_events=1400,
    taxonomy_depth=3,
    taxonomy_fanout=3,
    n_brands=6,
    seed=42,
)

TINY_SPEC = RetailerSpec(
    retailer_id="fix_tiny",
    n_items=30,
    n_users=20,
    n_events=220,
    taxonomy_depth=2,
    taxonomy_fanout=3,
    n_brands=3,
    seed=7,
)


@pytest.fixture(scope="session")
def small_retailer() -> SyntheticRetailer:
    return generate_retailer(SMALL_SPEC)


@pytest.fixture(scope="session")
def tiny_retailer() -> SyntheticRetailer:
    return generate_retailer(TINY_SPEC)


@pytest.fixture(scope="session")
def small_dataset(small_retailer) -> RetailerDataset:
    return dataset_from_synthetic(small_retailer)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_retailer) -> RetailerDataset:
    return dataset_from_synthetic(tiny_retailer)


@pytest.fixture(scope="session")
def default_params() -> BPRHyperParams:
    return BPRHyperParams(n_factors=8, learning_rate=0.08, seed=3)


@pytest.fixture(scope="session")
def trained_model(small_dataset, default_params) -> BPRModel:
    """A BPR model trained for a few epochs on the small dataset."""
    model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
    trainer = BPRTrainer(model, small_dataset, max_epochs=4, seed=9)
    trainer.train()
    return model


@pytest.fixture()
def fresh_model(small_dataset, default_params) -> BPRModel:
    """An untrained model tests are free to mutate."""
    return BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)


@pytest.fixture()
def slot_store():
    """``store, make``: a fresh :class:`RecommendationStore` and a maker
    of distinct tables it can hold (``store.load(rid, make(n), version)``)."""
    return RecommendationStore(), lambda n: as_table({0: [ScoredItem(n, 1.0)]})
