"""Shared fixtures: small synthetic retailers, datasets, trained models.

Expensive artifacts (generated retailers, trained models) are
session-scoped so the suite stays fast; tests must treat them as
read-only and re-derive anything they intend to mutate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import RetailerDataset, dataset_from_synthetic
from repro.data.generator import RetailerSpec, SyntheticRetailer, generate_retailer
from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer, CompiledExamples, ExampleSet
from repro.retrieval import ExactRetrieval, ModelRetrieval, RetrievalIndexStore
from repro.serving.store import RecommendationStore, as_table


def step_one(
    model: BPRModel, context: UserContext, positive: int, negative: int
) -> float:
    """One BPR update on one triple — a batch of one; returns its log loss."""
    csr = (
        np.array([0, len(context)], dtype=np.int64),
        np.asarray(context.item_indices, dtype=np.int64),
        model.context_weights(context),
    )
    losses = model.sgd_step_batch(csr, np.array([positive]), np.array([negative]))
    return float(losses[0])


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


@pytest.fixture(params=["tables", "indexes"])
def slot_store(request):
    """``store, make``: a fresh store of each kind that holds its slots
    under ``VersionedSlots``, and a maker of distinct values it can hold
    (``store.load(rid, make(n), version)`` works on both)."""
    if request.param == "tables":
        return RecommendationStore(), lambda n: as_table({0: [ScoredItem(n, 1.0)]})
    vectors = np.eye(2)
    return RetrievalIndexStore(), lambda n: ModelRetrieval(
        ExactRetrieval(vectors), vectors, model_number=n
    )
