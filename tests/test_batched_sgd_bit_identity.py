"""Bit-identity of the batched training path against its frozen reference.

``tests/reference_batched_sgd.py`` holds the batched epoch, step, optimizer
scatter and negative samplers exactly as they were when mini-batch training
became the default.  The production code has since had batch-invariant
Python taken out of the loop; the contract is that this changed no
floating-point operation and no ``rng`` draw, so parameters *and* optimizer
accumulators must come out byte-equal — not close — after several epochs.
The composite sampler has since drawn a whole batch at once, in a new
stream layout: its rows compare against that batch draw written plainly in
``tests/reference_batched_negatives.py``.

The main retailer is tiny on purpose: two dozen items over two brands, so
every batch collides on item, taxonomy, brand and price rows, and contexts
repeat items (both asserted below, so the dataset cannot quietly stop doing
it).  A second, 400-item retailer runs the two scoring samplers where a
pool seldom repeats an item.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.negatives import (
    AffinityNegativeSampler,
    CompositeNegativeSampler,
    UniformNegativeSampler,
)
from repro.models.trainer import BPRTrainer

from tests import reference_batched_negatives as batched
from tests import reference_batched_sgd as frozen
from tests.conftest import optimizer_state



def _retailer(retailer_id: str, n_items: int, fanout: int, n_brands: int):
    return dataset_from_synthetic(
        generate_retailer(
            RetailerSpec(
                retailer_id=retailer_id,
                n_items=n_items,
                n_users=10,
                n_events=170,
                taxonomy_depth=2,
                taxonomy_fanout=fanout,
                n_brands=n_brands,
                seed=23,
            )
        )
    )


_DATASETS = {
    "colliding": _retailer("bit_identity", n_items=24, fanout=2, n_brands=2),
    "wide": _retailer("bit_identity_wide", n_items=400, fanout=3, n_brands=9),
}
EPOCHS = 3


def _production_sampler(kind: str, model: BPRModel, taxonomy):
    if kind == "uniform":
        return UniformNegativeSampler(model.n_items)
    if kind == "affinity":
        return AffinityNegativeSampler(model.n_items, model)
    return CompositeNegativeSampler(model.n_items, taxonomy=taxonomy, model=model)


def _frozen_sampler(kind: str, reference: frozen.ReferenceModel, taxonomy):
    n_items = reference.model.n_items
    if kind == "uniform":
        return frozen.ReferenceUniformSampler(n_items)
    if kind == "affinity":
        return frozen.ReferenceAffinitySampler(n_items, reference)
    return batched.ReferenceBatchedCompositeSampler(n_items, taxonomy, reference)


def _trainer(optimizer: str, kind: str, batch_size: int, seed: int, retailer="colliding"):
    dataset = _DATASETS[retailer]
    model = BPRModel(
        dataset.catalog,
        dataset.taxonomy,
        BPRHyperParams(n_factors=8, optimizer=optimizer, seed=seed),
    )
    trainer = BPRTrainer(
        model,
        dataset,
        sampler=_production_sampler(kind, model, dataset.taxonomy),
        batch_size=batch_size,
        seed=seed + 1,
    )
    return model, trainer


def _same_bytes(ours: np.ndarray, theirs: np.ndarray) -> bool:
    # Compared outside the assert: pytest would diff two byte strings of
    # a whole parameter table, which takes minutes.
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def _assert_bytes_equal(ours, theirs, what: str) -> None:
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        same = _same_bytes(ours[name], theirs[name])
        assert same, (
            f"{what} {name!r} differs from the frozen reference "
            f"(max abs diff {np.max(np.abs(ours[name] - theirs[name]))})"
        )


def test_dataset_collides_and_repeats():
    """The properties the oracle's coverage rests on."""
    _, trainer = _trainer("adagrad", "uniform", 32, seed=0)
    assert any(
        len(set(example.context.item_indices)) < len(example.context)
        for example in trainer.examples
    ), "no context repeats an item"
    model = trainer.model
    positives = trainer.compiled.positives[:32]
    assert np.unique(positives).size < positives.size
    assert np.unique(model._item_brand[positives]).size < positives.size
    assert np.unique(model._item_price_bucket[positives]).size < positives.size
    assert (trainer.compiled.negatives >= 0).any(), "no fixed-negative triples"
    assert (trainer.compiled.negatives < 0).any(), "no sampled-negative triples"


def _assert_epochs_byte_equal(optimizer, kind, batch_size, seed, retailer):
    model, trainer = _trainer(optimizer, kind, batch_size, seed, retailer)
    twin, twin_trainer = _trainer(optimizer, kind, batch_size, seed, retailer)
    reference = frozen.ReferenceModel(twin)
    frozen_sampler = _frozen_sampler(kind, reference, _DATASETS[retailer].taxonomy)
    frozen_epoch = (
        batched.run_epoch_batched if kind == "composite" else frozen.run_epoch_batched
    )

    for _ in range(EPOCHS):
        # batch_size=1 through run_epoch would select the scalar loop; the
        # batched loop must hold at every size, single-triple batches included.
        loss = trainer._run_epoch_batched()
        frozen_loss = frozen_epoch(twin_trainer, reference, frozen_sampler)
        assert loss == frozen_loss

    _assert_bytes_equal(model.get_state(), twin.get_state(), "parameter")
    _assert_bytes_equal(
        optimizer_state(model.optimizer), optimizer_state(twin.optimizer), "accumulator"
    )
    # Same number of draws came off both streams.
    assert trainer._rng.integers(1 << 62) == twin_trainer._rng.integers(1 << 62)


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("kind", ["uniform", "composite", "affinity"])
@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batched_epochs_byte_equal_frozen_reference(optimizer, kind, batch_size, seed):
    _assert_epochs_byte_equal(optimizer, kind, batch_size, seed, "colliding")


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("kind", ["composite", "affinity"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_scoring_samplers_byte_equal_on_both_assembly_paths(kind, batch_size, seed):
    _assert_epochs_byte_equal("adagrad", kind, batch_size, seed, "wide")


def test_effective_item_matrix_byte_equal_frozen_assembly():
    """The cached all-items matrix is the per-batch assembly over every item."""
    model, trainer = _trainer("adagrad", "uniform", 32, seed=5)
    trainer.run_epoch()
    reference = frozen.ReferenceModel(model)
    every_item = np.arange(model.n_items)
    expected = reference.effective_item_vectors(every_item)
    assert _same_bytes(model.effective_item_matrix(), expected)
    assert _same_bytes(model.effective_item_vectors(every_item), expected)
