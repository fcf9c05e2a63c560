"""Planned epochs against the frozen batch-at-a-time epoch.

``BPRTrainer.run_epoch`` plans each window of ``PLAN_WINDOW`` batches
once (``PositivePlan``) and each draw of negatives once (``NegativePlan``;
the uniform sampler draws the whole epoch right after the shuffle), and a
batch is one ``BPRModel.step_planned``.  None of that may move a float or
a draw: parameters, Adagrad sums and the trainer stream's next value must
come out byte-equal to ``tests/reference_batched_sgd.run_epoch_batched``
(``tests/reference_batched_negatives.py`` for the composite sampler) at
every batch size, window, feature switch and sampler.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.models import bpr, trainer as trainer_module
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.negatives import (
    AffinityNegativeSampler,
    CompositeNegativeSampler,
    UniformNegativeSampler,
)
from repro.models.trainer import BPRTrainer, TrainingExample

from tests import reference_batched_negatives as batched
from tests import reference_batched_sgd as frozen
from tests.conftest import optimizer_state

_DATASET = dataset_from_synthetic(
    generate_retailer(
        RetailerSpec(
            retailer_id="planned_epoch",
            n_items=30,
            n_users=10,
            n_events=160,
            taxonomy_depth=2,
            taxonomy_fanout=2,
            n_brands=3,
            seed=41,
        )
    )
)
EPOCHS = 2


def _trainer(kind, params, batch_size, seed):
    model = BPRModel(_DATASET.catalog, _DATASET.taxonomy, params)
    if kind == "uniform":
        sampler = UniformNegativeSampler(model.n_items)
    elif kind == "affinity":
        sampler = AffinityNegativeSampler(model.n_items, model)
    else:
        sampler = CompositeNegativeSampler(model.n_items, taxonomy=_DATASET.taxonomy, model=model)
    return BPRTrainer(model, _DATASET, sampler=sampler, batch_size=batch_size, seed=seed)


def _reference(kind, twin):
    reference = frozen.ReferenceModel(twin.model)
    n_items = twin.model.n_items
    if kind == "uniform":
        return reference, frozen.ReferenceUniformSampler(n_items), frozen.run_epoch_batched
    if kind == "affinity":
        return (
            reference,
            frozen.ReferenceAffinitySampler(n_items, reference),
            frozen.run_epoch_batched,
        )
    sampler = batched.ReferenceBatchedCompositeSampler(n_items, _DATASET.taxonomy, reference)
    return reference, sampler, batched.run_epoch_batched


def _same(ours, theirs) -> bool:
    return sorted(ours) == sorted(theirs) and all(
        ours[name].tobytes() == theirs[name].tobytes() for name in ours
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "affinity", "composite"]),
    batch_size=st.sampled_from([1, 2, 7, 32, 10_000]),
    window=st.sampled_from([1, 2, 3, 64]),
    use_taxonomy=st.booleans(),
    use_brand=st.booleans(),
    use_price=st.booleans(),
    optimizer=st.sampled_from(["adagrad", "sgd"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_planned_epochs_byte_equal_frozen_epochs(
    kind, batch_size, window, use_taxonomy, use_brand, use_price, optimizer, seed
):
    params = BPRHyperParams(
        n_factors=4,
        use_taxonomy=use_taxonomy,
        use_brand=use_brand,
        use_price=use_price,
        optimizer=optimizer,
        seed=seed,
    )
    ours = _trainer(kind, params, batch_size, seed + 1)
    twin = _trainer(kind, params, batch_size, seed + 1)
    reference, sampler, frozen_epoch = _reference(kind, twin)
    with mock.patch.object(trainer_module, "PLAN_WINDOW", window):
        for _ in range(EPOCHS):
            assert ours.run_epoch() == frozen_epoch(twin, reference, sampler)

    assert _same(ours.model.get_state(), twin.model.get_state())
    assert _same(optimizer_state(ours.model.optimizer), optimizer_state(twin.model.optimizer))
    assert ours._rng.integers(1 << 62) == twin._rng.integers(1 << 62)


def test_a_small_window_cuts_the_epoch_into_several_plans():
    """The differential test above reaches epochs of many windows, and a
    uniform epoch plans one window at a time, not one batch at a time."""
    trainer = _trainer("uniform", BPRHyperParams(n_factors=4), batch_size=7, seed=3)
    n_batches = math.ceil(trainer.n_examples / 7)
    plans = []
    draws = []
    real_plan, real_draw = bpr.PositivePlan, trainer.sampler.sample_batch

    def counting_plan(*args):
        plans.append(real_plan(*args))
        return plans[-1]

    def counting_draw(*args):
        draws.append(args[2].size)
        return real_draw(*args)

    with mock.patch.object(trainer_module, "PLAN_WINDOW", 2), mock.patch.object(
        trainer_module, "PositivePlan", counting_plan
    ), mock.patch.object(trainer.sampler, "sample_batch", counting_draw):
        trainer.run_epoch()
    assert n_batches > 4
    assert len(plans) == math.ceil(n_batches / 2)
    assert sum(plan.n_batches for plan in plans) == n_batches
    assert draws == [int((trainer.compiled.negatives < 0).sum())]


def _example(positive: int, context) -> TrainingExample:
    items = tuple(int(item) for item in context)
    return TrainingExample(UserContext(items, (EventType.VIEW,) * len(items)), positive)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_items=st.integers(min_value=2, max_value=6),
    batch_size=st.integers(min_value=1, max_value=6),
    n_batches=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_uniform_epoch_draw_is_one_sample_batch_per_batch(
    seed, n_items, batch_size, n_batches, data
):
    """One call over the epoch's rows takes the values, and leaves the
    stream where, one ``sample_batch`` per batch does — with 20-attempt
    fallbacks on both sides of a batch boundary.

    The rows either side of the boundary after batch ``boundary`` have
    contexts covering the catalog, so only the fallback can answer them
    (and it answers with a context item, which no accepted draw is).
    """
    rng = np.random.default_rng(seed)
    catalog = np.arange(n_items)
    n_rows = batch_size * n_batches
    boundary = data.draw(st.integers(min_value=1, max_value=n_batches - 1), label="boundary")
    forced = {boundary * batch_size - 1, boundary * batch_size}
    rows = rng.permutation(n_rows)
    examples = [None] * n_rows
    for position, row in enumerate(rows.tolist()):
        if position in forced:
            context = rng.permutation(catalog)
        else:
            context = rng.choice(catalog, size=int(rng.integers(0, n_items)), replace=False)
        examples[row] = _example(int(rng.integers(n_items)), context)
    sampler = UniformNegativeSampler(n_items)
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    drawn = sampler.sample_batch(examples, None, rows, ours)

    expected = np.concatenate(
        [
            sampler.sample_batch(examples, None, rows[start : start + batch_size], theirs)
            for start in range(0, n_rows, batch_size)
        ]
    )
    assert drawn.tolist() == expected.tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state
    for position in forced:
        example = examples[rows[position]]
        assert drawn[position] in example.context.item_indices, "no fallback happened"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    min_lca_distance=st.integers(min_value=1, max_value=6),
    pool_size=st.integers(min_value=1, max_value=5),
    batch_size=st.sampled_from([1, 3, 8]),
    scored=st.booleans(),
)
def test_composite_window_draw_is_one_sample_batch_per_batch(
    seed, min_lca_distance, pool_size, batch_size, scored
):
    """The composite sampler draws a window's pools in runs of first
    blocks, rewinding where a row falls short: picked batch by batch, the
    negatives and the stream are one ``sample_batch`` per batch's."""
    trainer = _trainer("uniform", BPRHyperParams(n_factors=4, seed=seed), 7, seed)
    model = trainer.model
    sampler = CompositeNegativeSampler(
        model.n_items,
        taxonomy=_DATASET.taxonomy,
        model=model if scored else None,
        min_lca_distance=min_lca_distance,
        pool_size=pool_size,
    )
    rng = np.random.default_rng(seed)
    rows = rng.permutation(trainer.n_examples)[: batch_size * 9]
    bounds = [*range(0, rows.size, batch_size), rows.size]
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    pools = sampler.draw_window(trainer.examples, trainer.compiled, rows, bounds, ours)
    drawn = [pools.pick(k).tolist() for k in range(len(bounds) - 1)]

    expected = [
        sampler.sample_batch(trainer.examples, trainer.compiled, rows[lo:hi], theirs).tolist()
        for lo, hi in zip(bounds, bounds[1:])
    ]
    assert drawn == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_composite_window_draw_rewinds_where_a_row_falls_short():
    """At a large LCA distance rows fall short and some have no survivor:
    the window draw still matches the per-batch draws, stream included."""
    trainer = _trainer("uniform", BPRHyperParams(n_factors=4), 7, seed=2)
    sampler = CompositeNegativeSampler(
        trainer.model.n_items, taxonomy=_DATASET.taxonomy, min_lca_distance=4
    )
    rows = np.random.default_rng(0).permutation(trainer.n_examples)[:60]
    bounds = [*range(0, 60, 6), 60]
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    pools = sampler.draw_window(trainer.examples, trainer.compiled, rows, bounds, ours)
    assert (pools.counts < sampler.pool_size).any(), "no row fell short"
    assert (pools.counts == 0).any(), "no row fell back to uniform"
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        expected = sampler.sample_batch(trainer.examples, trainer.compiled, rows[lo:hi], theirs)
        assert pools.pick(k).tolist() == expected.tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state
