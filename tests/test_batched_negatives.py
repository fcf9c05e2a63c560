"""The samplers' batch draws against the plain row-by-row draws.

``CompositeNegativeSampler`` draws a training batch's negatives as arrays:
candidate blocks, one acceptability mask, the first ``pool_size``
survivors per row, one scoring of every pool.  Checked here against
``tests/reference_batched_negatives.py``: the mask element by element on
hostile taxonomies, and whole draws — negatives and stream — with
co-occurrence exclusions and rows that fall back to uniform.

``UniformNegativeSampler`` draws rounds of arrays off the stream one
``sample`` per row reads; checked against exactly that on catalogs small
enough that contexts cover them and rows fall back mid-batch.  The byte
equality of trained parameters is ``tests/test_batched_sgd_bit_identity.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.data.taxonomy import ROOT_CATEGORY, Taxonomy
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.negatives import (
    CompositeNegativeSampler,
    UniformNegativeSampler,
)
from repro.models.trainer import BPRTrainer, TrainingExample

from tests import reference_batched_negatives as batched
from tests import reference_batched_sgd as frozen

_DATASET = dataset_from_synthetic(
    generate_retailer(
        RetailerSpec(
            retailer_id="batched_negatives",
            n_items=40,
            n_users=12,
            n_events=220,
            taxonomy_depth=3,
            taxonomy_fanout=2,
            n_brands=3,
            seed=31,
        )
    )
)


def _random_taxonomy(rng: np.random.Generator, n_categories: int, n_items: int):
    """A tree of unequal depths; some items uncategorised, the tail past
    ``index.item_cat``'s end, some on the root itself."""
    taxonomy = Taxonomy()
    names = [ROOT_CATEGORY]
    for number in range(n_categories):
        name = f"c{number}"
        taxonomy.add_category(name, names[int(rng.integers(len(names)))])
        names.append(name)
    for item in range(int(rng.integers(n_items + 1))):
        if rng.random() < 0.8:
            taxonomy.assign_item(item, names[int(rng.integers(len(names)))])
    return taxonomy


def _padded(contexts):
    width = max((len(context) for context in contexts), default=0)
    seen = np.full((len(contexts), width), -1, dtype=np.int64)
    for row, context in enumerate(contexts):
        seen[row, : len(context)] = context
    return seen


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_categories=st.integers(min_value=0, max_value=9),
    n_items=st.integers(min_value=2, max_value=30),
    min_lca_distance=st.integers(min_value=0, max_value=6),
    with_taxonomy=st.booleans(),
    with_co_items=st.booleans(),
)
def test_block_mask_is_the_scalar_acceptability_test(
    seed, n_categories, n_items, min_lca_distance, with_taxonomy, with_co_items
):
    rng = np.random.default_rng(seed)
    taxonomy = _random_taxonomy(rng, n_categories, n_items) if with_taxonomy else None
    co_items = {}
    if with_co_items:
        for positive in rng.choice(n_items, size=n_items // 2, replace=False).tolist():
            co_items[positive] = set(rng.integers(n_items, size=3).tolist())
    sampler = CompositeNegativeSampler(
        n_items, taxonomy=taxonomy, co_items=co_items, min_lca_distance=min_lca_distance
    )
    scalar = batched.ReferenceBatchedCompositeSampler(
        n_items, taxonomy, None, co_items=co_items, min_lca_distance=min_lca_distance
    )
    rows = int(rng.integers(1, 9))
    positives = rng.integers(n_items, size=rows)
    contexts = [
        rng.integers(n_items, size=int(rng.integers(0, 5))).tolist() for _ in range(rows)
    ]
    candidates = rng.integers(n_items, size=(rows, int(rng.integers(1, 20))))

    mask = sampler._acceptable_block(candidates, positives, _padded(contexts))

    expected = [
        [
            scalar.acceptable(candidate, int(positives[row]), set(contexts[row]))
            for candidate in candidates[row].tolist()
        ]
        for row in range(rows)
    ]
    assert mask.tolist() == expected


def _trainer(seed: int, batch_size: int = 16):
    model = BPRModel(
        _DATASET.catalog, _DATASET.taxonomy, BPRHyperParams(n_factors=6, seed=seed)
    )
    return BPRTrainer(model, _DATASET, batch_size=batch_size, seed=seed)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    min_lca_distance=st.integers(min_value=1, max_value=6),
    pool_size=st.integers(min_value=1, max_value=6),
    scored=st.booleans(),
)
def test_batch_draw_is_the_row_by_row_draw(seed, min_lca_distance, pool_size, scored):
    """Whole draws, stream included: co-occurrence exclusions on, and at
    the larger distances rows with no survivor fall back to uniform."""
    trainer = _trainer(seed)
    model = trainer.model
    rng = np.random.default_rng(seed)
    co_items = {
        positive: set(rng.integers(model.n_items, size=6).tolist())
        for positive in range(0, model.n_items, 3)
    }
    sampler = CompositeNegativeSampler(
        model.n_items,
        taxonomy=_DATASET.taxonomy,
        co_items=co_items,
        model=model if scored else None,
        min_lca_distance=min_lca_distance,
        pool_size=pool_size,
    )
    scalar = batched.ReferenceBatchedCompositeSampler(
        model.n_items,
        _DATASET.taxonomy,
        frozen.ReferenceModel(model) if scored else None,
        co_items=co_items,
        min_lca_distance=min_lca_distance,
        pool_size=pool_size,
    )
    rows = rng.permutation(trainer.n_examples)[:24]
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    drawn = sampler.sample_batch(trainer.examples, trainer.compiled, rows, ours)

    examples = [trainer.examples[row] for row in rows.tolist()]
    expected = scalar.sample_batch(
        [example.context for example in examples],
        [example.positive for example in examples],
        theirs,
    )
    assert drawn.tolist() == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_a_batch_with_no_sampled_rows_draws_nothing():
    trainer = _trainer(seed=4)
    sampler = CompositeNegativeSampler(
        trainer.model.n_items, taxonomy=_DATASET.taxonomy, model=trainer.model
    )
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    drawn = sampler.sample_batch(
        trainer.examples, trainer.compiled, np.zeros(0, dtype=np.int64), rng
    )
    assert drawn.size == 0
    assert rng.bit_generator.state == before

    # Through the trainer: every example with a fixed negative, so an
    # epoch reads the shuffle off the stream and nothing else.
    trainer.sampler = sampler
    trainer.examples = [e for e in trainer.examples if e.negative is not None]
    trainer.compiled = trainer._compile_examples()
    assert trainer.n_examples > 0
    twin = np.random.default_rng()
    twin.bit_generator.state = trainer._rng.bit_generator.state
    trainer.run_epoch()
    twin.permutation(trainer.n_examples)
    assert trainer._rng.bit_generator.state == twin.bit_generator.state


def _example(positive: int, context) -> TrainingExample:
    items = tuple(int(item) for item in context)
    return TrainingExample(UserContext(items, (EventType.VIEW,) * len(items)), positive)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_items=st.integers(min_value=2, max_value=6),
    n_rows=st.integers(min_value=1, max_value=40),
    covered_share=st.floats(min_value=0.0, max_value=0.9),
    data=st.data(),
)
def test_uniform_batch_draw_is_one_sample_per_row(seed, n_items, n_rows, covered_share, data):
    """Values and stream position, with the 20-attempt fallback mid-batch.

    The batch is every example, shuffled.  Its row at ``forced`` (never
    the last) has a context covering the whole catalog, so only the
    fallback can answer it; other rows cover the catalog at
    ``covered_share`` or hold a few random items.
    """
    rng = np.random.default_rng(seed)
    catalog = np.arange(n_items)
    rows = rng.permutation(n_rows)
    forced = data.draw(st.integers(min_value=0, max_value=max(0, n_rows - 2)), label="forced")
    examples = [None] * n_rows
    for position, row in enumerate(rows.tolist()):
        if (position == forced and n_rows > 1) or rng.random() < covered_share:
            context = rng.permutation(catalog)
        else:
            context = rng.integers(n_items, size=int(rng.integers(0, 4)))
        examples[row] = _example(int(rng.integers(n_items)), context)
    if n_rows > 1:
        covering = examples[rows[forced]].context.item_indices
        assert set(covering) == set(catalog.tolist()) and forced < n_rows - 1
    sampler = UniformNegativeSampler(n_items)
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)

    drawn = sampler.sample_batch(examples, None, rows, ours)  # reads no CSR

    expected = [
        sampler.sample(examples[r].context, examples[r].positive, theirs)
        for r in rows.tolist()
    ]
    assert drawn.dtype == np.int64
    assert drawn.tolist() == expected
    assert ours.integers(2**62) == theirs.integers(2**62)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_uniform_batch_of_no_rows_draws_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    drawn = UniformNegativeSampler(4).sample_batch(
        [_example(0, [1])], None, np.zeros(0, dtype=np.int64), rng
    )
    assert drawn.size == 0 and drawn.dtype == np.int64
    assert rng.bit_generator.state == before
