"""The one-pass example compile against one ``context_weights`` per example.

``BPRTrainer._compile`` builds every array in one pass and
weights all contexts of one length as one block
(``BPRModel.context_weights_csr``).  Each array must be byte-equal to the
per-example build it replaced, written out here: lengths 1 to 25 (8 and up
reach numpy's pairwise sum), event weighting on and off, decay 1.0 and
0.85, and the strength-constraint negatives as the examples hold them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer, CompiledExamples, TrainingExample

from tests.conftest import recompile


def _per_example(model: BPRModel, examples) -> CompiledExamples:
    indptr = np.zeros(len(examples) + 1, dtype=np.int64)
    ctx_rows, ctx_weights = [], []
    positives = np.zeros(len(examples), dtype=np.int64)
    negatives = np.full(len(examples), -1, dtype=np.int64)
    for position, example in enumerate(examples):
        context = example.context
        indptr[position + 1] = indptr[position] + len(context)
        if len(context) > 0:
            ctx_rows.append(np.asarray(context.item_indices, dtype=np.int64))
            ctx_weights.append(model.context_weights(context))
        positives[position] = example.positive
        if example.negative is not None:
            negatives[position] = example.negative
    return CompiledExamples(
        indptr=indptr,
        ctx_rows=np.concatenate(ctx_rows) if ctx_rows else np.zeros(0, dtype=np.int64),
        ctx_weights=np.concatenate(ctx_weights) if ctx_weights else np.zeros(0),
        positives=positives,
        negatives=negatives,
    )


def _assert_byte_equal(ours: CompiledExamples, theirs: CompiledExamples) -> None:
    for name in ("indptr", "ctx_rows", "ctx_weights", "positives", "negatives"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=60),
    event_weighting=st.booleans(),
    decay=st.sampled_from([1.0, 0.85]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_pass_compile_is_the_per_example_build(
    tiny_dataset, lengths, event_weighting, decay, seed
):
    model = BPRModel(
        tiny_dataset.catalog,
        tiny_dataset.taxonomy,
        BPRHyperParams(n_factors=4, event_weighting=event_weighting, context_decay=decay),
    )
    trainer = BPRTrainer(model, tiny_dataset, seed=1)
    rng = np.random.default_rng(seed)
    events = list(EventType)
    trainer.examples = [
        TrainingExample(
            UserContext(
                tuple(rng.integers(model.n_items, size=length).tolist()),
                tuple(events[code] for code in rng.integers(len(events), size=length)),
            ),
            int(rng.integers(model.n_items)),
            int(rng.integers(model.n_items)) if rng.random() < 0.3 else None,
        )
        for length in lengths
    ]
    _assert_byte_equal(recompile(trainer), _per_example(model, trainer.examples))


def test_every_length_from_1_to_25_in_one_compile(tiny_dataset):
    """All lengths side by side, several contexts each, both switches."""
    rng = np.random.default_rng(7)
    events = list(EventType)
    for event_weighting in (True, False):
        for decay in (1.0, 0.85):
            model = BPRModel(
                tiny_dataset.catalog,
                tiny_dataset.taxonomy,
                BPRHyperParams(
                    n_factors=4, event_weighting=event_weighting, context_decay=decay
                ),
            )
            trainer = BPRTrainer(model, tiny_dataset, seed=1)
            trainer.examples = [
                TrainingExample(
                    UserContext(
                        tuple(rng.integers(model.n_items, size=length).tolist()),
                        tuple(events[c] for c in rng.integers(len(events), size=length)),
                    ),
                    0,
                )
                for length in rng.permutation(np.repeat(np.arange(1, 26), 5)).tolist()
            ]
            _assert_byte_equal(
                recompile(trainer), _per_example(model, trainer.examples)
            )


def test_strength_constraint_negatives_come_out_unchanged(small_dataset):
    model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, BPRHyperParams(n_factors=4))
    trainer = BPRTrainer(model, small_dataset, strength_constraints=True, seed=4)
    fixed = [example.negative for example in trainer.examples if example.negative is not None]
    assert fixed, "the dataset yields no strength-constraint triple"
    compiled = trainer.compiled
    assert compiled.negatives[compiled.negatives >= 0].tolist() == fixed
    _assert_byte_equal(compiled, _per_example(model, trainer.examples))
