"""The per-triple BPR update as ``src/`` held it until PR 14, kept as an oracle.

Test-only.  ``BPRModel.sgd_step_batch`` is the library's one update and
``BPRTrainer.run_epoch`` its one loop; what stood beside them —
``BPRModel.sgd_step``, ``_update_item_side``, ``effective_item_vector``,
``Sgd.step`` / ``Adagrad.step`` and ``BPRTrainer._run_epoch_scalar`` —
is copied here statement for statement, re-hung as functions over a live
model's arrays, so the equivalence tests (a batch of one non-colliding
triple is this rule; a ``batch_size=1`` epoch is this loop) still have
the paper's section III-B update written out one row at a time to
compare against.

Like ``tests/reference_batched_sgd.py``: do not speed this up or make
it follow the code under test.
"""

from __future__ import annotations

import numpy as np

from repro.data.sessions import UserContext
from repro.models.bpr import BPRModel
from repro.models.optim import Adagrad, Optimizer, Sgd


def step(
    opt: Optimizer, name: str, param: np.ndarray, row: int, grad: np.ndarray
) -> None:
    """Apply ``grad`` (ascent direction) to ``param[row]`` in place."""
    if isinstance(opt, Sgd):
        param[row] += opt.learning_rate * grad
        return
    assert isinstance(opt, Adagrad)
    acc = opt._accumulators[name]
    acc[row] += np.square(grad)
    param[row] += opt.learning_rate * grad / (np.sqrt(acc[row]) + opt.epsilon)


def effective_item_vector(model: BPRModel, item_index: int) -> np.ndarray:
    """Item embedding plus all active feature embeddings (copy)."""
    vector = model.item_embeddings[item_index].copy()
    rows = model.item_ancestor_rows(item_index)
    if rows.size:
        vector += model.taxonomy_embeddings[rows].sum(axis=0)
    brand_row = model._item_brand[item_index]
    if brand_row >= 0:
        vector += model.brand_embeddings[brand_row]
    bucket = model._item_price_bucket[item_index]
    if bucket >= 0:
        vector += model.price_embeddings[bucket]
    return vector


def _update_item_side(
    model: BPRModel, item_index: int, scaled_user: np.ndarray, sign: float
) -> None:
    """Distribute the item-side gradient over embedding + feature rows."""
    params = model.params
    opt = model.optimizer
    grad = sign * scaled_user - params.reg_item * model.item_embeddings[item_index]
    step(opt, "item", model.item_embeddings, item_index, grad)
    for row in model.item_ancestor_rows(item_index):
        grad = sign * scaled_user - params.reg_features * model.taxonomy_embeddings[row]
        step(opt, "taxonomy", model.taxonomy_embeddings, row, grad)
    brand_row = model._item_brand[item_index]
    if brand_row >= 0:
        grad = sign * scaled_user - params.reg_features * model.brand_embeddings[brand_row]
        step(opt, "brand", model.brand_embeddings, brand_row, grad)
    bucket = model._item_price_bucket[item_index]
    if bucket >= 0:
        grad = sign * scaled_user - params.reg_features * model.price_embeddings[bucket]
        step(opt, "price", model.price_embeddings, bucket, grad)


def sgd_step(
    model: BPRModel, context: UserContext, positive: int, negative: int
) -> float:
    """One BPR update on the triple; returns the example's log loss."""
    user = model.user_embedding(context)
    phi_pos = effective_item_vector(model, positive)
    phi_neg = effective_item_vector(model, negative)
    z = float(user @ (phi_pos - phi_neg)) + float(
        model.item_bias[positive] - model.item_bias[negative]
    )
    z_clipped = np.clip(z, -35.0, 35.0)
    e = 1.0 / (1.0 + np.exp(z_clipped))  # sigma(-z)

    params = model.params
    opt = model.optimizer
    # Item-side updates for the positive and negative items.
    _update_item_side(model, positive, e * user, sign=+1.0)
    _update_item_side(model, negative, e * user, sign=-1.0)
    step(
        opt,
        "bias",
        model.item_bias,
        positive,
        e - params.reg_bias * model.item_bias[positive],
    )
    step(
        opt,
        "bias",
        model.item_bias,
        negative,
        -e - params.reg_bias * model.item_bias[negative],
    )
    # Context-side updates (gradient of u distributes over context rows).
    if len(context) > 0:
        delta = e * (phi_pos - phi_neg)
        weights = model.context_weights(context)
        for weight, row in zip(weights, context.item_indices):
            grad = weight * delta - params.reg_context * model.context_embeddings[row]
            step(opt, "context", model.context_embeddings, row, grad)
    model.invalidate_cache()
    return float(np.log1p(np.exp(-z_clipped)))


def run_epoch_scalar(trainer) -> float:
    """``BPRTrainer._run_epoch_scalar``: one :func:`sgd_step` per triple.

    Draws from the trainer's own ``_rng`` — the permutation, then one
    negative right before each step — which is also the order a
    ``batch_size=1`` pass reads the stream in.
    """
    order = trainer._rng.permutation(len(trainer.examples))
    total = 0.0
    for position in order:
        example = trainer.examples[position]
        negative = example.negative
        if negative is None:
            negative = trainer.sampler.sample(
                example.context, example.positive, trainer._rng
            )
        total += sgd_step(trainer.model, example.context, example.positive, negative)
    return total / len(trainer.examples)
