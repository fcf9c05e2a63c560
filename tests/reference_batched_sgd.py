"""The batched training path as it stood when it became the default, frozen.

Test-only oracle.  PR 13 took batch-invariant Python out of the batch loop
under the rule that not one floating-point operation and not one ``rng``
draw may change.  This module copies what the code did before —
``_run_epoch_batched``, ``CompiledExamples.gather``, ``sgd_step_batch``,
``_step_feature_rows``, ``effective_item_vectors``,
``Sgd/Adagrad.step_rows``, and everything a negative sampler reaches
(``score_items`` on a small pool, ``user_embedding``, ``context_weights``)
— statement for statement, re-hung as functions over the live objects'
state and trimmed only of branches training never takes (input
validation, the cached-matrix branch of ``score_items``), so
``tests/test_batched_sgd_bit_identity.py`` can demand byte-equal
parameters and accumulators from the production code.  The per-draw
composite sampler that stood here left with it: the composite sampler now
draws a batch at once, against ``tests/reference_batched_negatives.py``.

Do not "fix" or speed up anything here: a reference that moves with the
code under test proves nothing.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from repro.data.sessions import UserContext
from repro.models.bpr import EVENT_CONTEXT_WEIGHT, BPRModel
from repro.models.negatives import MAX_REJECTION_ATTEMPTS
from repro.models.optim import Adagrad, Optimizer, Sgd


# ----------------------------------------------------------------------
# CSR helpers
# ----------------------------------------------------------------------
def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(np.asarray(starts, dtype=np.int64), counts)
    )


def gather(compiled, batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    starts = compiled.indptr[batch]
    counts = compiled.indptr[batch + 1] - starts
    flat = concat_ranges(starts, counts)
    sub_indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    return sub_indptr, compiled.ctx_rows[flat], compiled.ctx_weights[flat]


def _ancestor_csr(model: BPRModel) -> Tuple[np.ndarray, np.ndarray]:
    """Per-item taxonomy rows as the ``(indptr, rows)`` CSR the old model held."""
    per_item = [model.item_ancestor_rows(item) for item in range(model.n_items)]
    indptr = np.zeros(model.n_items + 1, dtype=np.int64)
    np.cumsum([rows.size for rows in per_item], out=indptr[1:])
    rows = (
        np.concatenate(per_item).astype(np.int64)
        if per_item
        else np.zeros(0, dtype=np.int64)
    )
    return indptr, rows


# ----------------------------------------------------------------------
# Optimizers
# ----------------------------------------------------------------------
def step_rows(
    opt: Optimizer, name: str, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
) -> None:
    if isinstance(opt, Sgd):
        np.add.at(param, rows, opt.learning_rate * grads)
        return
    assert isinstance(opt, Adagrad)
    acc = opt._accumulators[name]
    np.add.at(acc, rows, np.square(grads))
    scaled = grads / (np.sqrt(acc[rows]) + opt.epsilon)
    np.add.at(param, rows, opt.learning_rate * scaled)


# ----------------------------------------------------------------------
# Model
# ----------------------------------------------------------------------
class ReferenceModel:
    """The old batched arithmetic, driving a live :class:`BPRModel`'s arrays."""

    def __init__(self, model: BPRModel):
        self.model = model
        self.anc_indptr, self.anc_rows = _ancestor_csr(model)

    def effective_item_vectors(self, items: np.ndarray) -> np.ndarray:
        model = self.model
        items = np.asarray(items, dtype=np.int64)
        vectors = model.item_embeddings[items].copy()
        starts = self.anc_indptr[items]
        counts = self.anc_indptr[items + 1] - starts
        if counts.sum() > 0:
            owners = np.repeat(np.arange(items.size), counts)
            ancestors = self.anc_rows[concat_ranges(starts, counts)]
            np.add.at(vectors, owners, model.taxonomy_embeddings[ancestors])
        brands = model._item_brand[items]
        has_brand = brands >= 0
        if has_brand.any():
            vectors[has_brand] += model.brand_embeddings[brands[has_brand]]
        buckets = model._item_price_bucket[items]
        has_price = buckets >= 0
        if has_price.any():
            vectors[has_price] += model.price_embeddings[buckets[has_price]]
        return vectors

    def context_weights(self, context: UserContext) -> np.ndarray:
        params = self.model.params
        size = len(context)
        if size == 0:
            return np.zeros(0)
        if size == 1:
            return np.ones(1)
        ages = np.arange(size - 1, -1, -1, dtype=np.float64)
        weights = params.context_decay ** ages
        if params.event_weighting:
            weights = weights * np.array(
                [EVENT_CONTEXT_WEIGHT[event] for event in context.events]
            )
        total = weights.sum()
        return weights / total if total > 0 else weights

    def user_embedding(self, context: UserContext) -> np.ndarray:
        if len(context) == 0:
            return np.zeros(self.model.params.n_factors)
        rows = np.asarray(context.item_indices, dtype=np.int64)
        return self.context_weights(context) @ self.model.context_embeddings[rows]

    def score_items(self, context: UserContext, item_indices) -> np.ndarray:
        """``BPRModel.score_items`` on a sampler-sized pool mid-training.

        The cached effective-item matrix is always invalid there (every
        step drops it) and pools stay under the cache threshold, so only
        the per-pool assembly branch is kept.
        """
        items = np.asarray(list(item_indices), dtype=np.int64)
        if items.size == 0:
            return np.zeros(0, dtype=np.float64)
        user = self.user_embedding(context)
        vectors = self.effective_item_vectors(items)
        return vectors @ user + self.model.item_bias[items]

    def sgd_step_batch(
        self,
        contexts_csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> np.ndarray:
        model = self.model
        indptr, ctx_rows, ctx_weights = contexts_csr
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        batch = positives.size
        if batch == 0:
            return np.zeros(0, dtype=np.float64)

        counts = np.diff(indptr)
        users = np.zeros((batch, model.params.n_factors))
        if ctx_rows.size:
            owners = np.repeat(np.arange(batch), counts)
            np.add.at(
                users,
                owners,
                ctx_weights[:, None] * model.context_embeddings[ctx_rows],
            )

        phi_pos = self.effective_item_vectors(positives)
        phi_neg = self.effective_item_vectors(negatives)
        z = np.einsum("bf,bf->b", users, phi_pos - phi_neg) + (
            model.item_bias[positives] - model.item_bias[negatives]
        )
        z_clipped = np.clip(z, -35.0, 35.0)
        e = 1.0 / (1.0 + np.exp(z_clipped))

        params = model.params
        opt = model.optimizer
        scaled_user = e[:, None] * users

        item_rows = np.concatenate([positives, negatives])
        item_grads = np.concatenate(
            [
                scaled_user - params.reg_item * model.item_embeddings[positives],
                -scaled_user - params.reg_item * model.item_embeddings[negatives],
            ]
        )
        step_rows(opt, "item", model.item_embeddings, item_rows, item_grads)

        self._step_feature_rows(positives, scaled_user, +1.0)
        self._step_feature_rows(negatives, scaled_user, -1.0)

        bias_rows = np.concatenate([positives, negatives])
        bias_grads = np.concatenate(
            [
                e - params.reg_bias * model.item_bias[positives],
                -e - params.reg_bias * model.item_bias[negatives],
            ]
        )
        step_rows(opt, "bias", model.item_bias, bias_rows, bias_grads)

        if ctx_rows.size:
            delta = e[:, None] * (phi_pos - phi_neg)
            ctx_grads = (
                ctx_weights[:, None] * delta[owners]
                - params.reg_context * model.context_embeddings[ctx_rows]
            )
            step_rows(opt, "context", model.context_embeddings, ctx_rows, ctx_grads)

        model.invalidate_cache()
        return np.log1p(np.exp(-z_clipped))

    def _step_feature_rows(
        self, items: np.ndarray, scaled_user: np.ndarray, sign: float
    ) -> None:
        model = self.model
        params = model.params
        opt = model.optimizer
        starts = self.anc_indptr[items]
        counts = self.anc_indptr[items + 1] - starts
        if counts.sum() > 0:
            owners = np.repeat(np.arange(items.size), counts)
            rows = self.anc_rows[concat_ranges(starts, counts)]
            grads = (
                sign * scaled_user[owners]
                - params.reg_features * model.taxonomy_embeddings[rows]
            )
            step_rows(opt, "taxonomy", model.taxonomy_embeddings, rows, grads)
        brands = model._item_brand[items]
        has_brand = brands >= 0
        if has_brand.any():
            rows = brands[has_brand]
            grads = (
                sign * scaled_user[has_brand]
                - params.reg_features * model.brand_embeddings[rows]
            )
            step_rows(opt, "brand", model.brand_embeddings, rows, grads)
        buckets = model._item_price_bucket[items]
        has_price = buckets >= 0
        if has_price.any():
            rows = buckets[has_price]
            grads = (
                sign * scaled_user[has_price]
                - params.reg_features * model.price_embeddings[rows]
            )
            step_rows(opt, "price", model.price_embeddings, rows, grads)


# ----------------------------------------------------------------------
# Negative samplers
# ----------------------------------------------------------------------
def _uniform(
    n_items: int,
    positive: int,
    rng: np.random.Generator,
    avoid: Optional[Set[int]] = None,
) -> int:
    for _ in range(MAX_REJECTION_ATTEMPTS):
        candidate = int(rng.integers(n_items))
        if candidate == positive:
            continue
        if avoid is not None and candidate in avoid:
            continue
        return candidate
    candidate = int(rng.integers(n_items - 1))
    return candidate if candidate < positive else candidate + 1


class ReferenceUniformSampler:
    def __init__(self, n_items: int):
        self.n_items = n_items

    def sample(self, context: UserContext, positive: int, rng: np.random.Generator) -> int:
        return _uniform(self.n_items, positive, rng, avoid=set(context.item_indices))


class ReferenceAffinitySampler:
    def __init__(self, n_items: int, reference: ReferenceModel, pool_size: int = 8):
        self.n_items = n_items
        self.reference = reference
        self.pool_size = max(1, pool_size)

    def sample(self, context: UserContext, positive: int, rng: np.random.Generator) -> int:
        seen = set(context.item_indices)
        pool = []
        for _ in range(self.pool_size * 3):
            candidate = int(rng.integers(self.n_items))
            if candidate != positive and candidate not in seen:
                pool.append(candidate)
            if len(pool) >= self.pool_size:
                break
        if not pool:
            return _uniform(self.n_items, positive, rng, avoid=seen)
        if len(pool) == 1:
            return pool[0]
        scores = self.reference.score_items(context, pool)
        return pool[int(np.argmax(scores))]


# ----------------------------------------------------------------------
# Trainer
# ----------------------------------------------------------------------
def run_epoch_batched(trainer, reference: ReferenceModel, sampler) -> float:
    """``BPRTrainer._run_epoch_batched`` with the frozen step and sampler.

    Draws from the trainer's own ``_rng`` so the permutation and every
    negative come off the same stream the production loop reads.
    """
    compiled = trainer.compiled
    n = len(trainer.examples)
    order = trainer._rng.permutation(n)
    total = 0.0
    for start in range(0, n, trainer.batch_size):
        batch = order[start : start + trainer.batch_size]
        negatives = compiled.negatives[batch].copy()
        for offset in np.flatnonzero(negatives < 0):
            example = trainer.examples[batch[offset]]
            negatives[offset] = sampler.sample(
                example.context, example.positive, trainer._rng
            )
        losses = reference.sgd_step_batch(
            gather(compiled, batch), compiled.positives[batch], negatives
        )
        total += float(losses.sum())
    return total / n
