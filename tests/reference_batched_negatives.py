"""The composite sampler's batched draw, written plainly: a test oracle.

``CompositeNegativeSampler.sample_batch`` draws a batch's negatives as
arrays.  This module draws the same candidate blocks off the same stream
and then goes row by row: every candidate through :meth:`acceptable` (the
per-draw sampler's ``_acceptable``: LCA distance by ``path_distance`` on
the index's Python rows), the first ``pool_size`` survivors, each pool
scored through ``ReferenceModel.score_items``, the uniform fallback for a
row with no survivor.  :func:`run_epoch_batched` is
``reference_batched_sgd.run_epoch_batched`` with one sampler call per
batch, so ``tests/test_batched_sgd_bit_identity.py`` can demand byte-equal
parameters from the composite rows.

Do not "fix" or speed up anything here: a reference that moves with the
code under test proves nothing.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.data.sessions import UserContext
from repro.data.taxonomy import path_distance
from repro.models.negatives import FIRST_BLOCK_ATTEMPTS, MAX_REJECTION_ATTEMPTS

from tests import reference_batched_sgd as frozen


class ReferenceBatchedCompositeSampler:
    def __init__(
        self,
        n_items: int,
        taxonomy,
        reference: Optional[frozen.ReferenceModel],
        co_items: Optional[Mapping[int, Set[int]]] = None,
        min_lca_distance: int = 3,
        pool_size: int = 4,
    ):
        self.n_items = n_items
        self.item_path = taxonomy.index().item_path if taxonomy is not None else {}
        self.reference = reference
        self.co_items = co_items or {}
        self.min_lca_distance = min_lca_distance
        self.pool_size = max(1, pool_size)

    def acceptable(self, candidate: int, positive: int, seen: Set[int]) -> bool:
        if candidate == positive or candidate in seen:
            return False
        if candidate in self.co_items.get(positive, ()):
            return False
        path = self.item_path.get(candidate)
        other = self.item_path.get(positive)
        if path is None or other is None:
            return True
        return path_distance(path, other) >= self.min_lca_distance

    def sample_batch(
        self,
        contexts: Sequence[UserContext],
        positives: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        n = len(contexts)
        if n == 0:
            return []
        first = FIRST_BLOCK_ATTEMPTS * self.pool_size
        total = MAX_REJECTION_ATTEMPTS * self.pool_size
        seen = [set(context.item_indices) for context in contexts]

        block = rng.integers(self.n_items, size=(n, first))
        pools = []
        for row in range(n):
            pool = []
            for candidate in block[row].tolist():
                if len(pool) < self.pool_size and self.acceptable(
                    candidate, positives[row], seen[row]
                ):
                    pool.append(candidate)
            pools.append(pool)

        short = [row for row in range(n) if len(pools[row]) < self.pool_size]
        if short:
            more = rng.integers(self.n_items, size=(len(short), total - first))
            for row, candidates in zip(short, more.tolist()):
                for candidate in candidates:
                    if len(pools[row]) < self.pool_size and self.acceptable(
                        candidate, positives[row], seen[row]
                    ):
                        pools[row].append(candidate)

        negatives = []
        for row in range(n):
            pool = pools[row]
            if not pool:
                negatives.append(
                    frozen._uniform(self.n_items, positives[row], rng, avoid=seen[row])
                )
            elif self.reference is None or len(pool) == 1:
                negatives.append(pool[0])
            else:
                scores = self.reference.score_items(contexts[row], pool)
                negatives.append(pool[int(np.argmax(scores))])
        return negatives


def run_epoch_batched(
    trainer, reference: frozen.ReferenceModel, sampler: ReferenceBatchedCompositeSampler
) -> float:
    """``BPRTrainer.run_epoch`` with the frozen step and this sampler."""
    compiled = trainer.compiled
    n = len(trainer.examples)
    order = trainer._rng.permutation(n)
    total = 0.0
    for start in range(0, n, trainer.batch_size):
        batch = order[start : start + trainer.batch_size]
        negatives = compiled.negatives[batch].copy()
        sampled = np.flatnonzero(negatives < 0)
        examples = [trainer.examples[position] for position in batch[sampled]]
        drawn = sampler.sample_batch(
            [example.context for example in examples],
            [example.positive for example in examples],
            trainer._rng,
        )
        negatives[sampled] = np.asarray(drawn, dtype=np.int64)
        losses = reference.sgd_step_batch(
            frozen.gather(compiled, batch), compiled.positives[batch], negatives
        )
        total += float(losses.sum())
    return total / n
