"""Sampled rank estimation for large catalogs (paper section III-C2).

Computing an exact holdout rank means scoring every item in the catalog
for every holdout example — too expensive for the largest retailers.
Sigmund instead scores the held-out item against a 10% sample of the
catalog and extrapolates; the paper "verified that this approximation
does not hurt our model selection criterion" (experiment E4 reproduces
that verification).

The extrapolation: if the target beats all but ``b`` of ``s`` sampled
items, the estimated full-catalog rank is ``1 + b * (N - 1) / s`` — the
expected number of better items scales with the inverse sampling rate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.sessions import UserContext
from repro.models.base import Recommender
from repro.rng import SeedLike, make_rng

#: Examples scored per matrix in the batched path.  Chunking keeps the
#: scored column set close to the scalar path's (sample + one target) —
#: scoring sample + *every* target at once is wider than the loop it
#: replaces once the holdout has thousands of distinct targets.
_CHUNK_EXAMPLES = 256


#: Examples per score matrix in :func:`exact_ranks`: the matrix stays
#: ``(chunk, n_items)`` regardless of holdout size.
_EXACT_CHUNK_EXAMPLES = 1024


def exact_ranks(
    model: Recommender,
    contexts: Sequence[UserContext],
    target_items: Sequence[int],
) -> List[float]:
    """Full-catalog ranks of ``target_items[i]`` under ``contexts[i]``.

    Semantically identical to ``rank_of(context, target)`` over the whole
    catalog (worst-case rank among ties, diverged scores rank last),
    computed as a vectorized ``>=`` reduction over one
    :meth:`Recommender.score_contexts` matrix per chunk of examples — the
    hot loop of every grid-search trial.  The one exact-rank kernel: the
    evaluator's exact path and the estimator's small-catalog path.
    """
    targets = np.asarray(target_items, dtype=np.int64)
    ranks: List[float] = []
    for start in range(0, targets.size, _EXACT_CHUNK_EXAMPLES):
        stop = min(start + _EXACT_CHUNK_EXAMPLES, targets.size)
        matrix = np.asarray(
            model.score_contexts(contexts[start:stop]), dtype=np.float64
        )
        target_scores = matrix[np.arange(stop - start), targets[start:stop]]
        chunk_ranks = np.sum(matrix >= target_scores[:, None], axis=1)
        ranks.extend(
            np.where(
                np.isfinite(target_scores), chunk_ranks, matrix.shape[1]
            ).astype(np.float64)
        )
    return [float(rank) for rank in ranks]


class SampledRankEstimator:
    """Estimates full-catalog holdout ranks from an item sample."""

    def __init__(
        self,
        n_items: int,
        sample_fraction: float = 0.1,
        min_sample: int = 50,
        seed: SeedLike = None,
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        self.n_items = n_items
        self.sample_fraction = sample_fraction
        self.min_sample = min_sample
        self._rng = make_rng(seed)

    @property
    def sample_size(self) -> int:
        """Number of candidate items scored per example (never > catalog)."""
        target = int(round(self.n_items * self.sample_fraction))
        return int(min(self.n_items, max(self.min_sample, target)))

    def estimate_rank(
        self,
        model: Recommender,
        context: UserContext,
        target_item: int,
        sample: Optional[Sequence[int]] = None,
    ) -> float:
        """Estimated 1-based full-catalog rank of ``target_item``.

        ``sample`` lets callers reuse one sample across examples (cheaper,
        and what a production pipeline does); by default a fresh uniform
        sample is drawn.  The target item itself is always scored.
        """
        size = self.sample_size
        if size >= self.n_items:
            return float(model.rank_of(context, target_item))
        if sample is None:
            pool = self._rng.choice(self.n_items, size=size, replace=False)
        else:
            pool = np.asarray(list(sample), dtype=np.int64)
        pool = pool[pool != target_item]
        if pool.size == 0:
            return 1.0
        # One pooled scoring call for sample + target: scores are only
        # comparable within a call anyway, and a second Python round trip
        # for a single item costs as much as the whole sample.
        scores = np.asarray(
            model.score_items(context, np.append(pool, target_item)),
            dtype=np.float64,
        )
        target_score = float(scores[-1])
        if not np.isfinite(target_score):
            # Diverged models rank worst (see Recommender.rank_of).
            return float(self.n_items)
        better = int(np.sum(scores[:-1] >= target_score))
        # Scale the observed better-count up to the full catalog.
        scale = (self.n_items - 1) / pool.size
        return 1.0 + better * scale

    def estimate_ranks(
        self,
        model: Recommender,
        contexts: Sequence[UserContext],
        target_items: Sequence[int],
        sample: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Batched :meth:`estimate_rank` over aligned contexts/targets.

        All contexts are scored against one shared sample through a
        single :meth:`Recommender.score_contexts` matrix; per-example
        semantics (target always scored, target dropped from its own
        pool, empty-pool and diverged-model fallbacks, the
        ``1 + b * (N - 1) / s`` extrapolation) match the scalar method
        example-for-example.  ``sample=None`` draws one shared sample.
        """
        contexts = list(contexts)
        targets = np.asarray(list(target_items), dtype=np.int64)
        if len(contexts) != targets.size:
            raise ValueError(
                f"got {len(contexts)} contexts but {targets.size} targets"
            )
        batch = targets.size
        if batch == 0:
            return []
        if self.sample_size >= self.n_items:
            # Small catalog: exact ranks over everything (rank_of semantics).
            return exact_ranks(model, contexts, targets)
        pool = (
            self.draw_sample()
            if sample is None
            else np.asarray(list(sample), dtype=np.int64)
        )
        # Score sample + targets through one matrix per chunk of examples;
        # every example's own target is masked out of its pool afterwards.
        # Chunking keeps the scored column set near the loop path's
        # (sample + one target), instead of sample + every target at once.
        ranks: List[float] = []
        for start in range(0, batch, _CHUNK_EXAMPLES):
            stop = min(start + _CHUNK_EXAMPLES, batch)
            ranks.extend(
                self._estimate_rank_chunk(
                    model, contexts[start:stop], targets[start:stop], pool
                )
            )
        return ranks

    def _estimate_rank_chunk(
        self,
        model: Recommender,
        contexts: Sequence[UserContext],
        targets: np.ndarray,
        pool: np.ndarray,
    ) -> List[float]:
        rows = np.arange(targets.size)
        columns, inverse = np.unique(
            np.concatenate([pool, targets]), return_inverse=True
        )
        matrix = np.asarray(
            model.score_contexts(contexts, columns), dtype=np.float64
        )
        sample_scores = matrix[:, inverse[: pool.size]]
        target_scores = matrix[rows, inverse[pool.size :]]
        in_pool = pool[None, :] != targets[:, None]
        pool_sizes = in_pool.sum(axis=1)
        better = np.sum(
            (sample_scores >= target_scores[:, None]) & in_pool, axis=1
        )
        scale = (self.n_items - 1) / np.maximum(pool_sizes, 1)
        ranks = 1.0 + better * scale
        ranks = np.where(np.isfinite(target_scores), ranks, float(self.n_items))
        ranks = np.where(pool_sizes == 0, 1.0, ranks)
        return [float(rank) for rank in ranks]

    def draw_sample(self) -> np.ndarray:
        """A reusable catalog sample (shared across holdout examples)."""
        size = min(self.sample_size, self.n_items)
        return self._rng.choice(self.n_items, size=size, replace=False)
