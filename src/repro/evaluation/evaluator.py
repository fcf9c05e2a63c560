"""Holdout evaluation harness: model x dataset -> metrics.

Produces the numbers model selection runs on: MAP@10 (exact for small
retailers, sampled for large ones), plus the companion metrics the paper
discusses (precision/recall@K, nDCG, AUC, mean rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.data.datasets import RetailerDataset
from repro.evaluation.metrics import mean_rank_metrics
from repro.evaluation.sampled import SampledRankEstimator
from repro.models.base import Recommender
from repro.rng import SeedLike

#: Catalogs at or above this size switch to sampled evaluation by default,
#: mirroring the paper's "approximate MAP only for large merchants".
DEFAULT_SAMPLED_THRESHOLD = 2000


@dataclass
class EvaluationResult:
    """Metrics of one model on one retailer's holdout."""

    retailer_id: str
    metrics: Dict[str, float]
    ranks: List[float] = field(default_factory=list, repr=False)
    sampled: bool = False

    @property
    def map_at_10(self) -> float:
        return self.metrics.get("map@10", 0.0)

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"metric {name!r} not computed; available: {sorted(self.metrics)}"
            ) from None


class HoldoutEvaluator:
    """Evaluates recommenders on a retailer's leave-last-out holdout."""

    def __init__(
        self,
        dataset: RetailerDataset,
        k: int = 10,
        sample_fraction: float = 0.1,
        sampled_threshold: int = DEFAULT_SAMPLED_THRESHOLD,
        seed: SeedLike = 1234,
    ):
        self.dataset = dataset
        self.k = k
        self.sample_fraction = sample_fraction
        self.sampled_threshold = sampled_threshold
        self.seed = seed

    def evaluate(
        self, model: Recommender, force_exact: bool = False, force_sampled: bool = False
    ) -> EvaluationResult:
        """Rank every holdout item and aggregate the metrics.

        Exact evaluation for small catalogs; sampled (10% of items, one
        shared sample) once the catalog crosses ``sampled_threshold``.
        """
        use_sampled = force_sampled or (
            not force_exact and self.dataset.n_items >= self.sampled_threshold
        )
        if use_sampled:
            ranks = self._sampled_ranks(model)
        else:
            ranks = self._exact_ranks(model)
        metrics = self._aggregate(ranks)
        return EvaluationResult(
            retailer_id=self.dataset.retailer_id,
            metrics=metrics,
            ranks=ranks,
            sampled=use_sampled,
        )

    def _exact_ranks(self, model: Recommender) -> List[float]:
        """Full-catalog holdout ranks, one score matrix for all examples.

        Semantically identical to ``rank_of(context, held_out_item)`` over
        the whole catalog (worst-case rank among ties, diverged scores
        rank last), computed as a vectorized ``>=`` reduction over a
        single ``(examples, items)`` :meth:`Recommender.score_contexts`
        matrix — the hot loop of every grid-search trial.
        """
        holdout = self.dataset.holdout
        if not holdout:
            return []
        contexts = [example.context for example in holdout]
        targets = np.asarray(
            [example.held_out_item for example in holdout], dtype=np.int64
        )
        # Chunk over examples so the score matrix stays bounded at
        # (chunk, n_items) regardless of holdout size.
        chunk = 1024
        ranks: List[float] = []
        for start in range(0, targets.size, chunk):
            stop = min(start + chunk, targets.size)
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

    def _sampled_ranks(self, model: Recommender) -> List[float]:
        estimator = SampledRankEstimator(
            self.dataset.n_items,
            sample_fraction=self.sample_fraction,
            seed=self.seed,
        )
        return estimator.estimate_ranks(
            model,
            [example.context for example in self.dataset.holdout],
            [example.held_out_item for example in self.dataset.holdout],
            sample=estimator.draw_sample(),
        )

    def _aggregate(self, ranks: List[float]) -> Dict[str, float]:
        # Estimated ranks are fractional; metrics take the ceiling, which
        # is pessimistic (never inflates MAP through sampling).
        int_ranks = [max(1, math.ceil(rank)) for rank in ranks]
        pool = max(self.dataset.n_items, max(int_ranks, default=1))
        return mean_rank_metrics(int_ranks, pool_size=pool, k=self.k)
