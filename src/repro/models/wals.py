"""Weighted alternating least squares for implicit feedback (Hu et al. [15]).

The paper (section VI) notes Sigmund's BPR "can easily be substituted with
the least-squares approach".  This module provides that substitute: the
classic implicit-feedback WALS model where every unobserved cell is a
zero-preference with low confidence and observed cells carry confidence
``1 + alpha * strength_weight``.

Because Sigmund represents users by their contexts, scoring uses the
standard *fold-in*: given a context, a virtual user vector is solved in
closed form from the context items, so the model satisfies the common
:class:`~repro.models.base.Recommender` interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.data.events import EventType, Interaction
from repro.data.sessions import UserContext
from repro.exceptions import ConfigError, ModelNotTrainedError
from repro.models.base import Recommender
from repro.rng import make_rng

#: Confidence weight of each event type (stronger intent, higher confidence).
EVENT_CONFIDENCE_WEIGHT: Dict[EventType, float] = {
    EventType.VIEW: 1.0,
    EventType.SEARCH: 2.0,
    EventType.CART: 3.0,
    EventType.CONVERSION: 5.0,
}


@dataclass(frozen=True)
class WALSHyperParams:
    """Hyper-parameters of the weighted-least-squares factorizer."""

    n_factors: int = 16
    regularization: float = 0.1
    alpha: float = 10.0
    n_iterations: int = 10
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_factors < 1:
            raise ConfigError("n_factors must be >= 1")
        if self.n_iterations < 1:
            raise ConfigError("n_iterations must be >= 1")


class WALSModel(Recommender):
    """Implicit-feedback matrix factorization via alternating least squares."""

    def __init__(
        self,
        n_items: int,
        params: WALSHyperParams,
        retailer_id: str = "unknown",
    ):
        self.n_items = n_items
        self.params = params
        self.retailer_id = retailer_id
        rng = make_rng(params.seed)
        self.item_factors = rng.normal(
            0.0, params.init_scale, size=(n_items, params.n_factors)
        )
        self.user_factors: np.ndarray | None = None
        self._user_index: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Warm starts (same semantics as BPRModel)
    # ------------------------------------------------------------------
    def warm_start_from(self, other: "WALSModel") -> int:
        """Copy overlapping item-factor rows (same semantics as BPR)."""
        source = other.item_factors
        if source.shape[1] != self.item_factors.shape[1]:
            return 0
        rows = min(self.n_items, source.shape[0])
        self.item_factors[:rows] = source[:rows]
        return rows

    def memory_bytes(self) -> int:
        total = self.item_factors.nbytes
        if self.user_factors is not None:
            total += self.user_factors.nbytes
        return total

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, interactions: Iterable[Interaction]) -> "WALSModel":
        """Run ``n_iterations`` of alternating least squares."""
        observations = self._collect(interactions)
        params = self.params
        n_users = len(self._user_index)
        rng = make_rng(params.seed + 1)
        self.user_factors = rng.normal(
            0.0, params.init_scale, size=(n_users, params.n_factors)
        )
        by_user, by_item = _index_observations(observations, n_users, self.n_items)
        for _ in range(params.n_iterations):
            _solve_side(self.user_factors, self.item_factors, by_user, params)
            _solve_side(self.item_factors, self.user_factors, by_item, params)
        return self

    def _collect(
        self, interactions: Iterable[Interaction]
    ) -> List[Tuple[int, int, float]]:
        """Aggregate the log into ``(user_row, item, confidence_weight)``."""
        weights: Dict[Tuple[int, int], float] = {}
        for interaction in interactions:
            if interaction.user_id not in self._user_index:
                self._user_index[interaction.user_id] = len(self._user_index)
            key = (self._user_index[interaction.user_id], interaction.item_index)
            weights[key] = weights.get(key, 0.0) + EVENT_CONFIDENCE_WEIGHT[
                interaction.event
            ]
        return [(user, item, weight) for (user, item), weight in weights.items()]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def fold_in(self, context: UserContext) -> np.ndarray:
        """Closed-form user vector for an unseen user given their context."""
        if self.user_factors is None:
            raise ModelNotTrainedError("call fit() before scoring")
        params = self.params
        dim = params.n_factors
        if len(context) == 0:
            return np.zeros(dim)
        gram = params.regularization * np.eye(dim)
        rhs = np.zeros(dim)
        for item, event in zip(context.item_indices, context.events):
            confidence = 1.0 + params.alpha * EVENT_CONFIDENCE_WEIGHT[event]
            y = self.item_factors[item]
            gram += confidence * np.outer(y, y)
            rhs += confidence * y
        return np.linalg.solve(gram, rhs)

    def score_items(
        self, context: UserContext, item_indices: Sequence[int]
    ) -> np.ndarray:
        user = self.fold_in(context)
        items = np.asarray(list(item_indices), dtype=np.int64)
        return self.item_factors[items] @ user


def _index_observations(
    observations: List[Tuple[int, int, float]], n_users: int, n_items: int
) -> Tuple[List[List[Tuple[int, float]]], List[List[Tuple[int, float]]]]:
    """Group observations by user row and by item row."""
    by_user: List[List[Tuple[int, float]]] = [[] for _ in range(n_users)]
    by_item: List[List[Tuple[int, float]]] = [[] for _ in range(n_items)]
    for user, item, weight in observations:
        by_user[user].append((item, weight))
        by_item[item].append((user, weight))
    return by_user, by_item


def _solve_side(
    target: np.ndarray,
    fixed: np.ndarray,
    observations: List[List[Tuple[int, float]]],
    params: WALSHyperParams,
) -> None:
    """Solve one ALS half-step in place.

    Uses the Hu et al. trick: the Gram matrix over *all* rows of the fixed
    side (``YtY``) is shared, and each solve only adds the rank-one
    corrections for that row's observed entries.
    """
    dim = params.n_factors
    shared_gram = fixed.T @ fixed + params.regularization * np.eye(dim)
    for row, obs in enumerate(observations):
        if not obs:
            target[row] = 0.0
            continue
        gram = shared_gram.copy()
        rhs = np.zeros(dim)
        for other, weight in obs:
            confidence = 1.0 + params.alpha * weight
            y = fixed[other]
            gram += (confidence - 1.0) * np.outer(y, y)
            rhs += confidence * y
        target[row] = np.linalg.solve(gram, rhs)
