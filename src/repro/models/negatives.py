"""Negative-item sampling heuristics (paper section III-B3).

BPR is sensitive to which "negative" item each triple contrasts against.
Sigmund combines several heuristics:

* pick items **far away in the taxonomy** from the positive (LCA distance),
* **exclude highly co-bought / co-viewed** items — they are probably good
  recommendations, not negatives,
* **adaptive/affinity sampling** (Rendle & Freudenthaler [16]) — prefer
  negatives the current model scores highly, which yields larger, more
  informative gradients.

Each sampler implements :class:`NegativeSampler`;
:class:`CompositeNegativeSampler` chains them the way Sigmund does.
"""

from __future__ import annotations

import abc
from typing import Mapping, Optional, Set, Tuple

import numpy as np

from repro.data.sessions import UserContext
from repro.data.taxonomy import Taxonomy, path_distance
from repro.exceptions import DataError
from repro.models.base import Recommender

#: Rejection-sampling attempts before a sampler falls back to uniform.
MAX_REJECTION_ATTEMPTS = 20


class NegativeSampler(abc.ABC):
    """Draws a negative item for a (context, positive) training pair."""

    #: The model whose scores rank a draw's candidates, for samplers that
    #: consult one (the trainer pre-assembles item vectors for those).
    model: Optional[Recommender] = None

    def __init__(self, n_items: int):
        if n_items < 2:
            raise DataError("need at least 2 items to sample negatives")
        self.n_items = n_items
        #: ``TaxonomyIndex.item_path`` of the taxonomy as it is when a
        #: distance-constrained sampler is built; empty for the others.
        self._item_path: Mapping[int, Tuple[int, ...]] = {}

    @abc.abstractmethod
    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        """Return a negative item index (never the positive itself)."""

    def _lca_at_least(self, distance: int, candidate: int, positive: int) -> bool:
        """Whether the pair's LCA distance is >= ``distance``; an
        uncategorised side (or no taxonomy) puts no constraint on it."""
        path, other = self._item_path.get(candidate), self._item_path.get(positive)
        return path is None or other is None or path_distance(path, other) >= distance

    def _uniform(
        self, positive: int, rng: np.random.Generator, avoid: Optional[Set[int]] = None
    ) -> int:
        """Uniform fallback that avoids the positive (and ``avoid`` best-effort)."""
        for _ in range(MAX_REJECTION_ATTEMPTS):
            candidate = int(rng.integers(self.n_items))
            if candidate == positive:
                continue
            if avoid is not None and candidate in avoid:
                continue
            return candidate
        # Degenerate catalogs (everything in ``avoid``): just avoid the positive.
        candidate = int(rng.integers(self.n_items - 1))
        return candidate if candidate < positive else candidate + 1


class UniformNegativeSampler(NegativeSampler):
    """Uniform over the catalog, avoiding the positive and the context items."""

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        return self._uniform(positive, rng, avoid=set(context.item_indices))


class TaxonomyAwareSampler(NegativeSampler):
    """Prefer items at a large LCA distance from the positive.

    Items near the positive in the taxonomy are likely substitutes — bad
    negatives.  Rejection-samples until the candidate is at LCA distance
    >= ``min_distance``; falls back to uniform if the taxonomy is too
    shallow to satisfy the constraint.
    """

    def __init__(self, n_items: int, taxonomy: Taxonomy, min_distance: int = 3):
        super().__init__(n_items)
        self.taxonomy = taxonomy
        self.min_distance = min_distance
        self._item_path = taxonomy.index().item_path

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        seen = set(context.item_indices)
        for _ in range(MAX_REJECTION_ATTEMPTS):
            candidate = int(rng.integers(self.n_items))
            if candidate == positive or candidate in seen:
                continue
            if self._lca_at_least(self.min_distance, candidate, positive):
                return candidate
        return self._uniform(positive, rng, avoid=seen)


class CoOccurrenceExcludingSampler(NegativeSampler):
    """Never sample items strongly co-viewed/co-bought with the positive.

    ``co_items`` maps each item to the set of items it frequently co-occurs
    with (built from :mod:`repro.cooccurrence` counts above a threshold).
    """

    def __init__(self, n_items: int, co_items: Mapping[int, Set[int]]):
        super().__init__(n_items)
        self.co_items = co_items

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        avoid = set(self.co_items.get(positive, ())) | set(context.item_indices)
        return self._uniform(positive, rng, avoid=avoid)


class AffinityNegativeSampler(NegativeSampler):
    """Adaptive sampling: pick the highest-scoring of a few uniform draws.

    Negatives the model already (wrongly) ranks highly produce the largest
    gradient — the oversampling idea of Rendle & Freudenthaler [16].
    """

    def __init__(self, n_items: int, model: Recommender, pool_size: int = 8):
        super().__init__(n_items)
        self.model = model
        self.pool_size = max(1, pool_size)

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        seen = set(context.item_indices)
        pool = []
        for _ in range(self.pool_size * 3):
            candidate = int(rng.integers(self.n_items))
            if candidate != positive and candidate not in seen:
                pool.append(candidate)
            if len(pool) >= self.pool_size:
                break
        if not pool:
            return self._uniform(positive, rng, avoid=seen)
        if len(pool) == 1:
            return pool[0]
        scores = self.model.score_items(context, pool)
        return pool[int(np.argmax(scores))]


class CompositeNegativeSampler(NegativeSampler):
    """Sigmund's combination: taxonomy-aware, co-occurrence-excluding, adaptive.

    Draws a small pool where each member satisfies the taxonomy-distance
    and co-occurrence-exclusion constraints, then picks the member the
    model scores highest (adaptive step).  Any stage degrades gracefully
    when its constraint cannot be met.
    """

    def __init__(
        self,
        n_items: int,
        taxonomy: Optional[Taxonomy] = None,
        co_items: Optional[Mapping[int, Set[int]]] = None,
        model: Optional[Recommender] = None,
        min_lca_distance: int = 3,
        pool_size: int = 4,
    ):
        super().__init__(n_items)
        self.taxonomy = taxonomy
        if taxonomy is not None:
            self._item_path = taxonomy.index().item_path
        self.co_items = co_items or {}
        self.model = model
        self.min_lca_distance = min_lca_distance
        self.pool_size = max(1, pool_size)

    def _acceptable(self, candidate: int, positive: int, seen: Set[int]) -> bool:
        if candidate == positive or candidate in seen:
            return False
        if candidate in self.co_items.get(positive, ()):
            return False
        return self._lca_at_least(self.min_lca_distance, candidate, positive)

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        seen = set(context.item_indices)
        pool = []
        for _ in range(MAX_REJECTION_ATTEMPTS * self.pool_size):
            candidate = int(rng.integers(self.n_items))
            if self._acceptable(candidate, positive, seen):
                pool.append(candidate)
            if len(pool) >= self.pool_size:
                break
        if not pool:
            return self._uniform(positive, rng, avoid=seen)
        if self.model is None or len(pool) == 1:
            return pool[0]
        scores = self.model.score_items(context, pool)
        return pool[int(np.argmax(scores))]
