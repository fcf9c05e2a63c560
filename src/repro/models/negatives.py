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
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.data.sessions import UserContext
from repro.data.taxonomy import Taxonomy, path_distance
from repro.exceptions import DataError
from repro.models.base import Recommender

if TYPE_CHECKING:
    from repro.models.bpr import BPRModel
    from repro.models.trainer import CompiledExamples, TrainingExample

#: Rejection-sampling attempts before a sampler falls back to uniform.
MAX_REJECTION_ATTEMPTS = 20

#: Attempts per pool slot in a batch's first candidate block; rows it leaves
#: short draw the rest of the ``MAX_REJECTION_ATTEMPTS`` budget in a second.
FIRST_BLOCK_ATTEMPTS = 4


class NegativeSampler(abc.ABC):
    """Draws a negative item for a (context, positive) training pair."""

    def __init__(self, n_items: int):
        if n_items < 2:
            raise DataError("need at least 2 items to sample negatives")
        self.n_items = n_items

    @abc.abstractmethod
    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        """Return a negative item index (never the positive itself)."""

    def sample_batch(
        self,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One negative for each of the examples at positions ``rows``.

        ``compiled`` is ``examples`` as the trainer's CSR arrays.  This
        default is one :meth:`sample` per row, in row order.
        """
        return np.array(
            [self.sample(examples[r].context, examples[r].positive, rng) for r in rows.tolist()],
            dtype=np.int64,
        )

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
    """Uniform over the catalog, avoiding the positive and the context items.

    A training batch is drawn as arrays (:meth:`sample_batch`) that take
    exactly the draws one :meth:`sample` per row takes, in row order.
    """

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        return self._uniform(positive, rng, avoid=set(context.item_indices))

    def sample_batch(
        self,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """:meth:`sample` per row, off the same stream, in rounds of arrays.

        A round draws at most one value per row still waiting and at most
        what the current row has left of ``MAX_REJECTION_ATTEMPTS``, and
        the values are handed out in order.  A row can therefore use its
        last attempt only on a round's last value, so its fallback draw
        comes next on the stream, where :meth:`_uniform` takes it, and no
        round draws a value nobody reads.  An array draw yields the values
        and stream position of as many scalar draws.
        """
        negatives: List[int] = []
        waiting = [examples[r] for r in rows.tolist()]
        attempts = 0
        while len(negatives) < len(waiting):
            size = min(len(waiting) - len(negatives), MAX_REJECTION_ATTEMPTS - attempts)
            for candidate in rng.integers(self.n_items, size=size).tolist():
                example = waiting[len(negatives)]
                if candidate != example.positive and candidate not in example.context.item_indices:
                    negatives.append(candidate)
                    attempts = 0
                else:
                    attempts += 1
            if attempts == MAX_REJECTION_ATTEMPTS:
                positive = waiting[len(negatives)].positive
                candidate = int(rng.integers(self.n_items - 1))
                negatives.append(candidate if candidate < positive else candidate + 1)
                attempts = 0
        return np.array(negatives, dtype=np.int64)


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
        #: ``TaxonomyIndex.item_path`` as it is when the sampler is built.
        self._item_path = taxonomy.index().item_path

    def _lca_at_least(self, distance: int, candidate: int, positive: int) -> bool:
        """Whether the pair's LCA distance is >= ``distance``; an
        uncategorised side puts no constraint on it."""
        path, other = self._item_path.get(candidate), self._item_path.get(positive)
        return path is None or other is None or path_distance(path, other) >= distance

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

    A training batch is drawn as arrays (:meth:`_draw`), which
    ``tests/reference_batched_negatives.py`` writes out row by row.
    ``model`` is a :class:`~repro.models.bpr.BPRModel`, or ``None`` for no
    adaptive step (a row's first survivor is its negative).
    """

    def __init__(
        self,
        n_items: int,
        taxonomy: Optional[Taxonomy] = None,
        co_items: Optional[Mapping[int, Set[int]]] = None,
        model: Optional["BPRModel"] = None,
        min_lca_distance: int = 3,
        pool_size: int = 4,
    ):
        super().__init__(n_items)
        self.taxonomy = taxonomy
        if taxonomy is not None:
            # Per item, as the index is now: its category's depth and path,
            # -1 if uncategorised; items past ``item_cat`` read the last row.
            index = taxonomy.index()
            cats = np.append(index.item_cat, -1)
            self._item_depth = np.where(cats >= 0, index.cat_depth[cats], -1)
            self._item_ancestors = np.where(cats[:, None] >= 0, index.cat_ancestors[cats], -1)
        self.co_items = co_items or {}
        self.model = model
        self.min_lca_distance = min_lca_distance
        self.pool_size = max(1, pool_size)

    def sample(
        self, context: UserContext, positive: int, rng: np.random.Generator
    ) -> int:
        """A batch of one."""
        seen = np.array([context.item_indices], dtype=np.int64)
        weights = np.zeros(seen.shape)
        if self.model is not None:
            weights[0] = self.model.context_weights(context)
        return int(self._draw(np.array([positive], dtype=np.int64), seen, weights, rng)[0])

    def sample_batch(
        self,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        # The rows' contexts and weights padded to the longest, with -1 / 0.
        starts = compiled.indptr[rows]
        counts = compiled.indptr[rows + 1] - starts
        column = np.arange(counts.max())
        inside = column < counts[:, None]
        at = np.where(inside, starts[:, None] + column, 0)
        seen = np.where(inside, compiled.ctx_rows.take(at, mode="clip"), -1)
        weights = np.where(inside, compiled.ctx_weights.take(at, mode="clip"), 0.0)
        return self._draw(compiled.positives[rows], seen, weights, rng)

    def _draw(
        self,
        positives: np.ndarray,
        seen: np.ndarray,
        weights: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One negative per row; ``seen`` / ``weights`` are the rows' context
        items and Eq. 1 weights, padded with -1 / 0.  Off the stream, in this
        order: a ``(B, 4 * pool_size)`` candidate block, a second block for
        the rows it left short, a uniform draw per row with no survivor.
        """
        n, pool = positives.size, self.pool_size
        candidates = rng.integers(self.n_items, size=(n, FIRST_BLOCK_ATTEMPTS * pool))
        ok = self._acceptable_block(candidates, positives, seen)
        short = np.flatnonzero(ok.sum(axis=1) < pool)
        if short.size:
            rest = (MAX_REJECTION_ATTEMPTS - FIRST_BLOCK_ATTEMPTS) * pool
            more = np.full((n, rest), -1, dtype=np.int64)
            more_ok = np.zeros((n, rest), dtype=bool)
            more[short] = rng.integers(self.n_items, size=(short.size, rest))
            more_ok[short] = self._acceptable_block(more[short], positives[short], seen[short])
            candidates = np.concatenate([candidates, more], axis=1)
            ok = np.concatenate([ok, more_ok], axis=1)

        # The first ``pool`` survivors of each row, in draw order.
        rank = np.cumsum(ok, axis=1)
        row, column = np.nonzero(ok & (rank <= pool))
        items = candidates[row, column]
        slot = rank[row, column] - 1
        pools = np.zeros((n, pool), dtype=np.int64)
        pools[row, slot] = items
        if self.model is None:
            negatives = pools[:, 0]
        else:
            # Padding reads the last context row, at weight 0.
            model = self.model
            users = np.einsum("nc,ncf->nf", weights, model.context_embeddings[seen])
            scores = np.full((n, pool), -np.inf)
            vectors = model.effective_item_vectors(items)
            scores[row, slot] = np.einsum("ij,ij->i", vectors, users[row]) + model.item_bias[items]
            negatives = pools[np.arange(n), scores.argmax(axis=1)]

        for empty in np.flatnonzero(rank[:, -1] == 0).tolist():
            avoid = set(seen[empty].tolist()) - {-1}
            negatives[empty] = self._uniform(int(positives[empty]), rng, avoid=avoid)
        return negatives

    def _acceptable_block(
        self, candidates: np.ndarray, positives: np.ndarray, seen: np.ndarray
    ) -> np.ndarray:
        """Which of a ``(B, k)`` block may be its row's negative: not the
        positive, not in ``seen`` (the context, padded with -1), not
        co-occurring, at LCA distance >= ``min_lca_distance`` unless either
        side is uncategorised."""
        ok = candidates != positives[:, None]
        ok &= ~(candidates[:, :, None] == seen[:, None, :]).any(axis=2)
        if self.co_items:
            for row, positive in enumerate(positives.tolist()):
                excluded = self.co_items.get(positive)
                if excluded:
                    ok[row] &= ~np.isin(candidates[row], list(excluded))
        if self.taxonomy is None:
            return ok
        last = self._item_depth.size - 1
        candidates, positives = np.minimum(candidates, last), np.minimum(positives, last)
        depth, anchor_depth = self._item_depth[candidates], self._item_depth[positives][:, None]
        # Two root-first paths agree exactly on their common prefix, so
        # ``shared`` is its length, the root included, and
        # ``path_distance`` = max(len_a, len_b) + 1 - shared, len = depth + 1.
        path = self._item_ancestors[candidates]
        shared = ((path == self._item_ancestors[positives][:, None, :]) & (path >= 0)).sum(axis=2)
        distance = np.maximum(depth, anchor_depth) + 2 - shared
        return ok & ((depth < 0) | (anchor_depth < 0) | (distance >= self.min_lca_distance))
