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
from bisect import bisect_right
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

    #: Whether the trainer may draw a whole epoch's negatives in one
    #: :meth:`sample_batch` right after the shuffle.  Only a sampler that
    #: reads no parameter, and whose batch draw is its per-row draws in row
    #: order, may: then the epoch's draw takes the stream the per-batch
    #: draws would.  A fixed fact of the class.
    draws_ahead = False

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

    def draw_window(
        self,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        bounds: Sequence[int],
        rng: np.random.Generator,
    ) -> "PerBatchDraws":
        """The negatives of consecutive batches, ``rows[bounds[k]:bounds[k +
        1]]`` being batch ``k``'s, each picked when the trainer reaches it.

        This default draws nothing up front: each pick is one
        :meth:`sample_batch`, against the model as it is then.
        """
        return PerBatchDraws(self, examples, compiled, rows, bounds, rng)

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


class PerBatchDraws:
    """:meth:`NegativeSampler.draw_window` that draws each batch when picked."""

    def __init__(
        self,
        sampler: NegativeSampler,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        bounds: Sequence[int],
        rng: np.random.Generator,
    ):
        self.sampler = sampler
        self.examples = examples
        self.compiled = compiled
        self.rows = rows
        self.bounds = bounds
        self.rng = rng

    def pick(self, k: int) -> np.ndarray:
        """Batch ``k``'s negatives, drawn now."""
        rows = self.rows[self.bounds[k] : self.bounds[k + 1]]
        return self.sampler.sample_batch(self.examples, self.compiled, rows, self.rng)


class UniformNegativeSampler(NegativeSampler):
    """Uniform over the catalog, avoiding the positive and the context items.

    A training batch is drawn as arrays (:meth:`sample_batch`) that take
    exactly the draws one :meth:`sample` per row takes, in row order.  It
    reads no parameter, so the trainer draws a whole epoch's negatives in
    one call right after the shuffle (``draws_ahead``): split into batches
    or not, the rows take the same values at the same stream positions.
    """

    draws_ahead = True

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

    A training batch is drawn as arrays, which
    ``tests/reference_batched_negatives.py`` writes out row by row.  The
    pools read no parameter: the trainer draws a window's at once
    (:meth:`draw_window`) and picks each batch's negatives when its step
    comes.  ``model`` is a :class:`~repro.models.bpr.BPRModel`, or ``None``
    for no adaptive step (a row's first survivor is its negative).
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
        pools = self._draw_pools(
            np.array([positive], dtype=np.int64), seen, weights, [len(context)], [0, 1], rng
        )
        return int(pools.pick(0)[0])

    def sample_batch(
        self,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.draw_window(examples, compiled, rows, [0, rows.size], rng).pick(0)

    def draw_window(
        self,
        examples: Sequence["TrainingExample"],
        compiled: "CompiledExamples",
        rows: np.ndarray,
        bounds: Sequence[int],
        rng: np.random.Generator,
    ) -> "CandidatePools":
        """Every batch's candidate pools now; the pick waits for the model.

        The pools read no parameter, so a window's are drawn at once
        (:meth:`_draw_pools`); :meth:`CandidatePools.pick` scores batch
        ``k``'s against the live model when its step comes.
        """
        # The rows' contexts and weights padded to the longest, with -1 / 0.
        starts = compiled.indptr[rows]
        lengths = compiled.indptr[rows + 1] - starts
        column = np.arange(lengths.max(initial=0))
        inside = column < lengths[:, None]
        at = np.where(inside, starts[:, None] + column, 0)
        seen = np.where(inside, compiled.ctx_rows.take(at, mode="clip"), -1)
        weights = np.where(inside, compiled.ctx_weights.take(at, mode="clip"), 0.0)
        return self._draw_pools(compiled.positives[rows], seen, weights, lengths, bounds, rng)

    def _draw_pools(
        self,
        positives: np.ndarray,
        seen: np.ndarray,
        weights: np.ndarray,
        lengths: Sequence[int],
        bounds: Sequence[int],
        rng: np.random.Generator,
    ) -> "CandidatePools":
        """Each row's pool; ``seen`` / ``weights`` are the rows' context items
        and Eq. 1 weights, padded with -1 / 0, ``lengths`` the contexts'
        lengths, and rows ``bounds[k]:bounds[k + 1]`` are batch ``k``'s.
        Off the stream, batch by batch, in this order: a ``(B, 4 *
        pool_size)`` candidate block, a second block for the rows it left
        short, a uniform draw per row with no survivor.

        A batch that leaves no row short draws its first block alone, so a
        run of such batches is one draw of their first blocks.  Where a row
        falls short, the stream is rewound to just after its batch's first
        block (a draw of ``n`` values is ``n`` scalar draws) and the batch
        draws the rest; the next run is one batch, and runs double while
        no row falls short.
        """
        n_batches, pool = len(bounds) - 1, self.pool_size
        first = FIRST_BLOCK_ATTEMPTS * pool
        pools = np.zeros((positives.size, pool), dtype=np.int64)
        counts = np.zeros(positives.size, dtype=np.int64)
        batch, run = 0, n_batches
        while batch < n_batches:
            stop = min(n_batches, batch + run)
            lo, hi = bounds[batch], bounds[stop]
            if lo == hi:
                batch = stop
                continue
            state = rng.bit_generator.state
            candidates = rng.integers(self.n_items, size=(hi - lo, first))
            ok = self._acceptable_block(candidates, positives[lo:hi], seen[lo:hi])
            short = np.flatnonzero(ok.sum(axis=1) < pool)
            run *= 2
            if short.size:
                # The first batch with a short row ends the run.
                stop = bisect_right(bounds, lo + int(short[0]))
                if bounds[stop] < hi:
                    hi = bounds[stop]
                    rng.bit_generator.state = state
                    rng.integers(self.n_items, size=(hi - lo) * first)
                    candidates, ok = candidates[: hi - lo], ok[: hi - lo]
                    short = short[short < hi - lo]
                rest = (MAX_REJECTION_ATTEMPTS - FIRST_BLOCK_ATTEMPTS) * pool
                more = np.full((hi - lo, rest), -1, dtype=np.int64)
                more_ok = np.zeros((hi - lo, rest), dtype=bool)
                more[short] = rng.integers(self.n_items, size=(short.size, rest))
                more_ok[short] = self._acceptable_block(
                    more[short], positives[lo + short], seen[lo + short]
                )
                candidates = np.concatenate([candidates, more], axis=1)
                ok = np.concatenate([ok, more_ok], axis=1)
                run = 1

            # The first ``pool`` survivors of each row, in draw order.
            rank = np.cumsum(ok, axis=1)
            row, column = np.nonzero(ok & (rank <= pool))
            pools[lo + row, rank[row, column] - 1] = candidates[row, column]
            counts[lo:hi] = np.minimum(rank[:, -1], pool)
            for empty in np.flatnonzero(rank[:, -1] == 0).tolist():
                avoid = set(seen[lo + empty].tolist()) - {-1}
                pools[lo + empty, 0] = self._uniform(int(positives[lo + empty]), rng, avoid=avoid)
            batch = stop
        return CandidatePools(self.model, pools, counts, seen, weights, lengths, bounds)

    def _acceptable_block(
        self, candidates: np.ndarray, positives: np.ndarray, seen: np.ndarray
    ) -> np.ndarray:
        """Which of a ``(B, k)`` block may be its row's negative: not the
        positive, not in ``seen`` (the context, padded with -1), not
        co-occurring, at LCA distance >= ``min_lca_distance`` unless either
        side is uncategorised."""
        ok = candidates != positives[:, None]
        if seen.shape[1]:
            # Context membership as one sorted search: row r keys its items
            # r * (n_items + 1) + item, so every row's keys sort after the
            # row before's, and the padding (-1) keys no candidate.
            offsets = (self.n_items + 1) * np.arange(positives.size)[:, None]
            keys = (np.sort(seen, axis=1) + offsets).ravel()
            wanted = candidates + offsets
            ok &= keys.take(np.searchsorted(keys, wanted), mode="clip") != wanted
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


class CandidatePools:
    """A window's candidate pools, drawn; each batch picked against the model.

    ``pools[r, :counts[r]]`` are row ``r``'s survivors in draw order; a row
    with none holds its uniform fallback in ``pools[r, 0]``.
    """

    def __init__(
        self,
        model: Optional["BPRModel"],
        pools: np.ndarray,
        counts: np.ndarray,
        seen: np.ndarray,
        weights: np.ndarray,
        lengths: Sequence[int],
        bounds: Sequence[int],
    ):
        self.model = model
        self.pools = pools
        self.counts = counts
        self.seen = seen
        self.weights = weights
        self.lengths = np.asarray(lengths)
        self.bounds = bounds

    def pick(self, k: int) -> np.ndarray:
        """Batch ``k``'s negatives: per row, the pool member the model scores
        highest now (the first one without a model), or the fallback of a
        row with no survivor."""
        lo, hi = self.bounds[k], self.bounds[k + 1]
        pools = self.pools[lo:hi]
        if self.model is None:
            return pools[:, 0].copy()
        n, pool = pools.shape
        # The batch's contexts as the batch pads them, to its longest.
        width = int(self.lengths[lo:hi].max(initial=0))
        seen = np.ascontiguousarray(self.seen[lo:hi, :width])
        weights = np.ascontiguousarray(self.weights[lo:hi, :width])
        row, slot = np.nonzero(np.arange(pool) < self.counts[lo:hi, None])
        items = pools[row, slot]
        # Padding reads the last context row, at weight 0.
        model = self.model
        users = np.einsum("nc,ncf->nf", weights, model.context_embeddings[seen])
        scores = np.full((n, pool), -np.inf)
        vectors = model.effective_item_vectors(items)
        scores[row, slot] = np.einsum("ij,ij->i", vectors, users[row]) + model.item_bias[items]
        return pools[np.arange(n), scores.argmax(axis=1)]
