"""The common recommender interface.

Every model — BPR, WALS, co-occurrence, popularity, and the hybrid — is a
:class:`Recommender`: given a user context it scores items, and given a
candidate set it returns the top-K.  Inference, evaluation and serving
only ever talk to this interface, so models are interchangeable (the paper
notes BPR could be swapped for least-squares "easily", section VI).
"""

from __future__ import annotations

import abc
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.data.sessions import UserContext


class ScoredItem(NamedTuple):
    """An item index paired with a model score (higher is better).

    A ``NamedTuple`` rather than a dataclass: inference materializes
    ``n_items x surfaces x k`` of these per retailer per day, and tuple
    construction is several times cheaper than a frozen dataclass.
    """

    item_index: int
    score: float


def _as_item_array(items: Sequence[int]) -> np.ndarray:
    """Candidate sequence -> int64 index array (no copy when already one).

    Any integer ndarray is accepted directly (``int32`` from an index
    structure must not fall through to the element-wise ``list()`` path),
    while float ndarrays raise instead of being silently truncated —
    ``np.asarray([2.7], dtype=np.int64)`` would quietly score item 2.
    """
    if isinstance(items, np.ndarray):
        if items.dtype.kind not in "iu":
            raise TypeError(
                f"item indices must be an integer array, got dtype "
                f"{items.dtype}"
            )
        return items.astype(np.int64, copy=False)
    return np.asarray(list(items), dtype=np.int64)


def _exclude_items(pool: np.ndarray, context: UserContext) -> np.ndarray:
    """Drop the context's items from ``pool``, preserving candidate order."""
    if len(context) == 0 or pool.size == 0:
        return pool
    seen = np.asarray(context.item_indices, dtype=np.int64)
    if seen.size == 1:
        # The inference pipeline's contexts are single items.
        return pool[pool != seen[0]]
    if seen.size <= 16:
        # Typical contexts are a handful of items: a broadcast compare is
        # several times cheaper than np.isin's sort-based set machinery.
        return pool[~(pool[:, None] == seen).any(axis=1)]
    return pool[~np.isin(pool, seen)]


def top_k_select(
    scores: np.ndarray, k: int, tiebreak: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of the ``k`` best scores, ordered ``(score desc, tiebreak asc)``.

    The total order is fully deterministic: equal scores break by the
    ``tiebreak`` key (the position itself when omitted) and NaN scores
    rank strictly worst, themselves ordered by tiebreak.  Every ranking
    path — per-item, batched, exact retrieval, ANN retrieval — selects
    through this one function, so two paths fed the same scores can never
    reorder tied items against each other (argpartition's behavior under
    ties is unspecified and has changed across numpy versions).
    """
    n = scores.size
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    tb = np.arange(n, dtype=np.int64) if tiebreak is None else tiebreak
    if k < n:
        # k-th largest score: partition sorts NaN last, so the pivot is
        # NaN only when fewer than k scores are numbers at all.
        kth = -np.partition(-scores, k - 1)[k - 1]
        if not np.isnan(kth):
            # Everything at or above the pivot (never a NaN) holds the
            # whole top-k plus the pivot's surplus ties, which the stable
            # sort leaves past position k in tiebreak order.
            sel = np.flatnonzero(scores >= kth)
            return sel[np.lexsort((tb[sel], -scores[sel]))[:k]]
    # Stable lexsort: primary score descending, secondary tiebreak
    # ascending; NaN keys sink to the end preserving tiebreak order.
    return np.lexsort((tb, -scores))[:k]


def _top_k(pool: np.ndarray, scores: np.ndarray, k: int) -> List[ScoredItem]:
    """Top-``k`` of a scored pool, shared by the per-item and batched paths.

    Both paths feed this the same (pool, scores) arrays and ties break by
    item index (not pool position), so selection is identical by
    construction — including against the retrieval backends, which rank
    through the same :func:`top_k_select` order.
    """
    if pool.size == 0 or k <= 0:
        return []
    top = top_k_select(scores, k, tiebreak=pool)
    # .tolist() converts to native int/float in one C pass — much cheaper
    # than casting numpy scalars one by one.
    return list(map(ScoredItem, pool[top].tolist(), scores[top].tolist()))


class Recommender(abc.ABC):
    """Scores items for a user context and produces ranked recommendations."""

    #: Number of items this model knows about.
    n_items: int

    @abc.abstractmethod
    def score_items(
        self, context: UserContext, item_indices: Sequence[int]
    ) -> np.ndarray:
        """Affinity scores for ``item_indices`` given ``context``.

        Returns an array aligned with ``item_indices``.  Scores are only
        comparable within one call (ranking semantics, paper section VII).
        """

    def score_all(self, context: UserContext) -> np.ndarray:
        """Scores for every item in the catalog (naive full inference)."""
        return self.score_items(context, range(self.n_items))

    def recommend(
        self,
        context: UserContext,
        k: int = 10,
        candidates: Optional[Sequence[int]] = None,
        exclude_context_items: bool = True,
    ) -> List[ScoredItem]:
        """Top-``k`` items for ``context``, optionally restricted to candidates.

        ``exclude_context_items`` drops items the user already interacted
        with — the common production default for substitute/complement
        surfaces.
        """
        if candidates is None:
            pool = np.arange(self.n_items)
        else:
            pool = _as_item_array(candidates)
        if exclude_context_items:
            pool = _exclude_items(pool, context)
        if pool.size == 0:
            return []
        scores = np.asarray(self.score_items(context, pool), dtype=np.float64)
        return _top_k(pool, scores, k)

    def score_contexts(
        self,
        contexts: Sequence[UserContext],
        item_indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Score matrix for a batch of contexts: ``(B, n_items)`` (or
        ``(B, len(item_indices))`` when a column subset is given).

        The dense kernel: every context against the *same* columns, which
        is the evaluators' question (a holdout block against the catalog
        or one shared negative sample).  Contexts that each bring their
        own pool go through :meth:`score_pools` instead.

        The default stacks one :meth:`score_all` / :meth:`score_items`
        call per context — correct for any model; embedding models
        override this with a single matrix multiply.
        """
        if item_indices is None:
            width = self.n_items
            rows = [self.score_all(context) for context in contexts]
        else:
            items = _as_item_array(item_indices)
            width = items.size
            rows = [self.score_items(context, items) for context in contexts]
        if not rows:
            return np.zeros((0, width), dtype=np.float64)
        return np.stack([np.asarray(row, dtype=np.float64) for row in rows])

    def score_pools(
        self, contexts: Sequence[UserContext], pools: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Scores of each context's own pool: ``result[r]`` aligns with
        ``pools[r]`` (int64 index arrays, one per context).

        The ragged kernel: only the ``(context, item)`` pairs asked for
        are scored, which is offline inference's question (every item
        brings its own candidate list).  The default is one
        :meth:`score_items` call per non-empty row (like :meth:`recommend`,
        which never hands a model an empty pool) — correct for any model;
        embedding models override it with one gather-and-dot per batch.
        """
        empty = np.zeros(0, dtype=np.float64)
        return [
            np.asarray(self.score_items(context, pool), dtype=np.float64)
            if pool.size
            else empty
            for context, pool in zip(contexts, pools)
        ]

    def recommend_batch(
        self,
        contexts: Sequence[UserContext],
        candidate_lists: Optional[Sequence[Optional[Sequence[int]]]] = None,
        k: int = 10,
        exclude_context_items: bool = True,
    ) -> List[List[ScoredItem]]:
        """Batched :meth:`recommend`: one list of recommendations per context.

        ``candidate_lists`` aligns with ``contexts`` (``None`` entries — or
        ``None`` for the whole argument — mean the full catalog).  The rows
        that bring a list are scored through one :meth:`score_pools` call,
        so their work is the number of pairs asked for, never
        ``B x |union of pools|``; the whole-catalog rows ask the dense
        question and share one :meth:`score_contexts` matrix.  Per-row
        top-k then runs the exact same selection as the per-item path, so
        results match :meth:`recommend` call-for-call — including
        exclude-context-items and NaN/diverged-model semantics.
        """
        contexts = list(contexts)
        if candidate_lists is None:
            candidate_lists = [None] * len(contexts)
        else:
            candidate_lists = list(candidate_lists)
        if len(candidate_lists) != len(contexts):
            raise ValueError(
                f"got {len(contexts)} contexts but "
                f"{len(candidate_lists)} candidate lists"
            )
        if not contexts:
            return []
        full_pool = np.arange(self.n_items)
        pools = [
            full_pool if candidates is None else _as_item_array(candidates)
            for candidates in candidate_lists
        ]
        if exclude_context_items:
            pools = [
                _exclude_items(pool, context)
                for pool, context in zip(pools, contexts)
            ]
        listed = [
            row for row, candidates in enumerate(candidate_lists)
            if candidates is not None
        ]
        whole = [
            row for row, candidates in enumerate(candidate_lists)
            if candidates is None
        ]
        scores: List[Optional[np.ndarray]] = [None] * len(contexts)
        ragged = self.score_pools(
            [contexts[row] for row in listed], [pools[row] for row in listed]
        )
        for row, row_scores in zip(listed, ragged):
            scores[row] = row_scores
        if whole:
            matrix = self.score_contexts([contexts[row] for row in whole])
            for row, row_scores in zip(whole, matrix):
                scores[row] = row_scores[pools[row]]
        return [
            _top_k(pool, row_scores, k) for pool, row_scores in zip(pools, scores)
        ]

    def rank_of(
        self,
        context: UserContext,
        target_item: int,
        candidates: Optional[Sequence[int]] = None,
    ) -> int:
        """1-based rank of ``target_item`` among ``candidates`` (or all items).

        Ties are counted against the target (worst-case rank among equals),
        which keeps evaluation pessimistic and deterministic.
        """
        if candidates is None:
            pool = np.arange(self.n_items)
        else:
            pool = _as_item_array(candidates)
        scores = np.asarray(self.score_items(context, pool), dtype=np.float64)
        target_positions = np.flatnonzero(pool == target_item)
        if target_positions.size == 0:
            raise ValueError(f"target item {target_item} not in candidate pool")
        target_score = scores[target_positions[0]]
        if not np.isfinite(target_score):
            # A diverged model (NaN/inf scores) must rank worst, not best —
            # otherwise model selection would pick garbage.
            return int(pool.size)
        better_or_equal = int(np.sum(scores >= target_score))
        return better_or_equal
