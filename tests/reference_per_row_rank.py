"""``recommend_batch`` as ``src/`` held it until PR 16, kept as an oracle.

Test-only.  ``Recommender.recommend_batch`` now ranks the rows of a
block as one flat array pipeline (flat exclude -> ``_score_queries`` ->
``segmented_top_k``); what it replaced — a per-row ``_exclude_items`` /
``score_pools`` / ``_top_k`` loop, with ``Recommender.score_pools``,
``BPRModel.score_pools`` and the scatter-add ``user_embedding_batch`` it
stood on — is copied here statement for statement, re-hung as functions
over a live model, so the differential tests still have the per-row
ranking written out one row at a time to compare against, item for item
and score bit for bit.

``_as_item_array``, ``_exclude_items`` and ``_top_k`` are imported, not
copied: ``recommend()`` still ranks through them, they are the
definition of the order.

Like ``tests/reference_scalar_sgd.py``: do not speed this up or make it
follow the code under test.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from repro.data.sessions import UserContext
from repro.models.base import (
    Recommender,
    ScoredItem,
    _as_item_array,
    _exclude_items,
    _top_k,
)
from repro.models.bpr import BPRModel
from repro.models.optim import scatter_add_rows

#: ``repro.models.bpr._PAIR_SLICE`` at PR 15.
PAIR_SLICE = 4_096


def user_embedding_batch(
    model: BPRModel, contexts: Sequence[UserContext]
) -> np.ndarray:
    """Eq. 1 for a batch of contexts: one CSR scatter-add, every weight
    from ``context_weights``."""
    batch = len(contexts)
    users = np.zeros((batch, model.params.n_factors))
    if batch == 0:
        return users
    row_chunks: List[np.ndarray] = []
    weight_chunks: List[np.ndarray] = []
    counts = np.zeros(batch, dtype=np.int64)
    for position, context in enumerate(contexts):
        if len(context) == 0:
            continue
        counts[position] = len(context)
        row_chunks.append(np.asarray(context.item_indices, dtype=np.int64))
        weight_chunks.append(model.context_weights(context))
    if not row_chunks:
        return users
    rows = np.concatenate(row_chunks)
    weights = np.concatenate(weight_chunks)
    owners = np.repeat(np.arange(batch), counts)
    scatter_add_rows(
        users, owners, weights[:, None] * model.context_embeddings[rows]
    )
    return users


def score_pools(
    model: Recommender,
    contexts: Sequence[UserContext],
    pools: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Scores of each context's own pool: ``result[r]`` aligns with
    ``pools[r]``.  BPR: the sliced gather-and-dot; any other model: one
    ``score_items`` call per non-empty row."""
    if not isinstance(model, BPRModel):
        empty = np.zeros(0, dtype=np.float64)
        return [
            np.asarray(model.score_items(context, pool), dtype=np.float64)
            if pool.size
            else empty
            for context, pool in zip(contexts, pools)
        ]
    sizes = [pool.size for pool in pools]
    bounds = list(accumulate(sizes, initial=0))
    total = bounds[-1]
    scores = np.empty(total, dtype=np.float64)
    if total:
        users = user_embedding_batch(model, contexts)
        phi = model.effective_item_matrix()
        items = np.concatenate(pools)
        owners = np.repeat(np.arange(len(sizes)), sizes)
        for start in range(0, total, PAIR_SLICE):
            stop = start + PAIR_SLICE
            chunk = items[start:stop]
            scores[start:stop] = (
                np.einsum("ij,ij->i", phi[chunk], users[owners[start:stop]])
                + model.item_bias[chunk]
            )
    return [scores[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def recommend_batch(
    model: Recommender,
    contexts: Sequence[UserContext],
    candidate_lists: Optional[Sequence[Optional[Sequence[int]]]] = None,
    k: int = 10,
    exclude_context_items: bool = True,
) -> List[List[ScoredItem]]:
    """Batched ``recommend``: one list of recommendations per context."""
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
    full_pool = np.arange(model.n_items)
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
    ragged = score_pools(
        model, [contexts[row] for row in listed], [pools[row] for row in listed]
    )
    for row, row_scores in zip(listed, ragged):
        scores[row] = row_scores
    if whole:
        matrix = model.score_contexts([contexts[row] for row in whole])
        for row, row_scores in zip(whole, matrix):
            scores[row] = row_scores[pools[row]]
    return [
        _top_k(pool, row_scores, k) for pool, row_scores in zip(pools, scores)
    ]
