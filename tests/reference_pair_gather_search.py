"""``IVFIndex.search`` as ``src/`` held it until PR 21, kept as an oracle.

Test-only.  ``IVFIndex.search`` now sorts its (query, probed list) pairs
by list and scores each distinct probed list with one GEMM over its
contiguous slice of the list-ordered item matrix; what it replaced — a
per-row ``top_k_select`` probe loop, then every (query, candidate) pair
flattened, ``item_aug[candidates]`` and ``q_aug[owners]`` gathered into
two ``(pairs, f)`` arrays and one ``einsum`` over them — is copied here
statement for statement, re-hung as a function over a live index, so the
differential tests still have the pair-at-a-time scoring written out to
compare against: ids item for item, scores to 1e-12 (GEMM and einsum
sum the ``f`` products in different orders), padding cell for cell.

Two things differ from the method it was.  The index no longer keeps the
item matrix in item order, so it is rebuilt here from the list-ordered
rows (a permutation: no arithmetic).  And the two metrics counters are
left out: an oracle that counted would double what the tests read.

``augment_queries``, ``top_k_select`` and ``segmented_top_k`` are
imported, not copied: the bias augmentation and the ranking order are
shared with the code under test by definition.

Like ``tests/reference_per_row_rank.py``: do not speed this up or make
it follow the code under test.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.base import segmented_top_k, top_k_select
from repro.retrieval.ivf import IVFIndex, augment_queries


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start + count)`` for each pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    owners_start = np.repeat(starts, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    return owners_start + (np.arange(total, dtype=np.int64) - bases)


def item_order_matrix(index: IVFIndex) -> np.ndarray:
    """The augmented item matrix in item order, as the index used to hold it."""
    state = index.state()
    item_aug = np.empty_like(state["list_aug"])
    item_aug[state["list_items"]] = state["list_aug"]
    return item_aug


def pair_gather_search(
    index: IVFIndex,
    queries: np.ndarray,
    k: int,
    nprobe: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` per query row, every (query, candidate) pair scored alone."""
    state = index.state()
    item_aug = item_order_matrix(index)
    list_offsets = state["list_offsets"]
    list_items = state["list_items"]
    list_sizes = np.diff(list_offsets)

    q_aug = augment_queries(queries)
    batch = q_aug.shape[0]
    k = max(0, int(k))
    ids = np.full((batch, k), -1, dtype=np.int64)
    scores = np.full((batch, k), np.nan)
    if batch == 0 or k == 0:
        return ids, scores
    probe_width = min(
        index.n_clusters,
        index.config.nprobe if nprobe is None else max(1, int(nprobe)),
    )
    centroid_affinity = q_aug @ index.centroids.T
    probed = np.empty((batch, probe_width), dtype=np.int64)
    for row in range(batch):
        # Deterministic (affinity desc, cluster asc) order makes the
        # probed set at nprobe a prefix of the set at nprobe + 1.
        probed[row] = top_k_select(centroid_affinity[row], probe_width)
    flat_clusters = probed.ravel()
    counts = list_sizes[flat_clusters]
    positions = _concat_ranges(list_offsets[flat_clusters], counts)
    candidates = list_items[positions]
    per_query = counts.reshape(batch, probe_width).sum(axis=1)
    owners = np.repeat(np.arange(batch), per_query)
    if candidates.size == 0:
        return ids, scores
    flat_scores = np.einsum(
        "nf,nf->n", item_aug[candidates], q_aug[owners]
    )
    top, counts = segmented_top_k(
        flat_scores, candidates, owners, per_query, k
    )
    rows = owners[top]
    rank = np.arange(top.size) - (np.cumsum(counts) - counts)[rows]
    ids[rows, rank] = candidates[top]
    scores[rows, rank] = flat_scores[top]
    return ids, scores
