"""IVF (inverted-file) approximate nearest-neighbour index.

The structure behind every production embedding-retrieval system the
related papers describe: a coarse quantizer (k-means centroids over the
item vectors) partitions the catalog into inverted lists; a query scores
the centroids, probes the ``nprobe`` best lists, and ranks only the
items inside them with exact inner products.  Work per query drops from
``O(n_items)`` to ``O(n_clusters + probed items)``.

The index holds the augmented item matrix once, in inverted-list order:
list ``c`` is the contiguous rows ``list_aug[offsets[c]:offsets[c + 1]]``
and ``list_items`` maps each row back to its item id.  A scan sorts
its (query, probed list) pairs by list and scores every distinct probed
list with one GEMM — the queries probing it against its slice — written
straight into a ``(queries x probed items)`` matrix, so the work stays
``O(n_clusters + probed items)`` per query without the two ``O(probed
items x f)`` copies a per-pair gather would make.  Two read-outs share
that scan: :meth:`IVFIndex.search` ranks each row's top ``k``;
:meth:`IVFIndex.neighbours` returns the same ``k`` ids as a sorted set,
for callers that read a row as a pool.

Maximum-inner-product search reduces to this exactly via bias
augmentation: item vectors carry their bias as an extra coordinate and
queries carry a constant ``1.0``, so the inner product in augmented
space equals ``u . phi_eff + bias`` — the same score
:meth:`~repro.models.bpr.BPRModel.score_items` produces.

Everything is deterministic from the config seed: k-means init is a
seeded distinct sample, Lloyd iterations and the final assignment break
ties by lowest index, and both the probe selection and the candidate
ranking follow the shared :func:`~repro.models.base.top_k_select` order
(value descending, index ascending, NaN last) — so rebuilding an index
from the same inputs is byte-identical (the crash-recovery property),
and probed-cluster sets are prefixes across ``nprobe`` values (which
makes recall@k provably monotone in ``nprobe``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import RetrievalError
from repro.obs.metrics import NULL_METRICS
from repro.rng import make_rng

#: Upper bound on coarse-quantizer size; beyond this, centroid scoring
#: itself starts to cost like a small exact search.
MAX_CLUSTERS = 1024

#: Sorts after every item id: an unfilled cell of a neighbour row.
_PAST = np.iinfo(np.int64).max

#: Assignment chunk: bounds the (chunk, n_clusters) score matrix while a
#: million-item catalog streams through the quantizer.
ASSIGN_CHUNK = 8192


@dataclass(frozen=True)
class IVFConfig:
    """Knobs for :class:`IVFIndex` (all deterministic given ``seed``)."""

    #: Number of k-means cells; ``None`` -> ``~4 * sqrt(n)`` capped at
    #: :data:`MAX_CLUSTERS`.
    n_clusters: Optional[int] = None
    #: Inverted lists probed per query (the recall/latency knob).  The
    #: default is the smallest value the E26 bench measured at
    #: recall@100 >= 0.95 across every catalog size.
    nprobe: int = 16
    #: Lloyd iterations over the training sample.
    kmeans_iters: int = 8
    #: Centroids train on a seeded subsample this large; the full catalog
    #: is assigned in one chunked pass afterwards.
    train_sample: int = 20_000
    seed: int = 0


def default_n_clusters(n_items: int) -> int:
    """``~4 * sqrt(n)`` clusters, clamped to ``[1, MAX_CLUSTERS]``."""
    return max(1, min(MAX_CLUSTERS, int(round(4.0 * np.sqrt(n_items)))))


def _select_probes(affinity: np.ndarray, width: int) -> np.ndarray:
    """:func:`~repro.models.base.top_k_select` for every row at once.

    ``(B, width)`` column indices in (affinity desc, index asc, NaN last)
    order — a stable sort of the negation.  Each row is first cut to the
    entries not behind its ``width``-th best (the rest become ``inf``,
    which the stable sort skips through as one run), because a full
    stable sort of ~1 000 centroids a row costs more than the scan.
    """
    negated = -affinity
    if width < negated.shape[1]:
        kth = np.partition(negated, width - 1, axis=1)[:, width - 1 : width]
        # A NaN pivot (fewer than ``width`` numbers in the row) compares
        # false everywhere and leaves its row whole.
        negated[negated > kth] = np.inf
    return np.argsort(negated, axis=1, kind="stable")[:, :width]


def _assign_chunked(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid (L2) per row, tie -> lowest centroid index."""
    norms = (centroids**2).sum(axis=1)
    out = np.empty(vectors.shape[0], dtype=np.int64)
    for start in range(0, vectors.shape[0], ASSIGN_CHUNK):
        block = vectors[start : start + ASSIGN_CHUNK]
        # argmax(2 x.c - |c|^2) == argmin |x - c|^2; |x|^2 is constant
        # per row.  np.argmax returns the first maximum: deterministic.
        affinity = block @ centroids.T
        affinity *= 2.0
        affinity -= norms
        out[start : start + block.shape[0]] = np.argmax(affinity, axis=1)
    return out


def _kmeans(
    points: np.ndarray, n_clusters: int, iters: int, rng: np.random.Generator
) -> np.ndarray:
    """Seeded Lloyd k-means; empty clusters reseed from farthest points."""
    n = points.shape[0]
    k = min(n_clusters, n)
    init = np.sort(rng.choice(n, size=k, replace=False))
    centroids = points[init].copy()
    for _ in range(max(1, iters)):
        assign = _assign_chunked(points, centroids)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, points)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        empty = np.flatnonzero(~occupied)
        if empty.size:
            # Reseed each empty cell from the points farthest from their
            # centroid, in deterministic distance-then-index order.
            residual = points - centroids[assign]
            distance = (residual**2).sum(axis=1)
            farthest = np.lexsort(
                (np.arange(n, dtype=np.int64), -distance)
            )[: empty.size]
            centroids[empty] = points[farthest]
    return centroids


def augment_items(
    item_vectors: np.ndarray, item_bias: Optional[np.ndarray]
) -> np.ndarray:
    """``[phi_eff | bias]`` — item vectors with the bias coordinate."""
    vectors = np.asarray(item_vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise RetrievalError("item_vectors must be a 2-D array")
    n = vectors.shape[0]
    bias_col = (
        np.zeros((n, 1))
        if item_bias is None
        else np.asarray(item_bias, dtype=np.float64).reshape(n, 1)
    )
    return np.ascontiguousarray(np.concatenate([vectors, bias_col], axis=1))


def augment_queries(query_vectors: np.ndarray) -> np.ndarray:
    """Queries with the constant ``1.0`` coordinate matching the bias."""
    queries = np.asarray(query_vectors, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    ones = np.ones((queries.shape[0], 1))
    return np.concatenate([queries, ones], axis=1)


class IVFIndex:
    """Coarse-quantized inverted-file index over bias-augmented items."""

    backend_name = "ivf"

    def __init__(
        self,
        list_aug: np.ndarray,
        centroids: np.ndarray,
        list_offsets: np.ndarray,
        list_items: np.ndarray,
        config: IVFConfig,
        metrics=NULL_METRICS,
    ):
        #: Augmented item rows in inverted-list order: row ``p`` is item
        #: ``list_items[p]``, list ``c`` is rows ``offsets[c]:offsets[c + 1]``.
        self._list_aug = list_aug
        self.centroids = centroids
        self._list_offsets = list_offsets
        self._list_items = list_items
        self._list_sizes = np.diff(list_offsets)
        self.config = config
        #: Re-bound by the inference pipeline to the current run's
        #: registry (indexes, like selectors, outlive a single run).
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        item_vectors: np.ndarray,
        item_bias: Optional[np.ndarray] = None,
        config: IVFConfig = IVFConfig(),
        metrics=NULL_METRICS,
    ) -> "IVFIndex":
        """Train the quantizer and build inverted lists (deterministic)."""
        item_aug = augment_items(item_vectors, item_bias)
        n = item_aug.shape[0]
        if n == 0:
            raise RetrievalError("cannot build an IVF index over zero items")
        k = (
            default_n_clusters(n)
            if config.n_clusters is None
            else max(1, min(config.n_clusters, n))
        )
        rng = make_rng(config.seed)
        sample_size = min(config.train_sample, n)
        sample = np.sort(rng.choice(n, size=sample_size, replace=False))
        centroids = _kmeans(
            item_aug[sample], k, config.kmeans_iters, rng
        )
        assign = _assign_chunked(item_aug, centroids)
        order = np.argsort(assign, kind="stable")
        list_items = order.astype(np.int64)
        list_offsets = np.searchsorted(
            assign[order], np.arange(centroids.shape[0] + 1)
        ).astype(np.int64)
        metrics.counter("retrieval_index_builds_total").inc()
        metrics.gauge("retrieval_index_clusters").set(centroids.shape[0])
        return cls(
            item_aug[list_items],
            centroids,
            list_offsets,
            list_items,
            config,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return self._list_items.size

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """Inverted-list lengths (zeros are legal: empty cells probe free)."""
        return self._list_sizes.copy()

    def state(self) -> Dict[str, np.ndarray]:
        """Every array that defines the index, for parity comparisons."""
        return {
            "list_aug": self._list_aug,
            "centroids": self.centroids,
            "list_offsets": self._list_offsets,
            "list_items": self._list_items,
        }

    def state_digest(self) -> str:
        """SHA-256 over the index arrays — byte-identical rebuild check."""
        digest = hashlib.sha256()
        for name in sorted(self.state()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.state()[name]).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` per query row: ``(ids, scores)``, both ``(B, k)``.

        Rows are ranked by exact augmented inner product within the
        probed lists, ordered by the shared deterministic tie order.
        Short rows (fewer candidates than ``k``) pad ids with ``-1`` and
        scores with NaN.
        """
        q_aug = augment_queries(queries)
        batch = q_aug.shape[0]
        k = max(0, int(k))
        ids = np.full((batch, k), -1, dtype=np.int64)
        scores = np.full((batch, k), np.nan)
        if batch == 0 or k == 0:
            return ids, scores
        scan = self._scan(q_aug, nprobe)
        cells, filled = scan.top(k)
        # Only the survivors are ranked, row by row: negated score (NaN
        # last), then item; the padding (NaN, _PAST) sorts after both.
        by_score = np.full((batch, k), np.nan)
        by_score[filled] = scan.negated.reshape(-1)[cells]
        by_item = np.full((batch, k), _PAST)
        by_item[filled] = scan.items_at(cells)
        order = np.lexsort((by_item, by_score), axis=1)
        ids[filled] = np.take_along_axis(by_item, order, axis=1)[filled]
        scores[filled] = -np.take_along_axis(by_score, order, axis=1)[filled]
        return ids, scores

    def neighbours(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
    ) -> np.ndarray:
        """The ids :meth:`search` ranks, as a set: ``(B, k)``, each row
        ascending with ``-1`` padding at its end.

        Same probes, same products, same cut at ``k`` — only the ranking
        of the survivors is left out, for callers that read a row as a
        pool rather than as a list.
        """
        q_aug = augment_queries(queries)
        batch = q_aug.shape[0]
        k = max(0, int(k))
        if batch == 0 or k == 0:
            return np.full((batch, k), -1, dtype=np.int64)
        scan = self._scan(q_aug, nprobe)
        cells, filled = scan.top(k)
        ids = np.full((batch, k), _PAST)
        ids[filled] = scan.items_at(cells)
        ids.sort(axis=1)
        ids[ids == _PAST] = -1
        return ids

    def _scan(self, q_aug: np.ndarray, nprobe: Optional[int]) -> "_Scan":
        """The scoring step both read-outs share: probe selection, then
        one GEMM per distinct probed list — the queries probing it times
        its slice — written straight into the rows of those queries."""
        batch = q_aug.shape[0]
        width = min(
            self.n_clusters,
            self.config.nprobe if nprobe is None else max(1, int(nprobe)),
        )
        # Probed sets are prefixes across nprobe: one deterministic order.
        lists = _select_probes(q_aug @ self.centroids.T, width).ravel()
        sizes = self._list_sizes[lists].reshape(batch, width)
        per_query = sizes.sum(axis=1)
        self.metrics.counter("retrieval_probes_total").inc(batch * width)
        self.metrics.counter("retrieval_candidates_total").inc(
            int(per_query.sum())
        )
        row_width = int(per_query.max())
        scored = np.full((batch, row_width), np.nan)
        # Pair p is query p // width against list lists[p]; its scores
        # fill the flat cells from starts[p], behind its row's earlier
        # probes.
        starts = sizes.cumsum(axis=1) - sizes
        starts += np.arange(batch)[:, None] * row_width
        starts = starts.ravel()
        # Sorted by list (stable: rows ascending inside a list), the pairs
        # probing one list are consecutive.
        by_list = lists.argsort(kind="stable")
        clusters = lists[by_list]
        q_pairs = q_aug[by_list // width]
        pair_starts = starts[by_list][:, None]
        cuts = (clusters[1:] != clusters[:-1]).nonzero()[0] + 1
        pair_bounds = [0, *cuts.tolist(), clusters.size]
        heads = clusters[pair_bounds[:-1]]
        ramp = np.arange(int(self._list_sizes[heads].max()))
        flat = scored.reshape(-1)
        first_cells = pair_starts[:, 0].tolist()
        # One GEMM per distinct probed list, the bounds Python ints up
        # front.  A list one query probes fills one run of that query's
        # row, so its product is written there in place.
        for lo, hi, pair_lo, pair_hi in zip(
            self._list_offsets[heads].tolist(),
            self._list_offsets[heads + 1].tolist(),
            pair_bounds,
            pair_bounds[1:],
        ):
            if hi == lo:
                continue
            if pair_hi - pair_lo == 1:
                at = first_cells[pair_lo]
                np.dot(
                    q_pairs[pair_lo:pair_hi],
                    self._list_aug[lo:hi].T,
                    out=flat[at : at + hi - lo].reshape(1, hi - lo),
                )
            else:
                flat[pair_starts[pair_lo:pair_hi] + ramp[: hi - lo]] = np.dot(
                    q_pairs[pair_lo:pair_hi], self._list_aug[lo:hi].T
                )
        np.negative(scored, out=scored)
        return _Scan(
            scored, per_query, starts, self._list_offsets[lists], self._list_items
        )


class _Scan(NamedTuple):
    """One block's probed candidates, scored.

    Row ``r`` of ``negated`` holds its query's negated scores in its first
    ``per_query[r]`` cells and NaN after them.  Pair ``p`` — query ``p //
    nprobe`` against its ``p % nprobe``-th probed list, which starts at
    row ``firsts[p]`` of the index's list order — fills the flat cells
    from ``starts[p]`` (non-decreasing; an empty list fills none).
    """

    negated: np.ndarray
    per_query: np.ndarray
    starts: np.ndarray
    firsts: np.ndarray
    list_items: np.ndarray

    def items_at(self, cells: np.ndarray) -> np.ndarray:
        """Item id of each flat cell (never a padding cell)."""
        pair = np.searchsorted(self.starts, cells, side="right") - 1
        return self.list_items[self.firsts[pair] + (cells - self.starts[pair])]

    def top(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's top ``k`` as a set: ``(cells, filled)``.

        ``cells`` are flat and row-major, in no rank order, so they fill
        the ``(B, k)`` slots where ``filled`` is true: a row's first
        ``min(k, candidates)``.  The set is the one
        :func:`~repro.models.base.top_k_select` cuts (score descending,
        item ascending, NaN last): a row-wise partition finds the
        ``k``-th score; everything strictly ahead of it goes in, and the
        smallest item ids among the ties at it fill the rest.  A row
        with fewer than ``k`` numbers takes them all, then its NaN
        candidates by item id.
        """
        negated = self.negated
        width = negated.shape[1]
        filled = np.arange(k) < np.minimum(self.per_query, k)[:, None]
        real = np.arange(width) < self.per_query[:, None]
        if width <= k:
            return np.flatnonzero(real), filled
        kth = np.partition(negated, k - 1, axis=1)[:, k - 1 : k]
        ahead = negated < kth
        tied = negated == kth
        # Negated, NaN sorts last: the k-th is NaN only where a row has
        # fewer than k numbers (its padding is NaN too, but no candidate).
        short = np.isnan(kth[:, 0]).nonzero()[0]
        if short.size:
            missing = np.isnan(negated[short])
            ahead[short] = ~missing
            tied[short] = missing & real[short]
        need = k - ahead.sum(axis=1)
        over = (tied.sum(axis=1) > need).nonzero()[0]
        if over.size:
            rows, cols = tied[over].nonzero()
            order = np.lexsort((self.items_at(over[rows] * width + cols), rows))
            counts = np.bincount(rows, minlength=over.size)
            rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
            cut = order[rank >= need[over][rows]]
            tied[over[rows[cut]], cols[cut]] = False
        ahead |= tied
        return np.flatnonzero(ahead), filled
