"""IVF (inverted-file) approximate nearest-neighbour index.

The structure behind every production embedding-retrieval system the
related papers describe: a coarse quantizer (k-means centroids over the
item vectors) partitions the catalog into inverted lists; a query scores
the centroids, probes the ``nprobe`` best lists, and ranks only the
items inside them with exact inner products.  Work per query drops from
``O(n_items)`` to ``O(n_clusters + probed items)``.

The index holds the augmented item matrix once, in inverted-list order:
list ``c`` is the contiguous rows ``list_aug[offsets[c]:offsets[c + 1]]``
and ``list_items`` maps each row back to its item id.  A search sorts
its (query, probed list) pairs by list and scores every distinct probed
list with one GEMM — the queries probing it against its slice — so the
work stays ``O(n_clusters + probed items)`` per query without the two
``O(probed items x f)`` copies a per-pair gather would make.

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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import RetrievalError
from repro.models.base import segmented_top_k
from repro.obs.metrics import NULL_METRICS
from repro.rng import make_rng

#: Upper bound on coarse-quantizer size; beyond this, centroid scoring
#: itself starts to cost like a small exact search.
MAX_CLUSTERS = 1024

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


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start + count)`` for each pair.

    ``starts`` may stack several start arrays along leading axes; each
    row is expanded over the same ``counts``.
    """
    within = np.arange(int(counts.sum()), dtype=np.int64)
    within -= (counts.cumsum() - counts).repeat(counts)
    return starts.repeat(counts, axis=-1) + within


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
        probe_width = min(
            self.n_clusters,
            self.config.nprobe if nprobe is None else max(1, int(nprobe)),
        )
        # Probed sets are prefixes across nprobe: one deterministic order.
        flat_clusters = _select_probes(
            q_aug @ self.centroids.T, probe_width
        ).ravel()
        counts = self._list_sizes[flat_clusters]
        per_query = counts.reshape(batch, probe_width).sum(axis=1)
        total = int(per_query.sum())
        self.metrics.counter("retrieval_probes_total").inc(
            int(batch * probe_width)
        )
        self.metrics.counter("retrieval_candidates_total").inc(total)
        if total == 0:
            return ids, scores
        # Pair p is query p // probe_width against list flat_clusters[p].
        # Sorted by list (stable: rows ascending inside a list), the pairs
        # probing one list are consecutive, and so are their scores in a
        # list-major buffer.
        by_list = flat_clusters.argsort(kind="stable")
        clusters = flat_clusters[by_list]
        q_pairs = q_aug[by_list // probe_width]
        sizes = counts[by_list]
        # Where pair p's items start: in the index, and in the buffer.
        pair_starts = np.empty((2, clusters.size), dtype=np.int64)
        pair_starts[0] = self._list_offsets[flat_clusters]
        pair_starts[1, by_list] = sizes.cumsum() - sizes
        cuts = (clusters[1:] != clusters[:-1]).nonzero()[0] + 1
        pair_bounds = [0, *cuts.tolist(), clusters.size]
        heads = clusters[pair_bounds[:-1]]
        buffer = np.empty(total)
        out_lo = 0
        # One GEMM per distinct probed list — the queries probing it times
        # its slice — so the bounds are Python ints up front and the body
        # is little more than the call.
        for lo, hi, pair_lo, pair_hi in zip(
            self._list_offsets[heads].tolist(),
            self._list_offsets[heads + 1].tolist(),
            pair_bounds,
            pair_bounds[1:],
        ):
            if hi > lo:
                n_rows, size = pair_hi - pair_lo, hi - lo
                out_hi = out_lo + n_rows * size
                np.dot(
                    q_pairs[pair_lo:pair_hi],
                    self._list_aug[lo:hi].T,
                    out=buffer[out_lo:out_hi].reshape(n_rows, size),
                )
                out_lo = out_hi
        # Back to owner-major, the order ``segmented_top_k`` segments by.
        positions, scored_at = _concat_ranges(pair_starts, counts)
        candidates = self._list_items[positions]
        flat_scores = buffer[scored_at]
        owners = np.arange(batch).repeat(per_query)
        top, counts = segmented_top_k(
            flat_scores, candidates, owners, per_query, k
        )
        rows = owners[top]
        rank = np.arange(top.size) - (np.cumsum(counts) - counts)[rows]
        ids[rows, rank] = candidates[top]
        scores[rows, rank] = flat_scores[top]
        return ids, scores
