"""Retrieval backends: the protocol, the exact baseline, model adapters.

:class:`ExactRetrieval` and :class:`~repro.retrieval.ivf.IVFIndex` share
one contract (:class:`RetrievalBackend`: ``search`` ranks each row's
top ``k``, ``neighbours`` returns the same ids as an ascending set, both
``(B, k)`` with ``-1`` padding), one scoring rule (augmented
inner product == ``u . phi_eff + bias``), and one deterministic tie
order — so the exact backend doubles as the ground truth the recall
harness measures ANN against, and consumers can swap backends on a size
threshold without behavioral drift below ``k``.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np

from repro.exceptions import RetrievalError
from repro.models.base import top_k_select
from repro.obs.metrics import NULL_METRICS
from repro.retrieval.ivf import (
    IVFConfig,
    IVFIndex,
    augment_items,
    augment_queries,
)

#: Score chunk for the exact backend: bounds the (chunk, n_items) GEMM.
EXACT_CHUNK = 256


class RetrievalBackend(Protocol):
    """What a candidate source must provide to plug into consumers."""

    backend_name: str

    @property
    def n_items(self) -> int: ...

    def search(
        self, queries: np.ndarray, k: int, nprobe: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]: ...

    def neighbours(
        self, queries: np.ndarray, k: int, nprobe: Optional[int] = None
    ) -> np.ndarray: ...


class ExactRetrieval:
    """Brute-force top-k over all items — baseline and recall reference."""

    backend_name = "exact"

    def __init__(
        self,
        item_vectors: np.ndarray,
        item_bias: Optional[np.ndarray] = None,
        metrics=NULL_METRICS,
    ):
        self._item_aug = augment_items(item_vectors, item_bias)
        self.metrics = metrics

    @property
    def n_items(self) -> int:
        return self._item_aug.shape[0]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` per query row; ``nprobe`` is accepted, unused.

        ``(B, k)`` like the IVF index: past ``n_items`` a row pads ids
        with ``-1`` and scores with NaN.
        """
        q_aug = augment_queries(queries)
        batch = q_aug.shape[0]
        k = max(0, int(k))
        ids = np.full((batch, k), -1, dtype=np.int64)
        scores = np.full((batch, k), np.nan)
        if batch == 0 or k == 0:
            return ids, scores
        self.metrics.counter("retrieval_candidates_total").inc(
            int(batch * self.n_items)
        )
        for start in range(0, batch, EXACT_CHUNK):
            block = q_aug[start : start + EXACT_CHUNK]
            all_scores = block @ self._item_aug.T
            for offset in range(block.shape[0]):
                # Positions ARE item ids here, so the default tiebreak
                # matches the IVF candidate-id tiebreak exactly.
                top = top_k_select(all_scores[offset], k)
                ids[start + offset, : top.size] = top
                scores[start + offset, : top.size] = all_scores[offset, top]
        return ids, scores

    def neighbours(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
    ) -> np.ndarray:
        """The ids :meth:`search` ranks, each row ascending with its
        ``-1`` padding (``k > n_items``) at the end."""
        ids, _ = self.search(queries, k)
        ids[:, : self.n_items].sort(axis=1)
        return ids


class ModelRetrieval:
    """A backend plus the query-embedding table of the model it indexes.

    Item-to-item search uses the model's *context* embeddings as queries
    (a single-item context's user embedding is exactly its context row,
    see :meth:`~repro.models.bpr.BPRModel.context_weights`), so
    ``neighbours_items`` returns the ids exact single-item-context scoring
    would rank — restricted to the probed lists.
    """

    def __init__(self, backend: RetrievalBackend, query_vectors: np.ndarray):
        self.backend = backend
        self._query_vectors = query_vectors

    @property
    def n_items(self) -> int:
        return self.backend.n_items

    @property
    def backend_name(self) -> str:
        return self.backend.backend_name

    @property
    def query_vectors(self) -> np.ndarray:
        return self._query_vectors

    @property
    def metrics(self):
        return self.backend.metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self.backend.metrics = registry

    def neighbours_items(
        self,
        item_ids: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
    ) -> np.ndarray:
        """The top-``k`` neighbours of each seed item as sets,
        ``(len(item_ids), k)``: each row ascending, its ``-1`` padding at
        the end."""
        return self.backend.neighbours(self._seed_queries(item_ids), k, nprobe)

    def _seed_queries(self, item_ids: np.ndarray) -> np.ndarray:
        items = np.asarray(item_ids, dtype=np.int64)
        if items.size and (
            items.min() < 0 or items.max() >= self._query_vectors.shape[0]
        ):
            raise RetrievalError(
                "item id out of range for the indexed catalog"
            )
        return self._query_vectors[items]


def _embedding_surface(model) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_eff, bias, query table) for a model, or RetrievalError."""
    matrix_fn = getattr(model, "effective_item_matrix", None)
    queries = getattr(model, "context_embeddings", None)
    if matrix_fn is None or queries is None:
        raise RetrievalError(
            f"model {type(model).__name__} has no embedding surface to index"
        )
    bias = getattr(model, "item_bias", None)
    return matrix_fn(), bias, queries


def exact_for_model(model, metrics=NULL_METRICS) -> ModelRetrieval:
    """Exact backend over a trained model's effective item vectors."""
    vectors, bias, queries = _embedding_surface(model)
    backend = ExactRetrieval(vectors, bias, metrics=metrics)
    return ModelRetrieval(backend, queries)


def ann_for_model(
    model,
    config: IVFConfig = IVFConfig(),
    metrics=NULL_METRICS,
) -> ModelRetrieval:
    """IVF index over a trained model's effective item vectors."""
    vectors, bias, queries = _embedding_surface(model)
    backend = IVFIndex.build(vectors, bias, config=config, metrics=metrics)
    return ModelRetrieval(backend, queries)
