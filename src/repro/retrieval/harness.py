"""Recall measurement for ANN backends, and the index threshold.

An approximate index is only admissible if we can *measure* how
approximate it is.  :func:`recall_at_k` compares any backend's top-k
against the exact baseline on the same queries; the daily-run publish
gate and the E26 benchmark both go through it, so "recall" means the
same thing in CI, in the bench report, and in the recall gate that can
reject an index before it reaches serving.

The exact-vs-ANN switchover size is a constant,
:data:`DEFAULT_ANN_THRESHOLD`, with E26's measured crossover
(``BENCH_retrieval.json``) as its evidence: re-running the bench on a
noisy machine does not move what the daily run builds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.retrieval.backend import exact_for_model
from repro.rng import make_rng

#: Catalog size at which ANN replaces the exact taxonomy walk.  E26 on
#: clustered synthetic embeddings measures the timing crossover lower;
#: the threshold stays here until the default cell count is checked
#: against the recall gate at the smaller sizes.
DEFAULT_ANN_THRESHOLD = 50_000


def recall_at_k(
    backend,
    exact,
    queries: np.ndarray,
    k: int,
    nprobe: Optional[int] = None,
) -> float:
    """Fraction of exact top-``k`` ids the backend also returns.

    Averaged over query rows; padding ids (``-1``) never count as hits.
    """
    approx_ids, _ = backend.search(queries, k, nprobe)
    exact_ids, _ = exact.search(queries, k)
    total = 0.0
    rows = 0
    for row in range(exact_ids.shape[0]):
        truth = exact_ids[row]
        truth = truth[truth >= 0]
        if truth.size == 0:
            continue
        found = approx_ids[row]
        hits = np.isin(truth, found[found >= 0]).sum()
        total += hits / truth.size
        rows += 1
    # Plain float: recall values land in journal payloads and JSON
    # reports, where a numpy scalar would poison serialization.
    return float(total / rows) if rows else 1.0


def measure_model_recall(
    model,
    adapter,
    k: int,
    n_queries: int = 32,
    seed: int = 0,
    nprobe: Optional[int] = None,
) -> float:
    """Recall@k of ``adapter`` against exact retrieval on ``model``.

    Queries are a seeded sample of the model's own item-to-item query
    vectors — the workload candidate selection actually runs.
    """
    exact = exact_for_model(model)
    n = exact.n_items
    rng = make_rng(seed)
    sample = np.sort(
        rng.choice(n, size=min(n_queries, n), replace=False)
    )
    queries = exact.query_vectors[sample]
    k = min(k, n)
    return recall_at_k(
        adapter.backend, exact.backend, queries, k, nprobe
    )


def synthetic_embeddings(
    n_items: int,
    n_factors: int = 16,
    seed: int = 0,
    n_groups: Optional[int] = None,
    group_spread: float = 0.25,
):
    """Clustered item vectors + biases mimicking a trained catalog.

    A mixture of Gaussians, not white noise: real embedding tables
    cluster by taxonomy, which is what gives IVF good recall at modest
    ``nprobe``.  Returns ``(vectors, bias)``.
    """
    rng = make_rng(seed)
    if n_groups is None:
        n_groups = max(8, int(round(np.sqrt(n_items) / 2)))
    n_groups = min(n_groups, n_items)
    centers = rng.normal(size=(n_groups, n_factors))
    owners = rng.integers(0, n_groups, size=n_items)
    vectors = centers[owners] + group_spread * rng.normal(
        size=(n_items, n_factors)
    )
    bias = 0.05 * rng.normal(size=n_items)
    return vectors, bias


def synthetic_queries(
    vectors: np.ndarray, n_queries: int, seed: int = 0
) -> np.ndarray:
    """Item-like query vectors: perturbed rows of the catalog itself."""
    rng = make_rng(seed)
    rows = rng.integers(0, vectors.shape[0], size=n_queries)
    return vectors[rows] + 0.1 * rng.normal(
        size=(n_queries, vectors.shape[1])
    )


__all__ = [
    "DEFAULT_ANN_THRESHOLD",
    "measure_model_recall",
    "recall_at_k",
    "synthetic_embeddings",
    "synthetic_queries",
]
