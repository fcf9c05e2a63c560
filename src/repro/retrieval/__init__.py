"""Approximate nearest-neighbour retrieval over item embeddings.

The exact ``U @ V_eff.T`` top-k is the scaling wall for million-item
catalogs (ROADMAP; eBay's embedding-serving architecture in PAPERS.md).
This package provides the retrieval layer that replaces it above a
catalog-size threshold:

* :class:`~repro.retrieval.ivf.IVFIndex` — IVF-style coarse quantization
  (seeded k-means centroids, per-cluster inverted lists, an ``nprobe``
  knob),
* :class:`~repro.retrieval.backend.ExactRetrieval` — the exact GEMM
  baseline behind the same :class:`~repro.retrieval.backend.RetrievalBackend`
  protocol, used below the threshold and as the recall reference,
* :class:`~repro.retrieval.backend.ModelRetrieval` — couples a trained
  model's query embeddings to a backend for item-to-item search,
* :mod:`~repro.retrieval.harness` — measured ``recall@k`` against the
  exact baseline, plus the ANN threshold constant.

An index is an offline artifact of the day: inference reads the
accepted one for the day's candidate pools (``DayState.retrieval``),
and nothing publishes it to the serving tier, which answers from the
precomputed tables alone.

Scoring is exact within the probed candidate set (inner product against
the bias-augmented item vectors), and every backend ranks through the
shared deterministic tie order, so ANN results are always a subset of —
never a reordering of — the exact ranking.
"""

from repro.retrieval.backend import (
    ExactRetrieval,
    ModelRetrieval,
    RetrievalBackend,
    ann_for_model,
    exact_for_model,
)
from repro.retrieval.harness import (
    DEFAULT_ANN_THRESHOLD,
    measure_model_recall,
    recall_at_k,
    synthetic_embeddings,
    synthetic_queries,
)
from repro.retrieval.ivf import IVFConfig, IVFIndex

__all__ = [
    "DEFAULT_ANN_THRESHOLD",
    "ExactRetrieval",
    "IVFConfig",
    "IVFIndex",
    "ModelRetrieval",
    "RetrievalBackend",
    "ann_for_model",
    "exact_for_model",
    "measure_model_recall",
    "recall_at_k",
    "synthetic_embeddings",
    "synthetic_queries",
]
