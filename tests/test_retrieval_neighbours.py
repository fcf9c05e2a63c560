"""``neighbours``: the ids ``search`` ranks, read out as a set.

Both backends answer ``neighbours(queries, k)`` with a ``(B, k)`` id
matrix whose rows are ascending with the ``-1`` padding at the end, and
each row must be exactly the set ``search(queries, k)`` ranks in that
row.  The IVF index reads the set off the same scored matrix its ranking
does, cutting at the ``k``-th score without sorting the survivors, so
the drawn indexes also hold the set to the frozen pair-gather search,
which cuts independently.  The places where a cut could go wrong are
drawn on purpose: exact ties at the cut (duplicate vectors in one list
and in two), a NaN item and a NaN query, rows with fewer candidates than
``k``, empty lists, and the probe widths 1, 2 and every list.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import ExactRetrieval, IVFConfig, IVFIndex
from repro.retrieval.harness import synthetic_embeddings, synthetic_queries
from repro.retrieval.ivf import _select_probes, augment_queries
from tests.reference_pair_gather_search import pair_gather_search
from tests.test_ivf_list_scan import hand_index


def ranked_as_set(ids: np.ndarray) -> np.ndarray:
    """Each row's non-padding ids ascending, the padding after them."""
    rows = []
    for row in ids.tolist():
        kept = sorted(item for item in row if item >= 0)
        rows.append(kept + [-1] * (len(row) - len(kept)))
    return np.array(rows, dtype=np.int64).reshape(ids.shape)


def assert_neighbours_are_the_ranked_set(backend, queries, k, nprobe=None):
    ranked, _ = backend.search(queries, k, nprobe)
    got = backend.neighbours(queries, k, nprobe)
    assert got.dtype == np.int64 and got.shape == ranked.shape
    # search pads only at the end of a row; so does neighbours.
    padded = ranked < 0
    assert np.array_equal(padded, np.sort(padded, axis=1))
    assert np.array_equal(got, ranked_as_set(ranked))


#: What each drawn case must have exercised at least once.
CASES = {
    "tie in one list",
    "tie across two lists",
    "nan item",
    "nan query",
    "k >= candidates",
    "empty list probed",
    "nprobe 1",
    "nprobe 2",
    "nprobe all",
}
SEEN: Counter = Counter()


@given(
    seed=st.integers(0, 2**16),
    n_base=st.integers(1, 30),
    n_lists=st.integers(1, 8),
    tie=st.sampled_from(["none", "one list", "two lists"]),
    nan=st.sampled_from(["none", "item", "query"]),
    probe=st.sampled_from(["1", "2", "all"]),
    batch=st.integers(1, 8),
    k=st.integers(1, 70),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def check_neighbours_over_drawn_indexes(
    seed, n_base, n_lists, tie, nan, probe, batch, k
):
    rng = np.random.default_rng(seed)
    # Quarter steps: every product and sum is exact, so ties are ties
    # whatever shape the call that scores them has.
    vectors = rng.integers(-4, 5, size=(n_base, 3)) / 4.0
    bias = rng.integers(-4, 5, size=n_base) / 4.0
    used = rng.choice(n_lists, size=max(1, n_lists // 2), replace=False)
    assign = rng.choice(used, size=n_base)
    if tie != "none":
        copied = rng.integers(0, n_base, size=max(1, n_base // 3))
        vectors = np.concatenate([vectors, vectors[copied]])
        bias = np.concatenate([bias, bias[copied]])
        elsewhere = (assign[copied] + 1) % n_lists
        assign = np.concatenate(
            [assign, elsewhere if tie == "two lists" else assign[copied]]
        )
        if tie == "two lists" and n_lists > 1:
            SEEN["tie across two lists"] += 1
        if tie == "one list" or n_lists == 1:
            SEEN["tie in one list"] += 1
    queries = rng.integers(-4, 5, size=(batch, 3)) / 4.0
    if nan == "item":
        vectors[rng.integers(0, vectors.shape[0])] = np.nan
    elif nan == "query":
        queries[rng.integers(0, batch)] = np.nan
    SEEN[f"nan {nan}"] += 1
    index = hand_index(
        vectors, bias, assign, n_lists, rng.normal(size=(n_lists, 4))
    )
    nprobe = {"1": 1, "2": 2, "all": n_lists}[probe]
    SEEN[f"nprobe {probe}"] += 1
    probed = _select_probes(
        augment_queries(queries) @ index.centroids.T, min(nprobe, n_lists)
    )
    sizes = index.cluster_sizes()[probed]
    if (sizes == 0).any():
        SEEN["empty list probed"] += 1
    if (sizes.sum(axis=1) <= k).any():
        SEEN["k >= candidates"] += 1
    assert_neighbours_are_the_ranked_set(index, queries, k, nprobe)
    # search and neighbours share their cut; the frozen pair-gather
    # search does not (exact arithmetic: its ids match to the last tie).
    oracle, _ = pair_gather_search(index, queries, k, nprobe)
    assert np.array_equal(
        index.neighbours(queries, k, nprobe), ranked_as_set(oracle)
    )
    assert_neighbours_are_the_ranked_set(
        ExactRetrieval(vectors, bias), queries, k
    )


def test_neighbours_are_the_ranked_set_in_every_drawn_case():
    SEEN.clear()
    check_neighbours_over_drawn_indexes()
    assert not CASES - set(SEEN), sorted(CASES - set(SEEN))


@pytest.mark.parametrize("n_clusters", [1, 7, 30])
def test_built_indexes_at_every_probe_width(n_clusters):
    vectors, bias = synthetic_embeddings(300, 8, seed=n_clusters)
    index = IVFIndex.build(vectors, bias, IVFConfig(n_clusters=n_clusters))
    queries = synthetic_queries(vectors, 17, seed=1)
    for nprobe in range(1, index.n_clusters + 1):
        for k in (1, 10, 64):
            assert_neighbours_are_the_ranked_set(index, queries, k, nprobe)


@pytest.mark.parametrize("backend_of", ["exact", "ivf"])
def test_k_past_the_catalog_pads_both_read_outs(backend_of):
    """``(B, k)`` whatever ``k``: past the catalog (or, for the index,
    past the probed candidates) ids pad with -1 and scores with NaN."""
    vectors, bias = synthetic_embeddings(12, 4, seed=3)
    backend = (
        ExactRetrieval(vectors, bias)
        if backend_of == "exact"
        else IVFIndex.build(vectors, bias, IVFConfig(n_clusters=3, nprobe=3))
    )
    queries = synthetic_queries(vectors, 5, seed=4)
    ids, scores = backend.search(queries, 20)
    assert ids.shape == scores.shape == (5, 20)
    assert (ids[:, 12:] == -1).all() and np.isnan(scores[:, 12:]).all()
    assert (ids[:, :12] >= 0).all() and not np.isnan(scores[:, :12]).any()
    assert sorted(ids[0, :12].tolist()) == list(range(12))
    exact_ids, exact_scores = ExactRetrieval(vectors, bias).search(queries, 12)
    assert np.array_equal(ids[:, :12], exact_ids)
    assert np.array_equal(scores[:, :12], exact_scores)
    sets = backend.neighbours(queries, 20)
    assert sets.shape == (5, 20)
    assert (sets[:, :12] == np.arange(12)).all() and (sets[:, 12:] == -1).all()
    assert_neighbours_are_the_ranked_set(backend, queries, 20)


def test_k_zero_and_empty_batch():
    vectors, bias = synthetic_embeddings(40, 4, seed=5)
    for backend in (ExactRetrieval(vectors, bias), IVFIndex.build(vectors, bias)):
        queries = synthetic_queries(vectors, 3, seed=6)
        assert backend.neighbours(queries, 0).shape == (3, 0)
        assert backend.neighbours(np.empty((0, 4)), 5).shape == (0, 5)
