"""The per-list GEMM scan against the pair gather it replaced.

``IVFIndex.search`` keeps the item matrix in inverted-list order and
scores each distinct probed list with one GEMM over its slice.  What it
replaced — every (query, candidate) pair gathered into two ``(pairs, f)``
arrays and one ``einsum``, behind a per-row ``top_k_select`` probe loop —
is frozen in ``tests/reference_pair_gather_search.py``; pinned here: the
two return the same ids, scores within 1e-12 and identical padding over
drawn and hand-built shapes, the one-call probe selection is
``top_k_select`` row by row, and the index holds one copy of the items.

GEMM and einsum add the ``f`` products in different orders, and a BLAS
rounds a (query, item) product differently depending on the shape of the
call it sits in, so scores agree to the last few ulps, not bit for bit.
Ids are compared exactly all the same: a difference would need two
candidates of one query closer than that, and :func:`assert_same_ranking`
prints the gap if it ever happens rather than tolerating it.  The one
place that is expected — float-valued duplicate vectors in two lists —
has its own test that says so.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import top_k_select
from repro.obs import MetricsRegistry
from repro.retrieval import ExactRetrieval, IVFConfig, IVFIndex
from repro.retrieval.harness import synthetic_embeddings, synthetic_queries
from repro.retrieval.ivf import _select_probes, augment_items, augment_queries
from tests.reference_pair_gather_search import (
    item_order_matrix,
    pair_gather_search,
)

#: What two summation orders of <= 17 products of O(1) numbers can differ by
#: is ~1e-15; the issue fixed the tolerance beforehand.
SCORE_TOLERANCE = 1e-12


def assert_same_ranking(got, want, tolerance=SCORE_TOLERANCE):
    """Padding cell for cell, scores to ``tolerance``, ids exactly."""
    got_ids, got_scores = got
    want_ids, want_scores = want
    assert got_ids.shape == want_ids.shape
    assert got_scores.shape == want_scores.shape
    assert got_ids.dtype == want_ids.dtype == np.int64
    assert np.array_equal(got_ids < 0, want_ids < 0)
    assert np.array_equal(np.isnan(got_scores), np.isnan(want_scores))
    assert np.array_equal(got_ids < 0, np.isnan(got_scores))
    np.testing.assert_allclose(got_scores, want_scores, rtol=0, atol=tolerance)
    if not np.array_equal(got_ids, want_ids):
        row, rank = np.argwhere(got_ids != want_ids)[0]
        pytest.fail(
            f"row {row} rank {rank}: item {got_ids[row, rank]} "
            f"({got_scores[row, rank]!r}) where the oracle ranks "
            f"{want_ids[row, rank]} ({want_scores[row, rank]!r}); the "
            f"oracle's scores around it: "
            f"{want_scores[row, max(rank - 1, 0):rank + 2].tolist()!r}"
        )


def hand_index(vectors, bias, assign, n_lists, centroids, nprobe=16):
    """An index over a chosen item -> list assignment (empty lists legal)."""
    assign = np.asarray(assign, dtype=np.int64)
    order = np.argsort(assign, kind="stable").astype(np.int64)
    offsets = np.searchsorted(assign[order], np.arange(n_lists + 1)).astype(
        np.int64
    )
    return IVFIndex(
        augment_items(vectors, bias)[order],
        np.asarray(centroids, dtype=np.float64),
        offsets,
        order,
        IVFConfig(nprobe=nprobe),
    )


# ----------------------------------------------------------------------
# Probe selection: one call == top_k_select per row
# ----------------------------------------------------------------------
#: Few distinct values, so exact ties at the cut are the common case.
adversarial_affinity = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0, -1.0, 2.5, 2.5, np.nan, np.inf, -np.inf]
)


class TestSelectProbes:
    @given(
        rows=st.lists(
            st.lists(adversarial_affinity, min_size=9, max_size=9),
            min_size=1,
            max_size=6,
        ),
        width=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_top_k_select_row_by_row(self, rows, width):
        affinity = np.asarray(rows, dtype=np.float64)
        before = affinity.copy()
        probed = _select_probes(affinity, width)
        assert probed.shape == (affinity.shape[0], width)
        for row in range(affinity.shape[0]):
            assert probed[row].tolist() == top_k_select(
                affinity[row], width
            ).tolist()
        assert np.array_equal(affinity, before, equal_nan=True)

    @given(
        seed=st.integers(0, 10_000),
        n_clusters=st.integers(1, 70),
        batch=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_probed_sets_are_prefixes_across_width(
        self, seed, n_clusters, batch
    ):
        """What makes recall@k provably monotone in ``nprobe``."""
        rng = np.random.default_rng(seed)
        # Rounded: ties between centroids at every width.
        affinity = np.round(rng.normal(size=(batch, n_clusters)), 1)
        full = _select_probes(affinity, n_clusters)
        for width in range(1, n_clusters + 1):
            assert np.array_equal(
                _select_probes(affinity, width), full[:, :width]
            )


# ----------------------------------------------------------------------
# search == the frozen pair-gather search
# ----------------------------------------------------------------------
class TestAgainstPairGatherOracle:
    @given(
        seed=st.integers(0, 10_000),
        n_items=st.integers(1, 160),
        n_factors=st.integers(1, 12),
        n_clusters=st.one_of(st.none(), st.integers(1, 40)),
        nprobe=st.integers(1, 48),
        batch=st.integers(0, 12),
        k=st.integers(0, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_built_indexes_over_drawn_shapes(
        self, seed, n_items, n_factors, n_clusters, nprobe, batch, k
    ):
        vectors, bias = synthetic_embeddings(n_items, n_factors, seed=seed)
        index = IVFIndex.build(
            vectors, bias, IVFConfig(n_clusters=n_clusters, seed=seed)
        )
        queries = synthetic_queries(vectors, batch, seed=seed + 1)
        assert_same_ranking(
            index.search(queries, k, nprobe=nprobe),
            pair_gather_search(index, queries, k, nprobe=nprobe),
        )

    @given(
        seed=st.integers(0, 10_000),
        n_items=st.integers(1, 80),
        n_lists=st.integers(1, 12),
        nprobe=st.integers(1, 14),
        batch=st.integers(1, 9),
        k=st.integers(1, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_hand_built_lists_with_empty_cells(
        self, seed, n_items, n_lists, nprobe, batch, k
    ):
        """Items land in about half the lists: the rest probe for free."""
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n_items, 5))
        bias = rng.normal(size=n_items)
        used = rng.choice(n_lists, size=max(1, n_lists // 2), replace=False)
        index = hand_index(
            vectors,
            bias,
            rng.choice(used, size=n_items),
            n_lists,
            rng.normal(size=(n_lists, 6)),
        )
        assert (index.cluster_sizes() == 0).sum() >= n_lists - used.size
        queries = rng.normal(size=(batch, 5))
        assert_same_ranking(
            index.search(queries, k, nprobe=nprobe),
            pair_gather_search(index, queries, k, nprobe=nprobe),
        )

    def test_every_probed_list_empty(self):
        """Centroids that pull every probe to the two empty cells."""
        vectors = np.ones((6, 2))
        centroids = np.array(
            [[9.0, 9.0, 0.0], [8.0, 8.0, 0.0], [-9.0, -9.0, 0.0]]
        )
        index = hand_index(vectors, None, [2] * 6, 3, centroids)
        queries = np.ones((4, 2))
        ids, scores = index.search(queries, 3, nprobe=2)
        assert (ids == -1).all() and np.isnan(scores).all()
        assert_same_ranking(
            (ids, scores), pair_gather_search(index, queries, 3, nprobe=2)
        )
        # One more probe reaches the items.
        assert_same_ranking(
            index.search(queries, 3, nprobe=3),
            pair_gather_search(index, queries, 3, nprobe=3),
        )

    @pytest.mark.parametrize("batch", [1, 7])
    def test_single_cluster(self, batch):
        vectors, bias = synthetic_embeddings(50, 6, seed=2)
        index = IVFIndex.build(vectors, bias, IVFConfig(n_clusters=1))
        assert index.n_clusters == 1
        queries = synthetic_queries(vectors, batch, seed=3)
        for nprobe in (1, 5):
            assert_same_ranking(
                index.search(queries, 10, nprobe=nprobe),
                pair_gather_search(index, queries, 10, nprobe=nprobe),
            )

    def test_nprobe_beyond_the_cluster_count_is_a_full_scan(self):
        vectors, bias = synthetic_embeddings(300, 8, seed=4)
        index = IVFIndex.build(vectors, bias, IVFConfig(n_clusters=12))
        queries = synthetic_queries(vectors, 9, seed=5)
        full = index.search(queries, 25, nprobe=12)
        assert_same_ranking(
            full, pair_gather_search(index, queries, 25, nprobe=12)
        )
        beyond = index.search(queries, 25, nprobe=500)
        assert np.array_equal(beyond[0], full[0])
        assert np.array_equal(beyond[1], full[1])
        exact_ids, _ = ExactRetrieval(vectors, bias).search(queries, 25)
        assert np.array_equal(full[0], exact_ids)

    def test_batch_of_one_and_1d_query(self):
        """The serving top-up's shape: every probed list has one query."""
        vectors, bias = synthetic_embeddings(500, 8, seed=6)
        index = IVFIndex.build(vectors, bias, IVFConfig(seed=6))
        query = synthetic_queries(vectors, 1, seed=7)
        want = pair_gather_search(index, query, 20)
        assert_same_ranking(index.search(query, 20), want)
        assert_same_ranking(index.search(query[0], 20), want)

    def test_k_larger_than_any_row_has_candidates(self):
        vectors, bias = synthetic_embeddings(120, 6, seed=8)
        index = IVFIndex.build(vectors, bias, IVFConfig(n_clusters=20))
        queries = synthetic_queries(vectors, 6, seed=9)
        got = index.search(queries, 400, nprobe=3)
        assert (got[0] == -1).any(axis=1).all()
        assert_same_ranking(
            got, pair_gather_search(index, queries, 400, nprobe=3)
        )

    def test_k_zero_and_empty_batch(self):
        vectors, bias = synthetic_embeddings(60, 4, seed=10)
        index = IVFIndex.build(vectors, bias)
        queries = synthetic_queries(vectors, 3, seed=11)
        assert_same_ranking(
            index.search(queries, 0), pair_gather_search(index, queries, 0)
        )
        none = np.empty((0, 4))
        assert_same_ranking(
            index.search(none, 5), pair_gather_search(index, none, 5)
        )

    def test_churn_shape(self):
        """perfbench's churn index: 1 400 items, 18 lists, 16 probed,
        128-query blocks — nearly every list scored against every query."""
        vectors, bias = synthetic_embeddings(1400, 16, seed=12)
        index = IVFIndex.build(vectors, bias, IVFConfig(n_clusters=18))
        queries = synthetic_queries(vectors, 128, seed=13)
        assert_same_ranking(
            index.search(queries, 100, nprobe=16),
            pair_gather_search(index, queries, 100, nprobe=16),
        )

    def test_counters_read_what_the_pair_gather_counted(self):
        vectors, bias = synthetic_embeddings(400, 8, seed=14)
        registry = MetricsRegistry()
        index = IVFIndex.build(
            vectors, bias, IVFConfig(n_clusters=30), metrics=registry
        )
        queries = synthetic_queries(vectors, 10, seed=15)
        index.search(queries, 5, nprobe=4)
        assert registry.counter("retrieval_probes_total").value == 40
        sizes = index.cluster_sizes()
        probed = _select_probes(
            augment_queries(queries) @ index.centroids.T, 4
        )
        assert registry.counter("retrieval_candidates_total").value == int(
            sizes[probed].sum()
        )


# ----------------------------------------------------------------------
# Exact score ties across two lists
# ----------------------------------------------------------------------
def _duplicated_across_lists(rng, base, base_bias, n_lists):
    """Every vector twice, the copies dealt to lists independently."""
    vectors = np.concatenate([base, base])
    bias = np.concatenate([base_bias, base_bias])
    assign = rng.integers(0, n_lists, size=vectors.shape[0])
    return hand_index(
        vectors,
        bias,
        assign,
        n_lists,
        rng.normal(size=(n_lists, base.shape[1] + 1)),
        nprobe=n_lists,
    )


class TestTiesAcrossLists:
    @given(
        seed=st.integers(0, 10_000),
        n_base=st.integers(2, 40),
        n_lists=st.integers(2, 7),
        batch=st.integers(1, 10),
        k=st.integers(1, 90),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_ties_break_by_item_id(
        self, seed, n_base, n_lists, batch, k
    ):
        """Coordinates are multiples of 1/4, so every product and every
        partial sum is exact in float64 whatever order a kernel adds them
        in: an item and its copy in another list score bit for bit the
        same through GEMM, gemv and einsum alike, and what decides their
        order is the tiebreak alone — the item id, through the list-major
        buffer and back."""
        rng = np.random.default_rng(seed)
        base = rng.integers(-8, 9, size=(n_base, 4)) / 4.0
        base_bias = rng.integers(-8, 9, size=n_base) / 4.0
        index = _duplicated_across_lists(rng, base, base_bias, n_lists)
        queries = rng.integers(-8, 9, size=(batch, 4)) / 4.0
        got = index.search(queries, k)
        assert_same_ranking(
            got, pair_gather_search(index, queries, k), tolerance=0.0
        )
        ids, scores = got
        for row in range(batch):
            filled = ids[row] >= 0
            tied = scores[row, filled][1:] == scores[row, filled][:-1]
            assert (np.diff(ids[row, filled])[tied] > 0).all()
            # The best item and its copy: the top two always tie.
            assert tied[:1].all()

    def test_float_duplicates_may_swap_inside_a_tie(self):
        """Loosened on purpose, and only here.  An einsum scores a vector
        and its copy through the same inner loop, so the oracle ties them
        exactly and ranks the lower id first.  A BLAS does not promise
        that: the same (query, item) product rounds differently in a
        one-row call (gemv) than in a many-row one (GEMM), so two copies
        in two lists probed by different query sets can differ in the
        last ulps and rank by that.  Measured when this was written, over
        300 drawn catalogs: 30 of 1 817 rows differ from the oracle, every
        one a swap of a vector with its own copy, largest gap 5.3e-15.
        Pinned: scores still agree to 1e-12, and wherever the ids differ
        the two items are copies of each other."""
        rng = np.random.default_rng(0)
        for _ in range(60):
            n_base = int(rng.integers(5, 60))
            n_factors = int(rng.integers(1, 17))
            base = rng.normal(size=(n_base, n_factors))
            index = _duplicated_across_lists(
                rng, base, rng.normal(size=n_base), int(rng.integers(2, 8))
            )
            queries = rng.normal(size=(int(rng.integers(1, 12)), n_factors))
            k = int(rng.integers(1, 2 * n_base + 3))
            got_ids, got_scores = index.search(queries, k)
            want_ids, want_scores = pair_gather_search(index, queries, k)
            np.testing.assert_allclose(
                got_scores, want_scores, rtol=0, atol=SCORE_TOLERANCE
            )
            assert np.array_equal(got_ids < 0, want_ids < 0)
            differ = got_ids != want_ids
            assert (got_ids[differ] % n_base == want_ids[differ] % n_base).all()


# ----------------------------------------------------------------------
# What the index holds
# ----------------------------------------------------------------------
class TestListOrderedStorage:
    def test_one_copy_of_the_items_in_list_order(self):
        vectors, bias = synthetic_embeddings(300, 8, seed=16)
        index = IVFIndex.build(vectors, bias)
        state = index.state()
        assert sorted(state) == [
            "centroids",
            "list_aug",
            "list_items",
            "list_offsets",
        ]
        item_aug = augment_items(vectors, bias)
        assert np.array_equal(state["list_aug"], item_aug[state["list_items"]])
        assert np.array_equal(item_order_matrix(index), item_aug)
        assert index.n_items == 300
        held = [
            value
            for value in vars(index).values()
            if isinstance(value, np.ndarray) and value.shape == item_aug.shape
        ]
        assert len(held) == 1 and held[0] is state["list_aug"]

    def test_a_list_is_a_contiguous_slice(self):
        vectors, bias = synthetic_embeddings(200, 6, seed=17)
        index = IVFIndex.build(vectors, bias, IVFConfig(n_clusters=9))
        state = index.state()
        item_aug = augment_items(vectors, bias)
        offsets = state["list_offsets"]
        for cell in range(index.n_clusters):
            members = state["list_items"][offsets[cell] : offsets[cell + 1]]
            assert (np.diff(members) > 0).all()
            rows = state["list_aug"][offsets[cell] : offsets[cell + 1]]
            assert np.array_equal(rows, item_aug[members])
            assert rows.flags["C_CONTIGUOUS"]
