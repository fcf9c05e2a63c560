"""The flat ranking pipeline against the per-row loop it replaced.

``recommend_batch`` ranks a block's rows as one array (flat exclude ->
``_score_queries`` -> ``segmented_top_k``).  The per-row
``_exclude_items`` / ``score_pools`` / ``_top_k`` loop it replaced is
frozen in ``tests/reference_per_row_rank.py``; pinned here: the two
return the same items with bit-identical scores on every model and on
adversarial score tables, ``segmented_top_k`` is ``top_k_select`` applied
segment by segment, and its padding stays a fixed multiple of the pairs.
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models import base
from repro.models.base import Recommender, segmented_top_k, top_k_select
from tests import reference_per_row_rank as reference
from tests.test_recommender_contract import BUILDERS
from tests.test_score_queries import _bits, build_diverged

#: Diverged and overflowed models multiply NaN and inf on purpose.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)

N_ITEMS = 120  # conftest.SMALL_SPEC

#: Few distinct values, so ties inside and across rows are the common
#: case, plus everything a diverged model emits.
adversarial_scores = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]
)


@pytest.fixture(scope="module", params=[1, base._PAD_FACTOR])
def pad_factor(request):
    """At 1 every row wider than its run's mean starts a new padded run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "_PAD_FACTOR", request.param)
        yield request.param


# ----------------------------------------------------------------------
# segmented_top_k == top_k_select, segment by segment
# ----------------------------------------------------------------------
def _per_segment(scores, items, sizes, k):
    chunks, lo = [np.empty(0, dtype=np.int64)], 0
    for size in sizes.tolist():
        segment = slice(lo, lo + size)
        chunks.append(
            lo + top_k_select(scores[segment], k, tiebreak=items[segment])
        )
        lo += size
    return np.concatenate(chunks)


def _flat(segments):
    sizes = np.asarray([len(segment) for segment in segments], dtype=np.int64)
    pairs = [pair for segment in segments for pair in segment]
    scores = np.asarray([score for score, _ in pairs], dtype=np.float64)
    items = np.asarray([item for _, item in pairs], dtype=np.int64)
    return scores, items, np.repeat(np.arange(sizes.size), sizes), sizes


segments_strategy = st.lists(
    st.lists(
        st.tuples(adversarial_scores, st.integers(min_value=0, max_value=9)),
        min_size=0,
        max_size=14,
    ),
    min_size=0,
    max_size=7,
)


@settings(max_examples=300, deadline=None)
@given(segments=segments_strategy, k=st.integers(min_value=-1, max_value=16))
def test_property_segmented_top_k_is_top_k_select_per_segment(
    pad_factor, segments, k
):
    scores, items, owners, sizes = _flat(segments)
    top, counts = segmented_top_k(scores, items, owners, sizes, k)
    assert top.dtype == np.int64
    np.testing.assert_array_equal(top, _per_segment(scores, items, sizes, k))
    np.testing.assert_array_equal(counts, np.minimum(sizes, max(k, 0)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_segmented_top_k_on_continuous_scores(pad_factor, seed):
    """Ragged widths, distinct scores: the prefilter keeps exactly k a row."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 200, size=int(rng.integers(1, 40)))
    scores = rng.normal(size=int(sizes.sum()))
    items = rng.integers(0, 1_000, size=scores.size)
    owners = np.repeat(np.arange(sizes.size), sizes)
    k = int(rng.integers(1, 30))
    top, _ = segmented_top_k(scores, items, owners, sizes, k)
    np.testing.assert_array_equal(top, _per_segment(scores, items, sizes, k))


def test_one_catalog_sized_pool_does_not_pad_the_block():
    """127 pools of 50 beside one of 200 000: padded to the widest row the
    block would be ``128 x 200 000`` doubles (205 MB); bounded, the wide row
    is padded in a run of at most ``_PAD_FACTOR`` times its own pairs."""
    rng = np.random.default_rng(3)
    sizes = np.full(128, 50, dtype=np.int64)
    sizes[77] = 200_000
    scores = rng.normal(size=int(sizes.sum()))
    items = rng.integers(0, 200_000, size=scores.size)
    owners = np.repeat(np.arange(sizes.size), sizes)
    tracemalloc.start()
    try:
        top, _ = segmented_top_k(scores, items, owners, sizes, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Flat scratch (negated scores, keep mask, survivors) is ~2 MB; the
    # wide row's run is at most 4 x 206 350 doubles = 6.6 MB.
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    np.testing.assert_array_equal(top, _per_segment(scores, items, sizes, 10))


# ----------------------------------------------------------------------
# recommend_batch == the frozen per-row loop, bit for bit
# ----------------------------------------------------------------------
def _assert_equals_reference(model, query, candidate_lists, k, event=EventType.VIEW):
    """``recommend_batch`` against the frozen loop over the one-action
    contexts it stands for, their own items excluded."""
    batched = model.recommend_batch(query, candidate_lists, k=k, event=event)
    contexts = [UserContext((int(item),), (event,)) for item in query]
    expected = reference.recommend_batch(
        model, contexts, candidate_lists, k=k, exclude_context_items=True
    )
    assert [_bits(recs) for recs in batched] == [_bits(recs) for recs in expected]
    for recs in batched:
        assert all(type(s.item_index) is int for s in recs)
        assert all(type(s.score) is float for s in recs)


def build_overflowed(dataset, trained_model):
    """+-inf biases on a third of the items, NaN where the two meet."""
    model = copy.deepcopy(trained_model)
    model.item_bias[::5] = np.inf
    model.item_bias[1::7] = -np.inf
    model.item_embeddings[::10] = -np.inf
    model.invalidate_cache()
    return model


def build_flat(dataset, trained_model):
    """Every pair scores 0.0: the order is the tiebreak alone."""
    model = copy.deepcopy(trained_model)
    for param in model._parameters().values():
        param[:] = 0.0
    model.invalidate_cache()
    return model


ALL_BUILDERS = {
    **BUILDERS,
    "diverged_bpr": build_diverged,
    "overflowed_bpr": build_overflowed,
    "flat_bpr": build_flat,
}


@pytest.fixture(scope="module", params=sorted(ALL_BUILDERS))
def model(request, small_dataset, trained_model):
    return ALL_BUILDERS[request.param](small_dataset, trained_model)


item_ids = st.integers(min_value=0, max_value=N_ITEMS - 1)
#: Empty, unsorted, repeated items, and wider than the catalog; arrays
#: and plain lists both.
pools_strategy = st.one_of(
    st.lists(item_ids, min_size=0, max_size=30),
    st.lists(item_ids, min_size=0, max_size=30).map(
        lambda items: np.asarray(items, dtype=np.int64)
    ),
    st.lists(item_ids, min_size=0, max_size=30).map(
        lambda items: np.asarray(sorted(set(items)), dtype=np.int32)
    ),
    st.permutations(range(N_ITEMS)).map(
        lambda items: np.asarray(items + items[:40], dtype=np.int64)
    ),
)
rows_strategy = st.lists(st.tuples(item_ids, pools_strategy), min_size=0, max_size=7)
#: 0, inside every pool, and past the widest (160).
k_strategy = st.one_of(
    st.integers(min_value=0, max_value=12), st.sampled_from([40, 200])
)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, k=k_strategy, event=st.sampled_from(list(EventType)))
def test_property_recommend_batch_equals_per_row_reference(
    model, pad_factor, rows, k, event
):
    query = [item for item, _ in rows]
    candidate_lists = [pool for _, pool in rows]
    _assert_equals_reference(model, query, candidate_lists, k, event)


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(item_ids, min_size=1, max_size=8),
    pools=st.lists(
        st.lists(item_ids, min_size=0, max_size=30), min_size=8, max_size=8
    ),
    k=k_strategy,
)
def test_property_single_item_block_equals_per_row_reference(model, items, pools, k):
    """The offline-inference shape: a block of int64 ids, each with its own
    int64 pool."""
    candidate_lists = [
        np.asarray(pool, dtype=np.int64) for pool in pools[: len(items)]
    ]
    _assert_equals_reference(model, np.asarray(items), candidate_lists, k)


class TableModel(Recommender):
    """Scores read from a table row chosen by the context's last item."""

    def __init__(self, table):
        self.table = table
        self.n_items = table.shape[1]

    def score_items(self, context, item_indices):
        row = context.item_indices[-1]
        return self.table[row % self.table.shape[0], np.asarray(item_indices)]


@settings(max_examples=200, deadline=None)
@given(
    table=st.lists(
        st.lists(adversarial_scores, min_size=12, max_size=12),
        min_size=1,
        max_size=4,
    ),
    rows=st.lists(
        st.tuples(
            st.integers(0, 11),
            st.lists(st.integers(0, 11), min_size=0, max_size=20),
        ),
        min_size=0,
        max_size=6,
    ),
    k=st.integers(min_value=0, max_value=22),
)
def test_property_adversarial_score_tables_equal_per_row_reference(
    pad_factor, table, rows, k
):
    """Ties inside and across rows, all-equal rows, NaN and +-inf scores,
    rows with fewer than k numbers, duplicate ids — through the default
    ``_score_queries``."""
    model = TableModel(np.asarray(table, dtype=np.float64))
    query = [item for item, _ in rows]
    candidate_lists = [pool for _, pool in rows]
    _assert_equals_reference(model, query, candidate_lists, k)


def test_catalog_sized_pool_among_small_ones_equals_reference(trained_model):
    rng = np.random.default_rng(9)
    n = trained_model.n_items
    query = rng.integers(n, size=128)
    candidate_lists = [rng.permutation(n)[:12] for _ in query]
    candidate_lists[50] = np.tile(np.arange(n), 40)
    _assert_equals_reference(trained_model, query, candidate_lists, 10)
