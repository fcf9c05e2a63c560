"""``_score_queries``: the ragged scoring kernel behind ``recommend_batch``.

``_score_queries(query, event, items, owners, sizes)`` answers "score one
``event`` on item ``query[r]`` against its own pool ``r``" for pools laid
end to end.  The default is a ``score_items`` loop over the segments;
``BPRModel`` overrides it with one sliced gather-and-dot over the flat
pairs.  Pinned here: every model agrees with its own ``score_items`` row
by row, a BPR row's result does not depend on what else is in the batch,
and the slice — not ``B x n x F`` — bounds the kernel's scratch memory.
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
from repro.models import bpr
from tests.test_batched_inference import _assert_same_recs
from tests.test_recommender_contract import BUILDERS

N_ITEMS = 120  # conftest.SMALL_SPEC


def build_diverged(dataset, trained_model):
    model = copy.deepcopy(trained_model)
    model.item_embeddings[:] = np.nan
    model.invalidate_cache()
    return model


@pytest.fixture(scope="module", params=sorted(BUILDERS) + ["diverged_bpr"])
def model(request, small_dataset, trained_model):
    builders = {**BUILDERS, "diverged_bpr": build_diverged}
    return builders[request.param](small_dataset, trained_model)


item_ids = st.integers(min_value=0, max_value=N_ITEMS - 1)
#: Empty pools and repeated items included: a pool is any index array.
pools_strategy = st.lists(item_ids, min_size=0, max_size=40).map(
    lambda items: np.asarray(items, dtype=np.int64)
)
rows_strategy = st.lists(st.tuples(item_ids, pools_strategy), min_size=0, max_size=6)
events = st.sampled_from(list(EventType))


def _split(rows):
    return [item for item, _ in rows], [pool for _, pool in rows]


def _score_rows(model, query, pools, event=EventType.VIEW):
    """``_score_queries`` over the concatenated pools, split back into rows."""
    sizes = np.asarray([pool.size for pool in pools], dtype=np.int64)
    items = np.concatenate([np.zeros(0, dtype=np.int64), *pools])
    owners = np.repeat(np.arange(sizes.size), sizes)
    query = np.asarray(query, dtype=np.int64)
    scores = model._score_queries(query, event, items, owners, sizes)
    assert scores.dtype == np.float64 and scores.shape == items.shape
    return np.split(scores, np.cumsum(sizes)[:-1]) if pools else []


# ----------------------------------------------------------------------
# (a) every model: segment r == score_items(one event on query[r], pools[r])
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy, event=events)
def test_property_score_queries_matches_score_items(model, rows, event):
    query, pools = _split(rows)
    scored = _score_rows(model, query, pools, event)
    assert len(scored) == len(rows)
    for item, pool, scores in zip(query, pools, scored):
        context = UserContext((item,), (event,))
        assert scores.shape == pool.shape
        if pool.size:
            # gather-dot vs gemv differ in summation order: a few ulp of
            # O(1) float64 scores, far inside 1e-12.
            np.testing.assert_allclose(
                scores,
                model.score_items(context, pool),
                rtol=1e-12,
                atol=1e-12,
                equal_nan=True,
            )


@settings(max_examples=15, deadline=None)
@given(rows=rows_strategy, k=st.integers(min_value=1, max_value=12), event=events)
def test_property_recommend_batch_matches_recommend_for_every_model(
    model, rows, k, event
):
    """Pool-relative models too: the hybrid z-normalizes over the pool it
    is handed, so scoring a row against the batch's union of pools (the
    previous kernel) ranked it differently from ``recommend``."""
    query, pools = _split(rows)
    batched = model.recommend_batch(query, pools, k=k, event=event)
    for item, pool, recs in zip(query, pools, batched):
        context = UserContext((item,), (event,))
        reference = model.recommend(context, k=k, candidates=pool)
        _assert_same_recs(recs, reference)


# ----------------------------------------------------------------------
# (b) BPR: a row's result is independent of the batch around it
# ----------------------------------------------------------------------
def _bits(recs):
    return (
        [s.item_index for s in recs],
        np.asarray([s.score for s in recs]).tobytes(),
    )


def test_row_is_bit_identical_alone_in_a_block_and_across_a_slice(
    trained_model, monkeypatch
):
    rng = np.random.default_rng(5)
    n = trained_model.n_items

    def own_pool(item, pool):
        # No pool holds its own query item, so nothing is excluded and the
        # probe's pairs start at the summed sizes of the pools before it.
        return item, pool[pool != item]

    probe = own_pool(3, rng.permutation(n)[:41])
    others = [
        own_pool(
            int(rng.integers(n)),
            rng.choice(n, size=int(rng.integers(0, 60)), replace=False),
        )
        for _ in range(127)
    ]

    def recommend(rows, position):
        query, pools = _split(rows)
        recs = trained_model.recommend_batch(query, pools, k=10, event=EventType.CART)
        return _bits(recs[position])

    def probe_in_block(position):
        return recommend(others[:position] + [probe] + others[position:], position)

    alone = recommend([probe], 0)
    assert len(alone[0]) == 10
    for position in (0, 64, 127):
        assert probe_in_block(position) == alone

    # A slice that ends halfway through the probe's pairs: its scores are
    # written by two different einsum calls.
    first_pair = sum(pool.size for _, pool in others[:64])
    monkeypatch.setattr(bpr, "_PAIR_SLICE", first_pair + probe[1].size // 2)
    assert probe_in_block(64) == alone


# ----------------------------------------------------------------------
# (c) the slice bounds scratch memory
# ----------------------------------------------------------------------
def test_whole_catalog_pools_stay_under_the_slice_bound(trained_model):
    """64 query items x explicit 20 000-item pools = 1.28 M pairs.

    Unsliced, ``phi[items]`` alone is ``1.28 M x 8 factors x 8 B`` = 82 MB
    (and ``users[owners]`` as much again).  Sliced, the kernel holds the
    concatenated items, their owners and the scores (3 x 10.2 MB) plus
    two ``_PAIR_SLICE x F`` gathers: 40 MB is the stated bound.
    """
    rng = np.random.default_rng(11)
    n_rows, pool_size = 64, 20_000
    query = rng.integers(trained_model.n_items, size=n_rows)
    pools = [
        rng.integers(trained_model.n_items, size=pool_size) for _ in range(n_rows)
    ]
    trained_model.effective_item_matrix()  # the cache is not scratch
    tracemalloc.start()
    try:
        scored = _score_rows(trained_model, query, pools)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scored) == n_rows and scored[-1].shape == (pool_size,)
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    context = UserContext((int(query[7]),), (EventType.VIEW,))
    np.testing.assert_allclose(
        scored[7], trained_model.score_items(context, pools[7]), rtol=1e-12
    )
