"""``score_pairs``: the ragged scoring kernel behind ``recommend_batch``.

``score_pairs(contexts, items, owners, sizes)`` answers "score context
``r`` against its own pool ``r``" for pools laid end to end.  The default
is a ``score_items`` loop over the segments; ``BPRModel`` overrides it
with one sliced gather-and-dot over the flat pairs.  Pinned here: every
model agrees with its own ``score_items`` row by row, a BPR row's result
does not depend on what else is in the batch, and the slice — not
``B x n x F`` — bounds the kernel's scratch memory.
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
contexts_strategy = st.lists(item_ids, min_size=1, max_size=5).map(
    lambda items: UserContext(tuple(items), tuple(EventType.VIEW for _ in items))
)
#: Empty pools and repeated items included: a pool is any index array.
pools_strategy = st.lists(item_ids, min_size=0, max_size=40).map(
    lambda items: np.asarray(items, dtype=np.int64)
)
rows_strategy = st.lists(
    st.tuples(contexts_strategy, pools_strategy), min_size=0, max_size=6
)


def _split(rows):
    return [context for context, _ in rows], [pool for _, pool in rows]


def _score_rows(model, contexts, pools):
    """``score_pairs`` over the concatenated pools, split back into rows."""
    sizes = np.asarray([pool.size for pool in pools], dtype=np.int64)
    items = np.concatenate([np.zeros(0, dtype=np.int64), *pools])
    owners = np.repeat(np.arange(sizes.size), sizes)
    scores = model.score_pairs(contexts, items, owners, sizes)
    assert scores.dtype == np.float64 and scores.shape == items.shape
    return np.split(scores, np.cumsum(sizes)[:-1]) if pools else []


# ----------------------------------------------------------------------
# (a) every model: score_pairs segment r == score_items(contexts[r], pools[r])
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy)
def test_property_score_pairs_matches_score_items(model, rows):
    contexts, pools = _split(rows)
    scored = _score_rows(model, contexts, pools)
    assert len(scored) == len(rows)
    for context, pool, scores in zip(contexts, pools, scored):
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
@given(rows=rows_strategy, k=st.integers(min_value=1, max_value=12))
def test_property_recommend_batch_matches_recommend_for_every_model(
    model, rows, k
):
    """Pool-relative models too: the hybrid z-normalizes over the pool it
    is handed, so scoring a row against the batch's union of pools (the
    previous kernel) ranked it differently from ``recommend``."""
    contexts, pools = _split(rows)
    batched = model.recommend_batch(contexts, pools, k=k)
    for context, pool, recs in zip(contexts, pools, batched):
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
    probe_context = UserContext((3, 17), (EventType.VIEW, EventType.CART))
    probe_pool = rng.permutation(n)[:40]
    others = [
        (
            UserContext((int(rng.integers(n)),), (EventType.VIEW,)),
            rng.choice(n, size=int(rng.integers(0, 60)), replace=False),
        )
        for _ in range(127)
    ]

    def recommend(rows, position):
        contexts, pools = _split(rows)
        # Nothing excluded, so the probe's pairs start at the summed
        # sizes of the pools before it.
        recs = trained_model.recommend_batch(
            contexts, pools, k=10, exclude_context_items=False
        )
        return _bits(recs[position])

    def probe_in_block(position):
        probe = (probe_context, probe_pool)
        return recommend(others[:position] + [probe] + others[position:], position)

    alone = recommend([(probe_context, probe_pool)], 0)
    assert len(alone[0]) == 10
    for position in (0, 64, 127):
        assert probe_in_block(position) == alone

    # A slice that ends halfway through the probe's pairs: its scores are
    # written by two different einsum calls.
    first_pair = sum(pool.size for _, pool in others[:64])
    monkeypatch.setattr(bpr, "_PAIR_SLICE", first_pair + probe_pool.size // 2)
    assert probe_in_block(64) == alone


def test_whole_catalog_rows_take_the_dense_kernel(trained_model, monkeypatch):
    """``None`` pools are the dense question — every context against the
    same columns — so they share one ``score_contexts`` matrix and never
    reach the pair kernel as ``B`` materialised ``arange(n)`` pools."""
    n = trained_model.n_items
    contexts = [UserContext((item,), (EventType.VIEW,)) for item in (1, 2, 3, 4)]
    candidate_lists = [None, np.asarray([5, 9, 2]), None, []]
    calls = {"pairs": [], "dense": []}
    score_pairs = trained_model.score_pairs
    score_contexts = trained_model.score_contexts

    def spy_pairs(ctx, items, owners, sizes):
        calls["pairs"].append(sizes.tolist())
        return score_pairs(ctx, items, owners, sizes)

    def spy_contexts(ctx, item_indices=None):
        calls["dense"].append((len(ctx), item_indices))
        return score_contexts(ctx, item_indices)

    monkeypatch.setattr(trained_model, "score_pairs", spy_pairs)
    monkeypatch.setattr(trained_model, "score_contexts", spy_contexts)
    batched = trained_model.recommend_batch(contexts, candidate_lists, k=n)
    # Row 1's own context item (2) is excluded from its three candidates.
    assert calls == {"pairs": [[2, 0]], "dense": [(2, None)]}
    for context, candidates, recs in zip(contexts, candidate_lists, batched):
        reference = trained_model.recommend(context, k=n, candidates=candidates)
        _assert_same_recs(recs, reference)


# ----------------------------------------------------------------------
# (c) the slice bounds scratch memory
# ----------------------------------------------------------------------
def test_whole_catalog_pools_stay_under_the_slice_bound(trained_model):
    """64 contexts x explicit 20 000-item pools = 1.28 M pairs.

    Unsliced, ``phi[items]`` alone is ``1.28 M x 8 factors x 8 B`` = 82 MB
    (and ``users[owners]`` as much again).  Sliced, the kernel holds the
    concatenated items, their owners and the scores (3 x 10.2 MB) plus
    two ``_PAIR_SLICE x F`` gathers: 40 MB is the stated bound.
    """
    rng = np.random.default_rng(11)
    n_rows, pool_size = 64, 20_000
    contexts = [
        UserContext((int(item),), (EventType.VIEW,))
        for item in rng.integers(trained_model.n_items, size=n_rows)
    ]
    pools = [
        rng.integers(trained_model.n_items, size=pool_size) for _ in range(n_rows)
    ]
    trained_model.effective_item_matrix()  # the cache is not scratch
    tracemalloc.start()
    try:
        scored = _score_rows(trained_model, contexts, pools)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scored) == n_rows and scored[-1].shape == (pool_size,)
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    np.testing.assert_allclose(
        scored[7], trained_model.score_items(contexts[7], pools[7]), rtol=1e-12
    )
