"""``rank_items``: a block's item ids ranked with one user matrix.

Offline inference asks every block the same question: for each item id
``q`` of the block, the top-``k`` of its pool for a user whose whole
context is one action on ``q``.  ``Recommender.rank_items`` answers it
from the ids alone; ``recommend_batch`` sends it a batch of single-action
contexts, and inference's ``SingleActions`` batch as the ids it holds, and
``BPRModel`` builds the block's user matrix once for both surfaces.
Pinned here, on ``BPRModel`` and on a model that takes the base-class path
(WALS): ``rank_items``, ``recommend_batch`` on ``SingleActions`` and on
the single-item contexts, and one ``recommend`` per item return the same ids,
scores and order, on tables with NaN and inf rows and exact ties, pools
that hold the query item, empty pools, ``k >= pool`` and ``k <= 0``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models.base import ItemRows, SingleActions
from repro.models.bpr import BPRModel
from tests.test_recommender_contract import build_wals

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Cases every run of the property must have drawn, per model.
CASES = {"nan_row", "inf_row", "tie", "query_in_pool", "empty_pool", "k_ge_pool", "k_le_0"}


@pytest.fixture(scope="module")
def models(small_dataset, trained_model):
    return {"bpr": trained_model, "wals": build_wals(small_dataset, trained_model)}


def _bits(rows):
    """Each row as ``(ids, score bytes)``: NaN and signed zeros compare."""
    return [
        ([s.item_index for s in row], np.asarray([s.score for s in row]).tobytes())
        for row in rows
    ]


def _with_table(model, seed: int, nan_rows, inf_rows):
    """``model`` with small-integer parameters, signed zeros among them
    (every dot product exact, ties the common case), and NaN / inf rows
    where asked — BPR's alternate between its item and context tables."""
    model = copy.deepcopy(model)
    rng = np.random.default_rng(seed)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    if isinstance(model, BPRModel):
        model._buffer[:] = rng.choice(values, size=model._buffer.size)
        tables = (model.item_embeddings, model.context_embeddings)
    else:
        model.item_factors[:] = rng.choice(values, size=model.item_factors.shape)
        tables = (model.item_factors,)
    for rows, value in ((nan_rows, np.nan), (inf_rows, np.inf)):
        for table, row in zip(tables * len(rows), rows):
            table[row] = value
    if isinstance(model, BPRModel):
        model.invalidate_cache()
    return model


def _case_strategy(n_items: int):
    item = st.integers(min_value=0, max_value=n_items - 1)
    return st.fixed_dictionaries(
        {
            "seed": st.integers(min_value=0, max_value=2**32 - 1),
            "nan_rows": st.lists(item, max_size=3),
            "inf_rows": st.lists(item, max_size=3),
            "rows": st.lists(
                st.tuples(item, st.lists(item, max_size=12), st.booleans()),
                min_size=1,
                max_size=6,
            ),
            "k": st.integers(min_value=-2, max_value=14),
            "event": st.sampled_from(list(EventType)),
        }
    )


def _check(model, case, seen):
    model = _with_table(model, case["seed"], case["nan_rows"], case["inf_rows"])
    # A row asked to hold its query item gets it; the others may anyway.
    query = [q for q, _, _ in case["rows"]]
    pools = [pool + [q] if holds else pool for q, pool, holds in case["rows"]]
    k, event = case["k"], case["event"]
    contexts = [UserContext((q,), (event,)) for q in query]

    ranked = model.rank_items(np.asarray(query, dtype=np.int64), ItemRows.of(pools), k, event)
    actions = model.recommend_batch(SingleActions(query, event), ItemRows.of(pools), k=k)
    batched = model.recommend_batch(contexts, pools, k=k)
    per_item = [
        model.recommend(context, k=k, candidates=pool)
        for context, pool in zip(contexts, pools)
    ]
    assert _bits(ranked) == _bits(actions) == _bits(batched) == _bits(per_item)
    if isinstance(model, BPRModel) and len(query) > 1:
        # Mixed events are no single-item batch: the context path
        # (``_rank_listed``) ranks them, bit for bit the same, since one
        # action weighs 1.0 whatever its event.
        mixed = [
            UserContext((q,), (list(EventType)[row % len(EventType)],))
            for row, q in enumerate(query)
        ]
        assert _bits(model.recommend_batch(mixed, pools, k=k)) == _bits(ranked)

    seen.update(
        name
        for name, drawn in (
            ("nan_row", case["nan_rows"]),
            ("inf_row", case["inf_rows"]),
            ("query_in_pool", any(q in pool for q, pool in zip(query, pools))),
            ("empty_pool", any(not pool for pool in pools)),
            ("k_le_0", k <= 0),
            ("k_ge_pool", any(0 < len(pool) <= k for pool in pools)),
            (
                "tie",
                any(
                    len(set(s.score for s in row)) < len(row)
                    for row in per_item
                ),
            ),
        )
        if drawn
    )


@pytest.mark.parametrize("name", ["bpr", "wals"])
def test_rank_items_recommend_batch_and_recommend_agree(models, name):
    model, seen = models[name], set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_case_strategy(model.n_items))
    def parity(case):
        _check(model, case, seen)

    parity()
    assert seen == CASES, f"never drawn: {sorted(CASES - seen)}"


def test_query_users_is_the_scatter_into_zeros(models):
    """One action's user is its context row as ``user_embedding_batch``
    builds it, bit for bit: a ``-0.0`` comes out ``0.0``."""
    model = copy.deepcopy(models["bpr"])
    model.context_embeddings[3] = -0.0
    model.context_embeddings[4, :2] = (np.nan, -np.inf)
    query = np.array([3, 4, 3, 0], dtype=np.int64)
    contexts = [UserContext((q,), (EventType.CART,)) for q in query.tolist()]
    users = model.query_users(query)
    assert users.tobytes() == model.user_embedding_batch(contexts).tobytes()
    assert not np.signbit(users[0]).any()


def test_bpr_builds_one_user_matrix_per_block(models, monkeypatch):
    """Two surfaces of one block share the block's user matrix; a
    parameter update drops it."""
    model = copy.deepcopy(models["bpr"])
    built = []
    query_users = model.query_users

    def counted(query):
        built.append(query.tolist())
        return query_users(query)

    monkeypatch.setattr(model, "query_users", counted)
    block = np.arange(5, 9, dtype=np.int64)
    views = ItemRows.of([[1, 2, 3]] * 4)
    buys = ItemRows.of([[4, 10, 11], [], [12], [5, 6]])
    first = model.rank_items(block, views, 2, EventType.VIEW)
    model.rank_items(block, buys, 2, EventType.CONVERSION)
    assert built == [[5, 6, 7, 8]]
    model.rank_items(block + 1, views, 2)
    assert len(built) == 2
    model.context_embeddings[6] += 1.0
    model.invalidate_cache()
    again = model.rank_items(block, views, 2)
    assert len(built) == 3
    assert _bits(again[:1]) == _bits(first[:1]) and _bits(again[1:2]) != _bits(first[1:2])


def test_single_actions_are_their_contexts(models, monkeypatch):
    """A ``SingleActions`` row is the one-action context it stands for;
    a batch of them reaches ``rank_items`` with no context built, and
    asked anything else (list pools, own items kept) ranks as those
    contexts would."""
    actions = SingleActions(np.array([4, 0, 9]), EventType.CART)
    contexts = [UserContext((q,), (EventType.CART,)) for q in (4, 0, 9)]
    assert list(actions) == contexts and actions[-1] == contexts[-1]
    pools = [[4, 1, 2], [0, 3], []]
    model = models["bpr"]
    for exclude in (True, False):
        ask = dict(k=2, exclude_context_items=exclude)
        assert _bits(model.recommend_batch(actions, pools, **ask)) == _bits(
            model.recommend_batch(contexts, pools, **ask)
        )
    monkeypatch.setattr(UserContext, "__init__", lambda *a: pytest.fail("context built"))
    model.recommend_batch(actions, ItemRows.of(pools), k=2)


def test_rank_items_rejects_misaligned_pools(models):
    with pytest.raises(ValueError):
        models["bpr"].rank_items(np.arange(3), ItemRows.of([[1], [2]]), 2)
