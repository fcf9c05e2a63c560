"""``recommend_batch``: a block's item ids ranked against their own pools.

Offline inference asks every block the same question: for each item id
``q`` of the block, the top-``k`` of its pool for a user whose whole
context is one ``event`` on ``q``.  ``Recommender.recommend_batch``
answers it from the ids alone, and ``BPRModel`` scores the block against
one user matrix built from them.  Pinned here, on ``BPRModel`` and on two
models that take the base-class scoring — WALS and the co-occurrence
model, whose single-action scores both read the event (a fold-in
confidence, a vote weight), while BPR's one action weighs 1.0 whatever
it is: ``recommend_batch`` over ``ItemRows`` and over plain lists, and
one ``recommend`` per item, return the same ids, scores and order, on
tables with NaN and inf rows and exact ties, pools that hold the query
item, empty pools, ``k >= pool`` and ``k <= 0``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models.base import ItemRows
from repro.models.bpr import BPRModel
from repro.models.wals import WALSModel
from tests.test_recommender_contract import build_cooccurrence, build_wals

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Cases a run of the property must draw, and the only ones it may: an
#: event that moves a score is drawn exactly where the model reads it.
CASES = {"nan_row", "inf_row", "tie", "query_in_pool", "empty_pool", "k_ge_pool", "k_le_0"}
#: Per model: the co-occurrence model has no factor table to poison.
MODEL_CASES = {
    "bpr": CASES,
    "wals": CASES | {"event_moves_scores"},
    "cooccurrence": CASES - {"nan_row", "inf_row"} | {"event_moves_scores"},
}


@pytest.fixture(scope="module")
def models(small_dataset, trained_model):
    return {
        "bpr": trained_model,
        "wals": build_wals(small_dataset, trained_model),
        "cooccurrence": build_cooccurrence(small_dataset, trained_model),
    }


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
    tabled = isinstance(model, (BPRModel, WALSModel))
    if tabled:
        model = _with_table(model, case["seed"], case["nan_rows"], case["inf_rows"])
    # A row asked to hold its query item gets it; the others may anyway.
    query = [q for q, _, _ in case["rows"]]
    pools = [pool + [q] if holds else pool for q, pool, holds in case["rows"]]
    k, event = case["k"], case["event"]
    contexts = [UserContext((q,), (event,)) for q in query]

    ranked = model.recommend_batch(np.asarray(query, dtype=np.int64), ItemRows.of(pools), k, event)
    listed = model.recommend_batch(query, pools, k=k, event=event)
    per_item = [
        model.recommend(context, k=k, candidates=pool)
        for context, pool in zip(contexts, pools)
    ]
    assert _bits(ranked) == _bits(listed) == _bits(per_item)

    viewed = [
        model.recommend(UserContext((q,), (EventType.VIEW,)), k=k, candidates=pool)
        for q, pool in zip(query, pools)
    ]
    seen.update(
        name
        for name, drawn in (
            ("nan_row", tabled and case["nan_rows"]),
            ("inf_row", tabled and case["inf_rows"]),
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
            ("event_moves_scores", _bits(per_item) != _bits(viewed)),
        )
        if drawn
    )


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_recommend_batch_and_recommend_agree(models, name):
    model, cases, seen = models[name], MODEL_CASES[name], set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_case_strategy(model.n_items))
    def parity(case):
        _check(model, case, seen)

    parity()
    assert seen == cases, f"drawn {sorted(seen)}, expected {sorted(cases)}"


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


def test_a_block_builds_no_context(models, monkeypatch):
    """BPR ranks a block from its ids alone: no ``UserContext`` is built."""
    pools = ItemRows.of([[4, 1, 2], [0, 3], []])
    monkeypatch.setattr(UserContext, "__init__", lambda *a: pytest.fail("context built"))
    models["bpr"].recommend_batch(np.array([4, 0, 9]), pools, k=2, event=EventType.CART)


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_an_empty_block_ranks_to_no_rows(models, name):
    ranked = models[name].recommend_batch(np.empty(0, dtype=np.int64), ItemRows.of([]), 5)
    assert len(ranked) == 0 and list(ranked) == []


def test_recommend_batch_rejects_misaligned_pools(models):
    with pytest.raises(ValueError):
        models["bpr"].recommend_batch(np.arange(3), ItemRows.of([[1], [2]]), 2)
