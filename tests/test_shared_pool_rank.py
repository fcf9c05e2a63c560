"""A shared candidate pool is ranked once: the matrix path is the pair path.

Rows of a block whose pools are one shared run (``ItemRows.shared``) are
ranked by ``recommend_batch`` as one ``(rows x run)`` BPR score matrix
and a row-wise partition (``shared_top_k``); every other row, and every
group the partition cannot cut (a tie at the cut, a NaN, a pool of at
most ``k + 1`` items), goes pair by pair.  Pinned here: over drawn
blocks, the answer is byte for byte — items, score bits, row bounds —
the answer for the same pools handed over materialised, which only the
pair path ranks; and every case the fork depends on was drawn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.core.inference import _item_blocks
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.taxonomy import SHARED_RUN_PAIRS
from repro.models import base
from repro.models.base import ItemRows, SharedRuns
from repro.models.bpr import BPRHyperParams, BPRModel
from tests.test_recommender_contract import BUILDERS

N_ITEMS = 400
#: Embedding and bias values of a "coarse" model: sums of their products
#: are exact, so equal scores — ties at the cut, with the own item, and
#: signed zeros — are common.
COARSE = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
CASES = {
    "n_factors=5",
    "n_factors=8",
    "n_factors=16",
    "n_factors=50",
    "a one-row group",
    "a 128-row group",
    "own item inside its run",
    "own item outside its run",
    "a tie at the k-th score",
    "a tie with the own item",
    "a diverged model",
    "a NaN score",
    "a pool of at most k + 1 items",
    "two runs of one lo",
    "an empty row",
    "a capped row",
    "a mixed block",
    "a group ranked as a matrix",
    "a group sent to the pair path",
}

NO_ITEMS = np.empty(0, dtype=np.int64)
_MODELS = {}


def model_with(n_factors: int) -> BPRModel:
    """A BPR model whose effective item matrix is its item table (no
    feature embeddings), so a test writes the scores it wants."""
    if n_factors not in _MODELS:
        dataset = dataset_from_synthetic(
            generate_retailer(
                RetailerSpec("shared", n_items=N_ITEMS, n_users=40, n_events=400, seed=5)
            )
        )
        params = BPRHyperParams(
            n_factors=n_factors, use_taxonomy=False, use_brand=False, use_price=False
        )
        _MODELS[n_factors] = BPRModel(dataset.catalog, dataset.taxonomy, params)
    return _MODELS[n_factors]


def set_parameters(model: BPRModel, mode: str, rng: np.random.Generator) -> None:
    shape = model.item_embeddings.shape
    if mode == "coarse":
        model.item_embeddings[:] = rng.choice(COARSE, size=shape)
        model.context_embeddings[:] = rng.choice(COARSE, size=shape)
        model.item_bias[:] = rng.choice(COARSE, size=shape[0])
    else:
        model.item_embeddings[:] = rng.normal(size=shape)
        model.context_embeddings[:] = rng.normal(size=shape)
        model.item_bias[:] = rng.normal(size=shape[0])
    if mode == "diverged":
        model.item_embeddings[:] = np.nan
    elif mode == "some NaN":
        model.item_embeddings[rng.random(shape[0]) < 0.05] = np.nan
    model.invalidate_cache()


group_sizes = st.one_of(st.just(1), st.just(128), st.integers(1, 128))
run_widths = st.one_of(st.integers(1, 12), st.integers(13, 250))
blocks = st.fixed_dictionaries(
    {
        "n_factors": st.sampled_from([5, 8, 16, 50]),
        "mode": st.sampled_from(["normal", "coarse", "coarse", "diverged", "some NaN"]),
        "k": st.integers(1, 12),
        "groups": st.lists(st.tuples(group_sizes, run_widths), min_size=0, max_size=3),
        "one_lo": st.booleans(),
        "held": st.lists(st.sampled_from(["empty", "capped", "free"]), max_size=12),
        "inside": st.floats(0.0, 1.0),
        "event": st.sampled_from([EventType.VIEW, EventType.CONVERSION]),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def draw_block(case, rng):
    """``(query, pools, seen)``: shared groups and held rows, shuffled."""
    source = np.sort(rng.choice(N_ITEMS, size=300, replace=False))
    source.setflags(write=False)
    seen = set()
    rows = []  # (query item, run lo, run hi, held pool); lo = -1: a held row
    runs = []
    for n_rows, width in case["groups"]:
        if case["one_lo"] and runs:  # every group starts where the first does
            lo = runs[0][0]
            width = min(width, source.size - lo)
            if width != runs[0][1]:
                seen.add("two runs of one lo")
        else:
            lo = int(rng.integers(0, source.size - width + 1))
        runs.append((lo, width))
        run = source[lo : lo + width]
        seen.add({1: "a one-row group", 128: "a 128-row group"}.get(n_rows, ""))
        if width <= case["k"] + 1:
            seen.add("a pool of at most k + 1 items")
        for _ in range(n_rows):
            if rng.random() < case["inside"]:
                item = int(rng.choice(run))
                seen.add("own item inside its run")
            else:
                item = int(rng.choice(np.setdiff1d(np.arange(N_ITEMS), run)))
                seen.add("own item outside its run")
            rows.append((item, lo, lo + width, NO_ITEMS))
    for kind in case["held"]:
        item = int(rng.integers(0, N_ITEMS))
        pool = NO_ITEMS
        if kind == "empty":
            seen.add("an empty row")
        elif kind == "capped":  # a run cut short, as a capped row is
            lo = int(rng.integers(0, source.size - 40))
            run = source[lo : lo + int(rng.integers(40, 260))]
            pool = np.sort(rng.choice(run, size=30, replace=False))
            seen.add("a capped row")
        else:
            pool = np.sort(rng.choice(N_ITEMS, size=int(rng.integers(1, 200)), replace=False))
        rows.append((item, -1, -1, pool[pool != item]))
    if case["groups"] and case["held"]:
        seen.add("a mixed block")
    rows = [rows[r] for r in rng.permutation(len(rows))]
    query = np.array([row[0] for row in rows], dtype=np.int64)
    flat = ItemRows.of([row[3] for row in rows])
    at = np.array([r for r, row in enumerate(rows) if row[1] >= 0], dtype=np.int64)
    shared = None
    if at.size:
        lo, hi = (np.array([rows[r][i] for r in at], dtype=np.int64) for i in (1, 2))
        holds = [item in source[a:b] for item, a, b in zip(query[at].tolist(), lo, hi)]
        shared = SharedRuns(at, source, lo, hi, np.where(holds, query[at], -1))
    seen.discard("")
    return query, ItemRows(flat.held_items, flat.held_bounds, shared), seen


def ties(model, query, pools, k, event):
    """Which ties the shared rows' pair-path answers hold."""
    seen = set()
    shared = pools.shared
    if shared is None:
        return seen
    for j, row in enumerate(shared.rows.tolist()):
        pool = shared.source[shared.lo[j] : shared.hi[j]]
        scores = model._score_queries(
            query[row : row + 1], event, pool, np.zeros(pool.size, dtype=np.int64),
            np.array([pool.size]),
        )
        if np.isnan(scores).any():
            seen.add("a NaN score")
        mine = pool == query[row]
        rest = np.sort(scores[~mine])[::-1]
        if rest.size > k and rest[k - 1] == rest[k]:
            seen.add("a tie at the k-th score")
        if mine.any() and rest.size >= k and scores[mine][0] == rest[k - 1]:
            seen.add("a tie with the own item")
    return seen


def test_the_matrix_path_is_the_pair_path_byte_for_byte(monkeypatch):
    drawn = set()
    ranked = []
    rank_runs = base._rank_runs

    def counted(matrix, query, shared, k):
        done = rank_runs(matrix, query, shared, k)
        ranked.append((0 if shared is None else shared.rows.size, done[0].size))
        return done

    monkeypatch.setattr(base, "_rank_runs", counted)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(case=blocks)
    def check(case):
        rng = np.random.default_rng(case["seed"])
        model = model_with(case["n_factors"])
        set_parameters(model, case["mode"], rng)
        k, event = case["k"], case["event"]
        query, pools, seen = draw_block(case, rng)
        materialised = ItemRows.of(list(pools))
        ranked.clear()
        got = model.recommend_batch(query, pools, k, event)
        want = model.recommend_batch(query, materialised, k, event)
        for name in ("items", "scores", "bounds"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        (offered, done), _ = ranked
        if done:
            drawn.add("a group ranked as a matrix")
        if done < offered:
            drawn.add("a group sent to the pair path")
        drawn.update(seen | ties(model, query, pools, k, event))
        drawn.add(f"n_factors={case['n_factors']}")
        if case["mode"] == "diverged":
            drawn.add("a diverged model")

    check()
    assert not CASES - drawn, CASES - drawn


def test_shared_rows_read_as_their_pools():
    """``ItemRows`` keeps its contract with shared rows: each row indexes
    and iterates as its run without its own item (read-only, its own
    array), and ``items`` / ``bounds`` / ``sizes`` are every row end to end."""
    source = np.arange(0, 40, 2)
    source.setflags(write=False)
    shared = SharedRuns(
        np.array([0, 2, 3]), source, np.array([2, 2, 10]), np.array([8, 8, 13]),
        np.array([6, -1, 22]),
    )
    pools = ItemRows(np.array([7, 9, 11]), np.array([0, 0, 0, 0, 0, 3]), shared)
    expected = [[4, 8, 10, 12, 14], [], [4, 6, 8, 10, 12, 14], [20, 24], [7, 9, 11]]
    assert [row.tolist() for row in pools] == expected
    assert [pools[r].tolist() for r in range(len(pools))] == expected
    assert pools.sizes.tolist() == [len(row) for row in expected]
    assert pools.items.tolist() == sum(expected, [])
    assert pools.bounds.tolist() == [0, 5, 5, 11, 13, 16]
    for row in pools:
        assert not row.flags.writeable and not np.may_share_memory(row, source)
    assert not pools.items.flags.writeable


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_model_ranks_shared_rows_as_their_pools(name, small_dataset, trained_model):
    """A model without a matrix scorer materialises the shared rows and
    ranks them pair by pair; BPR ranks them as a matrix.  Either way the
    answer is the one for the materialised pools."""
    model = BUILDERS[name](small_dataset, trained_model)
    source = np.arange(small_dataset.n_items)
    source.setflags(write=False)
    shared = SharedRuns(
        np.array([0, 1, 3]), source, np.array([10, 10, 10]), np.array([60, 60, 60]),
        np.array([12, -1, 59]),
    )
    query = np.array([12, 100, 5, 59])
    pools = ItemRows(np.array([1, 2, 3]), np.array([0, 0, 0, 3, 3]), shared)
    got = model.recommend_batch(query, pools, 10)
    want = model.recommend_batch(query, ItemRows.of(list(pools)), 10)
    assert got.items.tobytes() == want.items.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.bounds.tobytes() == want.bounds.tobytes()


def test_selection_hands_over_shared_runs_as_their_rows():
    """On a cold catalog, taxonomy-ordered blocks hand most view rows over
    by reference — each run to two or more rows asking for at least
    ``SHARED_RUN_PAIRS`` pairs between them — and every row, shared or
    held, is the row a one-row block (never shared) selects."""
    dataset = dataset_from_synthetic(
        generate_retailer(RetailerSpec("cold", n_items=2000, n_users=40, n_events=400, seed=13))
    )
    selector = CandidateSelector(
        dataset.taxonomy,
        CoOccurrenceCounts.from_interactions(dataset.n_items, dataset.train),
        repurchase=RepurchaseDetector(dataset.taxonomy, dataset.train),
    )
    shared_rows = 0
    for block in _item_blocks(dataset.taxonomy, dataset.n_items, 128)[::4]:
        query = np.array(block)
        for read in (selector.batch_view_based, selector.batch_purchase_based):
            pools = read(query)
            shared = pools.shared
            if shared is not None:
                shared_rows += shared.rows.size
                for lo, hi in set(zip(shared.lo.tolist(), shared.hi.tolist())):
                    rows = (shared.lo == lo) & (shared.hi == hi)
                    assert rows.sum() > 1 and rows.sum() * (hi - lo) >= SHARED_RUN_PAIRS
                    assert hi - lo <= selector.max_candidates
            for item, row in zip(block, pools):
                assert row.tolist() == read([item])[0].tolist(), item
    assert shared_rows > 300  # of 512 view and 512 purchase rows
