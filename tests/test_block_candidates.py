"""A block's candidate pools against the frozen set-based selector.

``CandidateSelector.batch_view_based`` / ``batch_purchase_based`` build a
whole block as runs of ``Taxonomy.index()`` (``TaxonomyIndex.expand``);
every row must equal what ``tests/reference_set_candidates.py`` answers
for that item alone, wherever the oracle answers at all (it raises on an
uncategorised seed or query item).  Drawn trees have unequal leaf depths
(the root alone, too), items on inner categories, uncategorised items and
ids past ``index.item_cat``; drawn logs make categories re-purchasable or
leave the co-occurrence tables empty; ``max_candidates`` is small enough
for the ``4 x max_candidates`` early break and for the cap.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.core.inference import _item_blocks
from repro.data.events import EventType, Interaction
from repro.data.taxonomy import Taxonomy
from repro.exceptions import TaxonomyError
from repro.models.base import ItemRows
from repro.retrieval import IVFIndex, exact_for_model
from tests import reference_set_candidates as oracle
from tests.test_retrieval import make_service
from tests.test_taxonomy_index import MAX_ITEM, taxonomies

#: Catalog ids past every id a drawn tree can categorise.
N_ITEMS = MAX_ITEM + 4


def same_rows(pools: ItemRows, expected_by_row) -> None:
    """Row for row what the oracle answers, as sorted int64 arrays."""
    assert isinstance(pools, ItemRows) and pools.items.dtype == np.int64
    assert not pools.items.flags.writeable
    for row, pool in enumerate(pools):
        assert isinstance(pool, np.ndarray) and pool.dtype == np.int64
        expected = expected_by_row(row)
        if expected is not None:
            assert pool.tolist() == expected, row


def answer(pool_of, *args, **kwargs):
    try:
        return pool_of(*args, **kwargs)
    except TaxonomyError:
        return None


@settings(max_examples=120, deadline=None)
@given(
    taxonomy=taxonomies(),
    sessions=st.lists(
        st.lists(st.integers(0, N_ITEMS - 1), min_size=2, max_size=6), max_size=12
    ),
    lca_k=st.integers(0, 3),
    purchase_k=st.integers(0, 2),
    max_candidates=st.sampled_from([1, 2, 3, 5, 1000]),
    co_neighbours=st.sampled_from([1, 3, 20]),
    block=st.lists(st.integers(0, N_ITEMS - 1), max_size=2 * N_ITEMS),
)
def test_block_pools_equal_the_set_selector_row_for_row(
    taxonomy, sessions, lca_k, purchase_k, max_candidates, co_neighbours, block
):
    log = [
        Interaction(float(step), user, item, event)
        for user, session in enumerate(sessions)
        for step, item in enumerate(session)
        for event in (EventType.VIEW, EventType.CONVERSION)[: 1 + (item + user) % 2]
    ]
    selector = CandidateSelector(
        taxonomy=taxonomy,
        counts=CoOccurrenceCounts.from_interactions(N_ITEMS, log),
        # One user buying twice in a category makes it re-purchasable.
        repurchase=RepurchaseDetector(taxonomy, log, min_repeat_users=1),
        view_lca_k=lca_k,
        purchase_lca_k=purchase_k,
        max_candidates=max_candidates,
        co_neighbours=co_neighbours,
    )
    same_rows(
        selector.batch_view_based(block),
        lambda row: answer(oracle.view_based, selector, block[row]),
    )
    same_rows(
        selector.batch_purchase_based(block),
        lambda row: answer(oracle.purchase_based, selector, block[row]),
    )


def chain_of_categories(n_categories: int, per_category: int = 3) -> Taxonomy:
    """Categories ``c0, c1, ...`` under the root, ``per_category`` items
    each (item ``i`` on ``c{i // per_category}``)."""
    taxonomy = Taxonomy()
    for number in range(n_categories):
        taxonomy.add_category(f"c{number}")
        for item in range(number * per_category, (number + 1) * per_category):
            taxonomy.assign_item(item, f"c{number}")
    return taxonomy


def co_viewed_with(query: int, seeds, n_items: int) -> CoOccurrenceCounts:
    """Counts in which ``seeds`` are ``query``'s co-views, strongest first."""
    log = [
        Interaction(float(step), rank * 100 + copy, item, EventType.VIEW)
        for rank, seed in enumerate(seeds)
        for copy in range(len(seeds) - rank)  # the earlier seed, the more users
        for step, item in enumerate((query, seed))
    ]
    return CoOccurrenceCounts.from_interactions(n_items, log)


def uncapped_pool(selector: CandidateSelector, item: int) -> list:
    """``item``'s view pool as the union leaves it, before the cap (which
    would otherwise hide where the union stopped)."""
    uncapped = dataclasses.replace(selector)
    uncapped._cap = lambda query, pool: pool
    (pool,) = uncapped.batch_view_based([item])
    return pool.tolist()


def test_the_early_break_stops_at_the_seed_whose_prefix_crosses():
    """Seeds on ``c0``, ``c1``, ``c2``, ``c3`` (three items each) with
    ``max_candidates = 2``: the union passes 8 at the third seed, so the
    fourth category never joins; at 3 it never passes 12, so all four do."""
    taxonomy = chain_of_categories(4)
    taxonomy.add_category("q")
    taxonomy.assign_item(12, "q")
    counts = co_viewed_with(12, [0, 3, 6, 9], 13)
    assert counts.top_co_viewed(12) == [0, 3, 6, 9]
    selector = CandidateSelector(
        taxonomy=taxonomy, counts=counts, view_lca_k=1, max_candidates=2
    )
    roomy = dataclasses.replace(selector, max_candidates=3)
    for chosen, union in ((selector, list(range(9))), (roomy, list(range(12)))):
        expected = sorted(oracle._expand(chosen, 12, [0, 3, 6, 9], 1))
        assert uncapped_pool(chosen, 12) == union == expected
        (pool,) = chosen.batch_view_based([12])
        assert pool.tolist() == oracle.view_based(chosen, 12)
    # Capped, the break leaves nine items for the cap to cut to two.
    assert selector.batch_view_based([12])[0].tolist() == [0, 3]


def test_a_seed_around_an_earlier_one_replaces_it_in_the_count():
    """Seeds ``a`` (3 items), then ``p`` around it (7), then ``z`` (3),
    with ``max_candidates = 2``: the union is 3, 7, then 10 > 8 at the
    last seed, which is still taken — summing ``a`` and ``p`` would have
    broken at the second and lost ``z``."""
    taxonomy = Taxonomy()
    taxonomy.add_category("p")
    taxonomy.add_category("a", "p")
    taxonomy.add_category("b", "p")
    taxonomy.add_category("z")
    for item, category in enumerate("aaabbbzzzp"):
        taxonomy.assign_item(item, category)
    counts = co_viewed_with(8, [0, 9, 6], 10)
    selector = CandidateSelector(
        taxonomy=taxonomy, counts=counts, view_lca_k=1, max_candidates=2
    )
    union = sorted(oracle._expand(selector, 8, [0, 9, 6], 1))
    assert uncapped_pool(selector, 8) == [0, 1, 2, 3, 4, 5, 6, 7, 9] == union
    (pool,) = selector.batch_view_based([8])
    assert pool.tolist() == oracle.view_based(selector, 8)


def test_ranking_a_block_of_pools_equals_ranking_their_list(trained_model, small_dataset):
    """``recommend_batch`` takes a block's flat arrays as they are; a plain
    list of the same rows is flattened once and ranks byte for byte alike."""
    counts = CoOccurrenceCounts.from_interactions(small_dataset.n_items, small_dataset.train)
    selector = CandidateSelector(small_dataset.taxonomy, counts)
    items = list(range(0, small_dataset.n_items, 3))
    for pools in (selector.batch_view_based(items), selector.batch_purchase_based(items)):
        for event in (EventType.VIEW, EventType.CONVERSION):
            flat = trained_model.recommend_batch(items, pools, k=7, event=event)
            listed = trained_model.recommend_batch(items, list(pools), k=7, event=event)
            for mine, theirs in zip(
                (flat.items, flat.scores, flat.bounds),
                (listed.items, listed.scores, listed.bounds),
            ):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_block_neighbours_are_the_per_item_rankings():
    """The CSR ``top_co_*_block`` reads is the per-item ranking: strongest
    first, equal counts in insertion order, ids past the table empty."""
    VIEW, BUY = EventType.VIEW, EventType.CONVERSION
    log = [
        Interaction(float(t), user, item, event)
        for t, (user, item, event) in enumerate(
            [(0, 1, VIEW), (0, 2, VIEW), (0, 3, BUY), (1, 1, BUY), (1, 3, BUY), (1, 4, VIEW),
             (2, 4, VIEW), (2, 1, VIEW)]
        )
    ]
    counts = CoOccurrenceCounts.from_interactions(5, log)
    assert counts.top_co_bought(1) and counts.top_co_viewed(4)
    query = np.array([1, 4, 0, 7, 3, 1])
    for block, single, table in (
        (counts.top_co_viewed_block, counts.top_co_viewed, counts.co_viewed),
        (counts.top_co_bought_block, counts.top_co_bought, counts.co_bought),
    ):
        for k in (0, 1, 2, 20):
            rows, seeds = block(query, k)
            assert np.all(np.diff(rows) >= 0)
            for row, item in enumerate(query.tolist()):
                pairs = sorted(table(item).items(), key=lambda pair: pair[1], reverse=True)
                ranked = [neighbour for neighbour, _ in pairs]
                assert seeds[rows == row].tolist() == single(item, k) == ranked[:k]


def test_a_repurchasable_category_keeps_its_substitutes():
    """Two users bought twice on ``a``, nobody twice on ``b``: with the
    detector ``a`` is re-purchasable, so item 0's purchase pool keeps its
    category mates; without one they are stripped.  Item 4's pool has
    nothing of ``b`` to strip either way."""
    taxonomy = Taxonomy()
    for category in "ab":
        taxonomy.add_category(category)
    for item, category in enumerate("aaabbb"):
        taxonomy.assign_item(item, category)
    bought = [(1, 0), (1, 1), (1, 3), (2, 0), (2, 2), (3, 4), (3, 0)]
    log = [
        Interaction(float(t), user, item, EventType.CONVERSION)
        for t, (user, item) in enumerate(bought)
    ]
    detector = RepurchaseDetector(taxonomy, log, min_repeat_users=1)
    assert detector.repurchasable_categories() == ["a"]
    counts = CoOccurrenceCounts.from_interactions(6, log)
    pools = {}
    for name, repurchase in (("detector", detector), ("none", None)):
        selector = CandidateSelector(
            taxonomy=taxonomy, counts=counts, repurchase=repurchase
        )
        rows = selector.batch_purchase_based([0, 4])
        for row, item in enumerate((0, 4)):
            assert rows[row].tolist() == oracle.purchase_based(selector, item)
        pools[name] = [row.tolist() for row in rows]
    assert pools["detector"] == [[1, 2, 3, 4, 5], [0, 1, 2]]
    assert pools["none"] == [[3, 4, 5], [0, 1, 2]]


def test_retrieval_pools_are_the_masked_sorted_stripped_neighbour_rows(
    trained_model, small_dataset
):
    """The ANN branch: each row is its probe's ids without padding or the
    query item, sorted, substitutes stripped on the purchase surface
    unless the category is re-purchasable, capped only past
    ``max_candidates`` — what the per-row code it replaced built."""
    counts = CoOccurrenceCounts.from_interactions(small_dataset.n_items, small_dataset.train)
    for max_candidates in (1000, 7):
        selector = CandidateSelector(
            taxonomy=small_dataset.taxonomy,
            counts=counts,
            repurchase=RepurchaseDetector(small_dataset.taxonomy, small_dataset.train, 1),
            retrieval=exact_for_model(trained_model),
            retrieval_k=20,
            max_candidates=max_candidates,
        )
        items = list(range(0, small_dataset.n_items, 5))
        ids = selector.retrieval.neighbours_items(np.array(items), 20)
        views, buys = selector.batch_view_based(items), selector.batch_purchase_based(items)
        stripped = 0
        for item, row, view, buy in zip(items, ids.tolist(), views, buys):
            near = {c for c in row if c >= 0 and c != item}
            assert view.tolist() == oracle._cap(selector, item, near)
            if not oracle._repurchasable(selector, item):
                substitutes = set(small_dataset.taxonomy.lca_k(item, selector.purchase_lca_k))
                stripped += len(near & substitutes)
                near -= substitutes
            assert buy.tolist() == oracle._cap(selector, item, near)
        assert stripped


def test_an_indexed_inference_run_draws_one_neighbour_pass_per_block(monkeypatch):
    """The mapper hands one neighbour pass to both surface readers: one
    ``IVFIndex.neighbours`` call per block, no ranked ``search``, and each
    block's pools equal what either reader builds called alone."""
    service = make_service(n_retailers=1, retrieval_threshold=1)
    service.run_day()
    adapter = service.journal.task_payload(0, "retrieval", "r0")["index"]
    assert adapter.backend_name == "ivf"
    service.inference.block_size = 8
    log = {name: [] for name in ("neighbours", "search", "view", "purchase")}

    def spy(owner, name, calls):
        method = getattr(owner, name)

        def logged(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            calls.append((args, result))
            return result

        monkeypatch.setattr(owner, name, logged)

    spy(IVFIndex, "neighbours", log["neighbours"])
    spy(IVFIndex, "search", log["search"])
    spy(CandidateSelector, "batch_view_based", log["view"])
    spy(CandidateSelector, "batch_purchase_based", log["purchase"])
    datasets = dict(service._datasets)
    results, _, failed = service.inference.run_cell(
        "cell", datasets, day=1, retrieval={"r0": adapter}
    )
    monkeypatch.undo()
    assert not failed and set(results) == {"r0"}
    blocks = _item_blocks(datasets["r0"].taxonomy, datasets["r0"].n_items, 8)
    assert len(blocks) > 1
    assert len(log["neighbours"]) == len(blocks) and not log["search"]
    selector = service.inference.selector_of("r0")
    assert selector.retrieval is adapter
    for surface in ("view", "purchase"):
        assert sorted(tuple(args[0]) for args, _ in log[surface]) == sorted(blocks)
        alone = getattr(selector, f"batch_{surface}_based")
        for (items, *_), got in log[surface]:
            want = alone(list(items))
            assert np.array_equal(got.items, want.items)
            assert np.array_equal(got.bounds, want.bounds)
