"""``Taxonomy.index()`` against the walks it replaced.

Every answer ``Taxonomy`` gives from its index — and every table the
model, the candidate selector and the samplers read off it — is compared
with ``tests/reference_taxonomy_walk.py`` on drawn trees: ragged depth,
items on inner categories, uncategorised and re-assigned items, category
ids whose sorted order is not their insertion order.  The selector's
pools are compared with the set-based selector they replaced
(``tests/reference_set_candidates.py``).
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector
from repro.core.config import ConfigRecord
from repro.core.training import TrainerSettings, train_config
from repro.data.catalog import Catalog, Item
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType, Interaction
from repro.data.generator import MarketplaceSpec, generate_marketplace
from repro.data.sessions import UserContext
from repro.data.taxonomy import ROOT_CATEGORY, Taxonomy, path_distance
from repro.exceptions import TaxonomyError
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.negatives import CompositeNegativeSampler, TaxonomyAwareSampler
from tests import reference_set_candidates as set_selector
from tests import reference_taxonomy_walk as reference

MAX_ITEM = 24


@st.composite
def taxonomies(draw) -> Taxonomy:
    taxonomy = Taxonomy()
    names = [ROOT_CATEGORY]
    for serial in range(draw(st.integers(0, 12))):
        parent = names[draw(st.integers(0, len(names) - 1))]
        # A drawn leading letter: sorted order != insertion order, and
        # some ids sort before "root", some after.
        name = f"{draw(st.sampled_from('amz'))}{serial}"
        taxonomy.add_category(name, parent)
        names.append(name)
    # A repeated item is a re-assignment; an item never drawn stays
    # uncategorised.
    for item, slot in draw(
        st.lists(st.tuples(st.integers(0, MAX_ITEM), st.integers(0, 12)), max_size=60)
    ):
        taxonomy.assign_item(item, names[slot % len(names)])
    return taxonomy


def categories_of(taxonomy: Taxonomy) -> List[str]:
    return list(taxonomy.categories())


def check_against_the_walks(taxonomy: Taxonomy) -> None:
    names = categories_of(taxonomy)
    index = taxonomy.index()
    assert index.categories == tuple(sorted(names))
    for a in names:
        for include_self in (True, False):
            assert taxonomy.ancestors(a, include_self) == reference.ancestors(
                taxonomy, a, include_self
            )
        for k in (-1, 0, 1, 2, 3, 7):
            assert taxonomy.ancestor_at_distance(a, k) == (
                reference.ancestor_at_distance(taxonomy, a, k)
            )
        for b in names:
            assert taxonomy.lca(a, b) == reference.lca(taxonomy, a, b)
            # Pre-order numbers: two integer compares say "a is b or above it".
            number_a, number_b = index.number[a], index.number[b]
            assert (
                index.enter[number_a] <= index.enter[number_b] < index.exit[number_a]
            ) == (a in reference.ancestors(taxonomy, b))
        walked = reference.items_in(taxonomy, a, include_descendants=True)
        assert taxonomy.items_in(a, include_descendants=True) == walked
        assert taxonomy.items_in(a) == reference.items_in(taxonomy, a)
        subtree = index.subtree(index.number[a])
        assert subtree.dtype == np.int64 and not subtree.flags.writeable
        assert subtree.tolist() == sorted(walked)
    for item in range(MAX_ITEM + 2):
        if not taxonomy.has_item(item):
            with pytest.raises(TaxonomyError, match=f"item {item} has no category"):
                taxonomy.lca_k(item, 1)
            with pytest.raises(TaxonomyError, match=f"item {item} has no category"):
                index.item_path[item]
            continue
        assert taxonomy.item_ancestors(item) == reference.item_ancestors(taxonomy, item)
        for k in range(5):
            # As a list: the generator draws companions from it by position.
            assert taxonomy.lca_k(item, k) == reference.lca_k(taxonomy, item, k)
        for other in range(MAX_ITEM + 1):
            if taxonomy.has_item(other) and other != item:
                assert path_distance(index.item_path[item], index.item_path[other]) == (
                    reference.lca_distance(taxonomy, item, other)
                )


@settings(max_examples=120, deadline=None)
@given(taxonomy=taxonomies())
def test_every_answer_equals_the_walk(taxonomy):
    check_against_the_walks(taxonomy)


@settings(max_examples=60, deadline=None)
@given(taxonomy=taxonomies(), item=st.integers(0, MAX_ITEM), data=st.data())
def test_a_mutation_drops_the_index(taxonomy, item, data):
    before = taxonomy.index()
    assert taxonomy.index() is before  # built once
    target = data.draw(st.sampled_from(categories_of(taxonomy)))
    taxonomy.assign_item(item, target)
    assert taxonomy.index() is not before
    check_against_the_walks(taxonomy)
    before = taxonomy.index()
    taxonomy.add_category("b-new", target)  # renumbers what sorts after it
    taxonomy.assign_item(MAX_ITEM, "b-new")
    assert taxonomy.index() is not before
    check_against_the_walks(taxonomy)


@settings(max_examples=40, deadline=None)
@given(taxonomy=taxonomies())
def test_a_copy_has_its_own_index(taxonomy):
    original = taxonomy.index()
    duplicate = taxonomy.copy()
    kept = duplicate.index()
    assert kept is not original
    expected = {
        name: duplicate.items_in(name, include_descendants=True)
        for name in categories_of(duplicate)
    }
    taxonomy.add_category("b-new")
    taxonomy.assign_item(MAX_ITEM + 1, "b-new")
    taxonomy.assign_item(0, "b-new")
    assert duplicate.index() is kept
    assert "b-new" not in kept.number
    for name, members in expected.items():
        assert duplicate.items_in(name, include_descendants=True) == members
    check_against_the_walks(duplicate)


@settings(max_examples=20, deadline=None)
@given(taxonomy=taxonomies())
def test_the_index_does_not_cross_a_pipe(taxonomy):
    taxonomy.index()
    received = pickle.loads(pickle.dumps(taxonomy))
    assert received._index is None
    assert taxonomy._index is not None  # sending it did not drop ours
    check_against_the_walks(received)


def catalog_of(n_items: int) -> Catalog:
    return Catalog(
        "shop",
        [Item(f"shop-{index}", index, ROOT_CATEGORY) for index in range(n_items)],
    )


@settings(max_examples=60, deadline=None)
@given(
    taxonomy=taxonomies(),
    n_items=st.integers(1, MAX_ITEM + 6),  # fewer and more rows than the taxonomy has items
    use_taxonomy=st.booleans(),
)
def test_feature_maps_equal_the_per_item_loop(taxonomy, n_items, use_taxonomy):
    params = BPRHyperParams(n_factors=2, use_taxonomy=use_taxonomy)
    model = BPRModel(catalog_of(n_items), taxonomy, params)
    table, counts = reference.feature_maps(taxonomy, n_items, use_taxonomy)
    for built, expected in ((model._item_ancestors, table), (model._anc_counts, counts)):
        assert built.dtype == expected.dtype and built.shape == expected.shape
        assert built.tobytes() == expected.tobytes()
    rows = taxonomy.num_categories if use_taxonomy else 0
    assert model.taxonomy_embeddings.shape == (rows, 2)


# ----------------------------------------------------------------------
# The selector reads the index per call, so a mutation reaches every pool
# ----------------------------------------------------------------------
def shelf() -> Tuple[Taxonomy, CandidateSelector]:
    """``root -> p -> {a, b}``, ``root -> q``; items 0-3 on ``a``, 6 on ``b``,
    7 on ``q``; item 0 co-viewed with 6 and 7, so its union has two roots."""
    taxonomy = Taxonomy()
    taxonomy.add_category("p")
    taxonomy.add_category("a", "p")
    taxonomy.add_category("b", "p")
    taxonomy.add_category("q")
    for item in range(4):
        taxonomy.assign_item(item, "a")
    taxonomy.assign_item(6, "b")
    taxonomy.assign_item(7, "q")
    log = [
        Interaction(float(t), user, item, EventType.VIEW)
        for t, (user, item) in enumerate([(1, 0), (1, 6), (2, 0), (2, 7)])
    ]
    selector = CandidateSelector(
        taxonomy=taxonomy,
        counts=CoOccurrenceCounts.from_interactions(10, log),
        view_lca_k=1,
    )
    return taxonomy, selector


def both_paths(selector: CandidateSelector, item: int) -> List[int]:
    """The selector's pools for ``item`` beside the frozen set-based selector's."""
    single = set_selector.view_based(selector, item)
    assert selector.batch_view_based([item])[0].tolist() == single
    bought = set_selector.purchase_based(selector, item)
    assert selector.batch_purchase_based([item])[0].tolist() == bought
    return single


def test_selector_paths_agree_after_the_taxonomy_changes():
    taxonomy, selector = shelf()
    assert both_paths(selector, 1) == [0, 2, 3]  # cold: its own category
    assert both_paths(selector, 0) == [6, 7]  # the union of two subtrees
    taxonomy.assign_item(4, "a")
    taxonomy.assign_item(8, "q")
    assert both_paths(selector, 1) == [0, 2, 3, 4]
    assert both_paths(selector, 0) == [6, 7, 8]
    taxonomy.assign_item(3, "q")  # re-assignment
    assert both_paths(selector, 1) == [0, 2, 4]
    assert both_paths(selector, 0) == [3, 6, 7, 8]
    taxonomy.add_category("0-sorts-first", "b")  # every number moves up one
    taxonomy.assign_item(5, "0-sorts-first")
    taxonomy.assign_item(6, "0-sorts-first")
    assert both_paths(selector, 1) == [0, 2, 4]
    assert both_paths(selector, 0) == [3, 5, 6, 7, 8]


@settings(max_examples=80, deadline=None)
@given(
    taxonomy=taxonomies(),
    sessions=st.lists(
        st.lists(st.integers(0, MAX_ITEM), min_size=2, max_size=5), max_size=12
    ),
    view_k=st.integers(0, 3),
    purchase_k=st.integers(0, 2),
    max_candidates=st.sampled_from([1, 3, 1000]),
)
def test_pools_equal_the_set_selector_wherever_it_answers(
    taxonomy, sessions, view_k, purchase_k, max_candidates
):
    """Drawn trees leave items uncategorised: the set-based selector raised
    on one as a seed or a query item, the selector answers (below)."""
    log = [
        Interaction(float(step), user, item, event)
        for user, session in enumerate(sessions)
        for step, item in enumerate(session)
        for event in (EventType.VIEW, EventType.CONVERSION)[: 1 + (item + user) % 2]
    ]
    items = [Item(f"shop-{index}", index, ROOT_CATEGORY) for index in range(MAX_ITEM + 1)]
    selector = CandidateSelector(
        taxonomy=taxonomy,
        counts=CoOccurrenceCounts.from_interactions(len(items), log),
        view_lca_k=view_k,
        purchase_lca_k=purchase_k,
        max_candidates=max_candidates,
    )
    block = list(range(len(items)))
    for pool, rows in (
        ("view_based", selector.batch_view_based(block)),  # never raises
        ("purchase_based", selector.batch_purchase_based(block)),
    ):
        for item, row in zip(block, rows):
            answer = row.tolist()
            assert item not in answer and answer == sorted(set(answer))
            try:
                expected = getattr(set_selector, pool)(selector, item)
            except TaxonomyError:
                continue
            assert answer == expected


def test_an_uncategorised_item_is_its_own_neighbourhood():
    """Item 8 is on no category: as a seed it expands to itself, as a
    query item it has no substitutes to strip; ``lca_k`` / ``lca_root``
    still refuse it."""
    taxonomy, selector = shelf()
    log = [
        Interaction(float(t), user, item, EventType.CONVERSION)
        for t, (user, item) in enumerate([(1, 0), (1, 8), (2, 8), (2, 7), (2, 6)])
    ]
    selector.counts = CoOccurrenceCounts.from_interactions(10, log)
    views = selector.batch_view_based([0, 8, 9])
    assert views[0].tolist() == [8]  # the seed itself
    assert selector.batch_purchase_based([0])[0].tolist() == [8]
    assert views[1].tolist() == [0, 1, 2, 3, 6, 7]  # its seeds' categories
    # Nothing stripped as the query item.
    assert selector.batch_purchase_based([8])[0].tolist() == [0, 1, 2, 3, 6, 7]
    assert views[2].tolist() == []  # cold and uncategorised
    with pytest.raises(TaxonomyError, match="item 8 has no category"):
        set_selector.view_based(selector, 0)  # 8 as a seed
    with pytest.raises(TaxonomyError, match="item 8 has no category"):
        set_selector.purchase_based(selector, 8)  # 8 as the query item
    with pytest.raises(TaxonomyError, match="item 8 has no category"):
        taxonomy.index().lca_root(8, 1)


def test_a_selection_pass_leaves_one_array_per_category():
    """A union of several subtrees is its caller's: after every pool of a
    2 000-item retailer at ``MarketplaceSpec``'s default density the index
    keeps what its tree bounds, not what its traffic was (the union memo
    kept 2 433 arrays, 11.8 MB, here against a 64 KB bound — 157 MB at
    12 000 items).  What it keeps is every category's sorted subtree end
    to end (``member_items``: one entry per (item, level)) and one further
    per-tree table, ``member_rank`` (one entry per (item, level) too)."""
    (retailer,) = generate_marketplace(
        MarketplaceSpec(n_retailers=1, median_items=2000, sigma_items=0.0, seed=3)
    )
    dataset = dataset_from_synthetic(retailer)
    assert dataset.n_items == 2000
    selector = CandidateSelector(
        taxonomy=dataset.taxonomy,
        counts=CoOccurrenceCounts.from_interactions(dataset.n_items, dataset.train),
    )
    index = dataset.taxonomy.index()

    def tables():
        return {
            name: (value.shape, value.nbytes)
            for name, value in vars(index).items()
            if isinstance(value, np.ndarray)
        }

    before = tables()
    items = list(range(dataset.n_items))
    pools = list(selector.batch_view_based(items)) + list(selector.batch_purchase_based(items))
    assert sum(pool.size for pool in pools) > 100 * len(pools)  # a real pass
    assert tables() == before  # nothing built for the traffic
    levels = int(index.cat_depth.max()) + 1
    assert index.member_items.nbytes <= 8 * dataset.n_items * levels
    assert index.member_rank.nbytes <= 8 * dataset.n_items * levels
    # What is kept is shared and frozen; every pool is its caller's own.
    kept = (index.member_items, index.member_bounds, index.member_rank)
    assert not any(array.flags.writeable for array in kept)
    assert not any(np.may_share_memory(pool, index.member_items) for pool in pools)


# ----------------------------------------------------------------------
# An uncategorised item does not fail a draw
# ----------------------------------------------------------------------
def context(*items: int) -> UserContext:
    return UserContext(tuple(items), tuple(EventType.VIEW for _ in items))


def far_apart() -> Taxonomy:
    """Items 0-1 on ``a``, 2 on ``b`` (distance 2 apart), 3-5 uncategorised."""
    taxonomy = Taxonomy()
    taxonomy.add_category("a")
    taxonomy.add_category("b")
    taxonomy.assign_item(0, "a")
    taxonomy.assign_item(1, "a")
    taxonomy.assign_item(2, "b")
    return taxonomy


@pytest.mark.parametrize(
    "build",
    [
        lambda taxonomy: TaxonomyAwareSampler(6, taxonomy, min_distance=2),
        lambda taxonomy: CompositeNegativeSampler(
            6, taxonomy=taxonomy, min_lca_distance=2
        ),
    ],
    ids=["taxonomy-aware", "composite"],
)
def test_samplers_put_no_distance_constraint_on_an_uncategorised_item(build):
    taxonomy = far_apart()
    sampler = build(taxonomy)
    rng = np.random.default_rng(7)
    # Categorised positive: its category-mate is still rejected, the
    # uncategorised candidates are now drawable.
    draws = {sampler.sample(context(), 0, rng) for _ in range(300)}
    assert draws == {2, 3, 4, 5}
    # Uncategorised positive: anything but itself.
    draws = {sampler.sample(context(), 4, rng) for _ in range(300)}
    assert draws == {0, 1, 2, 3, 5}
    with pytest.raises(TaxonomyError):
        reference.lca_distance(taxonomy, 0, 4)  # the distance itself has no answer


def test_taxonomy_aware_sampler_keeps_its_draw_sequence(small_dataset):
    """Draw for draw what rejection on the walked distance gives (the
    composite sampler has ``tests/test_batched_sgd_bit_identity.py``)."""
    taxonomy, n_items = small_dataset.taxonomy, small_dataset.n_items

    class Walking(TaxonomyAwareSampler):
        def _lca_at_least(self, distance, candidate, positive):
            return reference.lca_distance(taxonomy, candidate, positive) >= distance

    bound, walking = TaxonomyAwareSampler(n_items, taxonomy), Walking(n_items, taxonomy)
    fast, slow = np.random.default_rng(11), np.random.default_rng(11)
    for positive in range(n_items):
        seen = context((positive + 1) % n_items)
        assert bound.sample(seen, positive, fast) == walking.sample(seen, positive, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_train_config_on_a_taxonomy_with_no_items(tiny_dataset):
    bare = dataclasses.replace(tiny_dataset, taxonomy=Taxonomy())
    config = ConfigRecord(bare.retailer_id, 0, BPRHyperParams(n_factors=4, seed=3))
    settings_ = TrainerSettings(max_epochs_full=1)
    assert settings_.sampler == "taxonomy"  # the default the fleet runs
    model, output = train_config(config, bare, settings_)
    assert output.epochs_run == 1
    assert model._item_ancestors.shape == (bare.n_items, 0)


def test_a_negative_item_index_is_refused():
    taxonomy = far_apart()
    with pytest.raises(TaxonomyError, match="negative"):
        taxonomy.assign_item(-1, "a")  # would alias the last row of ``item_cat``
    assert taxonomy.index().item_cat.tolist() == [0, 0, 1]
