"""Unit and property tests for the taxonomy tree and LCA distances."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.taxonomy import ROOT_CATEGORY, Taxonomy, path_distance, random_taxonomy
from repro.exceptions import TaxonomyError
from tests.reference_taxonomy_walk import lca_distance


def paper_taxonomy() -> Taxonomy:
    """The exact tree of paper Fig. 3 (cell phones)."""
    t = Taxonomy()
    t.add_category("cell_phones", ROOT_CATEGORY)
    t.add_category("smart_phones", "cell_phones")
    t.add_category("other", "cell_phones")
    t.add_category("android", "smart_phones")
    t.add_category("apple", "smart_phones")
    # Items: 0=Nexus 6P, 1=Nexus 5X, 2=iPhone 6, 3=other-phone
    t.assign_item(0, "android")
    t.assign_item(1, "android")
    t.assign_item(2, "apple")
    t.assign_item(3, "other")
    return t


class TestTreeConstruction:
    def test_root_exists_by_default(self):
        t = Taxonomy()
        assert ROOT_CATEGORY in list(t.categories())
        assert t.depth_of(ROOT_CATEGORY) == 0

    def test_add_category_tracks_depth_and_parent(self):
        t = Taxonomy()
        t.add_category("a")
        t.add_category("b", "a")
        assert t.depth_of("b") == 2
        assert t.parent_of("b") == "a"
        assert t.children_of("a") == ("b",)

    def test_duplicate_category_rejected(self):
        t = Taxonomy()
        t.add_category("a")
        with pytest.raises(TaxonomyError):
            t.add_category("a")

    def test_unknown_parent_rejected(self):
        t = Taxonomy()
        with pytest.raises(TaxonomyError):
            t.add_category("a", "nope")

    def test_assign_item_and_reassign(self):
        t = Taxonomy()
        t.add_category("a")
        t.add_category("b")
        t.assign_item(0, "a")
        assert t.category_of(0) == "a"
        t.assign_item(0, "b")
        assert t.category_of(0) == "b"
        assert 0 not in t.items_in("a")
        assert 0 in t.items_in("b")

    def test_assign_to_unknown_category_rejected(self):
        t = Taxonomy()
        with pytest.raises(TaxonomyError):
            t.assign_item(0, "missing")

    def test_item_without_category_raises(self):
        t = Taxonomy()
        with pytest.raises(TaxonomyError):
            t.category_of(5)

    def test_leaves(self):
        t = paper_taxonomy()
        assert set(t.leaves()) == {"android", "apple", "other"}


class TestAncestorsAndLca:
    def test_ancestors_path_to_root(self):
        t = paper_taxonomy()
        assert t.ancestors("android") == [
            "android",
            "smart_phones",
            "cell_phones",
            ROOT_CATEGORY,
        ]

    def test_ancestors_exclude_self(self):
        t = paper_taxonomy()
        assert t.ancestors("android", include_self=False)[0] == "smart_phones"

    def test_lca_siblings(self):
        t = paper_taxonomy()
        assert t.lca("android", "apple") == "smart_phones"

    def test_lca_with_self(self):
        t = paper_taxonomy()
        assert t.lca("android", "android") == "android"

    def test_lca_ancestor_descendant(self):
        t = paper_taxonomy()
        assert t.lca("cell_phones", "android") == "cell_phones"

    def test_paper_figure3_distances(self):
        """The exact numbers from paper Fig. 3: distance(Nexus 5X,
        Nexus 6P)=1, distance(5X, iPhone 6)=2, distance(5X, other)=3."""
        t = paper_taxonomy()
        assert lca_distance(t, 1, 0) == 1
        assert lca_distance(t, 1, 2) == 2
        assert lca_distance(t, 1, 3) == 3
        assert lca_distance(t, 0, 1) == 1  # symmetric
        paths = t.index().item_path  # what the samplers read
        assert [path_distance(paths[1], paths[other]) for other in (0, 2, 3)] == [1, 2, 3]

    def test_distance_zero_only_for_identical_items(self):
        t = paper_taxonomy()
        assert lca_distance(t, 0, 0) == 0
        assert lca_distance(t, 0, 1) == 1  # same category is distance 1

    def test_ancestor_at_distance_clamps_at_root(self):
        t = paper_taxonomy()
        assert t.ancestor_at_distance("android", 1) == "smart_phones"
        assert t.ancestor_at_distance("android", 99) == ROOT_CATEGORY


class TestLcaK:
    def test_lca0_is_the_item_itself(self):
        t = paper_taxonomy()
        assert t.lca_k(0, 0) == [0]

    def test_lca1_is_same_category(self):
        """Paper: 'items at lca1, i.e., other Android phones'."""
        t = paper_taxonomy()
        assert sorted(t.lca_k(0, 1)) == [0, 1]

    def test_lca2_is_all_smart_phones(self):
        t = paper_taxonomy()
        assert sorted(t.lca_k(0, 2)) == [0, 1, 2]

    def test_lca3_is_all_cell_phones(self):
        t = paper_taxonomy()
        assert sorted(t.lca_k(0, 3)) == [0, 1, 2, 3]

    def test_negative_k_rejected(self):
        t = paper_taxonomy()
        with pytest.raises(TaxonomyError):
            t.lca_k(0, -1)

    def test_lca_k_monotone_in_k(self):
        t = random_taxonomy(60, depth=3, fanout=3, seed=5)
        for item in (0, 10, 59):
            previous = set()
            for k in range(4):
                current = set(t.lca_k(item, k))
                assert previous <= current
                previous = current


class TestRandomTaxonomy:
    def test_all_items_assigned(self):
        t = random_taxonomy(100, depth=3, fanout=4, seed=1)
        assert t.num_items == 100
        for item in range(100):
            assert t.has_item(item)

    def test_items_attach_to_leaves(self):
        t = random_taxonomy(50, depth=2, fanout=3, seed=2)
        leaves = set(t.leaves())
        for item in range(50):
            assert t.category_of(item) in leaves

    def test_deterministic_per_seed(self):
        a = random_taxonomy(40, seed=9)
        b = random_taxonomy(40, seed=9)
        assert [a.category_of(i) for i in range(40)] == [
            b.category_of(i) for i in range(40)
        ]

    def test_invalid_shape_rejected(self):
        with pytest.raises(TaxonomyError):
            random_taxonomy(10, depth=0)
        with pytest.raises(TaxonomyError):
            random_taxonomy(10, fanout=0)

    def test_category_count(self):
        t = random_taxonomy(10, depth=2, fanout=3, seed=0)
        # root + 3 + 9
        assert t.num_categories == 13


@settings(max_examples=25, deadline=None)
@given(
    n_items=st.integers(min_value=2, max_value=60),
    depth=st.integers(min_value=1, max_value=3),
    fanout=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_lca_distance_is_metric_like(n_items, depth, fanout, seed):
    """LCA distance is symmetric, non-negative, bounded by depth, and
    zero only within one category."""
    t = random_taxonomy(n_items, depth=depth, fanout=fanout, seed=seed)
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(10):
        a, b = int(rng.integers(n_items)), int(rng.integers(n_items))
        d_ab = lca_distance(t, a, b)
        assert d_ab == lca_distance(t, b, a)
        assert 0 <= d_ab <= depth + 1
        if d_ab == 0:
            assert a == b


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=0, max_value=3),
)
def test_property_lca_k_members_within_distance(seed, k):
    """Every member of lca_k(i) really is within LCA distance k of i."""
    t = random_taxonomy(40, depth=3, fanout=3, seed=seed)
    item = seed % 40
    for member in t.lca_k(item, k):
        assert lca_distance(t, item, member) <= k
