"""Tests for candidate selection, re-purchase detection, and bin packing."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.binpack import (
    contiguous_partition,
    first_fit_decreasing,
    load_balance_ratio,
    makespan,
)
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.data.events import EventType, Interaction
from repro.exceptions import SigmundError


@pytest.fixture(scope="module")
def selector(small_dataset):
    counts = CoOccurrenceCounts.from_interactions(
        small_dataset.n_items, small_dataset.train
    )
    detector = RepurchaseDetector(small_dataset.taxonomy, small_dataset.train)
    return CandidateSelector(
        taxonomy=small_dataset.taxonomy,
        counts=counts,
        catalog=small_dataset.catalog,
        repurchase=detector,
    )


class TestViewBased:
    def test_excludes_query_item(self, selector, small_dataset):
        items = list(range(0, small_dataset.n_items, 17))
        for item, pool in zip(items, selector.batch_view_based(items)):
            assert item not in pool

    def test_candidates_capped(self, small_dataset):
        counts = CoOccurrenceCounts.from_interactions(
            small_dataset.n_items, small_dataset.train
        )
        tight = CandidateSelector(
            taxonomy=small_dataset.taxonomy,
            counts=counts,
            catalog=small_dataset.catalog,
            max_candidates=10,
        )
        assert tight.batch_view_based([0])[0].size <= 10

    def test_larger_k_larger_coverage(self, selector):
        small_k = set(replace(selector, view_lca_k=1).batch_view_based([0])[0].tolist())
        large_k = set(replace(selector, view_lca_k=3).batch_view_based([0])[0].tolist())
        assert len(large_k) >= len(small_k)

    def test_cold_item_falls_back_to_taxonomy(self, selector, small_dataset):
        """An item nobody interacted with still gets candidates."""
        cold_items = set(range(small_dataset.n_items)) - set(
            small_dataset.interacted_items()
        )
        if not cold_items:
            pytest.skip("all items interacted in this fixture")
        cold = min(cold_items)
        candidates = selector.batch_view_based([cold])[0]
        assert candidates.size, "cold item must get taxonomy-based candidates"


class TestPurchaseBased:
    def test_excludes_query_and_substitutes(self, selector, small_dataset):
        item = 0
        candidates = selector.batch_purchase_based([item])[0].tolist()
        assert item not in candidates
        category = small_dataset.taxonomy.category_of(item)
        is_repurchasable = (
            selector.repurchase is not None
            and selector.repurchase.is_repurchasable(category)
        )
        if not is_repurchasable:
            substitutes = set(small_dataset.taxonomy.lca_k(item, 1))
            assert not (set(candidates) & substitutes)

    def test_repurchasable_categories_keep_substitutes(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        # Fabricate a repurchase-heavy log for category of item 0.
        category = taxonomy.category_of(0)
        peers = [i for i in taxonomy.items_in(category) if i != 0]
        if not peers:
            pytest.skip("category of item 0 has a single item")
        log = []
        t = 0.0
        for user in (1, 2, 3):
            for _ in range(3):
                log.append(Interaction(t, user, 0, EventType.CONVERSION))
                t += 1.0
                log.append(Interaction(t, user, peers[0], EventType.CONVERSION))
                t += 1.0
        counts = CoOccurrenceCounts.from_interactions(small_dataset.n_items, log)
        detector = RepurchaseDetector(taxonomy, log)
        assert detector.is_repurchasable(category)
        selector = CandidateSelector(
            taxonomy=taxonomy,
            counts=counts,
            catalog=small_dataset.catalog,
            repurchase=detector,
        )
        candidates = selector.batch_purchase_based([0])[0].tolist()
        assert peers[0] in candidates  # substitute NOT removed


class TestBlockReaders:
    """What holds for both readers of a block: one row per item, in order."""

    @pytest.mark.parametrize("surface", ["view", "purchase"])
    def test_an_empty_block_has_no_rows(self, selector, surface):
        pools = getattr(selector, f"batch_{surface}_based")([])
        assert len(pools) == 0 and pools.items.size == 0

    @pytest.mark.parametrize("surface", ["view", "purchase"])
    def test_a_repeated_item_gets_its_own_row_each_time(self, selector, surface):
        read = getattr(selector, f"batch_{surface}_based")
        alone = {item: read([item])[0].tolist() for item in (5, 9)}
        block = [5, 9, 5, 9, 5]
        assert [row.tolist() for row in read(block)] == [alone[i] for i in block]


class TestRepurchaseDetector:
    def purchase_log(self):
        return [
            Interaction(0.0, 1, 0, EventType.CONVERSION),
            Interaction(10.0, 1, 0, EventType.CONVERSION),
            Interaction(20.0, 1, 0, EventType.CONVERSION),
            Interaction(0.0, 2, 0, EventType.CONVERSION),
            Interaction(12.0, 2, 0, EventType.CONVERSION),
            Interaction(5.0, 3, 1, EventType.CONVERSION),
        ]

    def test_detects_repeat_categories(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        detector = RepurchaseDetector(taxonomy, self.purchase_log())
        category0 = taxonomy.category_of(0)
        assert detector.is_repurchasable(category0)
        assert category0 in detector.repurchasable_categories()

    def test_single_purchases_not_repurchasable(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        detector = RepurchaseDetector(taxonomy, self.purchase_log())
        category1 = taxonomy.category_of(1)
        if category1 == taxonomy.category_of(0):
            pytest.skip("items 0 and 1 share a category in this fixture")
        assert not detector.is_repurchasable(category1)

    def test_mean_gap(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        detector = RepurchaseDetector(taxonomy, self.purchase_log())
        gap = detector.mean_repurchase_gap(taxonomy.category_of(0))
        assert gap == pytest.approx((10 + 10 + 12) / 3)

    def test_due_for_repurchase(self, small_dataset):
        taxonomy = small_dataset.taxonomy
        detector = RepurchaseDetector(taxonomy, self.purchase_log())
        history = [Interaction(0.0, 9, 0, EventType.CONVERSION)]
        assert detector.due_for_repurchase(history, now=20.0) == [0]
        assert detector.due_for_repurchase(history, now=1.0) == []


class TestBinPacking:
    def test_first_fit_decreasing_balances(self):
        weights = {f"r{i}": w for i, w in enumerate([100, 90, 40, 30, 20, 10, 5, 5])}
        bins = first_fit_decreasing(weights, 3)
        assert sum(len(b) for b in bins) == len(weights)
        assert load_balance_ratio(bins, weights) < 1.25

    def test_beats_contiguous_on_skew(self):
        """The paper's motivation: FFD makespan <= naive contiguous."""
        weights = {i: float(w) for i, w in enumerate([500, 3, 2, 450, 5, 4, 400, 1])}
        ffd = first_fit_decreasing(weights, 4)
        naive = contiguous_partition(list(weights), weights, 4)
        assert makespan(ffd, weights) <= makespan(naive, weights)

    def test_single_bin(self):
        weights = {"a": 1.0, "b": 2.0}
        bins = first_fit_decreasing(weights, 1)
        assert sorted(bins[0]) == ["a", "b"]

    def test_more_bins_than_items(self):
        bins = first_fit_decreasing({"a": 1.0}, 4)
        assert sum(len(b) for b in bins) == 1
        assert len(bins) == 4

    def test_zero_bins_rejected(self):
        with pytest.raises(SigmundError):
            first_fit_decreasing({"a": 1.0}, 0)
        with pytest.raises(SigmundError):
            contiguous_partition(["a"], {"a": 1.0}, 0)

    def test_makespan_empty(self):
        assert makespan([], {}) == 0.0

    def test_deterministic(self):
        weights = {f"k{i}": float(i % 7) + 1 for i in range(30)}
        assert first_fit_decreasing(weights, 5) == first_fit_decreasing(weights, 5)


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=40
    ),
    n_bins=st.integers(min_value=1, max_value=8),
)
def test_property_ffd_within_4_3_of_lower_bound(weights, n_bins):
    """LPT guarantee: makespan <= (4/3 - 1/(3m)) * OPT, and OPT >= max(
    mean load, heaviest item)."""
    table = {i: w for i, w in enumerate(weights)}
    bins = first_fit_decreasing(table, n_bins)
    observed = makespan(bins, table)
    descending = sorted(weights, reverse=True)
    lower_bound = max(sum(weights) / n_bins, descending[0])
    if len(descending) > n_bins:
        # Some bin must hold two of the m+1 largest items.
        lower_bound = max(
            lower_bound, descending[n_bins - 1] + descending[n_bins]
        )
    assert observed <= (4 / 3) * lower_bound + 1e-9
    # conservation
    packed = sorted(key for group in bins for key in group)
    assert packed == sorted(table)
