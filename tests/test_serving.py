"""Tests for the batch-swapped store and the serving path."""

from __future__ import annotations

import pytest

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.exceptions import ServingError
from repro.models.base import ScoredItem
from repro.obs import MetricsRegistry
from repro.serving.server import RecommendationServer
from repro.serving.store import RecommendationStore


def recs(*pairs):
    return [ScoredItem(item, score) for item, score in pairs]


def loaded_store() -> RecommendationStore:
    store = RecommendationStore()
    store.load_batch(
        "r1",
        {
            0: recs((1, 3.0), (2, 2.0), (3, 1.0)),
            1: recs((4, 5.0), (0, 1.0)),
            2: [],
        },
        version=1,
    )
    return store


class TestStore:
    def test_lookup(self):
        store = loaded_store()
        assert [r.item_index for r in store.lookup("r1", 0)] == [1, 2, 3]

    def test_lookup_unknown_item_empty(self):
        store = loaded_store()
        assert store.lookup("r1", 99) == []
        assert store.stats.misses == 1

    def test_lookup_unknown_retailer_raises(self):
        with pytest.raises(ServingError):
            loaded_store().lookup("other", 0)

    def test_batch_swap_atomic_version(self):
        store = loaded_store()
        store.load_batch("r1", {0: recs((9, 1.0))}, version=2)
        assert [r.item_index for r in store.lookup("r1", 0)] == [9]
        assert store.lookup("r1", 1) == []  # old table fully replaced
        assert store.version_of("r1") == 2

    def test_stale_batch_rejected(self, slot_store):
        """Rejected, counted, and nothing moved."""
        store, make = slot_store
        held = make(0)
        store.load("r1", held, version=2)
        for stale in (2, 1, 0):
            with pytest.raises(ServingError, match="stale"):
                store.load("r1", make(stale), version=stale)
        assert store.stats.stale_batches_rejected == 3
        assert store.stats.batches_loaded == 1
        assert store.version_of("r1") == 2 and store.get("r1") is held
        with pytest.raises(ServingError, match="no last-good"):
            store.rollback("r1")  # a rejected load left no last-good either

    def test_items_covered(self):
        assert loaded_store().items_covered("r1") == 2  # item 2 has no recs

    def test_hit_rate(self):
        store = loaded_store()
        store.lookup("r1", 0)
        store.lookup("r1", 99)
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_stale_load_is_counted_under_the_store_name(self):
        registry = MetricsRegistry()
        store = RecommendationStore(metrics=registry, name="substitutes")
        store.load_batch("shop", {0: recs((1, 1.0))}, version=2)
        with pytest.raises(ServingError, match="stale batch for 'shop'"):
            store.load_batch("shop", {0: recs((1, 1.0))}, version=2)
        with pytest.raises(ServingError, match="no last-good table"):
            store.rollback("shop")
        assert registry.snapshot().counters[
            "store_stale_rejected_total{store=substitutes}"
        ] == 1

    def test_load_get_version(self, slot_store):
        store, make = slot_store
        value = make(0)
        store.load("shop", value, version=3)
        assert store.get("shop") is value
        assert store.version_of("shop") == 3
        assert store.get("ghost") is None and store.version_of("ghost") is None

    def test_rollback_restores_predecessor(self, slot_store):
        store, make = slot_store
        oldest, old, new = make(0), make(1), make(2)
        store.load("shop", oldest, version=1)
        store.load("shop", old, version=2)
        store.load("shop", new, version=3)
        assert store.rollback("shop") == 2
        assert store.get("shop") is old and store.version_of("shop") == 2
        with pytest.raises(ServingError, match="no last-good"):
            store.rollback("shop")  # exactly one last-good predecessor
        assert store.stats.rollbacks == 1
        store.load("shop", new, version=3)  # forward again from where it is

    def test_drop_is_idempotent(self, slot_store):
        store, make = slot_store
        store.load("shop", make(0), version=1)
        store.load("shop", make(1), version=2)
        store.load("other", make(2), version=5)
        store.drop_retailer("shop")
        store.drop_retailer("shop")
        assert not store.has_retailer("shop")
        assert store.get("shop") is None
        with pytest.raises(ServingError, match="no last-good"):
            store.rollback("shop")  # the last-good went with it
        assert store.versions() == {"other": 5}
        store.load("shop", make(3), version=1)  # re-onboarded: version 1 again
        assert store.version_of("shop") == 1

    def test_retailers(self, slot_store):
        store, make = slot_store
        store.load("r1", make(0), version=4)
        store.load("r0", make(1), version=1)
        assert store.retailers() == ["r0", "r1"]
        assert store.versions() == {"r0": 1, "r1": 4}
        assert store.has_retailer("r0") and not store.has_retailer("r2")


class TestServer:
    def test_empty_context_empty_result(self):
        server = RecommendationServer(loaded_store())
        assert server.recommend("r1", UserContext.empty()) == []

    def test_merges_context_lookups(self):
        server = RecommendationServer(loaded_store())
        context = UserContext((0, 1), (EventType.VIEW, EventType.VIEW))
        served = server.recommend("r1", context, k=10)
        items = [r.item_index for r in served]
        assert 4 in items  # from item 1's table
        assert 2 in items  # from item 0's table

    def test_excludes_context_items(self):
        server = RecommendationServer(loaded_store())
        context = UserContext((1, 0), (EventType.VIEW, EventType.VIEW))
        items = {r.item_index for r in server.recommend("r1", context)}
        assert 0 not in items and 1 not in items

    def test_a_context_item_in_a_list_does_not_shorten_the_page(self):
        """Seen items are dropped before the top-``k`` cut, not after: a
        list holding its own source item still fills a ``k``-item page."""
        store = RecommendationStore()
        store.load_batch(
            "r",
            {0: recs((0, 9.0), (1, 3.0), (2, 2.0), (3, 1.0))},
            version=1,
        )
        server = RecommendationServer(store)
        served = server.recommend("r", UserContext((0,), (EventType.VIEW,)), k=3)
        assert [r.item_index for r in served] == [1, 2, 3]

    def test_recency_prefers_recent_source(self):
        """With equal stored scores, the most recent context item's rec wins."""
        store = RecommendationStore()
        store.load_batch(
            "r", {0: recs((10, 1.0)), 1: recs((11, 1.0))}, version=1
        )
        server = RecommendationServer(store, recency_decay=0.5)
        context = UserContext((0, 1), (EventType.VIEW, EventType.VIEW))
        served = server.recommend("r", context, k=2)
        assert served[0].item_index == 11
        assert served[0].source_item == 1

    def test_event_strength_boosts_source(self):
        store = RecommendationStore()
        store.load_batch(
            "r", {0: recs((10, 1.0)), 1: recs((11, 1.0))}, version=1
        )
        server = RecommendationServer(store, recency_decay=1.0)
        context = UserContext((1, 0), (EventType.CONVERSION, EventType.VIEW))
        served = server.recommend("r", context, k=2)
        # Item 1 was converted (weight 2.5) vs item 0 viewed (1.0).
        assert served[0].item_index == 11

    def test_k_limits_results(self):
        server = RecommendationServer(loaded_store())
        context = UserContext((0,), (EventType.VIEW,))
        assert len(server.recommend("r1", context, k=2)) == 2

    @pytest.mark.parametrize("k", [-3, -1, 0])
    def test_non_positive_k_is_an_empty_page(self, k):
        """Regression: ``ranked[:k]`` with a negative ``k`` returned every
        item but the last ``-k``."""
        server = RecommendationServer(loaded_store())
        context = UserContext((0, 1), (EventType.VIEW, EventType.VIEW))
        assert server.recommend("r1", context, k=k) == []

    @pytest.mark.parametrize("event", [9, -1, 4])
    def test_an_unknown_event_makes_no_lookup(self, event):
        """Regression: ``EventType(event)`` in the blend raised
        ``ValueError: 9 is not a valid EventType`` out of ``recommend``."""
        server = RecommendationServer(loaded_store())
        assert server.recommend("r1", UserContext((0,), (event,)), k=5) == []

    def test_an_unknown_event_keeps_its_slot_age(self):
        """The unknown action's lookup is skipped, not its age: the page
        is the one a known action with an empty lookup would give."""
        store = loaded_store()
        server = RecommendationServer(store, recency_decay=0.5)
        lookups = []
        store_lookup = store.lookup

        def counted(retailer_id, item):
            lookups.append(item)
            return store_lookup(retailer_id, item)

        store.lookup = counted
        mixed = server.recommend("r1", UserContext((0, 2, 1), (0, 7, 1)), k=10)
        assert lookups == [1, 0]
        # Item 2's table is empty, so its VIEW adds nothing but an age.
        known = server.recommend("r1", UserContext((0, 2, 1), (0, 0, 1)), k=10)
        assert mixed == known
        # Item 0 is two actions old (decay 0.5 ** 2), not one.
        assert [tuple(r) for r in mixed] == [(4, 1.5 * 5.0, 1), (3, 0.25, 0)]
