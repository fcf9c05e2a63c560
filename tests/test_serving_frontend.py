"""Tests for the online serving frontend (cache, coalescing, fallback chain)."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.obs import MetricsRegistry
from repro.serving.cluster import MEMORY_LATENCY_MS, ServingCluster
from repro.serving.frontend import (
    BLEND_LATENCY_MS,
    CACHE_HIT_LATENCY_MS,
    COALESCED_LATENCY_MS,
    FALLBACK_LATENCY_MS,
    FrontendResponse,
    PopularityFallback,
    ServingFrontend,
)
from repro.serving.overload import DeadlinePolicy, OverloadProtection

N_ITEMS = 60


def table(n_items: int = N_ITEMS, n_recs: int = 5):
    """Item -> recs; low item indices have the strongest scores."""
    return {
        item: [
            ScoredItem((item + j + 1) % n_items, float(n_items - item - j))
            for j in range(n_recs)
        ]
        for item in range(n_items)
    }


def make_cluster(**kwargs) -> ServingCluster:
    defaults = dict(n_nodes=4, n_shards=16, replication=2, hot_fraction=0.2)
    defaults.update(kwargs)
    return ServingCluster(**defaults)


def make_fallback(retailers=("shop",)) -> PopularityFallback:
    fallback = PopularityFallback()
    for rid in retailers:
        fallback.load_view_counts(rid, {i: float(N_ITEMS - i) for i in range(N_ITEMS)})
    return fallback


def ctx(*items, event=EventType.VIEW) -> UserContext:
    return UserContext(tuple(items), tuple(event for _ in items))


@pytest.fixture()
def frontend() -> ServingFrontend:
    cluster = make_cluster()
    cluster.load_batch("shop", table(), version=1)
    return ServingFrontend(cluster, fallback=make_fallback())


class TestRequestPath:
    def test_fresh_serve_matches_server_semantics(self, frontend):
        response = frontend.request("shop", ctx(1, 2), k=10)
        assert response.served_from == "fresh"
        assert not response.stale and not response.cache_hit
        assert response.version == 1
        items = [r.item_index for r in response.recommendations]
        assert 1 not in items and 2 not in items  # context excluded
        assert len(items) == 10

    def test_latency_sums_cluster_tiers_plus_blend(self):
        cluster = make_cluster(hot_fraction=1.0)  # everything in memory
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, context_lookups=3)
        response = frontend.request("shop", ctx(1, 2, 3), k=20)
        assert response.latency_ms == pytest.approx(
            3 * MEMORY_LATENCY_MS + BLEND_LATENCY_MS
        )

    def test_failover_penalty_charged_to_request(self):
        cluster = make_cluster(n_nodes=3, n_shards=3, replication=2,
                               hot_fraction=1.0)
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, context_lookups=1)
        baseline = frontend.request("shop", ctx(5), k=5).latency_ms
        shard = cluster.shard_of("shop", 5)
        cluster.fail_node(cluster.replica_nodes(shard)[0].node_id)
        degraded = ServingFrontend(cluster, context_lookups=1)
        assert degraded.request("shop", ctx(5), k=5).latency_ms > baseline

    def test_k_and_context_respected(self, frontend):
        assert len(frontend.request("shop", ctx(0), k=3).recommendations) == 3
        # Regression: the popularity table appended before testing k, so
        # k=0 came back as a page of one.
        assert frontend.fallback.recommend("shop", (), 0) == []
        assert frontend.request("shop", ctx(0), k=0).recommendations == ()

    def test_negative_k_is_answered_like_k_zero(self, frontend):
        """Regression: the blend sliced ``ranked[:k]``, so ``k = -1``
        served every candidate but the last as a "fresh" page."""
        zero = frontend.request("shop", ctx(0, 1), k=0)
        assert zero.recommendations == ()
        for k in (-1, -5):
            page = frontend.request("shop", ctx(0, 1), k=k)
            assert page.recommendations == ()
            assert (page.served_from, page.fallback_stage, page.latency_ms) == (
                zero.served_from, zero.fallback_stage, zero.latency_ms,
            )

    @pytest.mark.parametrize("protection", [None, OverloadProtection()])
    @pytest.mark.parametrize("event", [9, -1])
    def test_an_unknown_event_takes_the_no_results_page(self, event, protection):
        """Regression: ``EventType(event)`` in the blend raised
        ``ValueError: 9 is not a valid EventType`` out of ``request``.  An
        action with no context weight makes no lookup; a context left
        with none is the chain's ``no_results`` page."""
        for fallback, served_from in ((make_fallback(), "fallback"), (None, "empty")):
            cluster = make_cluster()
            cluster.load_batch("shop", table(), version=1)
            frontend = ServingFrontend(
                cluster, fallback=fallback, protection=protection
            )
            page = frontend.request("shop", UserContext((0,), (event,)), k=5)
            assert (page.served_from, page.fallback_stage) == (
                served_from, "no_results"
            )
            assert sum(node.lookups for node in cluster.nodes) == 0
            assert sum(frontend.stats.serving_buckets().values()) == 1


class TestCache:
    def test_identical_context_hits_cache(self, frontend):
        first = frontend.request("shop", ctx(1, 2), k=10)
        second = frontend.request("shop", ctx(1, 2), k=10)
        assert second.cache_hit and second.served_from == "cache"
        assert second.latency_ms == pytest.approx(CACHE_HIT_LATENCY_MS)
        assert second.latency_ms < first.latency_ms
        assert second.recommendations == first.recommendations
        assert frontend.stats.cache_hits == 1

    def test_cache_keyed_on_recent_trail_only(self, frontend):
        # Older context beyond context_lookups does not change the key.
        long_ctx = ctx(50, 51, 1, 2, 3)
        short_ctx = ctx(40, 1, 2, 3)
        frontend.request("shop", long_ctx, k=10)
        response = frontend.request("shop", short_ctx, k=10)
        assert response.cache_hit  # same 3 most recent (1, 2, 3)

    def test_different_k_different_entry(self, frontend):
        frontend.request("shop", ctx(1), k=5)
        assert not frontend.request("shop", ctx(1), k=6).cache_hit

    def test_ttl_expires_entries(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, cache_ttl_ms=100.0)
        frontend.request("shop", ctx(1), k=5, now_ms=0.0)
        assert frontend.request("shop", ctx(1), k=5, now_ms=50.0).cache_hit
        late = frontend.request("shop", ctx(1), k=5, now_ms=200.0)
        assert not late.cache_hit
        assert frontend.stats.cache_expirations == 1

    def test_lru_eviction_bounds_size(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, cache_capacity=10)
        for item in range(30):
            frontend.request("shop", ctx(item), k=5)
        assert frontend.cache_size() <= 10
        assert frontend.stats.cache_evictions == 20

    def test_invalidate_retailer_drops_entries(self, frontend):
        frontend.request("shop", ctx(1), k=5)
        frontend.request("shop", ctx(2), k=5)
        assert frontend.invalidate_retailer("shop") == 2
        assert not frontend.request("shop", ctx(1), k=5).cache_hit

    def test_zero_capacity_disables_cache(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, cache_capacity=0)
        frontend.request("shop", ctx(1), k=5)
        assert not frontend.request("shop", ctx(1), k=5).cache_hit


class TestCoalescing:
    def test_identical_inflight_requests_coalesce(self, frontend):
        responses = frontend.request_batch(
            [("shop", ctx(1, 2)), ("shop", ctx(1, 2)), ("shop", ctx(3))], k=10
        )
        leader, follower, other = responses
        assert not leader.coalesced
        assert follower.coalesced
        assert not other.coalesced
        assert follower.recommendations == leader.recommendations
        assert follower.latency_ms == pytest.approx(
            leader.latency_ms + COALESCED_LATENCY_MS
        )
        assert frontend.stats.coalesced == 1

    def test_coalesced_not_counted_as_cache_hit(self, frontend):
        frontend.request_batch([("shop", ctx(7)), ("shop", ctx(7))], k=5)
        assert frontend.stats.cache_hits == 0
        assert frontend.stats.coalesced == 1

    def test_batch_leader_populates_cache(self, frontend):
        frontend.request_batch([("shop", ctx(9))], k=5)
        assert frontend.request("shop", ctx(9), k=5).cache_hit


# ----------------------------------------------------------------------
# The fallback chain, parametrized over freshness x node failures
# ----------------------------------------------------------------------

FRESHNESS = ("fresh", "stale", "unserved")
FAILURES = ("none", "one_node", "all_nodes")


@pytest.mark.parametrize("freshness", FRESHNESS)
@pytest.mark.parametrize("failure", FAILURES)
class TestFallbackChain:
    def build(self, freshness: str, failure: str) -> ServingFrontend:
        cluster = make_cluster(n_nodes=3, n_shards=6, replication=2)
        if freshness != "unserved":
            cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        if freshness == "stale":
            frontend.expect_version("shop", 2)
        elif freshness == "fresh":
            frontend.expect_version("shop", 1)
        if failure == "one_node":
            cluster.fail_node(0)
        elif failure == "all_nodes":
            for node in cluster.nodes:
                cluster.fail_node(node.node_id)
        return frontend

    def test_never_raises_and_always_answers(self, freshness, failure):
        frontend = self.build(freshness, failure)
        response = frontend.request("shop", ctx(1, 2), k=5)
        assert isinstance(response, FrontendResponse)
        # Chain invariant: a fallback table exists, so the only empty
        # answer would be a retailer the fallback has never heard of.
        assert response.recommendations
        assert response.served_from in ("fresh", "stale", "fallback")

    def test_chain_stage_is_correct(self, freshness, failure):
        frontend = self.build(freshness, failure)
        response = frontend.request("shop", ctx(1, 2), k=5)
        if freshness == "unserved":
            assert response.served_from == "fallback"
            assert response.fallback_stage == "unserved"
            assert frontend.stats.fallbacks == 1
        elif failure == "all_nodes":
            assert response.served_from == "fallback"
            assert response.fallback_stage == "degraded"
        elif freshness == "stale":
            assert response.served_from == "stale"
            assert response.stale
            assert frontend.stats.stale_serves == 1
        else:
            assert response.served_from == "fresh"
            assert not response.stale

    def test_empty_context_uses_fallback(self, freshness, failure):
        frontend = self.build(freshness, failure)
        response = frontend.request("shop", UserContext.empty(), k=5)
        assert response.recommendations
        assert response.served_from == "fallback"


class TestFallbackTerminal:
    def test_unserved_without_fallback_table_returns_empty(self):
        frontend = ServingFrontend(make_cluster(), fallback=PopularityFallback())
        response = frontend.request("ghost", ctx(1), k=5)
        assert response.served_from == "empty"
        assert response.recommendations == ()
        assert frontend.stats.empty_responses == 1

    def test_no_fallback_source_at_all(self):
        frontend = ServingFrontend(make_cluster())
        response = frontend.request("ghost", ctx(1), k=5)
        assert response.served_from == "empty"

    def test_fallback_latency_charged(self):
        frontend = ServingFrontend(make_cluster(), fallback=make_fallback())
        response = frontend.request("shop", ctx(1), k=5)
        assert response.served_from == "fallback"
        assert response.latency_ms == pytest.approx(FALLBACK_LATENCY_MS)


class TestHybridTailAugmentation:
    def test_thin_results_topped_up_from_fallback(self):
        cluster = make_cluster()
        # Item 0 recommends only items 1 and 2: a tail context.
        cluster.load_batch(
            "shop",
            {0: [ScoredItem(1, 2.0), ScoredItem(2, 1.0)]},
            version=1,
        )
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        response = frontend.request("shop", ctx(0), k=6)
        assert response.served_from == "fresh"
        assert response.tail_augmented == 4
        assert len(response.recommendations) == 6
        # Personalized recs stay ranked above every fallback item.
        assert [r.item_index for r in response.recommendations[:2]] == [1, 2]
        assert all(r.source_item == -1 for r in response.recommendations[2:])
        scores = [r.score for r in response.recommendations]
        assert scores == sorted(scores, reverse=True)

    def thin_cluster(self):
        cluster = make_cluster()
        cluster.load_batch(
            "shop",
            {0: [ScoredItem(1, 2.0), ScoredItem(2, 1.0)]},
            version=1,
        )
        return cluster

    def test_top_up_skips_context_and_page_items(self):
        """The most popular items not already in the context or on the
        page fill it, most popular first."""
        frontend = ServingFrontend(self.thin_cluster(), fallback=make_fallback())
        response = frontend.request("shop", ctx(0), k=6)
        assert [r.item_index for r in response.recommendations] == [
            1, 2, 3, 4, 5, 6,
        ]

    def test_top_up_is_counted(self):
        metrics = MetricsRegistry()
        frontend = ServingFrontend(
            self.thin_cluster(), fallback=make_fallback(), metrics=metrics
        )
        frontend.request("shop", ctx(0), k=6)
        frontend.request("shop", ctx(0), k=3)
        assert frontend.stats.tail_augmented == 4 + 1
        assert metrics.snapshot().counter(
            "frontend_tail_augmented_total", retailer="shop"
        ) == 5

    def test_top_up_charges_one_fallback_lookup(self):
        plain = ServingFrontend(self.thin_cluster(), fallback=make_fallback())
        topped = ServingFrontend(self.thin_cluster(), fallback=make_fallback())
        short = plain.request("shop", ctx(0), k=2)
        full = topped.request("shop", ctx(0), k=6)
        assert short.tail_augmented == 0 and full.tail_augmented == 4
        assert full.latency_ms == pytest.approx(
            short.latency_ms + FALLBACK_LATENCY_MS
        )

    def test_no_popularity_source_serves_the_short_page(self):
        frontend = ServingFrontend(self.thin_cluster())
        response = frontend.request("shop", ctx(0), k=6)
        assert response.served_from == "fresh"
        assert [r.item_index for r in response.recommendations] == [1, 2]
        assert response.tail_augmented == 0

    def test_head_context_not_augmented(self, frontend):
        response = frontend.request("shop", ctx(1, 2), k=5)
        assert response.tail_augmented == 0


class TestMetricsWiring:
    def test_counters_flow_into_registry(self):
        metrics = MetricsRegistry()
        cluster = make_cluster(n_nodes=3, n_shards=6, replication=2)
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(
            cluster, fallback=make_fallback(("shop", "ghost")), metrics=metrics
        )
        frontend.expect_version("shop", 2)  # stale
        frontend.request("shop", ctx(1), k=5)
        frontend.request("shop", ctx(1), k=5)          # cache hit
        frontend.request("ghost", ctx(1), k=5)         # unserved -> fallback
        frontend.request_batch(
            [("shop", ctx(2)), ("shop", ctx(2))], k=5  # coalesced
        )
        snapshot = metrics.snapshot()
        assert snapshot.counter_total("frontend_requests_total") == 5
        assert snapshot.counter("frontend_requests_total", retailer="shop") == 4
        assert snapshot.counter_total("frontend_cache_hits_total") == 1
        assert snapshot.counter_total("frontend_stale_serves_total") == 2
        assert snapshot.counter("frontend_fallback_total", stage="unserved") == 1
        assert snapshot.counter_total("frontend_coalesced_total") == 1

    def test_stats_mirror_registry(self):
        metrics = MetricsRegistry()
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, metrics=metrics)
        for item in range(5):
            frontend.request("shop", ctx(item), k=5)
            frontend.request("shop", ctx(item), k=5)
        snapshot = metrics.snapshot()
        assert frontend.stats.requests == 10
        assert snapshot.counter_total("frontend_requests_total") == 10
        assert frontend.stats.cache_hits == 5
        assert frontend.stats.cache_hit_rate == pytest.approx(0.5)


class TestValidation:
    def test_bad_cache_settings_rejected(self):
        from repro.exceptions import ServingError
        with pytest.raises(ServingError):
            ServingFrontend(make_cluster(), cache_capacity=-1)
        with pytest.raises(ServingError):
            ServingFrontend(make_cluster(), cache_ttl_ms=0.0)


class TestIncompletePagesAreNotCached:
    """Regression: ``_cache_put`` checked only the version, so a page
    computed while a shard was unreachable, or cut short by the deadline,
    was served from cache after recovery until the TTL ran out."""

    def split_cluster(self):
        """One replica per shard on two nodes: node 0 down darkens half."""
        cluster = make_cluster(n_nodes=2, n_shards=4, replication=1,
                               hot_fraction=1.0)
        cluster.load_batch("shop", table(), version=1)
        dark = [i for i in range(N_ITEMS)
                if cluster.replica_nodes(cluster.shard_of("shop", i))[0].node_id == 0]
        lit = [i for i in range(N_ITEMS) if i not in dark]
        return cluster, dark, lit

    def test_fresh_page_with_a_failed_lookup(self):
        cluster, dark, lit = self.split_cluster()
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        cluster.fail_node(0)
        partial = frontend.request("shop", ctx(lit[0], dark[0]), k=10)
        assert partial.served_from == "fresh"
        assert frontend.cache_size() == 0
        cluster.recover_node(0)
        whole = frontend.request("shop", ctx(lit[0], dark[0]), k=10)
        assert not whole.cache_hit
        assert {r.source_item for r in whole.recommendations} >= {dark[0]}

    def test_degraded_fallback_page(self):
        cluster, dark, _ = self.split_cluster()
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        cluster.fail_node(0)
        assert frontend.request("shop", ctx(dark[0]), k=5).fallback_stage == "degraded"
        assert frontend.cache_size() == 0
        cluster.recover_node(0)
        assert frontend.request("shop", ctx(dark[0]), k=5).served_from == "fresh"

    def test_deadline_truncated_page(self):
        # Room for two memory lookups (0.3 ms each) before the 4 ms
        # worst-case reserve runs out: the third is skipped.
        cluster, _, lit = self.split_cluster()
        frontend = ServingFrontend(
            cluster, fallback=make_fallback(),
            protection=OverloadProtection(deadline=DeadlinePolicy(deadline_ms=5.0)),
        )
        page = frontend.request("shop", ctx(*lit[:3]), k=10)
        assert page.deadline_truncated
        assert frontend.cache_size() == 0
        assert not frontend.request("shop", ctx(*lit[:3]), k=10).cache_hit

    def test_a_complete_page_is_still_cached(self):
        cluster, _, lit = self.split_cluster()
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        cluster.fail_node(0)
        frontend.request("shop", ctx(lit[0]), k=5)
        assert frontend.request("shop", ctx(lit[0]), k=5).cache_hit


class TestCacheInvalidationOnPublish:
    """Regression: the response cache survived publishes and rollbacks.

    A cached entry pinned the version it was computed from, but nothing
    compared that pin against the cluster's current version — so after a
    ``load_batch`` (daily publish) or a rollback, requests kept serving
    recommendations from the *retired* table until the TTL happened to
    expire.  Both paths must observe the new version immediately.
    """

    def shifted_table(self):
        return {
            item: [
                ScoredItem((item + j + 7) % N_ITEMS, float(N_ITEMS - j))
                for j in range(5)
            ]
            for item in range(N_ITEMS)
        }

    def test_publish_invalidates_cached_entries(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        first = frontend.request("shop", ctx(3), k=5)
        assert frontend.request("shop", ctx(3), k=5).cache_hit

        cluster.load_batch("shop", self.shifted_table(), version=2)
        after = frontend.request("shop", ctx(3), k=5)
        assert not after.cache_hit
        assert after.version == 2
        assert [r.item_index for r in after.recommendations] != [
            r.item_index for r in first.recommendations
        ]
        assert frontend.stats.cache_invalidations > 0

    def test_version_pin_caught_even_without_subscription(self):
        """The belt (per-read version check) works on clusters that do
        not offer the invalidation-listener suspenders."""
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        frontend.request("shop", ctx(3), k=5)
        # Simulate a listener-less publish: bump the stored entries
        # behind the frontend's back.
        cluster._versions["shop"] = 2
        response = frontend.request("shop", ctx(3), k=5)
        assert not response.cache_hit
        assert frontend.stats.cache_invalidations > 0

    def test_unrelated_retailer_cache_survives_publish(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        cluster.load_batch("other", table(), version=1)
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        frontend.request("other", ctx(3), k=5)
        cluster.load_batch("shop", self.shifted_table(), version=2)
        assert frontend.request("other", ctx(3), k=5).cache_hit


class _PublishDuringLookupCluster(ServingCluster):
    """Fires a queued publish from inside a lookup (mid-flight publish)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.publish_on_next_lookup = None

    def lookup(self, retailer_id, item_index, breakers=None, now_ms=0.0):
        result = super().lookup(
            retailer_id, item_index, breakers=breakers, now_ms=now_ms
        )
        if self.publish_on_next_lookup is not None:
            rid, recs, version = self.publish_on_next_lookup
            self.publish_on_next_lookup = None
            self.load_batch(rid, recs, version)
        return result


class TestCoalescingInvalidationFence:
    """A publish landing between leader start and follower join must
    fence the leader: the follower recomputes against the new table
    instead of inheriting a pre-publish result."""

    def make_racing_frontend(self):
        cluster = _PublishDuringLookupCluster(
            n_nodes=4, n_shards=16, replication=2, hot_fraction=0.2
        )
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        cluster.publish_on_next_lookup = ("shop", table(), 2)
        return cluster, frontend

    def test_follower_never_receives_pre_publish_result(self):
        _, frontend = self.make_racing_frontend()
        leader, follower = frontend.request_batch(
            [("shop", ctx(1, 2)), ("shop", ctx(1, 2))], k=5
        )
        # The leader computed against v1; the publish landed mid-flight.
        assert leader.version == 1
        assert not follower.coalesced
        assert follower.version == 2
        assert frontend.stats.coalesce_fenced == 1
        assert frontend.stats.coalesced == 0

    def test_fence_scoped_to_the_invalidated_retailer(self):
        cluster = _PublishDuringLookupCluster(
            n_nodes=4, n_shards=16, replication=2, hot_fraction=0.2
        )
        cluster.load_batch("shop", table(), version=1)
        cluster.load_batch("other", table(), version=1)
        frontend = ServingFrontend(
            cluster, fallback=make_fallback(("shop", "other"))
        )
        # The mid-flight publish hits "shop"; "other" coalesces freely.
        cluster.publish_on_next_lookup = ("shop", table(), 2)
        responses = frontend.request_batch(
            [("other", ctx(1)), ("shop", ctx(2)), ("other", ctx(1))], k=5
        )
        assert responses[2].coalesced
        assert frontend.stats.coalesce_fenced == 0

    def test_pre_publish_result_never_enters_the_cache(self):
        _, frontend = self.make_racing_frontend()
        frontend.request_batch([("shop", ctx(1, 2))], k=5)
        # The leader's v1 response must not be cached under v2.
        followup = frontend.request("shop", ctx(1, 2), k=5)
        assert not followup.cache_hit
        assert followup.version == 2

    def test_fenced_follower_becomes_new_leader(self):
        _, frontend = self.make_racing_frontend()
        responses = frontend.request_batch(
            [("shop", ctx(1, 2)), ("shop", ctx(1, 2)), ("shop", ctx(1, 2))],
            k=5,
        )
        # Request 2 re-led after the fence; request 3 coalesces onto it.
        assert responses[1].version == 2
        assert responses[2].coalesced and responses[2].version == 2
        assert frontend.stats.coalesce_fenced == 1
        assert frontend.stats.coalesced == 1


class TestDropRetailer:
    """Regression: nothing could take a retailer out of the serving tier.
    A merged-away retailer's rows stayed in the cluster, and because
    ``version_of`` of a retailer the cluster does not know is ``None``
    the cache's version check waved its cached pages through until the
    TTL."""

    def wired_frontend(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=3)
        cluster.load_batch("other", table(), version=1)
        frontend = ServingFrontend(
            cluster, fallback=make_fallback(("shop", "other"))
        )
        frontend.expect_version("shop", 3)
        return cluster, frontend

    def test_departed_retailer_gets_an_empty_unserved_page(self):
        cluster, frontend = self.wired_frontend()
        assert frontend.request("shop", ctx(3), k=5).served_from == "fresh"
        assert frontend.request("shop", ctx(3), k=5).cache_hit
        frontend.drop_retailer("shop")
        response = frontend.request("shop", ctx(3), k=5)
        assert not response.cache_hit
        assert response.served_from == "empty"
        assert response.fallback_stage == "unserved"
        assert response.recommendations == () and response.version == 0
        with pytest.raises(Exception, match="no data loaded"):
            cluster.lookup("shop", 3)

    def test_nothing_of_the_retailer_is_left_behind(self):
        cluster, frontend = self.wired_frontend()
        frontend.request("shop", ctx(3), k=5)
        frontend.drop_retailer("shop")
        frontend.drop_retailer("shop")  # idempotent
        assert cluster.version_of("shop") is None
        assert not frontend.fallback.has_retailer("shop")
        assert "shop" not in frontend._expected_versions
        assert all(key[0] != "shop" for key in frontend._cache)

    def test_co_tenant_keeps_its_pages_and_its_cache(self):
        _, frontend = self.wired_frontend()
        before = frontend.request("other", ctx(3), k=5)
        frontend.drop_retailer("shop")
        after = frontend.request("other", ctx(3), k=5)
        assert after.cache_hit
        assert after.recommendations == before.recommendations

    def test_re_onboarded_retailer_serves_version_one_fresh(self):
        cluster, frontend = self.wired_frontend()
        frontend.drop_retailer("shop")
        frontend.request("shop", ctx(3), k=5)  # caches the empty page
        cluster.load_batch("shop", table(), version=1)
        response = frontend.request("shop", ctx(3), k=5)
        assert (response.served_from, response.version) == ("fresh", 1)
        assert not response.stale  # the old expectation of 3 went too

    def test_drop_landing_mid_batch_fences_the_leader(self):
        """The invalidation epoch outlives the drop: it is what keeps a
        follower from being handed the departed retailer's page."""
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(cluster, fallback=make_fallback())
        real_lookup = cluster.lookup

        def lookup_then_drop(*args, **kwargs):
            result = real_lookup(*args, **kwargs)
            cluster.lookup = real_lookup  # once: the leader's first lookup
            frontend.drop_retailer("shop")
            return result

        cluster.lookup = lookup_then_drop
        _, follower = frontend.request_batch(
            [("shop", ctx(1, 2)), ("shop", ctx(1, 2))], k=5
        )
        assert not follower.coalesced
        assert follower.served_from == "empty"
        assert follower.recommendations == ()
        assert frontend.stats.coalesce_fenced == 1


# ----------------------------------------------------------------------
# The per-retailer cache key index against a full scan
# ----------------------------------------------------------------------
SHOPS = ("shop", "other")


class CacheIndexAgainstScan(RuleBasedStateMachine):
    """Requests fill, hit, expire, evict and are shed from a four-entry
    cache; publishes (heard or not), invalidations and drops empty it.
    After every step the retailer -> keys index equals a scan of the
    cache."""

    def __init__(self):
        super().__init__()
        self.cluster = make_cluster(n_nodes=2, n_shards=4)
        # Admission sheds bursts: a shed request after an expiry or a
        # version miss leaves the key out of the cache, not re-inserted.
        self.frontend = ServingFrontend(
            self.cluster, fallback=make_fallback(SHOPS),
            cache_capacity=4, cache_ttl_ms=5.0,
            protection=OverloadProtection(
                admission_rate_qps=200.0, admission_burst=2.0
            ),
        )
        self.versions = dict.fromkeys(SHOPS, 0)
        self.now = 0.0
        for rid in SHOPS:
            self.publish(rid)

    @rule(rid=st.sampled_from(SHOPS), item=st.integers(0, 5),
          k=st.integers(1, 3), wait=st.sampled_from([0.0, 1.0, 6.0]))
    def request(self, rid, item, k, wait):
        self.now += wait
        self.frontend.request(rid, ctx(item), k=k, now_ms=self.now)

    @rule(rid=st.sampled_from(SHOPS))
    def publish(self, rid):
        self.versions[rid] += 1
        self.cluster.load_batch(rid, table(), self.versions[rid])

    @rule(rid=st.sampled_from(SHOPS))
    def publish_unheard(self, rid):
        """A load the frontend is not told of: the per-read version
        check drops the retailer's entries one ``_cache_get`` at a time."""
        listeners = self.cluster._invalidation_listeners
        heard, listeners[:] = listeners[:], []
        self.publish(rid)
        listeners[:] = heard

    @rule(rid=st.sampled_from(SHOPS))
    def invalidate(self, rid):
        self.frontend.invalidate_retailer(rid)

    @rule(rid=st.sampled_from(SHOPS))
    def drop(self, rid):
        self.frontend.drop_retailer(rid)
        self.versions[rid] = 0

    @invariant()
    def index_equals_a_full_scan(self):
        scan = {}
        for key in self.frontend._cache:
            scan.setdefault(key[0], set()).add(key)
        assert self.frontend._cache_keys == scan


TestCacheIndexAgainstScan = CacheIndexAgainstScan.TestCase
TestCacheIndexAgainstScan.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)
