"""What a request reuses, and that reusing it never skips a check.

A cache hit returns its entry's own page — built by the first hit with
the same ``replace`` a hit always made — so the stream machine below
models the cache (LRU order, TTL, invalidation on publish and drop) and
holds every response to it: a hit equals, field for field, ``replace(<the
page its key computed>, ...)`` and is the entry's one page object; a
request after an invalidation, expiry or eviction recomputes.

The property test throws hostile contexts at every kind of retailer,
with protection on and off: neither entry point may raise, and the
serving buckets must still conserve.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.obs import MetricsRegistry
from repro.serving.cluster import ServingCluster
from repro.serving.frontend import (
    CACHE_HIT_LATENCY_MS,
    PopularityFallback,
    ServingFrontend,
)
from repro.serving.overload import OverloadProtection

N_ITEMS = 12
SHOPS = ("a", "b")
TTL_MS = 100.0
CAPACITY = 4


def table(shift: int):
    """Item -> three recs; ``shift`` makes each version's pages differ."""
    return {
        item: [
            ScoredItem((item + shift + j + 1) % N_ITEMS, float(N_ITEMS - j))
            for j in range(3)
        ]
        for item in range(N_ITEMS)
    }


def hit_of(page):
    return replace(
        page,
        latency_ms=CACHE_HIT_LATENCY_MS,
        served_from="cache",
        cache_hit=True,
        coalesced=False,
        queue_wait_ms=0.0,
    )


class HitPagesAgainstAModelCache(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = ServingCluster(n_nodes=3, n_shards=6, replication=2)
        fallback = PopularityFallback()
        for rid in SHOPS:
            fallback.load_view_counts(rid, {i: float(i) for i in range(N_ITEMS)})
        self.frontend = ServingFrontend(
            self.cluster,
            fallback=fallback,
            cache_capacity=CAPACITY,
            cache_ttl_ms=TTL_MS,
            metrics=MetricsRegistry(),
        )
        self.now = 0.0
        self.versions = dict.fromkeys(SHOPS, 0)
        #: key -> the ms its page was stored, in LRU order (oldest first).
        self.model = OrderedDict()
        #: key -> the last page its key computed / the hit page returned.
        self.computed = {}
        self.hit_pages = {}
        for rid in SHOPS:
            self.publish(rid)

    def _forget(self, rid):
        for key in [key for key in self.model if key[0] == rid]:
            del self.model[key]

    @rule(stream=st.lists(
        st.tuples(st.sampled_from(SHOPS), st.integers(0, 2), st.integers(1, 2)),
        min_size=1, max_size=8,
    ))
    def requests(self, stream):
        for rid, item, k in stream:
            self.now += 1.0
            self.request(rid, item, k)

    @rule(wait=st.sampled_from([40.0, 120.0]))
    def advance(self, wait):
        self.now += wait

    def request(self, rid, item, k):
        context = UserContext((item,), (0,))
        key = self.frontend.cache_key(rid, context, k)
        stored = self.model.get(key)
        expect_hit = stored is not None and self.now - stored <= TTL_MS
        response = self.frontend.request(rid, context, k=k, now_ms=self.now)
        assert response.cache_hit == expect_hit
        if expect_hit:
            assert response == hit_of(self.computed[key])
            previous = self.hit_pages.get(key)
            if previous is not None:
                assert response is previous
            self.hit_pages[key] = response
            self.model.move_to_end(key)
            return
        assert response.version == (self.cluster.version_of(rid) or 0)
        self.computed[key] = response
        self.hit_pages.pop(key, None)
        self.model.pop(key, None)
        self.model[key] = self.now
        while len(self.model) > CAPACITY:
            self.model.popitem(last=False)

    @rule(rid=st.sampled_from(SHOPS))
    def publish(self, rid):
        self.versions[rid] += 1
        self.cluster.load_batch(rid, table(self.versions[rid]), self.versions[rid])
        self._forget(rid)

    @rule(rid=st.sampled_from(SHOPS))
    def drop(self, rid):
        self.frontend.drop_retailer(rid)
        self.versions[rid] = 0
        self._forget(rid)


TestHitPagesAgainstAModelCache = HitPagesAgainstAModelCache.TestCase
TestHitPagesAgainstAModelCache.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)


def test_every_later_hit_is_the_first_hits_page():
    cluster = ServingCluster(n_nodes=2, n_shards=2, replication=2)
    cluster.load_batch("shop", table(0), version=1)
    frontend = ServingFrontend(cluster)
    context = UserContext((1, 2), (0, 2))
    computed = frontend.request("shop", context, k=3)
    first = frontend.request("shop", context, k=3)
    assert first == hit_of(computed) and first is not computed
    assert all(frontend.request("shop", context, k=3) is first for _ in range(3))
    assert frontend.stats.cache_hits == 4


# ----------------------------------------------------------------------
# Hostile contexts never raise
# ----------------------------------------------------------------------
RETAILERS = ("fresh", "stale", "fallback_only", "unknown")

actions = st.tuples(
    st.one_of(
        st.integers(0, N_ITEMS - 1),
        st.integers(-3, -1),                 # negative ids
        st.integers(N_ITEMS, N_ITEMS + 3),   # past the catalog
        st.just(10**12),
    ),
    st.one_of(st.integers(0, 3), st.sampled_from([-1, 4, 9, 255])),
)
contexts = st.lists(actions, max_size=5).map(
    lambda pairs: UserContext(
        tuple(item for item, _ in pairs), tuple(event for _, event in pairs)
    )
)
streams = st.lists(
    st.tuples(st.sampled_from(RETAILERS), contexts), min_size=1, max_size=8
)


def hostile_frontend(protected: bool) -> ServingFrontend:
    cluster = ServingCluster(n_nodes=3, n_shards=6, replication=2)
    cluster.load_batch("fresh", table(0), version=2)
    cluster.load_batch("stale", table(1), version=1)
    fallback = PopularityFallback()
    for rid in ("fresh", "stale", "fallback_only"):
        fallback.load_view_counts(rid, {i: float(i) for i in range(N_ITEMS)})
    frontend = ServingFrontend(
        cluster,
        fallback=fallback,
        metrics=MetricsRegistry(),
        protection=(
            OverloadProtection(admission_rate_qps=200.0, admission_burst=3.0)
            if protected else None
        ),
    )
    frontend.expect_version("fresh", 2)
    frontend.expect_version("stale", 2)
    return frontend


@given(stream=streams, k=st.integers(-3, 20), protected=st.booleans())
@settings(max_examples=150, deadline=None)
def test_hostile_contexts_never_raise(stream, k, protected):
    frontend = hostile_frontend(protected)
    for retailer_id, context in stream:
        frontend.request(retailer_id, context, k=k)
    frontend.request_batch(stream, k=k)
    buckets = frontend.stats.serving_buckets()
    assert sum(buckets.values()) == frontend.stats.requests == 2 * len(stream)
