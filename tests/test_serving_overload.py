"""Tests for the overload-protection layer (admission, breakers, deadlines)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.exceptions import ServingError
from repro.models.base import ScoredItem
from repro.obs import MetricsRegistry
from repro.serving.cluster import FAILOVER_PENALTY_MS, ServingCluster
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.overload import (
    SHED_LATENCY_MS,
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    DeadlinePolicy,
    OverloadProtection,
    ServerQueue,
    TokenBucket,
)

N_ITEMS = 60


def table(n_items: int = N_ITEMS, n_recs: int = 5):
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
        fallback.load_view_counts(
            rid, {i: float(N_ITEMS - i) for i in range(N_ITEMS)}
        )
    return fallback


def ctx(*items, event=EventType.VIEW) -> UserContext:
    return UserContext(tuple(items), tuple(event for _ in items))


class TestTokenBucket:
    def test_burst_then_dry(self):
        bucket = TokenBucket(rate_per_s=1_000.0, burst=3.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)

    def test_refills_with_simulated_time(self):
        bucket = TokenBucket(rate_per_s=1_000.0, burst=2.0)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(1.0)  # 1ms at 1000/s = 1 token back

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1_000.0, burst=2.0)
        assert bucket.fill_fraction(10_000.0) == 1.0

    def test_validation(self):
        with pytest.raises(ServingError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ServingError):
            TokenBucket(rate_per_s=1.0, burst=0.0)


class TestAdmissionController:
    def test_admits_within_rate(self):
        admission = AdmissionController(rate_per_s=1_000.0, burst=10.0)
        decision = admission.admit(0.0)
        assert decision.admitted and decision.reason == "ok"

    def test_sheds_everyone_when_dry(self):
        admission = AdmissionController(rate_per_s=1.0, burst=2.0)
        admission.admit(0.0)
        admission.admit(0.0)
        decision = admission.admit(0.0)
        assert not decision.admitted and decision.reason == "shed_overload"

    def test_low_priority_sheds_at_watermark(self):
        admission = AdmissionController(
            rate_per_s=1.0, burst=10.0, shed_low_watermark=0.5
        )
        for _ in range(6):  # drain below the 50% watermark
            admission.admit(0.0)
        low = admission.admit(0.0, priority="low")
        assert not low.admitted and low.reason == "shed_low"
        normal = admission.admit(0.0, priority="normal")
        assert normal.admitted

    def test_over_rate_client_sheds_outright(self):
        admission = AdmissionController(
            rate_per_s=10_000.0, burst=100.0,
            client_rate_per_s=1_000.0, client_burst=2.0,
        )
        assert admission.admit(0.0, client_id="bot").admitted
        assert admission.admit(0.0, client_id="bot").admitted
        third = admission.admit(0.0, client_id="bot")
        assert not third.admitted and third.reason == "client_rate"
        # An innocent client is untouched by the abuser's bucket.
        assert admission.admit(0.0, client_id="user").admitted

    def test_high_priority_immune_to_client_demotion(self):
        admission = AdmissionController(
            rate_per_s=10_000.0, burst=100.0,
            client_rate_per_s=1_000.0, client_burst=1.0,
        )
        admission.admit(0.0, client_id="ops")
        decision = admission.admit(0.0, client_id="ops", priority="high")
        assert decision.admitted

    def test_unknown_priority_raises(self):
        admission = AdmissionController(rate_per_s=1.0, burst=1.0)
        with pytest.raises(ServingError):
            admission.admit(0.0, priority="urgent")


class TestCircuitBreaker:
    def make(self, **kwargs) -> CircuitBreaker:
        defaults = dict(
            window=8, failure_threshold=0.5, min_samples=4, cooldown_ms=100.0
        )
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_trips_at_failure_threshold(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.state(0.0) == "open"
        assert not breaker.allow(0.0)

    def test_needs_min_samples_before_tripping(self):
        breaker = self.make()
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "closed"

    def test_successes_dilute_failures(self):
        breaker = self.make()
        for _ in range(6):
            breaker.record_success(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "closed"  # 2/8 < 0.5

    def test_half_open_after_cooldown_probe_success_closes(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert not breaker.allow(50.0)  # still cooling down
        assert breaker.state(100.0) == "half_open"
        assert breaker.allow(100.0)  # the probe
        assert not breaker.allow(100.0)  # only one probe at a time
        breaker.record_success(100.0)
        assert breaker.state(100.0) == "closed"
        assert breaker.allow(100.0)

    def test_half_open_probe_failure_reopens(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(100.0)
        assert breaker.state(100.0) == "open"
        assert breaker.state(150.0) == "open"  # fresh cooldown from 100
        assert breaker.state(200.0) == "half_open"

    def test_transitions_recorded(self):
        breaker = self.make()
        for _ in range(4):
            breaker.record_failure(0.0)
        breaker.allow(100.0)
        breaker.record_success(100.0)
        assert breaker.transitions == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")
        ]


class TestBreakerBoard:
    def test_per_node_isolation(self):
        board = BreakerBoard(window=4, min_samples=2, failure_threshold=0.5)
        for _ in range(2):
            board.record_failure(0, 0.0)
        assert not board.allow(0, 0.0)
        assert board.allow(1, 0.0)

    def test_transition_callback_carries_node_id(self):
        seen = []
        board = BreakerBoard(window=4, min_samples=2, failure_threshold=0.5)
        board.on_transition = lambda node, old, new: seen.append((node, old, new))
        board.record_failure(3, 0.0)
        board.record_failure(3, 0.0)
        assert seen == [(3, "closed", "open")]
        assert board.transition_count() == 1


class TestServerQueue:
    def test_no_wait_when_idle(self):
        queue = ServerQueue(n_servers=2)
        assert queue.wait_time(0.0) == 0.0
        assert queue.occupy(0.0, 5.0) == 0.0

    def test_backlog_builds_past_capacity(self):
        queue = ServerQueue(n_servers=1)
        assert queue.occupy(0.0, 10.0) == 0.0
        wait = queue.occupy(0.0, 10.0)
        assert wait == 10.0
        assert queue.wait_time(0.0) == 20.0
        assert queue.max_wait_ms == 10.0

    def test_wait_time_matches_occupy_charge(self):
        queue = ServerQueue(n_servers=2)
        queue.occupy(0.0, 4.0)
        queue.occupy(0.0, 6.0)
        predicted = queue.wait_time(1.0)
        assert queue.occupy(1.0, 1.0) == predicted


class TestDeadlinePolicy:
    def test_backoff_doubles(self):
        policy = DeadlinePolicy(retry_backoff_ms=0.5)
        assert policy.backoff_for(0) == 0.5
        assert policy.backoff_for(1) == 1.0

    def test_validation(self):
        with pytest.raises(ServingError):
            DeadlinePolicy(deadline_ms=0.0)
        with pytest.raises(ServingError):
            DeadlinePolicy(max_retries=-1)

    def test_impossible_deadline_rejected_at_frontend_construction(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        protection = OverloadProtection(deadline=DeadlinePolicy(deadline_ms=1.0))
        with pytest.raises(ServingError):
            ServingFrontend(cluster, protection=protection)


class TestProtectedFrontend:
    def make_frontend(self, cluster=None, **protection_kwargs):
        if cluster is None:
            cluster = make_cluster()
            cluster.load_batch("shop", table(), version=1)
        protection = OverloadProtection(**protection_kwargs)
        return ServingFrontend(
            cluster, fallback=make_fallback(), protection=protection,
            metrics=MetricsRegistry(),
        )

    def test_shed_serves_popularity_page(self):
        frontend = self.make_frontend(
            admission_rate_qps=1_000.0, admission_burst=1.0
        )
        frontend.request("shop", ctx(1), now_ms=0.0)
        shed = frontend.request("shop", ctx(2), now_ms=0.0)
        assert shed.served_from == "shed"
        assert shed.latency_ms == pytest.approx(SHED_LATENCY_MS)
        assert len(shed.recommendations) == 10
        assert frontend.stats.shed == 1
        assert frontend.stats.shed_by_reason == {"shed_overload": 1}
        snapshot = frontend.metrics.snapshot()
        assert snapshot.counter(
            "frontend_shed_total", reason="shed_overload"
        ) == 1.0

    def test_shed_requests_never_occupy_the_queue(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        queue = ServerQueue(n_servers=1)
        frontend = ServingFrontend(
            cluster, fallback=make_fallback(),
            protection=OverloadProtection(
                admission_rate_qps=1_000.0, admission_burst=1.0
            ),
            queue=queue,
        )
        frontend.request("shop", ctx(1), now_ms=0.0)
        busy_after_first = list(queue._busy_until)
        frontend.request("shop", ctx(2), now_ms=0.0)  # shed
        assert list(queue._busy_until) == busy_after_first

    def test_open_breaker_skips_dead_replica_for_free(self):
        cluster = make_cluster(n_nodes=3, n_shards=3, replication=2,
                               hot_fraction=1.0)
        cluster.load_batch("shop", table(), version=1)
        shard = cluster.shard_of("shop", 5)
        primary = cluster.replica_nodes(shard)[0].node_id
        cluster.fail_node(primary)
        frontend = self.make_frontend(
            cluster=cluster,
            breaker_min_samples=2, breaker_window=4,
            breaker_cooldown_ms=10_000.0,
        )
        # First requests pay the failover penalty and feed the breaker.
        warmup = frontend.request("shop", ctx(5), now_ms=0.0)
        assert warmup.latency_ms > 0.0
        frontend.request("shop", ctx(5, 4), now_ms=1.0)
        skips_before = cluster.breaker_skips
        # Unique contexts avoid the cache; the open breaker now routes
        # straight to the healthy replica with zero penalty.
        response = frontend.request("shop", ctx(5, 3), now_ms=2.0)
        assert cluster.breaker_skips > skips_before
        assert frontend.stats.breaker_transitions >= 1
        # No failover penalty component: latency is tier + blend only.
        assert response.latency_ms < warmup.latency_ms + FAILOVER_PENALTY_MS

    def test_breaker_transitions_metered(self):
        cluster = make_cluster(n_nodes=3, n_shards=3, replication=2)
        cluster.load_batch("shop", table(), version=1)
        cluster.fail_node(0)
        frontend = self.make_frontend(
            cluster=cluster, breaker_min_samples=1, breaker_window=2
        )
        for item in range(10):
            frontend.request("shop", ctx(item), now_ms=float(item))
        snapshot = frontend.metrics.snapshot()
        assert snapshot.counter(
            "serving_breaker_transitions_total", to_state="open"
        ) >= 1.0

    def test_deadline_never_exceeded_with_all_nodes_down(self):
        cluster = make_cluster()
        cluster.load_batch("shop", table(), version=1)
        for node in cluster.nodes:
            node.alive = False
        frontend = self.make_frontend(cluster=cluster)
        deadline = frontend.protection.deadline.deadline_ms
        for item in range(20):
            response = frontend.request("shop", ctx(item, item + 1),
                                        now_ms=float(item))
            assert response.latency_ms <= deadline + 1e-9
            assert response.served_from in ("fallback", "cache", "shed")

    def test_retries_charged_with_backoff(self):
        cluster = make_cluster(n_nodes=2, n_shards=2, replication=2)
        cluster.load_batch("shop", table(), version=1)
        for node in cluster.nodes:
            node.alive = False
        frontend = self.make_frontend(cluster=cluster)
        frontend.request("shop", ctx(1), now_ms=0.0)
        assert frontend.stats.retries >= 1
        assert frontend.metrics.snapshot().counter(
            "frontend_retries_total"
        ) == frontend.stats.retries

    def test_unprotected_path_unchanged(self):
        """A protection whose limits cannot bind answers, charges and
        counts every request exactly as no protection at all."""

        def build(protection):
            cluster = make_cluster()
            cluster.load_batch("shop", table(), version=1)
            cluster.load_batch("old", table(), version=1)
            # Two recs per item: every page of ten needs the tail top-up.
            cluster.load_batch("thin", table(n_recs=2), version=1)
            frontend = ServingFrontend(
                cluster,
                fallback=make_fallback(("shop", "old", "thin", "ghost")),
                protection=protection,
                queue=ServerQueue(n_servers=1),
            )
            frontend.expect_version("old", 2)  # served stale
            return frontend

        plain = build(None)
        unbound = build(
            OverloadProtection(
                admission_rate_qps=1e9, admission_burst=1e9,
                deadline=DeadlinePolicy(deadline_ms=1e9, max_retries=0),
            )
        )
        stream = [
            (rid, ctx(*range(item, item + 1 + item % 3)))
            for item in range(12)
            for rid in ("shop", "old", "thin", "ghost", "nobody")
        ]
        stream += [("shop", UserContext.empty()), ("ghost", UserContext.empty())]
        stream += stream[:10]  # cache hits
        for step, (rid, context) in enumerate(stream):
            # 20 requests/ms against one server: the queue backs up.
            now = step * 0.05
            assert plain.request(rid, context, now_ms=now) == unbound.request(
                rid, context, now_ms=now, client_id="c", priority="low"
            )
        batch = [("thin", ctx(30)), ("shop", ctx(31, 32)), ("thin", ctx(30)),
                 ("old", ctx(33)), ("shop", ctx(1))]
        assert plain.request_batch(batch, now_ms=10.0) == unbound.request_batch(
            batch, now_ms=10.0
        )
        assert plain.stats == unbound.stats
        assert plain.stats.stale_serves and plain.stats.tail_augmented
        assert plain.stats.coalesced and plain.stats.cache_hits
        assert plain.stats.fallbacks and plain.stats.empty_responses
        assert plain.queue.max_wait_ms == unbound.queue.max_wait_ms > 0.0


class TestServingBucketConservation:
    def test_buckets_sum_to_requests_across_modes(self):
        cluster = make_cluster(n_nodes=3, n_shards=6, replication=2)
        cluster.load_batch("shop", table(), version=1)
        frontend = ServingFrontend(
            cluster, fallback=make_fallback(("shop", "ghost")),
            protection=OverloadProtection(
                admission_rate_qps=2_000.0, admission_burst=5.0
            ),
            queue=ServerQueue(n_servers=1),
        )
        frontend.expect_version("shop", 2)  # everything serves stale
        now = 0.0
        for item in range(15):
            frontend.request("shop", ctx(item % N_ITEMS), now_ms=now)
            now += 0.25
        frontend.request("shop", ctx(1), now_ms=now)  # cache hit or shed
        frontend.request("ghost", ctx(2), now_ms=now)  # unserved -> fallback
        frontend.request("missing", UserContext((), ()), now_ms=now)  # empty
        cluster.fail_node(0)
        for item in range(10):
            frontend.request("shop", ctx(item + 20), now_ms=now)
            now += 0.25
        buckets = frontend.stats.serving_buckets()
        assert sum(buckets.values()) == frontend.stats.requests

    def test_empty_and_fallback_are_exclusive(self):
        cluster = make_cluster()
        frontend = ServingFrontend(cluster, fallback=PopularityFallback())
        response = frontend.request("nobody", ctx(1))
        assert response.served_from == "empty"
        assert frontend.stats.empty_responses == 1
        assert frontend.stats.fallbacks == 0


# ----------------------------------------------------------------------
# Satellite: the frontend never raises and never blows its deadline,
# under arbitrary replica-failure masks × breaker states × cache states.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    failure_mask=st.lists(st.booleans(), min_size=4, max_size=4),
    flips=st.lists(
        st.tuples(st.integers(0, 3), st.booleans()), max_size=6
    ),
    requests=st.lists(
        st.tuples(
            st.sampled_from(["shop", "ghost", "missing"]),
            st.lists(st.integers(0, N_ITEMS - 1), max_size=4),
        ),
        min_size=1,
        max_size=25,
    ),
    pre_trip=st.lists(st.integers(0, 3), max_size=3),
    k=st.sampled_from([0, 1, 5, 10]),
)
def test_request_never_raises_never_blows_deadline(
    failure_mask, flips, requests, pre_trip, k
):
    cluster = make_cluster()
    cluster.load_batch("shop", table(), version=1)
    fallback = make_fallback(("shop", "ghost"))
    protection = OverloadProtection(
        admission_rate_qps=10_000.0,
        admission_burst=16.0,
        breaker_min_samples=2,
        breaker_window=4,
        breaker_cooldown_ms=3.0,
        deadline=DeadlinePolicy(deadline_ms=12.0, max_retries=1),
    )
    frontend = ServingFrontend(
        cluster, fallback=fallback, protection=protection,
        queue=ServerQueue(n_servers=2),
    )
    for node_id, dead in enumerate(failure_mask):
        if dead:
            cluster.fail_node(node_id)
    # Arbitrary pre-existing breaker state: trip some breakers open.
    for node_id in pre_trip:
        protection.breakers.record_failure(node_id, 0.0)
        protection.breakers.record_failure(node_id, 0.0)
    now = 0.0
    deadline = protection.deadline.deadline_ms
    for step, (retailer, items) in enumerate(requests):
        # Mid-stream node flips exercise breaker recovery paths.
        if step < len(flips):
            node_id, alive = flips[step]
            cluster.nodes[node_id].alive = alive
        context = ctx(*items) if items else UserContext((), ())
        response = frontend.request(retailer, context, k=k, now_ms=now)
        assert len(response.recommendations) <= k
        assert response.latency_ms <= deadline + 1e-9, (
            f"deadline blown: {response.latency_ms} > {deadline} "
            f"(served_from={response.served_from})"
        )
        now += 0.4
    buckets = frontend.stats.serving_buckets()
    assert sum(buckets.values()) == frontend.stats.requests
