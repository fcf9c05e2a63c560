"""Golden digest of one hostile request stream through the frontend.

Everything the request path returns — every field of every
:class:`FrontendResponse`, latencies, scores and flags included — plus
the final :class:`FrontendStats` and the metrics snapshot, hashed.  The
digest was recorded before the request pipeline was rewritten as one
path (ISSUE 17); a refactor of ``serving/frontend.py`` that moves it has
changed what some request is answered with, charged or counted as.

The stream never asks for ``k <= 0`` and republishes a same-sized table,
so the two bug fixes that rode with the refactor do not touch it.

Re-recorded once since, when pages with a failed or deadline-cut lookup
stopped being cached: 39 cache hits had served such a page, and each now
recomputes; the extra work moves the queue and the admission buckets,
so 212 of the 1 500 responses differ, the first at position 32.
"""

from __future__ import annotations

import hashlib

from repro.data.sessions import UserContext
from repro.obs import MetricsRegistry
from repro.retrieval import ExactRetrieval, ModelRetrieval
from repro.retrieval.harness import synthetic_embeddings
from repro.rng import make_rng
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.overload import (
    DeadlinePolicy,
    OverloadProtection,
    ServerQueue,
)
from repro.serving.traffic import (
    TrafficGenerator,
    synthetic_recommendation_table,
)
from tests.test_serving_frontend import _PublishDuringLookupCluster

GOLDEN_SHA256 = "85e8070a07e5e31ad711d1bb524833ddc7e1f05644fdc0e6ad9cef418392eddf"

#: retailer -> (catalog size, recommendations per item).  ``thin`` serves
#: three per item, so every page of ten needs the top-ups; ``ghost`` has
#: a popularity table and no cluster table; ``nobody`` has neither.
CATALOGS = {
    "big": (300, 10),
    "thin": (120, 3),
    "stale": (80, 10),
    "ghost": (60, 0),
    "nobody": (40, 0),
}
N_REQUESTS = 1_500
BATCHED_FROM = 1_200
BATCH = 32
#: Batched chunks during whose first lookup a publish of ``big`` lands.
PUBLISH_CHUNKS = (1, 2, 4, 5, 7, 8)
SEED = 17


def build_world():
    cluster = _PublishDuringLookupCluster(
        n_nodes=4, n_shards=16, replication=2, hot_fraction=0.2,
        memory_capacity_entries=60,
    )
    fallback = PopularityFallback()
    tables = {}
    for retailer_id, (n_items, n_recs) in CATALOGS.items():
        if retailer_id != "nobody":
            fallback.load_view_counts(
                retailer_id, {item: float(n_items - item) for item in range(n_items)}
            )
        if n_recs:
            tables[retailer_id] = synthetic_recommendation_table(
                n_items, n_recs=n_recs, seed=SEED
            )
            cluster.load_batch(retailer_id, tables[retailer_id], version=1)
    frontend = ServingFrontend(
        cluster,
        fallback=fallback,
        cache_capacity=48,
        cache_ttl_ms=150.0,
        metrics=MetricsRegistry(),
        protection=OverloadProtection(
            admission_rate_qps=1_500.0,
            admission_burst=12.0,
            client_rate_qps=20.0,
            client_burst=3.0,
            breaker_min_samples=2,
            breaker_window=4,
            breaker_cooldown_ms=40.0,
            deadline=DeadlinePolicy(deadline_ms=6.0, max_retries=1),
        ),
        queue=ServerQueue(n_servers=2),
    )
    for retailer_id in tables:
        frontend.expect_version(retailer_id, 2 if retailer_id == "stale" else 1)
    vectors, bias = synthetic_embeddings(CATALOGS["thin"][0], 8, seed=SEED)
    frontend.load_retrieval_index(
        "thin", ModelRetrieval(ExactRetrieval(vectors, bias), vectors)
    )
    return cluster, frontend, tables


def build_stream():
    """``(retailer, context, now_ms, client_id, priority)`` per request."""
    generator = TrafficGenerator(
        {rid: n_items for rid, (n_items, _) in CATALOGS.items()},
        n_users=400, user_exponent=1.1, qps=3_000.0, seed=SEED,
    )
    rng = make_rng(SEED)
    stream = []
    for position, request in enumerate(generator.generate(N_REQUESTS)):
        retailer_id, context, client, priority = (
            request.retailer_id, request.context, None, "normal"
        )
        if position % 25 == 0:  # the bot: fresh contexts, one client id
            retailer_id, client = "big", "bot"
            items = rng.integers(0, CATALOGS["big"][0], size=3).tolist()
            context = UserContext(tuple(items), (0, 0, 0))
        elif position % 40 == 7:
            context = UserContext.empty()
        elif position % 11 == 3:
            priority = "low"
        elif position % 13 == 5:
            priority, client = "high", f"ops{position % 2}"
        stream.append(
            (retailer_id, context, request.timestamp_ms, client, priority)
        )
    # A leader and its duplicate astride each mid-chunk publish: the
    # duplicate must be fenced off the leader's pre-publish page.
    for chunk_index in PUBLISH_CHUNKS:
        start = BATCHED_FROM + chunk_index * BATCH
        twin = UserContext((chunk_index, 2 * chunk_index + 1), (0, 2))
        for position in (start, start + 5):
            stream[position] = ("big", twin, stream[position][2], None, "normal")
    return stream


def replay():
    cluster, frontend, tables = build_world()
    stream = build_stream()
    #: position -> what happens to the world just before that request.
    world_events = {
        200: lambda: cluster.fail_node(0),
        450: lambda: cluster.fail_node(1),  # shards on nodes (0, 1) are dark
        600: lambda: (
            cluster.load_batch("big", tables["big"], version=2),
            frontend.expect_version("big", 2),
        ),
        800: lambda: cluster.recover_node(0),  # breakers half-open, close
        1_000: lambda: cluster.recover_node(1),
        1_296: lambda: cluster.fail_node(2),
    }

    def publish_mid_chunk(version):
        def queue():
            cluster.publish_on_next_lookup = ("big", tables["big"], version)
            frontend.expect_version("big", version)
        return queue

    # Publishes that land while a coalescing leader is in flight.
    for version, chunk_index in enumerate(PUBLISH_CHUNKS, start=3):
        world_events[BATCHED_FROM + chunk_index * BATCH] = publish_mid_chunk(version)
    responses = []
    position = 0
    while position < len(stream):
        if position in world_events:
            world_events[position]()
        if position < BATCHED_FROM:
            retailer_id, context, now_ms, client, priority = stream[position]
            responses.append(
                frontend.request(
                    retailer_id, context, k=10, now_ms=now_ms,
                    client_id=client, priority=priority,
                )
            )
            position += 1
            continue
        chunk = stream[position:position + BATCH]
        responses.extend(
            frontend.request_batch(
                [(rid, context) for rid, context, *_ in chunk],
                k=10,
                now_ms=chunk[0][2],
                client_ids=[client for *_, client, _ in chunk],
            )
        )
        position += len(chunk)
    return frontend, responses


def test_hostile_stream_golden_digest():
    frontend, responses = replay()
    stats = frontend.stats
    assert len(responses) == stats.requests == N_REQUESTS
    assert sum(stats.serving_buckets().values()) == stats.requests
    # The stream is hostile enough to mean something: every bucket and
    # every protective action occurs.
    assert all(stats.serving_buckets().values()), stats.serving_buckets()
    assert {"client_rate", "shed_overload", "shed_low", "queue_full"} <= set(
        stats.shed_by_reason
    ), stats.shed_by_reason
    for counter in (
        "deadline_truncated", "retries", "breaker_transitions",
        "tail_augmented", "retrieval_topups", "cache_evictions",
        "cache_expirations", "cache_invalidations", "coalesce_fenced",
    ):
        assert getattr(stats, counter) > 0, counter
    stages = {r.fallback_stage for r in responses}
    assert {"unserved", "empty_context", "degraded", "deadline"} <= stages, stages
    assert all(len(r.recommendations) <= 10 for r in responses)

    digest = hashlib.sha256()
    for response in responses:
        digest.update(repr(response).encode())
        digest.update(b"\n")
    digest.update(repr(stats).encode())
    digest.update(frontend.metrics.snapshot().to_json().encode())
    assert digest.hexdigest() == GOLDEN_SHA256
