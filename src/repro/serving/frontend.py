"""The online serving frontend: the request path in front of the cluster.

The paper's architecture (section II-A) makes serving-time computation
trivial — precomputed per-item tables behind a low-latency distributed
store — so the frontend's job is plumbing, not math:

* resolve a user request (retailer, context) into per-item lookups
  against the sharded :class:`~repro.serving.cluster.ServingCluster`,
* blend the lookups with recency/strength weights (the exact
  :func:`~repro.serving.server.blend_context_lookups` semantics the
  in-process server uses),
* apply the head/tail hybrid policy at request time: head contexts are
  fully covered by precomputed tables; thin tail results are topped up
  from the co-occurrence/popularity fallback,
* degrade instead of failing — the **fallback chain** is
  fresh table -> stale table (counted, still served) -> popularity
  fallback -> empty list.  The request path never raises
  :class:`~repro.exceptions.ServingError`,
* cache responses in an **LRU + TTL** cache keyed by the retailer and
  the recent context trail (a hit returns its entry's own page, built
  at the entry's first hit), and **coalesce** identical
  in-flight requests so one computation feeds every duplicate,
* account **simulated latency** per request: the sum of cluster tier
  latencies (memory/flash plus failover penalties) plus fixed costs for
  blending, fallback, cache hits, and coalesced waits,
* under an :class:`~repro.serving.overload.OverloadProtection` bundle,
  survive hostile workloads: token-bucket **admission control** sheds
  excess load to the popularity fallback before the
  :class:`~repro.serving.overload.ServerQueue` can collapse, per-replica
  **circuit breakers** skip dead replicas for free instead of paying the
  blind failover walk, and per-request **deadline budgets** (bounded
  retry + backoff, every millisecond charged) guarantee
  ``latency_ms <= deadline_ms`` on every protected response.

A request is one pipeline — count -> cache -> admit -> queue ->
deadline-budgeted compute (lookup -> blend -> top-up -> fallback) ->
cache -> account — the same statements with or without protection: a
frontend built without one carries the null policy
:data:`~repro.serving.overload.UNPROTECTED`, whose limits never bind.

Every request terminates in **exactly one** serving bucket — cache,
coalesced, fresh, stale, fallback, shed, or empty — so the counts
conserve: their sum always equals ``requests`` (the availability
accounting the chaos acceptance checks read).

Counters (``frontend_requests_total``, ``frontend_cache_hits_total``,
``frontend_stale_serves_total``, ``frontend_fallback_total`` labeled by
stage, ``frontend_shed_total`` labeled by reason, ...) flow into a
:mod:`repro.obs` metrics registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.sessions import UserContext
from repro.exceptions import ServingError
from repro.models.base import ScoredItem
from repro.obs.metrics import NULL_METRICS
from repro.serving.cluster import (
    FAILOVER_PENALTY_MS,
    FLASH_LATENCY_MS,
    ServingCluster,
)
from repro.serving.overload import (
    SHED_LATENCY_MS,
    UNPROTECTED,
    OverloadProtection,
    ServerQueue,
)
from repro.serving.server import (
    DEFAULT_CONTEXT_LOOKUPS,
    ServedRecommendation,
    blend_context_lookups,
)

#: Fixed costs on the request path, in *modelled* milliseconds: a latency
#: model of a datacentre deployment, not a measurement of this code.
#: Every ``latency_ms`` is a sum of these and the cluster's tier constants
#: (a "warm p50 0.05 ms" is ``CACHE_HIT_LATENCY_MS`` read back); what the
#: Python costs is perfbench's ``serve_*_us`` and E24's *measured µs*.
CACHE_HIT_LATENCY_MS = 0.05
COALESCED_LATENCY_MS = 0.05
BLEND_LATENCY_MS = 0.1
FALLBACK_LATENCY_MS = 0.5
#: One ANN index probe (in-memory inverted lists; cheaper than the
#: popularity scan but pricier than a cache hit).
RETRIEVAL_LATENCY_MS = 0.3

#: Bucket bounds for the request latency histogram; the implicit +inf
#: bucket catches queueing-collapse outliers.
LATENCY_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0)
QUEUE_WAIT_BUCKETS = (0.1, 1.0, 5.0, 25.0, 100.0, 500.0, 2_000.0)


@dataclass(frozen=True)
class FrontendResponse:
    """One answered request: recommendations plus how they were served.

    ``served_from`` is one of ``"fresh"``, ``"stale"``, ``"fallback"``,
    ``"shed"``, ``"empty"``, or ``"cache"`` — the terminal stage of the
    fallback chain that produced the payload.
    """

    retailer_id: str
    recommendations: Tuple[ServedRecommendation, ...]
    latency_ms: float
    served_from: str
    version: int = 0
    stale: bool = False
    cache_hit: bool = False
    coalesced: bool = False
    fallback_stage: Optional[str] = None
    tail_augmented: int = 0
    #: Simulated wait for a free server charged by the queue model.
    queue_wait_ms: float = 0.0
    #: The compute path was cut short by the deadline budget.
    deadline_truncated: bool = False


@dataclass
class FrontendStats:
    """Request-path counters (mirrored into the metrics registry).

    The seven serving buckets — ``cache_hits``, ``coalesced``,
    ``fresh_serves``, ``stale_serves``, ``fallbacks``,
    ``empty_responses``, ``shed`` — are **mutually exclusive and
    exhaustive**: every request lands in exactly one, so
    :meth:`serving_buckets` always sums to ``requests``.
    """

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    fresh_serves: int = 0
    stale_serves: int = 0
    fallbacks: int = 0
    empty_responses: int = 0
    #: Requests shed by admission control to the cheap fallback path.
    shed: int = 0
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Requests whose compute path was truncated by the deadline budget.
    deadline_truncated: int = 0
    #: Bounded shard-walk retries charged with backoff.
    retries: int = 0
    #: Circuit breaker state transitions observed on this frontend.
    breaker_transitions: int = 0
    tail_augmented: int = 0
    cache_evictions: int = 0
    cache_expirations: int = 0
    #: Cached responses dropped because their table version was replaced
    #: (publish/rollback) before the TTL ran out.
    cache_invalidations: int = 0
    #: Coalesced joins refused because an invalidation landed between the
    #: leader's computation and the follower's arrival.
    coalesce_fenced: int = 0
    #: Tail slots filled from the retrieval index (before popularity).
    retrieval_topups: int = 0

    @property
    def cache_hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.cache_hits / self.requests

    def serving_buckets(self) -> Dict[str, int]:
        """The exclusive terminal buckets (sum == ``requests``)."""
        return {
            "cache": self.cache_hits,
            "coalesced": self.coalesced,
            "fresh": self.fresh_serves,
            "stale": self.stale_serves,
            "fallback": self.fallbacks,
            "shed": self.shed,
            "empty": self.empty_responses,
        }


class PopularityFallback:
    """Per-retailer ranked fallback lists (co-occurrence / popularity).

    The last resort of the fallback chain and the tail half of the
    request-time hybrid policy: a plain ranked list of a retailer's most
    popular items, built offline from view counts (or any co-occurrence
    marginal), served when personalized tables are missing or thin.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, List[ScoredItem]] = {}

    def load(self, retailer_id: str, ranked: Sequence[ScoredItem]) -> None:
        """Install a retailer's ranked fallback list (strongest first)."""
        self._tables[retailer_id] = sorted(
            (ScoredItem(int(s.item_index), float(s.score)) for s in ranked),
            key=lambda s: (-s.score, s.item_index),
        )

    def load_view_counts(
        self, retailer_id: str, view_counts: Mapping[int, float]
    ) -> None:
        """Build the ranked list from raw item view counts."""
        self.load(
            retailer_id,
            [ScoredItem(int(item), float(count))
             for item, count in view_counts.items()],
        )

    def drop(self, retailer_id: str) -> None:
        """Remove a retailer's fallback list (offboarding / merges)."""
        self._tables.pop(retailer_id, None)

    def has_retailer(self, retailer_id: str) -> bool:
        return retailer_id in self._tables

    def recommend(
        self, retailer_id: str, exclude: Iterable[int], k: int
    ) -> List[ScoredItem]:
        """Top-``k`` fallback items, skipping ``exclude`` (empty if unknown)."""
        table = self._tables.get(retailer_id)
        if not table or k <= 0:
            return []
        blocked = set(exclude)
        picked: List[ScoredItem] = []
        for scored in table:
            if scored.item_index in blocked:
                continue
            picked.append(scored)
            if len(picked) >= k:
                break
        return picked


#: ``(retailer_id, k, recent items, recent events)``; see ``cache_key``.
CacheKey = Tuple[str, int, Tuple[int, ...], Tuple[int, ...]]


@dataclass
class _CacheEntry:
    response: FrontendResponse
    inserted_ms: float
    version: int
    #: The page every hit on this entry returns, built at the first hit
    #: (most entries of a wide, cold cache are evicted unread).
    hit_page: Optional[FrontendResponse] = None


class ServingFrontend:
    """Answers per-user recommendation requests against the cluster.

    Time is simulated: callers pass ``now_ms`` (e.g. the traffic
    generator's arrival timestamps); without one the frontend advances an
    internal clock by one millisecond per request.  TTL expiry, latency
    accounting, and the benchmark's QPS math all run on this clock, so
    identical request streams produce byte-identical results.

    ``protection`` sets the overload policy (default: the null policy,
    whose limits never bind) and ``queue`` adds the finite-server
    capacity model (default: none).
    """

    def __init__(
        self,
        cluster: ServingCluster,
        fallback: Optional[PopularityFallback] = None,
        context_lookups: int = DEFAULT_CONTEXT_LOOKUPS,
        recency_decay: float = 0.7,
        cache_capacity: int = 10_000,
        cache_ttl_ms: float = 60_000.0,
        metrics=NULL_METRICS,
        protection: Optional[OverloadProtection] = None,
        queue: Optional[ServerQueue] = None,
    ):
        if cache_capacity < 0:
            raise ServingError("cache_capacity must be >= 0")
        if cache_ttl_ms <= 0:
            raise ServingError("cache_ttl_ms must be > 0")
        self.cluster = cluster
        self.fallback = fallback
        self.context_lookups = context_lookups
        self.recency_decay = recency_decay
        self.cache_capacity = cache_capacity
        self.cache_ttl_ms = cache_ttl_ms
        self.metrics = metrics
        self.protection = protection if protection is not None else UNPROTECTED
        self.queue = queue
        self.stats = FrontendStats()
        self._cache: "OrderedDict[CacheKey, _CacheEntry]" = OrderedDict()
        #: retailer -> its keys in ``_cache``; every way a key leaves the
        #: cache goes through :meth:`_cache_drop`, which keeps this in step.
        self._cache_keys: Dict[str, Set[CacheKey]] = {}
        self._expected_versions: Dict[str, int] = {}
        self._now_ms = 0.0
        #: Worst-case cost of one guarded lookup: fail over past every
        #: replica but the last, then hit flash on it.
        self._worst_lookup_ms = (
            (cluster.replication - 1) * FAILOVER_PENALTY_MS + FLASH_LATENCY_MS
        )
        #: Minimum budget the compute path needs to finish with at least
        #: a fallback answer without blowing a deadline.
        self._deadline_floor_ms = (
            self._worst_lookup_ms + BLEND_LATENCY_MS + FALLBACK_LATENCY_MS
        )
        self.protection.validate_for(cluster, self._deadline_floor_ms)
        if self.protection.breakers is not None:
            self.protection.breakers.on_transition = self._on_breaker_transition
        #: Published ANN adapters for request-time tail top-up, keyed by
        #: retailer (see :meth:`load_retrieval_index`).
        self._retrieval: Dict[str, object] = {}
        #: Per-retailer invalidation epochs: bumped by every
        #: :meth:`invalidate_retailer`, checked before a coalesced
        #: follower may join an in-flight leader (the fence that keeps a
        #: mid-batch publish from leaking pre-publish results).
        self._invalidation_epochs: Dict[str, int] = {}
        # A batch load changes what every cached response for that
        # retailer should contain; subscribe so the cluster tells us
        # instead of serving stale entries until their TTL runs out.
        subscribe = getattr(cluster, "subscribe_invalidation", None)
        if subscribe is not None:
            subscribe(self.invalidate_retailer)

    # ------------------------------------------------------------------
    # Freshness expectations
    # ------------------------------------------------------------------
    def expect_version(self, retailer_id: str, version: int) -> None:
        """Declare the version a retailer *should* be serving.

        The daily loop calls this when it publishes (or fails to publish)
        day N: a cluster table older than the expectation is served as
        **stale** — degraded but alive — and counted, never refused.
        """
        self._expected_versions[retailer_id] = int(version)

    def drop_retailer(self, retailer_id: str) -> None:
        """Take a retailer out of the serving tier (offboarding, merges).

        Its tables leave the cluster — whose drop notice reaches
        :meth:`invalidate_retailer`, so no cached page outlives them —
        and with them go the popularity list, the expected version and
        the ANN adapter: the next request answers ``unserved`` and empty.
        The invalidation epoch stays; it is the fence that keeps a
        request in flight from handing the departed tables to a follower.
        Idempotent.
        """
        self.cluster.drop_retailer(retailer_id)
        if self.fallback is not None:
            self.fallback.drop(retailer_id)
        self._expected_versions.pop(retailer_id, None)
        self._retrieval.pop(retailer_id, None)

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def cache_key(
        self, retailer_id: str, context: UserContext, k: int
    ) -> CacheKey:
        """``(retailer, k, items, events)`` — only the lookups that matter.

        The ``context_lookups`` most recent items and their events, as
        plain ``int`` tuples (an ``EventType`` and a bare ``1`` are one
        entry).  Older context items never influence the answer, so two
        users with the same recent trail share one cache entry.
        """
        n = self.context_lookups
        return (
            retailer_id,
            k,
            tuple(map(int, context.item_indices[-n:])),
            tuple(map(int, context.events[-n:])),
        )

    def _cache_get(
        self, key: CacheKey, now_ms: float
    ) -> Optional[FrontendResponse]:
        """The page a hit on ``key`` returns, or ``None`` (a miss).

        The version and TTL checks and the LRU touch run on every hit;
        an entry that fails one leaves, and its page with it."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        if entry.version != (self.cluster.version_of(key[0]) or 0):
            # The table moved under this entry (publish, rollback or
            # drop; a page of no table carries version 0); serving it
            # would pin users to a version that no longer exists.
            # Belt-and-suspenders with the load-time listener: this
            # also catches loads that bypassed the subscription.
            self._cache_drop(key)
            self.stats.cache_invalidations += 1
            self.metrics.counter("frontend_cache_invalidated_total").inc()
            return None
        if now_ms - entry.inserted_ms > self.cache_ttl_ms:
            self._cache_drop(key)
            self.stats.cache_expirations += 1
            self.metrics.counter("frontend_cache_expired_total").inc()
            return None
        self._cache.move_to_end(key)
        page = entry.hit_page
        if page is None:
            page = entry.hit_page = replace(
                entry.response,
                latency_ms=CACHE_HIT_LATENCY_MS,
                served_from="cache",
                cache_hit=True,
                coalesced=False,
                queue_wait_ms=0.0,
            )
        return page

    def _cache_put(
        self, key: CacheKey, response: FrontendResponse, now_ms: float
    ) -> None:
        if self.cache_capacity == 0:
            return
        if response.version not in (0, self.cluster.version_of(key[0])):
            # A publish/rollback/drop landed while this response was
            # being computed; inserting it would cache a table that is
            # already retired.  The per-read version check would catch
            # it, but there is no reason to store a known-dead entry.
            return
        self._cache[key] = _CacheEntry(
            response=response, inserted_ms=now_ms, version=response.version
        )
        self._cache.move_to_end(key)
        self._cache_keys.setdefault(key[0], set()).add(key)
        while len(self._cache) > self.cache_capacity:
            self._cache_drop(next(iter(self._cache)))
            self.stats.cache_evictions += 1
            self.metrics.counter("frontend_cache_evicted_total").inc()

    def _cache_drop(self, key: CacheKey) -> None:
        del self._cache[key]
        keys = self._cache_keys[key[0]]
        keys.discard(key)
        if not keys:
            del self._cache_keys[key[0]]

    def invalidate_retailer(self, retailer_id: str) -> int:
        """Drop a retailer's cached responses (call after a batch load).

        Also bumps the retailer's invalidation epoch, fencing in-flight
        coalesced leaders: a follower arriving after the bump recomputes
        instead of receiving the leader's pre-publish result.
        """
        self._invalidation_epochs[retailer_id] = (
            self._invalidation_epochs.get(retailer_id, 0) + 1
        )
        doomed = self._cache_keys.pop(retailer_id, ())
        for key in doomed:
            del self._cache[key]
        if doomed:
            self.stats.cache_invalidations += len(doomed)
            self.metrics.counter("frontend_cache_invalidated_total").inc(
                len(doomed)
            )
        return len(doomed)

    # ------------------------------------------------------------------
    # Retrieval top-up
    # ------------------------------------------------------------------
    def load_retrieval_index(self, retailer_id: str, adapter) -> None:
        """Install a retailer's published ANN index for tail top-up.

        Thin tail responses are topped up from the index (personalized
        neighbours of the query item) before falling back to popularity.
        Cached responses are dropped: their tails were computed without
        the index.
        """
        self._retrieval[retailer_id] = adapter
        self.invalidate_retailer(retailer_id)

    def drop_retrieval_index(self, retailer_id: str) -> None:
        self._retrieval.pop(retailer_id, None)
        self.invalidate_retailer(retailer_id)

    def cache_size(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def request(
        self,
        retailer_id: str,
        context: UserContext,
        k: int = 10,
        now_ms: Optional[float] = None,
        client_id: Optional[object] = None,
        priority: str = "normal",
    ) -> FrontendResponse:
        """Answer one request; never raises on a degraded retailer."""
        now = self._advance_clock(now_ms)
        key = self._count(retailer_id, context, k)
        return self._answer(retailer_id, context, k, now, key, client_id, priority)

    def request_batch(
        self,
        requests: Sequence[Tuple[str, UserContext]],
        k: int = 10,
        now_ms: Optional[float] = None,
        client_ids: Optional[Sequence[object]] = None,
        priority: str = "normal",
    ) -> List[FrontendResponse]:
        """Answer a batch of concurrent requests, coalescing duplicates.

        Requests in one batch are in flight *together*: a duplicate
        cache key cannot be saved by the cache (the leader's response is
        not cached yet when the duplicate arrives), so it attaches to the
        leader's in-flight computation and pays only a coalesced-wait
        latency.  Everything else is :meth:`request`'s pipeline.

        A follower only joins a leader whose invalidation epoch is still
        current: if a publish or rollback landed between the leader's
        computation and the follower's arrival, the follower recomputes
        against the new table instead of inheriting a retired result.
        """
        now = self._advance_clock(now_ms)
        # leader entries: key -> (response, invalidation epoch at start)
        leaders: Dict[CacheKey, Tuple[FrontendResponse, int]] = {}
        responses: List[FrontendResponse] = []
        for position, (retailer_id, context) in enumerate(requests):
            client_id = client_ids[position] if client_ids is not None else None
            key = self._count(retailer_id, context, k)
            epoch = self._invalidation_epochs.get(retailer_id, 0)
            leader = leaders.get(key)
            if leader is not None:
                leader_response, leader_epoch = leader
                if leader_epoch == epoch:
                    self.stats.coalesced += 1
                    self.metrics.counter(
                        "frontend_coalesced_total", retailer=retailer_id
                    ).inc()
                    follower = replace(
                        leader_response,
                        latency_ms=leader_response.latency_ms
                        + COALESCED_LATENCY_MS,
                        coalesced=True,
                    )
                    responses.append(follower)
                    self._observe_latency(follower)
                    continue
                # Fenced: the table moved mid-flight; this request
                # becomes the new leader against the fresh version.
                self.stats.coalesce_fenced += 1
                self.metrics.counter(
                    "frontend_coalesce_fenced_total", retailer=retailer_id
                ).inc()
                del leaders[key]
            response = self._answer(
                retailer_id, context, k, now, key, client_id, priority
            )
            if not response.cache_hit:
                leaders[key] = (response, epoch)
            responses.append(response)
        return responses

    def _count(self, retailer_id: str, context: UserContext, k: int) -> CacheKey:
        """First step of both entry points: count the request, key it."""
        self.stats.requests += 1
        self.metrics.counter(
            "frontend_requests_total", retailer=retailer_id
        ).inc()
        return self.cache_key(retailer_id, context, k)

    def _answer(
        self,
        retailer_id: str,
        context: UserContext,
        k: int,
        now: float,
        key: CacheKey,
        client_id: Optional[object],
        priority: str,
    ) -> FrontendResponse:
        """Cache -> admit -> queue -> budgeted compute -> cache -> account.

        A shed request never touches the cluster and never occupies a
        queue server — that is the protection.
        """
        cached = self._cache_get(key, now)
        if cached is not None:
            self.stats.cache_hits += 1
            self.metrics.counter(
                "frontend_cache_hits_total", retailer=retailer_id
            ).inc()
            self._observe_latency(cached)
            return cached
        decision = self.protection.admit(now, client_id, priority)
        wait = self.queue.wait_time(now) if self.queue is not None else 0.0
        budget = self.protection.deadline.deadline_ms - wait
        if not decision.admitted:
            response = self._terminal_page(
                retailer_id, context, k, decision.reason, shed=True
            )
        elif budget < self._deadline_floor_ms:
            # Queuing for a slot would blow the deadline; shed to the
            # cheap path instead of joining the backlog.
            response = self._terminal_page(
                retailer_id, context, k, "queue_full", shed=True
            )
        else:
            response, complete = self._compute(
                retailer_id, context, k, now, budget
            )
            if self.queue is not None:
                wait = self.queue.occupy(now, response.latency_ms)
                if wait > 0.0:
                    self.metrics.histogram(
                        "frontend_queue_wait_ms", buckets=QUEUE_WAIT_BUCKETS
                    ).observe(wait)
                response = replace(
                    response,
                    latency_ms=response.latency_ms + wait,
                    queue_wait_ms=wait,
                )
            if complete:
                self._cache_put(key, response, now)
        self._observe_latency(response)
        return response

    # ------------------------------------------------------------------
    # The fallback chain
    # ------------------------------------------------------------------
    def _compute(
        self,
        retailer_id: str,
        context: UserContext,
        k: int,
        now: float,
        budget_ms: float,
    ) -> Tuple[FrontendResponse, bool]:
        """Lookup -> blend -> top-up -> fallback inside ``budget_ms``
        (always a number: ``inf`` under the null policy), and whether the
        page may be cached: not if a lookup failed (even one a retry then
        answered) or the deadline cut it short."""
        version = self.cluster.version_of(retailer_id)
        if version is None:
            return self._terminal_page(retailer_id, context, k, "unserved"), True
        if len(context) == 0:
            page = self._terminal_page(
                retailer_id, context, k, "empty_context", version=version
            )
            return page, True

        latency = 0.0
        degraded = False
        truncated = False
        breakers = self.protection.breakers
        deadline = self.protection.deadline
        #: Budget that must stay reserved past the lookup phase: the
        #: blend constant plus a terminal fallback answer.
        reserve = BLEND_LATENCY_MS + FALLBACK_LATENCY_MS

        def within_budget(cost: float) -> bool:
            return latency + cost + reserve <= budget_ms

        def recs_for(item: int) -> Sequence[ScoredItem]:
            nonlocal latency, degraded, truncated
            attempt = 0
            while True:
                if not within_budget(self._worst_lookup_ms):
                    truncated = True
                    return ()
                failovers_before = self.cluster.failovers
                try:
                    result = self.cluster.lookup(
                        retailer_id, item, breakers=breakers, now_ms=now
                    )
                except ServingError:
                    # Every reachable replica of this item's shard failed;
                    # charge exactly the probes that were walked (open
                    # breakers were skipped for free) and either retry
                    # with backoff or move on with nothing — the
                    # remaining lookups (and the chain) still serve.
                    degraded = True
                    probed = self.cluster.failovers - failovers_before
                    latency += probed * FAILOVER_PENALTY_MS
                    if attempt < deadline.max_retries:
                        backoff = deadline.backoff_for(attempt)
                        if within_budget(backoff + self._worst_lookup_ms):
                            latency += backoff
                            attempt += 1
                            self.stats.retries += 1
                            self.metrics.counter(
                                "frontend_retries_total"
                            ).inc()
                            continue
                    return ()
                latency += result.latency_ms
                return result.recommendations

        recent = list(zip(context.item_indices, context.events))
        recent = recent[-self.context_lookups:]
        recommendations = blend_context_lookups(
            recent, recs_for, self.recency_decay, set(context.item_indices), k
        )
        latency += BLEND_LATENCY_MS
        if truncated:
            self.stats.deadline_truncated += 1
            self.metrics.counter("frontend_deadline_truncated_total").inc()

        if not recommendations:
            if truncated:
                stage = "deadline"
            elif degraded:
                stage = "degraded"
            else:
                stage = "no_results"
            page = self._terminal_page(
                retailer_id, context, k, stage, latency, version
            )
            return page, not (degraded or truncated)

        tail_augmented = 0
        need = k - len(recommendations)
        index = self._retrieval.get(retailer_id)
        if need > 0 and (self.fallback is not None or index is not None):
            # Request-time hybrid head/tail policy: head contexts fill k
            # from precomputed tables alone; thin tail results are topped
            # up so every page is full — personalized neighbours from the
            # retrieval index first, popularity for whatever remains.
            # Under deadline pressure the top-ups are the first work to
            # be skipped: a slightly short page beats a blown deadline.
            exclude = set(context.item_indices)
            exclude.update(rec.item_index for rec in recommendations)
            floor = recommendations[-1].score
            extras: List[ScoredItem] = []
            if index is not None and (
                latency + RETRIEVAL_LATENCY_MS + FALLBACK_LATENCY_MS
                <= budget_ms
            ):
                extras = self._retrieval_extras(context, exclude, need, index)
                if extras:
                    latency += RETRIEVAL_LATENCY_MS
                    exclude.update(s.item_index for s in extras)
                    self.stats.retrieval_topups += len(extras)
                    self.metrics.counter(
                        "frontend_retrieval_topup_total", retailer=retailer_id
                    ).inc(len(extras))
            if (
                len(extras) < need
                and self.fallback is not None
                and latency + FALLBACK_LATENCY_MS <= budget_ms
            ):
                popular = self.fallback.recommend(
                    retailer_id, exclude, need - len(extras)
                )
                if popular:
                    latency += FALLBACK_LATENCY_MS
                    extras.extend(popular)
            if extras:
                for position, scored in enumerate(extras):
                    # Slot below the personalized floor so topped-up items
                    # never outrank a real recommendation.
                    recommendations.append(
                        ServedRecommendation(
                            item_index=scored.item_index,
                            score=floor - (position + 1) * (abs(floor) * 1e-3 + 1e-9),
                            source_item=-1,
                        )
                    )
                tail_augmented = len(extras)
                self.stats.tail_augmented += tail_augmented
                self.metrics.counter(
                    "frontend_tail_augmented_total", retailer=retailer_id
                ).inc(tail_augmented)

        expected = self._expected_versions.get(retailer_id)
        stale = expected is not None and version < expected
        if stale:
            self.stats.stale_serves += 1
            self.metrics.counter(
                "frontend_stale_serves_total", retailer=retailer_id
            ).inc()
        else:
            self.stats.fresh_serves += 1
            self.metrics.counter(
                "frontend_fresh_serves_total", retailer=retailer_id
            ).inc()
        page = FrontendResponse(
            retailer_id=retailer_id,
            recommendations=tuple(recommendations),
            latency_ms=latency,
            served_from="stale" if stale else "fresh",
            version=version,
            stale=stale,
            tail_augmented=tail_augmented,
            deadline_truncated=truncated,
        )
        return page, not (degraded or truncated)

    def _retrieval_extras(
        self,
        context: UserContext,
        exclude: set,
        need: int,
        index,
    ) -> List[ScoredItem]:
        """Neighbours of the most recent context item, minus exclusions.

        Over-fetches by the exclusion size so filtering still leaves
        ``need`` items; any index trouble (item outside the indexed
        catalog) degrades to an empty list — the chain continues.
        """
        query = context.most_recent_item
        if query is None or query >= index.n_items or query < 0:
            return []
        ids, scores = index.search_items(
            np.array([query], dtype=np.int64), need + len(exclude) + 1
        )
        extras: List[ScoredItem] = []
        for item, score in zip(ids[0].tolist(), scores[0].tolist()):
            if item < 0 or item in exclude:
                continue
            extras.append(ScoredItem(int(item), float(score)))
            if len(extras) >= need:
                break
        return extras

    def _terminal_page(
        self,
        retailer_id: str,
        context: UserContext,
        k: int,
        stage: str,
        base_latency: float = 0.0,
        version: Optional[int] = None,
        shed: bool = False,
    ) -> FrontendResponse:
        """The popularity page of a request the tables did not answer.

        **Shed** by admission or a full queue (``stage`` is the reason),
        the chain's **fallback** stage, or — the chain got here and no
        popularity table had anything — **empty**.  Exactly one bucket is
        charged, never two: the conservation invariant the chaos checks
        audit.
        """
        items: List[ScoredItem] = []
        if self.fallback is not None:
            items = self.fallback.recommend(
                retailer_id, set(context.item_indices), k
            )
        if shed:
            served_from, latency = "shed", SHED_LATENCY_MS
            version = self.cluster.version_of(retailer_id)
            self.stats.shed += 1
            self.stats.shed_by_reason[stage] = (
                self.stats.shed_by_reason.get(stage, 0) + 1
            )
            self.metrics.counter("frontend_shed_total", reason=stage).inc()
        else:
            latency = base_latency + FALLBACK_LATENCY_MS
            if items:
                served_from = "fallback"
                self.stats.fallbacks += 1
                self.metrics.counter("frontend_fallback_total", stage=stage).inc()
            else:
                served_from = "empty"
                self.stats.empty_responses += 1
                self.metrics.counter("frontend_empty_total", stage=stage).inc()
        return FrontendResponse(
            retailer_id=retailer_id,
            recommendations=tuple(
                ServedRecommendation(s.item_index, s.score, -1) for s in items
            ),
            latency_ms=latency,
            served_from=served_from,
            version=version or 0,
            fallback_stage=stage,
        )

    # ------------------------------------------------------------------
    # Clock / latency accounting
    # ------------------------------------------------------------------
    def _advance_clock(self, now_ms: Optional[float]) -> float:
        if now_ms is None:
            self._now_ms += 1.0
        elif now_ms >= self._now_ms:
            self._now_ms = float(now_ms)
        return self._now_ms

    def _on_breaker_transition(self, node_id: int, old: str, new: str) -> None:
        self.stats.breaker_transitions += 1
        self.metrics.counter(
            "serving_breaker_transitions_total", to_state=new
        ).inc()

    def _observe_latency(self, response: FrontendResponse) -> None:
        self.metrics.histogram(
            "frontend_latency_ms",
            buckets=LATENCY_BUCKETS,
            served=response.served_from,
        ).observe(response.latency_ms)
