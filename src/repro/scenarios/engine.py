"""The chaos scenario engine: scripted world events, sealed verdicts.

A :class:`Scenario` is a frozen script: a small fleet of synthetic
retailers, an organic traffic shape, a list of timed
:class:`~repro.scenarios.events.ScenarioEvent`\\ s, and the
:class:`~repro.scenarios.checks.AcceptanceCheck`\\ s the run must
satisfy.  :func:`run_scenario` plays the script day by day:

1. apply the day's events (traffic spikes, node failures, onboarding,
   drift, bot floods, skipped publishes),
2. republish every retailer's tables (built from its — possibly
   evolved — ``item_popularity``) at ``version = day + 1``,
3. serve the day's merged organic + attack request stream through a
   real :class:`~repro.serving.frontend.ServingFrontend` (with or
   without overload protection — the run's one degree of freedom),
4. simulate clicks with a patience-bounded propensity model (slow
   responses are abandoned: latency is not a free metric),
5. **seal the day**: swap in a fresh ``repro.obs`` registry per day, so
   each day's counters/gauges/histograms are an immutable snapshot, and
   feed the serving-outcome buckets through
   :meth:`QualityMonitor.record_serving_window` (conservation is
   enforced on every single day, not just in tests).

Acceptance checks evaluate against the sealed
:class:`DayStats` — parsed back out of the snapshots, never read from
live objects — and the whole verdict serializes to canonical JSON:
running the same scenario twice yields byte-identical verdicts, which
``tests/test_scenarios.py`` asserts for every catalog entry.

Determinism rules: all randomness flows through
``derive_seed(scenario.seed, ...)`` streams; all timing through the
traffic generator's simulated millisecond clock.  Nothing reads the
wall clock.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.monitoring import QualityMonitor
from repro.data.events import EventType
from repro.data.evolution import EvolutionSpec, evolve_retailer
from repro.data.generator import RetailerSpec, SyntheticRetailer, generate_retailer
from repro.data.sessions import UserContext
from repro.exceptions import SigmundError
from repro.models.base import ScoredItem
from repro.obs.metrics import MetricsRegistry
from repro.rng import derive_seed, make_rng
from repro.scenarios.checks import AcceptanceCheck, CheckResult, CTRInvariance
from repro.scenarios.events import (
    ADVERSARIAL_KINDS,
    ScenarioEvent,
    strip_adversarial,
)
from repro.serving.cluster import ServingCluster
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.overload import (
    DeadlinePolicy,
    OverloadProtection,
    ServerQueue,
)
from repro.serving.traffic import TrafficGenerator

#: Recommendations per item in the republished tables.
TABLE_RECS = 10

#: Click propensity by the serving bucket that produced the page.  A
#: popularity page converts worse than a personalized one; an empty page
#: never converts.  Values sit in the range the paper's Fig. 6 CTR plots
#: make plausible for browse placements.
CLICK_PROPENSITY: Dict[str, float] = {
    "fresh": 0.14,
    "cache": 0.14,
    "stale": 0.11,
    "fallback": 0.07,
    "shed": 0.07,
    "empty": 0.0,
}


@dataclass(frozen=True)
class Scenario:
    """One scripted chaos drill (a pure value: replayable, hashable-ish)."""

    name: str
    description: str
    seed: int
    days: int
    #: Base catalog sizes; retailer ids become ``r00, r01, ...`` in size
    #: order, so ``r00`` is always the head tenant.
    retailer_items: Tuple[int, ...]
    events: Tuple[ScenarioEvent, ...] = ()
    checks: Tuple[AcceptanceCheck, ...] = ()
    base_qps: float = 1_000.0
    requests_per_day: int = 2_000
    #: Users abandon (no click) any response slower than this.
    patience_ms: float = 50.0
    availability_floor: float = 0.999
    # --- world sizing -------------------------------------------------
    n_nodes: int = 6
    n_shards: int = 24
    replication: int = 2
    n_servers: int = 6
    n_users: int = 50_000
    # --- protection knobs (ignored on unprotected runs) ---------------
    admission_qps: float = 6_000.0
    admission_burst: float = 300.0
    shed_low_watermark: float = 0.5
    client_rate_qps: float = 5.0
    client_burst: float = 10.0
    deadline_ms: float = 25.0
    max_retries: int = 1
    breaker_cooldown_ms: float = 400.0
    breaker_min_samples: int = 8
    breaker_window: int = 16

    def __post_init__(self) -> None:
        if self.days < 1:
            raise SigmundError("a scenario needs at least one day")
        if not self.retailer_items:
            raise SigmundError("a scenario needs at least one retailer")
        late = [e for e in self.events if e.day > self.days]
        if late:
            raise SigmundError(
                f"events scheduled past day {self.days}: {late}"
            )

    def protection(self) -> OverloadProtection:
        return OverloadProtection(
            admission_rate_qps=self.admission_qps,
            admission_burst=self.admission_burst,
            shed_low_watermark=self.shed_low_watermark,
            client_rate_qps=self.client_rate_qps,
            client_burst=self.client_burst,
            breaker_window=self.breaker_window,
            breaker_min_samples=self.breaker_min_samples,
            breaker_cooldown_ms=self.breaker_cooldown_ms,
            deadline=DeadlinePolicy(
                deadline_ms=self.deadline_ms, max_retries=self.max_retries
            ),
        )


@dataclass(frozen=True)
class DayStats:
    """One sealed day, parsed back out of its ``repro.obs`` snapshot."""

    day: int
    requests: int
    buckets: Dict[str, int]
    p50_ms: float
    p99_ms: float
    availability: float
    organic_requests: int
    organic_clicks: int
    max_queue_wait_ms: float
    breaker_transitions: int
    open_breakers: int
    shed: int
    deadline_truncated: int

    @property
    def organic_ctr(self) -> float:
        if self.organic_requests == 0:
            return 0.0
        return self.organic_clicks / self.organic_requests

    def as_dict(self) -> Dict[str, object]:
        return {
            "day": self.day,
            "requests": self.requests,
            "buckets": {k: self.buckets[k] for k in sorted(self.buckets)},
            "p50_ms": round(self.p50_ms, 6),
            "p99_ms": round(self.p99_ms, 6),
            "availability": round(self.availability, 6),
            "organic_ctr": round(self.organic_ctr, 6),
            "shed": self.shed,
            "deadline_truncated": self.deadline_truncated,
            "breaker_transitions": self.breaker_transitions,
            "open_breakers": self.open_breakers,
            "max_queue_wait_ms": round(self.max_queue_wait_ms, 6),
        }


@dataclass
class ScenarioResult:
    """Everything a run produced: sealed days, checks, canonical verdict."""

    scenario: Scenario
    protected: bool
    day_stats: List[DayStats]
    seals: List[Dict[str, object]]
    monitor: QualityMonitor
    control_ctr: Optional[float] = None
    _verdict: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def organic_ctr(self) -> float:
        requests = sum(d.organic_requests for d in self.day_stats)
        clicks = sum(d.organic_clicks for d in self.day_stats)
        return clicks / requests if requests else 0.0

    @property
    def p99_ms(self) -> float:
        return max(d.p99_ms for d in self.day_stats)

    @property
    def availability(self) -> float:
        return min(d.availability for d in self.day_stats)

    def check_results(self) -> List[CheckResult]:
        return [check.evaluate(self) for check in self.scenario.checks]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.check_results())

    def verdict(self) -> Dict[str, object]:
        """The machine-checkable outcome, suitable for canonical JSON."""
        if self._verdict is None:
            checks = [r.as_dict() for r in self.check_results()]
            self._verdict = {
                "scenario": self.scenario.name,
                "seed": self.scenario.seed,
                "protected": self.protected,
                "passed": all(c["passed"] for c in checks),
                "checks": checks,
                "organic_ctr": round(self.organic_ctr, 6),
                "control_ctr": (
                    None if self.control_ctr is None
                    else round(self.control_ctr, 6)
                ),
                "days": [d.as_dict() for d in self.day_stats],
            }
        return self._verdict

    def verdict_json(self) -> str:
        """Canonical JSON — byte-identical across identical reruns."""
        return json.dumps(
            self.verdict(), sort_keys=True, separators=(",", ":")
        )


@dataclass(frozen=True)
class _BotRequest:
    retailer_id: str
    client_id: str
    context: UserContext
    timestamp_ms: float


class _World:
    """The mutable simulated world one scenario run plays against."""

    def __init__(self, scenario: Scenario, protected: bool):
        self.scenario = scenario
        self.retailers: Dict[str, SyntheticRetailer] = {}
        sizes = sorted(scenario.retailer_items, reverse=True)
        for index, n_items in enumerate(sizes):
            rid = f"r{index:02d}"
            self.retailers[rid] = generate_retailer(
                RetailerSpec(
                    retailer_id=rid,
                    n_items=int(n_items),
                    n_users=max(12, int(n_items) // 4),
                    seed=derive_seed(scenario.seed, "retailer", index),
                )
            )
        self.cluster = ServingCluster(
            n_nodes=scenario.n_nodes,
            n_shards=scenario.n_shards,
            replication=scenario.replication,
            hot_fraction=0.3,
            memory_capacity_entries=1_000_000,
        )
        self.fallback = PopularityFallback()
        self.queue = ServerQueue(n_servers=scenario.n_servers)
        self.frontend = ServingFrontend(
            self.cluster,
            fallback=self.fallback,
            protection=scenario.protection() if protected else None,
            queue=self.queue,
        )
        self.traffic = TrafficGenerator(
            {rid: r.spec.n_items for rid, r in self.retailers.items()},
            n_users=scenario.n_users,
            qps=scenario.base_qps,
            seed=derive_seed(scenario.seed, "traffic"),
        )
        self.monitor = QualityMonitor()
        # Day-0 bootstrap: every retailer starts published and fresh.
        for rid in sorted(self.retailers):
            self.publish(rid, version=1)
        #: Retailers onboarded today (cold: first table publishes tomorrow).
        self.cold_today: set = set()
        #: Retailers whose publish fails today (stale serves expected).
        self.skip_today: set = set()
        #: The day's active bot flood, if any.
        self.flood: Optional[ScenarioEvent] = None

    def publish(self, rid: str, version: int) -> None:
        retailer = self.retailers[rid]
        self.cluster.load_batch(rid, _build_table(retailer), version=version)
        self.frontend.expect_version(rid, version)
        self.fallback.load_view_counts(
            rid,
            {
                item: float(pop)
                for item, pop in enumerate(retailer.item_popularity)
            },
        )

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, ev: ScenarioEvent, day: int) -> None:
        if ev.kind == "set_qps":
            self.traffic.set_qps(float(ev.require("qps")))
        elif ev.kind == "boost_retailer":
            self.traffic.set_retailer_boost(
                str(ev.require("retailer_id")), float(ev.require("factor"))
            )
        elif ev.kind == "clear_boosts":
            self.traffic.clear_boosts()
        elif ev.kind == "onboard_retailer":
            rid = str(ev.require("retailer_id"))
            n_items = int(ev.require("n_items"))
            self.retailers[rid] = generate_retailer(
                RetailerSpec(
                    retailer_id=rid,
                    n_items=n_items,
                    n_users=max(12, n_items // 4),
                    seed=derive_seed(self.scenario.seed, "onboard", rid),
                )
            )
            self.traffic.add_retailer(rid, n_items)
            # The popularity fallback ships instantly (it needs no
            # training run); personalized tables publish tomorrow.
            self.fallback.load_view_counts(
                rid,
                {
                    item: float(pop)
                    for item, pop in enumerate(
                        self.retailers[rid].item_popularity
                    )
                },
            )
            self.cold_today.add(rid)
        elif ev.kind == "merge_retailers":
            source = str(ev.require("source"))
            target = str(ev.require("target"))
            if source not in self.retailers or target not in self.retailers:
                raise SigmundError(
                    f"merge needs both retailers: {source!r} -> {target!r}"
                )
            merged_items = (
                self.retailers[target].spec.n_items
                + self.retailers[source].spec.n_items
            )
            del self.retailers[source]
            self.traffic.remove_retailer(source)
            self.frontend.drop_retailer(source)
            self.retailers[target] = generate_retailer(
                RetailerSpec(
                    retailer_id=target,
                    n_items=merged_items,
                    n_users=max(12, merged_items // 4),
                    seed=derive_seed(self.scenario.seed, "merge", target, day),
                )
            )
            self.traffic.resize_retailer(target, merged_items)
        elif ev.kind == "fail_node":
            self.cluster.fail_node(int(ev.require("node_id")))
        elif ev.kind == "recover_node":
            self.cluster.recover_node(int(ev.require("node_id")))
        elif ev.kind == "bot_flood":
            self.flood = ev
        elif ev.kind == "drift":
            spec = EvolutionSpec(
                new_item_rate=float(ev.get("new_item_rate", 0.05)),
                interest_drift=float(ev.get("interest_drift", 0.10)),
                daily_event_fraction=float(
                    ev.get("daily_event_fraction", 0.3)
                ),
            )
            for rid in sorted(self.retailers):
                evolved = evolve_retailer(self.retailers[rid], day, spec)
                self.retailers[rid] = evolved
                self.traffic.resize_retailer(rid, evolved.spec.n_items)
        elif ev.kind == "skip_publish":
            self.skip_today.add(str(ev.require("retailer_id")))
        else:  # pragma: no cover - ScenarioEvent already validates kinds
            raise SigmundError(f"unhandled event kind {ev.kind!r}")


def _build_table(retailer: SyntheticRetailer) -> Dict[int, List[ScoredItem]]:
    """A popularity-anchored item-item table (deterministic, cheap).

    Each item recommends the catalog's strongest items (minus itself);
    scores follow ``item_popularity``, so hot-tier placement, traffic
    skew, and fallback ranking all tell one story — and a day of drift
    genuinely reshuffles what gets published.
    """
    pop = np.asarray(retailer.item_popularity, dtype=np.float64)
    n = pop.size
    order = np.lexsort((np.arange(n), -pop))
    head = [int(i) for i in order[: TABLE_RECS + 1]]
    return {
        item: [
            ScoredItem(other, float(pop[other]))
            for other in head
            if other != item
        ][:TABLE_RECS]
        for item in range(n)
    }


def _bot_requests(
    scenario: Scenario,
    flood: ScenarioEvent,
    day: int,
    window: Tuple[float, float],
    catalog_size: int,
) -> List[_BotRequest]:
    """The day's scripted attack stream (cache-busting tail contexts)."""
    rid = str(flood.require("retailer_id"))
    n_bots = int(flood.require("n_bots"))
    n_requests = int(flood.require("requests"))
    rng = make_rng(derive_seed(scenario.seed, "bots", day))
    start, end = window
    stamps = np.sort(rng.uniform(start, end, size=n_requests))
    bots = rng.integers(0, n_bots, size=n_requests)
    items = rng.integers(0, catalog_size, size=(n_requests, 3))
    return [
        _BotRequest(
            retailer_id=rid,
            client_id=f"bot{int(bots[i])}",
            context=UserContext.from_pairs(
                [(EventType.VIEW, int(item)) for item in items[i]]
            ),
            timestamp_ms=float(stamps[i]),
        )
        for i in range(n_requests)
    ]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1)
    )
    return float(sorted_values[index])


def run_scenario(
    scenario: Scenario,
    protected: bool = True,
    _control: bool = False,
) -> ScenarioResult:
    """Play one scenario end to end; returns sealed days + verdict.

    ``protected=False`` runs the identical world and request stream
    without the overload-protection bundle — the counterfactual the E27
    bench (and the "at least two scenarios must fail unprotected"
    acceptance criterion) measures.
    """
    world = _World(scenario, protected)
    day_stats: List[DayStats] = []
    seals: List[Dict[str, object]] = []

    for day in range(1, scenario.days + 1):
        registry = MetricsRegistry()
        world.frontend.metrics = registry
        world.cold_today = set()
        world.skip_today = set()
        world.flood = None
        for ev in scenario.events:
            if ev.day == day:
                world.apply(ev, day)

        # Daily publish: every warm retailer gets the day's table.
        version = day + 1
        for rid in sorted(world.retailers):
            if rid in world.cold_today:
                continue  # cold start: nothing to publish yet
            if rid in world.skip_today:
                # The batch failed downstream; the frontend still expects
                # the new version, so the old table serves as stale.
                world.frontend.expect_version(rid, version)
                continue
            world.publish(rid, version)

        organic = world.traffic.generate(scenario.requests_per_day)
        window = (organic[0].timestamp_ms, organic[-1].timestamp_ms)
        stream: List[Tuple[float, int, int, object]] = [
            (req.timestamp_ms, 0, i, req) for i, req in enumerate(organic)
        ]
        if world.flood is not None:
            rid = str(world.flood.require("retailer_id"))
            if rid not in world.retailers:
                raise SigmundError(f"bot flood targets unknown retailer {rid!r}")
            bots = _bot_requests(
                scenario, world.flood, day, window,
                world.retailers[rid].spec.n_items,
            )
            stream.extend(
                (bot.timestamp_ms, 1, i, bot) for i, bot in enumerate(bots)
            )
        stream.sort(key=lambda entry: entry[:3])

        click_rng = make_rng(derive_seed(scenario.seed, "clicks", day))
        latencies: List[float] = []
        max_queue_wait = 0.0
        organic_requests = 0
        organic_clicks = 0
        for _, source, _, req in stream:
            if source == 0:
                response = world.frontend.request(
                    req.retailer_id, req.context, k=TABLE_RECS,
                    now_ms=req.timestamp_ms,
                )
                organic_requests += 1
                draw = float(click_rng.random())
                propensity = CLICK_PROPENSITY.get(response.served_from, 0.0)
                if (
                    response.latency_ms <= scenario.patience_ms
                    and draw < propensity
                ):
                    organic_clicks += 1
            else:
                response = world.frontend.request(
                    req.retailer_id, req.context, k=TABLE_RECS,
                    now_ms=req.timestamp_ms, client_id=req.client_id,
                )
            latencies.append(response.latency_ms)
            if response.queue_wait_ms > max_queue_wait:
                max_queue_wait = response.queue_wait_ms

        latencies.sort()
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)

        snapshot = registry.snapshot()
        requests = int(snapshot.counter_total("frontend_requests_total"))
        buckets = {
            "cache": int(snapshot.counter_total("frontend_cache_hits_total")),
            "coalesced": int(snapshot.counter_total("frontend_coalesced_total")),
            "fresh": int(snapshot.counter_total("frontend_fresh_serves_total")),
            "stale": int(snapshot.counter_total("frontend_stale_serves_total")),
            "fallback": int(snapshot.counter_total("frontend_fallback_total")),
            "shed": int(snapshot.counter_total("frontend_shed_total")),
            "empty": int(snapshot.counter_total("frontend_empty_total")),
        }
        # Conservation is enforced on EVERY day of EVERY scenario: a
        # double-count or gap in the serving buckets raises right here.
        window_stats = world.monitor.record_serving_window(
            day, requests, buckets,
            availability_floor=scenario.availability_floor,
        )

        breakers = world.frontend.protection.breakers
        open_breakers = 0
        if breakers is not None:
            end_of_day = stream[-1][0] if stream else 0.0
            open_breakers = sum(
                1 for state in breakers.states(end_of_day).values()
                if state != "closed"
            )
        registry.gauge("scenario_p50_ms").set(p50)
        registry.gauge("scenario_p99_ms").set(p99)
        registry.gauge("scenario_availability").set(window_stats.availability)
        registry.gauge("scenario_open_breakers").set(float(open_breakers))
        registry.gauge("scenario_max_queue_wait_ms").set(max_queue_wait)
        registry.counter("scenario_organic_requests_total").inc(
            organic_requests
        )
        registry.counter("scenario_organic_clicks_total").inc(organic_clicks)

        seal = registry.snapshot().to_dict()
        seals.append(seal)
        day_stats.append(_day_from_seal(day, seal))

    result = ScenarioResult(
        scenario=scenario,
        protected=protected,
        day_stats=day_stats,
        seals=seals,
        monitor=world.monitor,
    )
    needs_control = (
        not _control
        and any(isinstance(c, CTRInvariance) for c in scenario.checks)
        and any(e.kind in ADVERSARIAL_KINDS for e in scenario.events)
    )
    if needs_control:
        control_scenario = dc_replace(
            scenario, events=strip_adversarial(scenario.events), checks=()
        )
        control = run_scenario(
            control_scenario, protected=protected, _control=True
        )
        result.control_ctr = control.organic_ctr
    return result


def _day_from_seal(day: int, seal: Dict[str, object]) -> DayStats:
    """Parse a sealed snapshot dict back into check-ready day stats.

    This is the only path from a run to its verdict: checks never see
    live counters, so a verdict can be recomputed from the sealed
    record alone.
    """
    counters: Dict[str, float] = seal["counters"]  # type: ignore[assignment]
    gauges: Dict[str, float] = seal["gauges"]  # type: ignore[assignment]

    def counter_total(name: str) -> int:
        prefix_a, prefix_b = name + "{", name
        return int(
            sum(
                value
                for key, value in counters.items()
                if key == prefix_b or key.startswith(prefix_a)
            )
        )

    requests = counter_total("frontend_requests_total")
    buckets = {
        "cache": counter_total("frontend_cache_hits_total"),
        "coalesced": counter_total("frontend_coalesced_total"),
        "fresh": counter_total("frontend_fresh_serves_total"),
        "stale": counter_total("frontend_stale_serves_total"),
        "fallback": counter_total("frontend_fallback_total"),
        "shed": counter_total("frontend_shed_total"),
        "empty": counter_total("frontend_empty_total"),
    }
    return DayStats(
        day=day,
        requests=requests,
        buckets=buckets,
        p50_ms=float(gauges.get("scenario_p50_ms", 0.0)),
        p99_ms=float(gauges.get("scenario_p99_ms", 0.0)),
        availability=float(gauges.get("scenario_availability", 1.0)),
        organic_requests=counter_total("scenario_organic_requests_total"),
        organic_clicks=counter_total("scenario_organic_clicks_total"),
        max_queue_wait_ms=float(gauges.get("scenario_max_queue_wait_ms", 0.0)),
        breaker_transitions=counter_total("serving_breaker_transitions_total"),
        open_breakers=int(gauges.get("scenario_open_breakers", 0.0)),
        shed=counter_total("frontend_shed_total"),
        deadline_truncated=counter_total("frontend_deadline_truncated_total"),
    )
