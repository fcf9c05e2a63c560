"""E24 — online serving latency: p50/p99, QPS per shard, cache hit rate.

The paper's serving story (section II-A) is that request-time work is a
handful of key-value lookups against a memory/flash-tiered distributed
store.  This experiment measures the simulated request path end to end:
power-law traffic from a million-user population replayed through the
:class:`~repro.serving.frontend.ServingFrontend` against a sharded
:class:`~repro.serving.cluster.ServingCluster`, with the response cache
cold and then warm, plus a node-failure pass:

* **p50/p99 modelled latency** per phase (*model ms*: cluster tier
  latencies + failover penalties + fixed blend/cache/fallback costs — a
  datacentre latency model made of the constants in
  ``serving/frontend.py`` and ``serving/cluster.py``, so a "warm p50
  0.05 ms" is ``CACHE_HIT_LATENCY_MS`` read back, not a speed),
* **measured µs per request** beside it (*measured µs*: wall-clock
  ``perf_counter`` around each replay, on the machine the results name),
* **QPS per shard** — cluster lookups per simulated second divided
  across shards (the cache absorbs the rest of the load),
* **cache hit rate**, stale serves, and fallback counts,
* a coalescing pass replaying the stream in concurrent batches.

Results land in ``benchmarks/results/e24.txt`` and ``BENCH_serving.json``.
``E24_FAST=1`` replays a small stream and asserts the cache invariant
(warm p50 < uncached p50 in model ms, and warm < uncached measured µs
per request on the wall clock) — the CI smoke mode.  Both modes also
count what the warm replay, where every request is a hit, rebuilds: no
``metric_key`` call (the cold replay resolved every series it touches)
and at most one ``dataclasses.replace`` per cache entry (a hit returns
its entry's page, built at the entry's first hit).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from benchmarks.bench_util import emit, fmt_row, machine, machine_line
from repro.obs import MetricsRegistry
from repro.obs import metrics as metrics_module
from repro.serving import frontend as frontend_module
from repro.serving.cluster import ServingCluster
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.traffic import (
    TrafficGenerator,
    synthetic_recommendation_table,
    unique_users,
)

RESULTS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serving.json"

#: Catalog sizes across the simulated fleet (power-law, like real tenants).
CATALOGS = {
    "r_large": 4000,
    "r_big": 2000,
    "r_mid": 1000,
    "r_small": 500,
    "r_tiny": 200,
    "r_stale": 800,     # published yesterday, never today
    "r_unserved": 300,  # onboarding: fallback table only
}
N_USERS = 1_000_000
QPS = 2_000.0
SEED = 42


def build_frontend(metrics=None, cache_capacity: int = 50_000) -> ServingFrontend:
    cluster = ServingCluster(
        n_nodes=8,
        n_shards=32,
        replication=2,
        hot_fraction=0.1,
        memory_capacity_entries=2_000,
    )
    fallback = PopularityFallback()
    for retailer_id, n_items in CATALOGS.items():
        fallback.load_view_counts(
            retailer_id, {item: float(n_items - item) for item in range(n_items)}
        )
        if retailer_id == "r_unserved":
            continue
        cluster.load_batch(
            retailer_id,
            synthetic_recommendation_table(n_items, n_recs=10, seed=SEED),
            version=1,
        )
    frontend = ServingFrontend(
        cluster,
        fallback=fallback,
        cache_capacity=cache_capacity,
        cache_ttl_ms=120_000.0,
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    for retailer_id in CATALOGS:
        # Day 1 published everywhere except r_stale (pipeline failure)
        # and r_unserved (not onboarded into the cluster yet).
        frontend.expect_version(retailer_id, 1)
    frontend.expect_version("r_stale", 2)
    return frontend


def percentile(latencies, q) -> float:
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


def replay(frontend: ServingFrontend, requests, k: int = 10) -> dict:
    """Replay a request stream; measure latency and per-shard load."""
    lookups_before = sum(node.lookups for node in frontend.cluster.nodes)
    hits_before = frontend.stats.cache_hits
    stale_before = frontend.stats.stale_serves
    fallback_before = frontend.stats.fallbacks
    latencies = []
    started = time.perf_counter()
    for request in requests:
        response = frontend.request(
            request.retailer_id, request.context, k=k,
            now_ms=request.timestamp_ms,
        )
        latencies.append(response.latency_ms)
    measured_s = time.perf_counter() - started
    duration_s = (requests[-1].timestamp_ms - requests[0].timestamp_ms) / 1_000.0
    duration_s = max(duration_s, 1e-9)
    lookups = sum(node.lookups for node in frontend.cluster.nodes) - lookups_before
    n = len(requests)
    return {
        "requests": n,
        "unique_users": unique_users(requests),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "mean_ms": float(np.mean(latencies)),
        "measured_us_per_req": round(measured_s * 1e6 / n, 2),
        "qps": n / duration_s,
        "qps_per_shard": n / duration_s / frontend.cluster.n_shards,
        "lookup_qps_per_shard": lookups / duration_s / frontend.cluster.n_shards,
        "cache_hit_rate": (frontend.stats.cache_hits - hits_before) / n,
        "stale_serves": frontend.stats.stale_serves - stale_before,
        "fallbacks": frontend.stats.fallbacks - fallback_before,
    }


@contextmanager
def counting(*targets):
    """Count calls to each ``(module, name)`` function while inside."""
    counts = dict.fromkeys((name for _, name in targets), 0)

    def wrap(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    with ExitStack() as stack:
        for module, name in targets:
            stack.enter_context(
                mock.patch.object(module, name, wrap(name, getattr(module, name)))
            )
        yield counts


def replay_coalesced(frontend: ServingFrontend, requests, batch_size: int = 64) -> dict:
    """Replay in concurrent batches so duplicate in-flight keys coalesce."""
    latencies = []
    for start in range(0, len(requests), batch_size):
        chunk = requests[start:start + batch_size]
        responses = frontend.request_batch(
            [(r.retailer_id, r.context) for r in chunk],
            k=10,
            now_ms=chunk[0].timestamp_ms,
        )
        latencies.extend(r.latency_ms for r in responses)
    return {
        "requests": len(requests),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "coalesced": frontend.stats.coalesced,
    }


def test_serving_latency(capsys):
    fast = bool(os.environ.get("E24_FAST"))
    n_requests = 600 if fast else 6_000

    generator = TrafficGenerator(
        CATALOGS, n_users=N_USERS, qps=QPS, seed=SEED
    )
    stream = generator.generate(n_requests)

    # Uncached baseline: every request walks the cluster.
    uncached = replay(build_frontend(cache_capacity=0), stream)

    frontend = build_frontend()
    cold = replay(frontend, stream)      # cache filling as the head repeats
    with counting(
        (metrics_module, "metric_key"), (frontend_module, "replace")
    ) as rebuilt:
        warm = replay(frontend, stream)  # same stream, cache warmed
    entries = frontend.cache_size()

    # Node failure pass: kill one node, keep serving (cache still warm,
    # misses pay failover penalties on the dead node's shards).
    frontend.cluster.fail_node(0)
    failover_stream = generator.generate(n_requests // 2)
    degraded = replay(frontend, failover_stream)
    frontend.cluster.recover_node(0)

    coalescing = replay_coalesced(build_frontend(), stream)

    # ------------------------------------------------------------------
    # Invariants (enforced in fast mode too — the CI smoke)
    # ------------------------------------------------------------------
    assert warm["p50_ms"] < uncached["p50_ms"], (
        f"cached p50 {warm['p50_ms']:.3f}ms not below "
        f"uncached p50 {uncached['p50_ms']:.3f}ms"
    )
    assert warm["mean_ms"] < uncached["mean_ms"]
    # The same claim on the wall clock, not only on the latency model: a
    # cache hit must cost less Python than a walk through the cluster.
    assert warm["measured_us_per_req"] < uncached["measured_us_per_req"], (
        f"cached {warm['measured_us_per_req']:.1f}us/req not below "
        f"uncached {uncached['measured_us_per_req']:.1f}us/req"
    )
    assert warm["cache_hit_rate"] > cold["cache_hit_rate"]
    # What a warm hit reuses: every series was resolved by the cold
    # replay, and each entry builds its hit page once.
    assert warm["cache_hit_rate"] == 1.0
    assert rebuilt["metric_key"] == 0, f"{rebuilt['metric_key']} metric_key calls"
    assert rebuilt["replace"] <= entries, (
        f"{rebuilt['replace']} replace calls for {entries} cache entries"
    )
    assert uncached["cache_hit_rate"] == 0.0
    assert cold["stale_serves"] > 0        # r_stale served, not refused
    assert cold["fallbacks"] > 0           # r_unserved fell back, no raise
    assert degraded["requests"] == n_requests // 2  # every request answered
    assert coalescing["coalesced"] > 0

    widths = [11, 12, 12, 11, 9, 11, 11, 9]
    lines = [
        f"{len(CATALOGS)} retailers, {N_USERS:,} simulated users, "
        f"{n_requests} requests/phase at {QPS:.0f} qps; "
        f"8 nodes x 32 shards x2 replication",
        "model ms: the datacentre latency model (constants; warm p50 is "
        "CACHE_HIT_LATENCY_MS).  measured µs: wall-clock Python per request.",
        machine_line(),
        "",
        fmt_row("phase", "p50 model ms", "p99 model ms", "measured µs",
                "hit rate", "qps/shard", "lkup/shard", "fallback",
                widths=widths),
    ]
    for name, row in (
        ("uncached", uncached),
        ("cold", cold),
        ("warm", warm),
        ("node-down", degraded),
    ):
        lines.append(
            fmt_row(
                name,
                f"{row['p50_ms']:.3f}",
                f"{row['p99_ms']:.3f}",
                f"{row['measured_us_per_req']:.1f}",
                f"{row['cache_hit_rate']:.3f}",
                f"{row['qps_per_shard']:.1f}",
                f"{row['lookup_qps_per_shard']:.1f}",
                row["fallbacks"],
                widths=widths,
            )
        )
    lines.append(
        f"coalesced batches: p50 {coalescing['p50_ms']:.3f}ms, "
        f"{coalescing['coalesced']} requests coalesced"
    )
    lines.append(
        f"warm replay rebuilt: {rebuilt['metric_key']} series keys, "
        f"{rebuilt['replace']} hit pages for {entries} cache entries"
    )
    emit("E24", "online serving latency under power-law load", lines, capsys)

    if fast:
        return

    assert degraded["p99_ms"] >= warm["p99_ms"]  # failover has a price
    RESULTS_JSON.write_text(
        json.dumps(
            {
                "experiment": "E24",
                "source": "benchmarks/bench_serving_latency.py",
                "machine": machine(),
                "units": {
                    "p50_ms, p99_ms, mean_ms": (
                        "modelled milliseconds: sums of the latency-model "
                        "constants in serving/frontend.py and "
                        "serving/cluster.py (warm p50 0.05 is "
                        "CACHE_HIT_LATENCY_MS), identical on any machine"
                    ),
                    "measured_us_per_req": (
                        "wall-clock microseconds of Python per request "
                        "(perf_counter around the replay) on `machine`"
                    ),
                },
                "n_retailers": len(CATALOGS),
                "n_users": N_USERS,
                "requests_per_phase": n_requests,
                "qps": QPS,
                "cluster": {
                    "n_nodes": 8, "n_shards": 32, "replication": 2,
                    "hot_fraction": 0.1, "memory_capacity_entries": 2000,
                },
                "phases": {
                    "uncached": uncached,
                    "cold": cold,
                    "warm": warm,
                    "node_down": degraded,
                    "coalesced": coalescing,
                },
                "warm_rebuilt": {
                    "metric_key_calls": rebuilt["metric_key"],
                    "replace_calls": rebuilt["replace"],
                    "cache_entries": entries,
                },
            },
            indent=2,
        )
        + "\n"
    )
