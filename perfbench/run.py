"""Set-up, day phase and serve phase for one workload, timed from outside.

Everything here calls the layers through their public functions.  Raw
``perf_counter_ns`` stamps are collected during the run and turned into
normalised numbers afterwards (:mod:`perfbench.report`), with the probe
series recorded alongside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import GridSpec, SigmundService, TrainerSettings, build_cluster
from repro.core.checkpoint import FilesystemCheckpointStorage
from repro.data.datasets import RetailerDataset, dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.mapreduce.runtime import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.retrieval.ivf import IVFConfig
from repro.rng import derive_seed, make_rng
from repro.serving.cluster import ServingCluster
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.overload import OverloadProtection, ServerQueue
from repro.serving.traffic import TrafficGenerator, synthetic_recommendation_table

from perfbench.probe import ProbeSampler, Sample, probe
from perfbench.trace import Tracer
from perfbench.workloads import (
    CHUNK,
    FLEET_SEED,
    PAGE_K,
    QPS,
    SERVICE_SEED,
    Retailer,
    Workload,
)

#: Where checkpoints and span dumps go: inside the checkout, git-ignored.
OUT_DIR = Path(__file__).resolve().parent / ".out"

BUCKETS = ("cache", "coalesced", "fresh", "stale", "fallback", "shed", "empty")
BOT_CLIENT = "bot"

# One request as the serve loop wants it: (retailer, context, now_ms, client).
Request = Tuple[str, UserContext, float, Optional[str]]
Interval = Tuple[int, int]


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class DayWorld:
    """What the day phase consumes: the generated fleet and the service."""

    workload: Workload
    service: SigmundService
    datasets: Dict[str, RetailerDataset]


@dataclass
class ServeWorld:
    """What the serve phase consumes: the serving stack and the request stream."""

    workload: Workload
    frontend: ServingFrontend
    cluster: ServingCluster
    warmup: List[Request]
    measured: List[Request]
    republish_table: Optional[dict]
    #: Bucket counts after warm-up, to subtract from the final ones.
    warm_buckets: Dict[str, int]
    warm_failovers: int


def _generate_dataset(retailer: Retailer, index: int) -> RetailerDataset:
    n = retailer.n_items
    spec = RetailerSpec(
        retailer_id=retailer.retailer_id,
        n_items=n,
        n_users=retailer.n_users,
        n_events=retailer.n_events,
        # Depth, fan-out and brands grow with the catalog the way
        # generate_marketplace scales them.
        taxonomy_depth=2 if n < 100 else 3 if n < 4000 else 4,
        taxonomy_fanout=3 if n < 100 else 4,
        n_brands=max(2, n // 40),
        seed=derive_seed(FLEET_SEED, "retailer", index),
    )
    return dataset_from_synthetic(generate_retailer(spec))


def _build_service(workload: Workload, workdir: Path) -> SigmundService:
    day = workload.day
    settings = TrainerSettings(
        sampler=day.sampler,
        checkpoint_interval_seconds=1.0 if day.instrumented else 300.0,
    )
    fault_plan = None
    if day.hostile:
        hostile = set(day.hostile)
        fault_plan = FaultPlan().fail_mapper(
            lambda record: getattr(record, "retailer_id", None) in hostile
        )
    return SigmundService(
        build_cluster(n_cells=2, machines_per_cell=8),
        grid=GridSpec.small(),
        settings=settings,
        seed=SERVICE_SEED,
        fault_plan=fault_plan,
        checkpoint_storage=(
            FilesystemCheckpointStorage(str(workdir / "checkpoints"))
            if day.instrumented
            else None
        ),
        metrics=MetricsRegistry() if day.instrumented else None,
        retrieval_threshold=day.retrieval_threshold,
        retrieval_config=(
            IVFConfig(n_clusters=day.retrieval_clusters) if day.retrieval_clusters else None
        ),
        orchestration=day.orchestration,
    )


def _bot_context(rng: np.random.Generator, n_items: int) -> UserContext:
    # Four items drawn uniformly from the largest catalog: practically
    # never the same trail twice, so the bot always misses the cache and
    # has to face admission control.
    items = rng.integers(0, n_items, size=4)
    return UserContext.from_pairs([(EventType.VIEW, int(item)) for item in items])


def _build_requests(workload: Workload, seed: int) -> List[Request]:
    serve = workload.serve
    generator = TrafficGenerator(
        serve.catalog_sizes(),
        n_users=serve.n_users,
        user_exponent=serve.user_exponent,
        max_context=serve.max_context,
        qps=QPS,
        seed=derive_seed(seed, "traffic"),
    )
    stream = generator.generate(serve.warmup_requests + serve.n_requests)
    requests: List[Request] = [
        (r.retailer_id, r.context, r.timestamp_ms, None) for r in stream
    ]
    if serve.bot_every:
        rng = make_rng(derive_seed(seed, "bot"))
        target, n_items = max(serve.catalogs, key=lambda pair: pair[1])
        for position in range(0, len(requests), serve.bot_every):
            now_ms = requests[position][2]
            requests[position] = (target, _bot_context(rng, n_items), now_ms, BOT_CLIENT)
    return requests


def _build_serving(workload: Workload, seed: int):
    serve = workload.serve
    cluster = ServingCluster(
        n_nodes=8, n_shards=32, replication=2, hot_fraction=0.1,
        memory_capacity_entries=2_000,
    )
    fallback = PopularityFallback()
    tables = {}
    for retailer_id, n_items in serve.catalogs:
        if retailer_id in serve.ghost:
            continue
        fallback.load_view_counts(
            retailer_id, {item: float(n_items - item) for item in range(n_items)}
        )
        if retailer_id in serve.fallback_only:
            continue
        tables[retailer_id] = synthetic_recommendation_table(
            n_items, n_recs=PAGE_K, seed=derive_seed(seed, "table", retailer_id)
        )
        cluster.load_batch(retailer_id, tables[retailer_id], version=1)
    protection = queue = None
    if serve.protected:
        protection = OverloadProtection(
            admission_rate_qps=2.0 * QPS,
            admission_burst=400.0,
            client_rate_qps=5.0,
            client_burst=10.0,
            breaker_cooldown_ms=400.0,
        )
        queue = ServerQueue(n_servers=8)
    frontend_kwargs = {"metrics": MetricsRegistry()} if serve.protected else {}
    frontend = ServingFrontend(
        cluster,
        fallback=fallback,
        cache_capacity=serve.cache_capacity,
        cache_ttl_ms=3_600_000.0,
        protection=protection,
        queue=queue,
        **frontend_kwargs,
    )
    for retailer_id in tables:
        frontend.expect_version(retailer_id, 2 if retailer_id in serve.stale else 1)
    if serve.failed_node is not None:
        cluster.fail_node(serve.failed_node)
    return cluster, frontend, tables.get(serve.republish)


def set_up_day(
    workload: Workload, workdir: Path, tracer: Optional[Tracer] = None
) -> DayWorld:
    """First half of set-up: fleet generation, datasets, service, onboarding."""
    day = workload.day
    with _span(tracer, "data.generate"):
        fleet = list(day.retailers) + [r for _, r in day.onboard_before]
        datasets = {
            retailer.retailer_id: _generate_dataset(retailer, index)
            for index, retailer in enumerate(fleet)
        }
    service = _build_service(workload, workdir)
    for retailer in day.retailers:
        service.onboard(datasets[retailer.retailer_id])
    return DayWorld(workload=workload, service=service, datasets=datasets)


def set_up_serving(
    workload: Workload, seed: int, tracer: Optional[Tracer] = None
) -> ServeWorld:
    """Second half: tables, cluster load, traffic generation, cache warm-up.

    It runs *after* the day phase, so that the day's peak memory is the
    program's and not that of 200 000 pre-built requests.
    """
    cluster, frontend, republish_table = _build_serving(workload, seed)
    with _span(tracer, "serving.traffic.generate"):
        requests = _build_requests(workload, seed)
    warm = workload.serve.warmup_requests
    warmup, measured = requests[:warm], requests[warm:]
    # Cache warm-up: the measured requests meet a cache in steady state.
    for retailer_id, context, now_ms, client in warmup:
        frontend.request(retailer_id, context, PAGE_K, now_ms, client)
    return ServeWorld(
        workload=workload,
        frontend=frontend,
        cluster=cluster,
        warmup=warmup,
        measured=measured,
        republish_table=republish_table,
        warm_buckets=dict(frontend.stats.serving_buckets()),
        warm_failovers=cluster.failovers,
    )


# ----------------------------------------------------------------------
# Day phase
# ----------------------------------------------------------------------
@dataclass
class DayResult:
    #: (start_ns, end_ns, sweep kind) of every ``run_day`` call.
    intervals: List[Tuple[int, int, str]]
    reports: list
    #: Peak RSS when the day phase ended, and when it began: a peak the day
    #: did not raise was set by the harness and says nothing.
    peak_rss_mb: float
    peak_rss_before_mb: float
    map_at_10: float
    retailer_days: int
    retailer_days_failed: int
    seal_sha256: str


def _peak_rss_mb() -> float:
    """High-water mark of this process's resident set.

    ``VmHWM`` where ``/proc`` has it: ``ru_maxrss`` is the same mark but
    starts, after ``exec``, at the resident set of whoever launched the
    benchmark.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def day_phase(world: DayWorld) -> DayResult:
    service, day = world.service, world.workload.day
    peak_rss_before_mb = _peak_rss_mb()
    onboard = dict(day.onboard_before)
    offboard = dict(day.offboard_before)
    intervals, reports = [], []
    retailer_days = 0
    for index in range(day.n_days):
        if index in onboard:
            service.onboard(world.datasets[onboard[index].retailer_id])
        if index in offboard:
            service.offboard(offboard[index])
        retailer_days += len(service.retailers)
        start = time.perf_counter_ns()
        report = service.run_day()
        end = time.perf_counter_ns()
        intervals.append((start, end, report.sweep_kind))
        reports.append(report)
    peak_rss_mb = _peak_rss_mb()
    failed_last = set(reports[-1].failed_retailers)
    selected = [
        service.best_map(rid) for rid in service.retailers if rid not in failed_last
    ]
    seals = json.dumps(service.journal.seals(), sort_keys=True, default=repr)
    return DayResult(
        intervals=intervals,
        reports=reports,
        peak_rss_mb=peak_rss_mb,
        peak_rss_before_mb=peak_rss_before_mb,
        map_at_10=float(np.mean(selected)) if selected else float("nan"),
        retailer_days=retailer_days,
        retailer_days_failed=sum(len(r.failed_retailers) for r in reports),
        seal_sha256=hashlib.sha256(seals.encode()).hexdigest(),
    )


# ----------------------------------------------------------------------
# Serve phase
# ----------------------------------------------------------------------
@dataclass
class ServeResult:
    samples: List[Sample]
    starts: np.ndarray
    ends: np.ndarray
    #: Index into BUCKETS per request (-1 where the request raised).
    bucket: np.ndarray
    #: The timed loop: one interval per chunk of requests, and one per
    #: mid-stream republish.
    chunk_intervals: List[Interval]
    republish_intervals: List[Interval]
    raised: int
    bad_pages: int
    buckets: Dict[str, int]
    stats_requests: int
    failovers: int
    cache_invalidations: int
    pages_sha256: str


def serve_phase(world: ServeWorld, tracer: Optional[Tracer] = None) -> ServeResult:
    """Closed loop, one client: the next request is sent when the last returned.

    The kernel is probed inline between chunks, so no timer interrupt
    lands inside a per-request latency.  Pages are checked and hashed
    between chunks too, outside every timed interval.
    """
    serve = world.workload.serve
    frontend, cluster = world.frontend, world.cluster
    request = frontend.request
    now = time.perf_counter_ns
    requests = world.measured
    n = len(requests)
    starts, ends = [0] * n, [0] * n
    bucket = np.full(n, -1, dtype=np.int8)
    code = {name: index for index, name in enumerate(BUCKETS)}
    samples: List[Sample] = []
    chunk_intervals: List[Interval] = []
    republish_intervals: List[Interval] = []
    digest = hashlib.sha256()
    raised = bad_pages = 0
    version = 1
    invalidations_before = frontend.stats.cache_invalidations

    for chunk_index, lo in enumerate(range(0, n, CHUNK)):
        if (
            serve.republish_every_chunks
            and chunk_index
            and chunk_index % serve.republish_every_chunks == 0
        ):
            samples.append(probe())
            version += 1
            begin = now()
            cluster.load_batch(serve.republish, world.republish_table, version)
            frontend.expect_version(serve.republish, version)
            republish_intervals.append((begin, now()))
        hi = min(lo + CHUNK, n)
        responses = []
        keep = responses.append
        samples.append(probe())
        with _span(tracer, "serve.chunk"):
            begin = now()
            for i in range(lo, hi):
                retailer_id, context, now_ms, client = requests[i]
                sent = now()
                try:
                    response = request(retailer_id, context, PAGE_K, now_ms, client)
                except Exception:  # the frontend's contract is to never raise
                    response = None
                ends[i] = now()
                starts[i] = sent
                keep(response)
            chunk_intervals.append((begin, now()))
        lines = []
        for i, response in zip(range(lo, hi), responses):
            if response is None:
                raised += 1
                continue
            items = [rec.item_index for rec in response.recommendations]
            if len(items) > PAGE_K or len(set(items)) != len(items):
                bad_pages += 1
            bucket[i] = code[response.served_from]
            lines.append(f"{response.served_from}|{response.version}|{items}")
        digest.update("\n".join(lines).encode())
    samples.append(probe())

    final = frontend.stats.serving_buckets()
    return ServeResult(
        samples=samples,
        starts=np.array(starts, dtype=np.float64),
        ends=np.array(ends, dtype=np.float64),
        bucket=bucket,
        chunk_intervals=chunk_intervals,
        republish_intervals=republish_intervals,
        raised=raised,
        bad_pages=bad_pages,
        buckets={name: final[name] - world.warm_buckets[name] for name in BUCKETS},
        stats_requests=frontend.stats.requests - len(world.warmup),
        failovers=cluster.failovers - world.warm_failovers,
        cache_invalidations=frontend.stats.cache_invalidations - invalidations_before,
        pages_sha256=digest.hexdigest(),
    )


# ----------------------------------------------------------------------
# One whole run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    workload: Workload
    seed: int
    #: Every probe sample of the run, interval timer and inline.
    samples: List[Sample]
    #: Per complete set-up its two timed halves: before the day phase and
    #: before the serve phase.
    setup_intervals: List[Tuple[Interval, Interval]]
    #: The stretches the interval-timer sampler covered.
    sampled_windows: List[Interval]
    day: DayResult
    serve: ServeResult
    #: The service after its days, for the output checks.
    service: SigmundService
    tracer: Optional[Tracer]


def run_once(
    workload: Workload,
    seed: int,
    setup_repeats: int = 1,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Set-up (first half) -> day phase -> set-up (second half) -> serve phase.

    ``setup_repeats - 1`` further complete set-ups follow, only to be timed:
    after the measured phases, so that they leave no trace in the day's
    peak memory.  With a ``tracer`` the caller has already installed the
    layer wrappers (:func:`perfbench.layers.install`); the phases only add
    their own spans.
    """
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    now = time.perf_counter_ns
    try:
        gc.collect()
        with ProbeSampler() as sampler:
            with _span(tracer, "setup"):
                start = now()
                day_world = set_up_day(workload, workdir / "s0", tracer)
                first_half = (start, now())
            with _span(tracer, "day"):
                day = day_phase(day_world)
            with _span(tracer, "setup"):
                start = now()
                serve_world = set_up_serving(workload, seed, tracer)
                second_half = (start, now())
        samples = list(sampler.samples)
        sampled_windows = [(first_half[0], second_half[1])]
        setup_intervals = [(first_half, second_half)]
        gc.collect()
        with _span(tracer, "serve"):
            serve = serve_phase(serve_world, tracer)
        samples += serve.samples
        service = day_world.service
        del day_world, serve_world
        if setup_repeats > 1:
            with ProbeSampler() as sampler:
                for repeat in range(1, setup_repeats):
                    gc.collect()
                    start = now()
                    set_up_day(workload, workdir / f"s{repeat}")
                    middle = now()
                    set_up_serving(workload, seed)
                    setup_intervals.append(((start, middle), (middle, now())))
            samples += sampler.samples
            sampled_windows.append((setup_intervals[1][0][0], setup_intervals[-1][1][1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return RunResult(
        workload=workload,
        seed=seed,
        samples=samples,
        setup_intervals=setup_intervals,
        sampled_windows=sampled_windows,
        day=day,
        serve=serve,
        service=service,
        tracer=tracer,
    )


def pin_to_one_cpu() -> bool:
    """Pin the process to the last CPU it may use; False where unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except OSError:
        return False
    return True
