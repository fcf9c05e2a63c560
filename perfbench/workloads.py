"""The three workloads: what they build, and why each was chosen.

Every constant here is part of the benchmark's definition and changes
only in a ``benchmark`` PR (see README).  Sizes are tuned so one run's
day phase is >= 15 s raw and its serve phase measures >= 150 000
requests, while the driver's whole run budget still holds on 2 vCPUs.

What ``--seed`` drives is the *request stream* (arrivals, users, their
contexts, the bot's contexts).  The fleet's logs and the service seed are
workload constants: on the same logs fleet-mean MAP@10 moves 10 % between
service seeds (0.326-0.362 over six seeds), and between logs the day's
SGD step count moves 2.5 %, either of which would swallow the bounds the
day metrics are held to.

All workloads use ``GridSpec.small()``, the default ``TrainerSettings``
``batch_size``, and ``synthetic_recommendation_table`` for serving, so a
training change cannot move a serve metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Seed of every generated catalog and interaction log.
FLEET_SEED = 20180416
#: ``SigmundService(seed=...)``: sweep permutation, model init, SGD order,
#: scheduling simulation.
SERVICE_SEED = 11
#: Page size of every request.
PAGE_K = 10
#: Requests between two inline probes in the serve phase.
CHUNK = 1024
#: Simulated arrival rate of the request stream.
QPS = 2_000.0


@dataclass(frozen=True)
class Retailer:
    """Sizes of one generated retailer (contents come from FLEET_SEED)."""

    retailer_id: str
    n_items: int
    n_users: int
    n_events: int


@dataclass(frozen=True)
class DaySpec:
    """The fleet and how ``SigmundService`` runs its days."""

    retailers: Tuple[Retailer, ...]
    n_days: int
    sampler: str = "uniform"
    orchestration: str = "serial"
    #: MetricsRegistry on, FilesystemCheckpointStorage, 1 s checkpoints.
    instrumented: bool = False
    #: Catalogs at least this large get an ANN index (None: the service's
    #: own 50 000-item crossover, so no workload would build one).
    retrieval_threshold: Optional[int] = None
    #: k-means cells of that index.  The default 4*sqrt(n) is tuned for
    #: million-item catalogs: on a trained 3 000-item model it probes 7 % of
    #: 219 cells, recall@100 is 0.46, and every index would be rejected.
    retrieval_clusters: Optional[int] = None
    #: Retailers whose training mapper always raises.
    hostile: Tuple[str, ...] = ()
    #: day -> retailer onboarded just before that day's run.
    onboard_before: Tuple[Tuple[int, Retailer], ...] = ()
    #: day -> retailer id offboarded just before that day's run.
    offboard_before: Tuple[Tuple[int, str], ...] = ()


@dataclass(frozen=True)
class ServeSpec:
    """The serving world and the request stream sent through it."""

    #: retailer id -> catalog size of its synthetic table.
    catalogs: Tuple[Tuple[str, int], ...]
    n_requests: int
    warmup_requests: int
    n_users: int
    user_exponent: float
    max_context: int
    cache_capacity: int
    #: OverloadProtection + ServerQueue + metrics on.
    protected: bool = False
    failed_node: Optional[int] = None
    #: Expected one version ahead of what the cluster holds.
    stale: Tuple[str, ...] = ()
    #: Popularity table only, nothing in the cluster.
    fallback_only: Tuple[str, ...] = ()
    #: In the traffic mix but known to neither cluster nor fallback.
    ghost: Tuple[str, ...] = ()
    #: Every n-th request comes from one client with never-repeating contexts.
    bot_every: int = 0
    #: Republish ``republish`` through ``ServingCluster.load_batch`` every n chunks.
    republish_every_chunks: int = 0
    republish: str = ""
    #: Buckets that must be non-zero for the workload to mean what it says.
    expect_buckets: Tuple[str, ...] = ("cache", "fresh")

    def catalog_sizes(self) -> Dict[str, int]:
        return dict(self.catalogs)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    day: DaySpec
    serve: ServeSpec


def _dense(n_items: int, users_per_item: float, events_per_user: float, rid: str) -> Retailer:
    n_users = max(4, round(n_items * users_per_item))
    return Retailer(rid, n_items, n_users, round(n_users * events_per_user))


def dense_full_zipf_hot(smoke: bool = False) -> Workload:
    sizes = (40, 60) if smoke else (90, 120, 140, 160, 200, 260)
    retailers = tuple(
        _dense(n, 0.3, 10.0, f"dense{k:02d}") for k, n in enumerate(sizes)
    )
    return Workload(
        name="dense_full_zipf_hot",
        why=(
            "Scalar SGD is >= 80 % of the day and cache hits are ~93 % of serving: the "
            "batch_size flip and any cache-key work must show here; inference work must not."
        ),
        day=DaySpec(retailers=retailers, n_days=2),
        serve=ServeSpec(
            catalogs=tuple((r.retailer_id, r.n_items) for r in retailers),
            n_requests=4_000 if smoke else 200_000,
            warmup_requests=1_000 if smoke else 20_000,
            n_users=4_000,
            user_exponent=1.1,
            max_context=4,
            cache_capacity=4_500,
        ),
    )


def wide_incr_uniform_cold(smoke: bool = False) -> Workload:
    retailers = (
        (Retailer("wide00", 600, 24, 72), Retailer("wide01", 300, 12, 36))
        if smoke
        else (Retailer("wide00", 12_000, 300, 700), Retailer("wide01", 4_000, 100, 240))
    )
    return Workload(
        name="wide_incr_uniform_cold",
        why=(
            "Inference is over half the day, SGD under a third; serving is lookup -> blend "
            "-> top-up with 6x the dense peak RSS: a gain bought with memory or a cache "
            "shows its cost here."
        ),
        day=DaySpec(retailers=retailers, n_days=2 if smoke else 7),
        serve=ServeSpec(
            catalogs=tuple((r.retailer_id, r.n_items) for r in retailers),
            n_requests=4_000 if smoke else 150_000,
            warmup_requests=500 if smoke else 5_000,
            n_users=10_000,
            user_exponent=0.3,
            max_context=8,
            cache_capacity=96,
        ),
    )


def churn_protected_republish(smoke: bool = False) -> Workload:
    if smoke:
        big_a = Retailer("churn_big_a", 500, 20, 80)
        big_b = Retailer("churn_big_b", 420, 16, 64)
        mid = Retailer("churn_mid", 80, 16, 96)
        small = Retailer("churn_small", 50, 10, 60)
        hostile = Retailer("churn_hostile", 50, 10, 60)
        late = Retailer("churn_late", 60, 12, 72)
        threshold, clusters = 400, 16
    else:
        big_a = Retailer("churn_big_a", 1_400, 56, 280)
        big_b = Retailer("churn_big_b", 1_100, 44, 220)
        mid = Retailer("churn_mid", 400, 80, 640)
        small = Retailer("churn_small", 150, 30, 240)
        hostile = Retailer("churn_hostile", 150, 30, 240)
        late = Retailer("churn_late", 200, 40, 320)
        threshold, clusters = 1_000, 18
    return Workload(
        name="churn_protected_republish",
        why=(
            "Writes beside reads: republish invalidates the cache; journal, checkpoints, "
            "obs, DAG, retrieval and protection on; six serving buckets non-zero. A "
            "happy-path gain that slows these loses here."
        ),
        day=DaySpec(
            retailers=(big_a, big_b, mid, small, hostile),
            n_days=3,
            sampler="taxonomy",
            orchestration="dag",
            instrumented=True,
            retrieval_threshold=threshold,
            retrieval_clusters=clusters,
            hostile=(hostile.retailer_id,),
            onboard_before=((1, late),),
            offboard_before=((2, small.retailer_id),),
        ),
        serve=ServeSpec(
            catalogs=(
                (big_a.retailer_id, big_a.n_items),
                (big_b.retailer_id, big_b.n_items),
                (mid.retailer_id, mid.n_items),
                (late.retailer_id, late.n_items),
                (hostile.retailer_id, hostile.n_items),
                (small.retailer_id, small.n_items),
            ),
            n_requests=4_000 if smoke else 200_000,
            warmup_requests=1_000 if smoke else 20_000,
            n_users=4_000,
            user_exponent=1.1,
            max_context=4,
            cache_capacity=4_000,
            protected=True,
            failed_node=0,
            stale=(late.retailer_id,),
            fallback_only=(hostile.retailer_id,),
            ghost=(small.retailer_id,),
            bot_every=20,
            republish_every_chunks=2 if smoke else 8,
            republish=big_b.retailer_id,
            expect_buckets=("cache", "fresh", "stale", "fallback", "shed", "empty"),
        ),
    )


WORKLOADS = {
    fn.__name__: fn
    for fn in (dense_full_zipf_hot, wide_incr_uniform_cold, churn_protected_republish)
}
