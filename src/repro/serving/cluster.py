"""The distributed serving tier (paper section II-A).

"The recommendations are loaded into a distributed serving system that
leverages main-memory and flash to serve low-latency requests."

This module simulates that system faithfully enough to study its
behaviour:

* recommendations are **sharded** by (retailer, item) hash across
  serving nodes, with **replication** for availability; a shard replica
  holds one slot per retailer (version, rows, hot items), so a load or a
  drop swaps that retailer's slot and touches no co-tenant,
* each node holds a **memory tier** (hot entries, ~sub-millisecond) and
  a **flash tier** (everything else, ~an order of magnitude slower);
  hot/cold placement follows item popularity, since head items take most
  of the traffic,
* batch updates **roll out replica by replica** so the fleet keeps
  serving during a load (and a reader sees one version per replica,
  never a torn table),
* node failures route lookups to surviving replicas.

Latencies are simulated (deterministic per tier plus per-node constants)
so tests and benches can assert on them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import ServingError
from repro.models.base import ScoredItem
from repro.rng import hash_string

#: Lookup latencies by tier, in *modelled* milliseconds: the datacentre
#: latency model (RAM hit, flash read, one more replica hop) that the
#: paper's cost experiments run on — constants, never measurements.
MEMORY_LATENCY_MS = 0.3
FLASH_LATENCY_MS = 4.0
#: Per-extra-replica-hop penalty when failing over.
FAILOVER_PENALTY_MS = 0.8


@dataclass
class LookupResult:
    """One lookup's answer (the slot's own row, immutable) plus where/how
    it was served."""

    recommendations: Sequence[ScoredItem]
    latency_ms: float
    node_id: int
    tier: str
    version: int


@dataclass
class TenantSlot:
    """One retailer's part of one shard replica.

    Versions are tracked **per retailer**: several retailers hash into
    the same shard, each with its own batch cadence.  ``hot`` names the
    items of ``rows`` held in the memory tier; the rest are on flash.
    """

    version: int
    rows: Mapping[int, Tuple[ScoredItem, ...]]
    hot: Set[int]


class ServingNode:
    """A serving machine holding replicas of several shards."""

    def __init__(self, node_id: int, memory_capacity_entries: int = 10_000):
        self.node_id = node_id
        self.memory_capacity_entries = memory_capacity_entries
        #: shard id -> retailer id -> that retailer's slot.
        self.replicas: Dict[int, Dict[str, TenantSlot]] = {}
        self.alive = True
        self.lookups = 0
        #: Hot entries pushed down to flash because the memory tier was full.
        self.demotions = 0

    def memory_entries(self) -> int:
        return sum(
            len(slot.hot)
            for replica in self.replicas.values()
            for slot in replica.values()
        )

    def install(
        self,
        shard_id: int,
        retailer_id: str,
        version: int,
        rows: Mapping[int, Tuple[ScoredItem, ...]],
        hot: Set[int],
    ) -> None:
        """Atomically replace one retailer's slot in this node's replica
        of one shard; every other retailer's slot stays as it is."""
        self.replicas.setdefault(shard_id, {})[retailer_id] = TenantSlot(
            version, rows, hot
        )
        self._enforce_memory_capacity()

    def _enforce_memory_capacity(self) -> None:
        """Demote the weakest hot entries to flash once memory is full.

        The memory tier is the scarce resource; when installs push it past
        ``memory_capacity_entries`` the entries with the weakest top
        recommendation score (the proxy for traffic) spill to flash —
        they stay servable, just an order of magnitude slower.
        """
        overflow = self.memory_entries() - self.memory_capacity_entries
        if overflow <= 0:
            return
        ranked = sorted(
            (
                recs[0].score if (recs := slot.rows.get(item)) else float("-inf"),
                shard_id, retailer_id, item,
            )
            for shard_id, replica in self.replicas.items()
            for retailer_id, slot in replica.items()
            for item in slot.hot
        )
        for _, shard_id, retailer_id, item in ranked[:overflow]:
            self.replicas[shard_id][retailer_id].hot.remove(item)
            self.demotions += 1

    def lookup(
        self, shard_id: int, retailer_id: str, item_index: int
    ) -> Optional[LookupResult]:
        if not self.alive:
            return None
        self.lookups += 1
        slot = self.replicas.get(shard_id, {}).get(retailer_id)
        if slot is None:  # the retailer has no rows in this shard
            return LookupResult((), MEMORY_LATENCY_MS, self.node_id, "memory", 0)
        recs = slot.rows.get(item_index)
        if recs is None or item_index in slot.hot:
            return LookupResult(
                recs or (), MEMORY_LATENCY_MS, self.node_id, "memory",
                slot.version,
            )
        return LookupResult(
            recs, FLASH_LATENCY_MS, self.node_id, "flash", slot.version
        )


class ServingCluster:
    """Sharded, replicated, tiered serving of precomputed recommendations."""

    def __init__(
        self,
        n_nodes: int = 4,
        n_shards: int = 16,
        replication: int = 2,
        hot_fraction: float = 0.2,
        memory_capacity_entries: int = 10_000,
    ):
        if n_nodes < 1:
            raise ServingError("need at least one serving node")
        if n_shards < 1:
            raise ServingError("need at least one shard")
        if not 1 <= replication <= n_nodes:
            raise ServingError("replication must be in [1, n_nodes]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ServingError("hot_fraction must be in [0, 1]")
        if memory_capacity_entries < 0:
            raise ServingError("memory_capacity_entries must be >= 0")
        self.nodes = [
            ServingNode(node_id, memory_capacity_entries)
            for node_id in range(n_nodes)
        ]
        self.n_shards = n_shards
        self.replication = replication
        self.hot_fraction = hot_fraction
        #: shard id -> the nodes hosting it, primary first.
        self._replicas = tuple(
            tuple(self.nodes[(shard + i) % n_nodes] for i in range(replication))
            for shard in range(n_shards)
        )
        self._versions: Dict[str, int] = {}
        #: retailer -> item -> ``shard_of``, for every item its load held.
        self._placement: Dict[str, Dict[int, int]] = {}
        self.failovers = 0
        #: Replica probes skipped for free because their circuit breaker
        #: was open (vs. ``failovers``, each of which costs a penalty).
        self.breaker_skips = 0
        #: Called with the retailer id after every completed batch load
        #: or drop, so caches layered above the cluster (the frontend's
        #: response cache) can drop entries computed against what it held.
        self._invalidation_listeners: List[Callable[[str], None]] = []

    def subscribe_invalidation(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired after each retailer's load or drop."""
        self._invalidation_listeners.append(listener)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def shard_of(self, retailer_id: str, item_index: int) -> int:
        return hash_string(f"{retailer_id}#{item_index}") % self.n_shards

    def replica_nodes(self, shard_id: int) -> Tuple[ServingNode, ...]:
        """The nodes hosting a shard (primary first, deterministic)."""
        return self._replicas[shard_id]

    # ------------------------------------------------------------------
    # Batch loading with staged rollout
    # ------------------------------------------------------------------
    def load_batch(
        self,
        retailer_id: str,
        recommendations: Mapping[int, Sequence[ScoredItem]],
        version: int,
    ) -> None:
        """Install a retailer's new table across all shards and replicas.

        Rollout is staged per replica index: every shard's replica 0 is
        updated first, then replica 1, and so on — at any instant each
        shard still has replicas serving, so a load never causes
        downtime.  Hot/cold placement: the strongest ``hot_fraction`` of
        items (by top recommendation score, the proxy for traffic) go to
        the memory tier.
        """
        current = self._versions.get(retailer_id, 0)
        if version <= current:
            raise ServingError(
                f"stale batch for {retailer_id!r}: {version} <= {current}"
            )
        per_shard: Dict[int, Dict[int, Tuple[ScoredItem, ...]]] = {}
        placement: Dict[int, int] = {}
        for item, recs in recommendations.items():
            item = int(item)
            shard_id = placement[item] = self.shard_of(retailer_id, item)
            per_shard.setdefault(shard_id, {})[item] = tuple(recs)

        if current:
            # A retailer already serving may hold rows in shards this
            # batch has no item in (its catalog shrank): visit those too,
            # so the old rows leave with the swap and no shard keeps
            # answering from the retired version.
            for shard_id in range(self.n_shards):
                per_shard.setdefault(shard_id, {})

        hot_items = self._choose_hot(recommendations)
        for replica_index in range(self.replication):
            for shard_id, rows in per_shard.items():
                node = self.replica_nodes(shard_id)[replica_index]
                if rows or retailer_id in node.replicas.get(shard_id, ()):
                    # The rows are built once and shared by the replicas
                    # (tuples: nothing can write them); demotion edits
                    # ``hot``, so each replica gets its own.
                    node.install(
                        shard_id, retailer_id, version, rows,
                        hot_items & rows.keys(),
                    )
        self._versions[retailer_id] = version
        self._placement[retailer_id] = placement
        self._notify(retailer_id)

    def drop_retailer(self, retailer_id: str) -> None:
        """Remove a retailer from the tier outright (offboarding purge).

        Its slot leaves every replica on every node — dead ones too, so a
        node that recovers later resurrects nothing — and its version is
        forgotten: lookups raise like for a retailer never loaded, and a
        re-onboarded one loads version 1 again.  Co-tenants are not
        touched.  Dropping an unknown retailer changes nothing.
        """
        for node in self.nodes:
            for replica in node.replicas.values():
                replica.pop(retailer_id, None)
        self._versions.pop(retailer_id, None)
        self._placement.pop(retailer_id, None)
        self._notify(retailer_id)

    def _notify(self, retailer_id: str) -> None:
        for listener in self._invalidation_listeners:
            listener(retailer_id)

    def _choose_hot(
        self, recommendations: Mapping[int, Sequence[ScoredItem]]
    ) -> Set[int]:
        # Items with no recommendations can never be hot: they carry no
        # traffic worth sub-millisecond latency and must not occupy the
        # scarce memory tier ahead of real head items.
        ranked = sorted(
            (pair for pair in recommendations.items() if pair[1]),
            key=lambda pair: (-pair[1][0].score, int(pair[0])),
        )
        n_hot = int(round(len(recommendations) * self.hot_fraction))
        return {int(item) for item, _ in ranked[:n_hot]}

    # ------------------------------------------------------------------
    # Lookups with failover
    # ------------------------------------------------------------------
    def lookup(
        self,
        retailer_id: str,
        item_index: int,
        breakers=None,
        now_ms: float = 0.0,
    ) -> LookupResult:
        """Serve one lookup, failing over across replicas as needed.

        With a :class:`~repro.serving.overload.BreakerBoard` supplied,
        replicas whose breaker is open are skipped *for free* (no
        failover penalty — the whole point of tripping the breaker), and
        every probe outcome is recorded back into the board.  Without
        one, the walk is the original blind failover: each dead replica
        costs :data:`FAILOVER_PENALTY_MS` on every single request.
        """
        if retailer_id not in self._versions:
            raise ServingError(f"no data loaded for {retailer_id!r}")
        # An item no load held is hashed; its shard's replicas are walked
        # like any other's, so failover and breakers count it the same.
        shard_id = self._placement[retailer_id].get(item_index)
        if shard_id is None:
            shard_id = self.shard_of(retailer_id, item_index)
        penalty = 0.0
        for node in self._replicas[shard_id]:
            if breakers is not None and not breakers.allow(node.node_id, now_ms):
                self.breaker_skips += 1
                continue
            result = node.lookup(shard_id, retailer_id, item_index)
            if result is not None:
                if breakers is not None:
                    breakers.record_success(node.node_id, now_ms)
                result.latency_ms += penalty
                return result
            if breakers is not None:
                breakers.record_failure(node.node_id, now_ms)
            self.failovers += 1
            penalty += FAILOVER_PENALTY_MS
        raise ServingError(
            f"shard {shard_id} unavailable: all {self.replication} replicas "
            "down or circuit-broken"
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int) -> None:
        self.nodes[node_id].alive = False

    def recover_node(self, node_id: int) -> None:
        self.nodes[node_id].alive = True

    def version_of(self, retailer_id: str) -> Optional[int]:
        return self._versions.get(retailer_id)

    def shard_balance(self) -> float:
        """max/mean entries per node (1.0 = perfectly even placement)."""
        sizes = [
            sum(
                len(slot.rows)
                for replica in node.replicas.values()
                for slot in replica.values()
            )
            for node in self.nodes
        ]
        total = sum(sizes)
        if total == 0:
            return 1.0
        mean = total / len(sizes)
        return max(sizes) / mean if mean else 1.0
