"""Tests for the distributed serving tier (shards, replicas, memory/flash)."""

from __future__ import annotations

import pytest

from repro.exceptions import ServingError
from repro.models.base import ScoredItem
from repro.serving.cluster import (
    FAILOVER_PENALTY_MS,
    FLASH_LATENCY_MS,
    MEMORY_LATENCY_MS,
    ServingCluster,
)


def batch(n_items: int, score_of=None):
    """Item -> recommendations; item 0 has the strongest top score."""
    if score_of is None:
        score_of = lambda i: float(n_items - i)
    return {
        item: [ScoredItem((item + 1) % n_items, score_of(item))]
        for item in range(n_items)
    }


@pytest.fixture()
def cluster() -> ServingCluster:
    cluster = ServingCluster(n_nodes=4, n_shards=16, replication=2,
                             hot_fraction=0.25)
    cluster.load_batch("shop", batch(100), version=1)
    return cluster


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ServingError):
            ServingCluster(n_nodes=0)
        with pytest.raises(ServingError):
            ServingCluster(n_nodes=2, replication=3)
        with pytest.raises(ServingError):
            ServingCluster(hot_fraction=1.5)

    def test_replica_nodes_distinct(self):
        cluster = ServingCluster(n_nodes=4, replication=3)
        for shard in range(cluster.n_shards):
            nodes = cluster.replica_nodes(shard)
            assert len({node.node_id for node in nodes}) == 3


class TestLookup:
    def test_every_item_servable(self, cluster):
        for item in range(100):
            result = cluster.lookup("shop", item)
            assert result.version == 1
            assert result.recommendations, f"item {item} lost"

    def test_unknown_retailer(self, cluster):
        with pytest.raises(ServingError):
            cluster.lookup("ghost", 0)

    def test_unknown_item_serves_empty(self, cluster):
        result = cluster.lookup("shop", 999)
        assert result.recommendations == []

    def test_hot_items_served_from_memory(self, cluster):
        """The strongest-scored items sit in the memory tier."""
        hot = cluster.lookup("shop", 0)   # highest top score
        cold = cluster.lookup("shop", 99)  # lowest
        assert hot.tier == "memory"
        assert hot.latency_ms == pytest.approx(MEMORY_LATENCY_MS)
        assert cold.tier == "flash"
        assert cold.latency_ms == pytest.approx(FLASH_LATENCY_MS)

    def test_hot_fraction_respected(self, cluster):
        tiers = [cluster.lookup("shop", item).tier for item in range(100)]
        memory_share = tiers.count("memory") / len(tiers)
        assert 0.15 <= memory_share <= 0.35


class TestFailover:
    def test_single_node_failure_transparent(self, cluster):
        cluster.fail_node(0)
        for item in range(100):
            result = cluster.lookup("shop", item)
            assert result.node_id != 0
        assert cluster.failovers > 0

    def test_failover_adds_latency(self, cluster):
        baseline = {
            item: cluster.lookup("shop", item).latency_ms for item in range(100)
        }
        cluster.fail_node(0)
        slower = 0
        for item in range(100):
            result = cluster.lookup("shop", item)
            if result.latency_ms > baseline[item]:
                slower += 1
        assert slower > 0

    def test_all_replicas_down_fails_loudly(self):
        cluster = ServingCluster(n_nodes=2, n_shards=4, replication=2)
        cluster.load_batch("shop", batch(20), version=1)
        cluster.fail_node(0)
        cluster.fail_node(1)
        with pytest.raises(ServingError):
            cluster.lookup("shop", 0)

    def test_recovery_restores_primary(self, cluster):
        cluster.fail_node(0)
        cluster.lookup("shop", 0)
        cluster.recover_node(0)
        served_by = {cluster.lookup("shop", item).node_id for item in range(100)}
        assert 0 in served_by


class TestBatchRollout:
    def test_version_advances(self, cluster):
        cluster.load_batch("shop", batch(100), version=2)
        assert cluster.version_of("shop") == 2
        assert cluster.lookup("shop", 5).version == 2

    def test_stale_version_rejected(self, cluster):
        with pytest.raises(ServingError):
            cluster.load_batch("shop", batch(100), version=1)

    def test_retailers_independent(self, cluster):
        cluster.load_batch("other", batch(40), version=7)
        assert cluster.version_of("shop") == 1
        assert cluster.version_of("other") == 7
        assert cluster.lookup("other", 3).recommendations
        # Loading "other" must not evict "shop" data.
        assert cluster.lookup("shop", 3).recommendations

    def test_rollout_never_loses_availability(self):
        """During a staged rollout every key stays servable."""
        cluster = ServingCluster(n_nodes=3, n_shards=6, replication=2)
        cluster.load_batch("shop", batch(60), version=1)
        # Simulate mid-rollout: manually install version 2 only on
        # replica 0 of every shard (what the first rollout stage does).
        table = batch(60, score_of=lambda i: float(i))
        per_shard = {}
        for item, recs in table.items():
            shard = cluster.shard_of("shop", item)
            per_shard.setdefault(shard, {})[("shop", item)] = recs
        for shard, entries in per_shard.items():
            node = cluster.replica_nodes(shard)[0]
            node.install(shard, 2, {}, entries)
        versions_seen = set()
        for item in range(60):
            result = cluster.lookup("shop", item)
            assert result.recommendations is not None
            versions_seen.add(result.version)
        # Mixed versions during rollout are expected; unavailability is not.
        assert versions_seen <= {1, 2}

    def test_shrunk_table_is_not_torn(self):
        """Regression: a load rebuilt only the shards the *new* batch had
        an item in, so a retailer whose catalog shrank kept answering
        removed items from the retired version's rows."""
        cluster = ServingCluster(n_nodes=4, n_shards=16, replication=2)
        cluster.load_batch("shop", batch(40), version=1)
        cluster.load_batch("other", batch(40), version=5)  # co-tenant
        cluster.load_batch("shop", {0: [ScoredItem(1, 9.0)]}, version=2)
        assert cluster.lookup("shop", 0).recommendations == [ScoredItem(1, 9.0)]
        for item in range(40):
            result = cluster.lookup("shop", item)
            assert result.version == 2, f"item {item} still answers at v1"
            if item:
                assert result.recommendations == [], f"item {item} survived"
            other = cluster.lookup("other", item)
            assert other.version == 5 and other.recommendations


class TestHotPlacement:
    def test_empty_rec_items_land_in_flash(self):
        """Regression: empty-rec items used to be eligible for the memory
        tier — whenever the hot budget exceeded the number of items with
        real recommendations, entries nobody will ever read filled the
        scarce memory slots."""
        cluster = ServingCluster(n_nodes=2, n_shards=4, replication=1,
                                 hot_fraction=0.8)
        table = {item: [] for item in range(10)}
        for item in range(10, 15):
            table[item] = [ScoredItem(0, float(item))]
        cluster.load_batch("shop", table, version=1)
        # n_hot = round(15 * 0.8) = 12 > 5 real items; empties must still
        # all land in flash, never in memory.
        for item in range(10):
            assert cluster.lookup("shop", item).tier == "flash", item
        for item in range(10, 15):
            assert cluster.lookup("shop", item).tier == "memory", item

    def test_all_empty_table_nothing_hot(self):
        cluster = ServingCluster(n_nodes=2, n_shards=4, replication=1,
                                 hot_fraction=1.0)
        cluster.load_batch("shop", {item: [] for item in range(5)}, version=1)
        for node in cluster.nodes:
            assert node.memory_entries() == 0


class TestPerRetailerVersions:
    def test_shared_shard_reports_each_retailers_version(self):
        """Regression: the last retailer to load clobbered every
        co-tenant's reported ``LookupResult.version`` on shared shards."""
        cluster = ServingCluster(n_nodes=2, n_shards=2, replication=2)
        cluster.load_batch("alpha", batch(30), version=5)
        cluster.load_batch("beta", batch(30), version=3)
        for item in range(30):
            assert cluster.lookup("alpha", item).version == 5
            assert cluster.lookup("beta", item).version == 3

    def test_reload_bumps_only_own_version(self):
        cluster = ServingCluster(n_nodes=2, n_shards=2, replication=2)
        cluster.load_batch("alpha", batch(30), version=1)
        cluster.load_batch("beta", batch(30), version=1)
        cluster.load_batch("alpha", batch(30), version=2)
        assert cluster.lookup("alpha", 0).version == 2
        assert cluster.lookup("beta", 0).version == 1


class TestMemoryCapacity:
    def test_overflow_hot_entries_demoted_to_flash(self):
        """``memory_capacity_entries`` is enforced, weakest demoted first."""
        cluster = ServingCluster(n_nodes=1, n_shards=2, replication=1,
                                 hot_fraction=1.0,
                                 memory_capacity_entries=10)
        cluster.load_batch("shop", batch(40), version=1)
        node = cluster.nodes[0]
        assert node.memory_entries() <= 10
        assert node.demotions >= 30
        # The strongest items kept their memory slots (item 0 scores
        # highest in ``batch``), the weakest went to flash.
        assert cluster.lookup("shop", 0).tier == "memory"
        assert cluster.lookup("shop", 39).tier == "flash"
        # Every item is still servable after demotion.
        for item in range(40):
            assert cluster.lookup("shop", item).recommendations

    def test_capacity_shared_across_retailers(self):
        cluster = ServingCluster(n_nodes=1, n_shards=2, replication=1,
                                 hot_fraction=1.0,
                                 memory_capacity_entries=15)
        cluster.load_batch("alpha", batch(20), version=1)
        cluster.load_batch("beta", batch(20), version=1)
        assert cluster.nodes[0].memory_entries() <= 15

    def test_under_capacity_no_demotions(self):
        cluster = ServingCluster(n_nodes=2, n_shards=4, replication=1,
                                 hot_fraction=0.2,
                                 memory_capacity_entries=10_000)
        cluster.load_batch("shop", batch(50), version=1)
        assert all(node.demotions == 0 for node in cluster.nodes)


class TestFailoverLatencyAccounting:
    def test_penalty_accumulates_per_dead_replica_hop(self):
        cluster = ServingCluster(n_nodes=3, n_shards=3, replication=3,
                                 hot_fraction=1.0)
        cluster.load_batch("shop", batch(30), version=1)
        shard = cluster.shard_of("shop", 0)
        first, second, third = cluster.replica_nodes(shard)
        baseline = cluster.lookup("shop", 0).latency_ms

        cluster.fail_node(first.node_id)
        one_hop = cluster.lookup("shop", 0)
        assert one_hop.node_id == second.node_id
        assert one_hop.latency_ms == pytest.approx(
            baseline + FAILOVER_PENALTY_MS
        )

        cluster.fail_node(second.node_id)
        two_hops = cluster.lookup("shop", 0)
        assert two_hops.node_id == third.node_id
        assert two_hops.latency_ms == pytest.approx(
            baseline + 2 * FAILOVER_PENALTY_MS
        )

    def test_no_failover_count_on_primary_hit(self):
        cluster = ServingCluster(n_nodes=4, n_shards=8, replication=2)
        cluster.load_batch("shop", batch(50), version=1)
        for item in range(50):
            cluster.lookup("shop", item)
        assert cluster.failovers == 0

    def test_failovers_counted_per_hop(self):
        cluster = ServingCluster(n_nodes=3, n_shards=3, replication=3)
        cluster.load_batch("shop", batch(30), version=1)
        shard = cluster.shard_of("shop", 0)
        first, second, _ = cluster.replica_nodes(shard)
        cluster.fail_node(first.node_id)
        cluster.fail_node(second.node_id)
        before = cluster.failovers
        cluster.lookup("shop", 0)
        assert cluster.failovers == before + 2


class TestBalance:
    def test_shard_balance_reasonable(self, cluster):
        assert cluster.shard_balance() < 2.0
