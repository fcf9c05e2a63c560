"""Tests for the distributed serving tier (shards, replicas, memory/flash)."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

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
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": 0},
            {"n_shards": 0},  # was a ZeroDivisionError at the first load
            {"n_nodes": 2, "replication": 3},
            {"hot_fraction": 1.5},
            {"memory_capacity_entries": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServingError):
            ServingCluster(**kwargs)

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
        assert result.recommendations == ()

    def test_a_returned_row_cannot_be_written_into_the_slot(self, cluster):
        row = cluster.lookup("shop", 0).recommendations
        assert cluster.lookup("shop", 0).recommendations is row  # no copy
        with pytest.raises(AttributeError):
            row.append(ScoredItem(7, 1.0))
        with pytest.raises(TypeError):
            row[0] = ScoredItem(7, 1.0)
        assert cluster.lookup("shop", 0).recommendations == tuple(batch(100)[0])

    def test_item_whose_shard_no_load_reached_serves_empty(self):
        """Regression (found by the state machine below): a live node
        answered ``None`` — "I am down" — for a shard nothing had been
        installed in, so a healthy cluster walked every replica, counted
        failovers (and breaker failures) and raised "shard unavailable"."""
        cluster = ServingCluster(n_nodes=2, n_shards=8, replication=2)
        cluster.load_batch("shop", {0: [ScoredItem(1, 1.0)]}, version=1)
        for item in range(1, 50):
            assert cluster.lookup("shop", item).recommendations == ()
        assert cluster.lookup("shop", 0).recommendations == (ScoredItem(1, 1.0),)
        assert cluster.failovers == 0

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
        """Mid-rollout — version 2 on replica 0 of every shard, version 1
        still on replica 1 — every key stays servable."""
        cluster = ServingCluster(n_nodes=3, n_shards=6, replication=2)
        cluster.load_batch("shop", batch(60), version=1)
        # What the first rollout stage does, by hand.
        per_shard = {}
        for item, recs in batch(60, score_of=lambda i: float(i)).items():
            per_shard.setdefault(cluster.shard_of("shop", item), {})[item] = recs
        assert len(per_shard) == cluster.n_shards
        for shard, rows in per_shard.items():
            cluster.replica_nodes(shard)[0].install(shard, "shop", 2, rows, set())
        for shard in per_shard:
            first, second = cluster.replica_nodes(shard)
            assert first.replicas[shard]["shop"].version == 2
            assert second.replicas[shard]["shop"].version == 1
        # Primaries answer; failing one sends its shards to replica 1,
        # which still holds version 1: mixed versions, no unavailability.
        assert {cluster.lookup("shop", item).version for item in range(60)} == {2}
        cluster.fail_node(0)
        versions_seen = set()
        for item in range(60):
            result = cluster.lookup("shop", item)
            assert result.recommendations, f"item {item} lost"
            versions_seen.add(result.version)
        assert versions_seen == {1, 2}

    def test_shrunk_table_is_not_torn(self):
        """Regression: a load rebuilt only the shards the *new* batch had
        an item in, so a retailer whose catalog shrank kept answering
        removed items from the retired version's rows."""
        cluster = ServingCluster(n_nodes=4, n_shards=16, replication=2)
        cluster.load_batch("shop", batch(40), version=1)
        cluster.load_batch("other", batch(40), version=5)  # co-tenant
        cluster.load_batch("shop", {0: [ScoredItem(1, 9.0)]}, version=2)
        assert cluster.lookup("shop", 0).recommendations == (ScoredItem(1, 9.0),)
        for item in range(40):
            result = cluster.lookup("shop", item)
            assert result.version == 2, f"item {item} still answers at v1"
            if item:
                assert result.recommendations == (), f"item {item} survived"
            other = cluster.lookup("other", item)
            assert other.version == 5 and other.recommendations


def everything(cluster, retailer_id, n_items):
    """Every field of every lookup of one retailer."""
    return [cluster.lookup(retailer_id, item) for item in range(n_items)]


def holders(cluster, retailer_id):
    """(node, shard) of every replica that holds a slot of the retailer."""
    return [
        (node.node_id, shard)
        for node in cluster.nodes
        for shard, replica in node.replicas.items()
        if retailer_id in replica
    ]


class TestDropRetailer:
    """A retailer can leave the tier: until this existed a merged-away or
    offboarded retailer stayed servable and could never re-onboard."""

    def test_dropped_retailer_is_unreachable(self, cluster):
        assert holders(cluster, "shop")
        cluster.drop_retailer("shop")
        with pytest.raises(ServingError, match="no data loaded"):
            cluster.lookup("shop", 0)
        assert cluster.version_of("shop") is None
        assert holders(cluster, "shop") == []
        assert all(node.memory_entries() == 0 for node in cluster.nodes)

    def test_co_tenants_sharing_every_shard_are_untouched(self):
        cluster = ServingCluster(n_nodes=2, n_shards=2, replication=2,
                                 hot_fraction=0.5, memory_capacity_entries=25)
        cluster.load_batch("alpha", batch(30), version=5)
        cluster.load_batch("beta", batch(30), version=3)
        cluster.load_batch("gamma", batch(30), version=7)
        alpha, gamma = everything(cluster, "alpha", 30), everything(cluster, "gamma", 30)
        assert {result.tier for result in alpha + gamma} == {"memory", "flash"}
        cluster.drop_retailer("beta")
        # Rows, tiers, latencies, nodes and versions: all as they were.
        assert everything(cluster, "alpha", 30) == alpha
        assert everything(cluster, "gamma", 30) == gamma
        assert holders(cluster, "beta") == []

    def test_drop_on_a_failed_node_resurrects_nothing(self, cluster):
        cluster.fail_node(0)
        cluster.drop_retailer("shop")
        cluster.recover_node(0)
        assert holders(cluster, "shop") == []
        with pytest.raises(ServingError, match="no data loaded"):
            cluster.lookup("shop", 0)

    def test_re_onboarding_starts_at_version_one(self, cluster):
        cluster.load_batch("shop", batch(100), version=9)
        cluster.drop_retailer("shop")
        cluster.load_batch("shop", {0: [ScoredItem(1, 1.0)]}, version=1)
        assert cluster.lookup("shop", 0).version == 1
        # Nothing of the departed table is behind the new one.
        assert sum(
            len(cluster.lookup("shop", item).recommendations)
            for item in range(100)
        ) == 1

    def test_drop_is_idempotent_and_notifies(self, cluster):
        heard = []
        cluster.subscribe_invalidation(heard.append)
        cluster.drop_retailer("shop")
        cluster.drop_retailer("shop")
        cluster.drop_retailer("ghost")
        assert heard == ["shop", "shop", "ghost"]
        assert cluster.version_of("shop") is None


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


# ----------------------------------------------------------------------
# The cluster against a dict, under any interleaving
# ----------------------------------------------------------------------
TENANTS = ("alpha", "beta", "gamma")
ITEMS = range(6)
CAPACITY = 3

row_lists = st.lists(
    st.builds(ScoredItem, st.sampled_from(ITEMS), st.sampled_from([0.5, 1.0, 2.0])),
    max_size=3,
)
tables = st.dictionaries(st.sampled_from(ITEMS), row_lists, max_size=len(ITEMS))
tenants = st.sampled_from(TENANTS)


class ClusterAgainstDict(RuleBasedStateMachine):
    """Three tenants hashed into two shards of a cluster whose memory tier
    holds three entries per node, against ``{rid: (version, table)}``."""

    def __init__(self):
        super().__init__()
        self.cluster = ServingCluster(
            n_nodes=3, n_shards=2, replication=2, hot_fraction=0.5,
            memory_capacity_entries=CAPACITY,
        )
        self.oracle = {}
        self.down = None

    def _load(self, rid, table, version):
        self.cluster.load_batch(rid, table, version)
        self.oracle[rid] = (version, table)

    @rule(rid=tenants, table=tables, bump=st.integers(1, 3))
    def load_or_reload(self, rid, table, bump):
        self._load(rid, table, self.oracle.get(rid, (0, None))[0] + bump)

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), item=st.sampled_from(ITEMS), rows=row_lists)
    def shrink_to_one_item(self, data, item, rows):
        rid = data.draw(st.sampled_from(sorted(self.oracle)))
        self._load(rid, {item: rows}, self.oracle[rid][0] + 1)

    @precondition(lambda self: len(self.oracle) < len(TENANTS))
    @rule(data=st.data(), table=tables)
    def onboard_at_version_one(self, data, table):
        rid = data.draw(st.sampled_from(sorted(set(TENANTS) - set(self.oracle))))
        self._load(rid, table, 1)

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), table=tables, behind=st.integers(0, 2))
    def stale_load_changes_nothing(self, data, table, behind):
        rid = data.draw(st.sampled_from(sorted(self.oracle)))
        before = repr([node.__dict__ for node in self.cluster.nodes])
        with pytest.raises(ServingError, match="stale batch"):
            self.cluster.load_batch(rid, table, self.oracle[rid][0] - behind)
        assert repr([node.__dict__ for node in self.cluster.nodes]) == before

    @rule(rid=tenants)
    def drop(self, rid):
        self.cluster.drop_retailer(rid)
        self.oracle.pop(rid, None)

    @precondition(lambda self: self.down is None)
    @rule(node=st.integers(0, 2))
    def fail_a_node(self, node):
        self.cluster.fail_node(node)
        self.down = node

    @precondition(lambda self: self.down is not None)
    @rule()
    def recover_the_node(self):
        self.cluster.recover_node(self.down)
        self.down = None

    @invariant()
    def every_lookup_is_the_oracles(self):
        for rid in TENANTS:
            if rid not in self.oracle:
                with pytest.raises(ServingError, match="no data loaded"):
                    self.cluster.lookup(rid, 0)
                assert self.cluster.version_of(rid) is None
                assert holders(self.cluster, rid) == []
                continue
            version, table = self.oracle[rid]
            assert self.cluster.version_of(rid) == version
            for item in ITEMS:
                result = self.cluster.lookup(rid, item)
                assert result.recommendations == tuple(table.get(item, ()))
                assert result.node_id != self.down
                if item in table:
                    assert result.version == version

    @invariant()
    def every_replica_holds_its_share_of_the_table_and_nothing_else(self):
        cluster = self.cluster
        for rid, (version, table) in self.oracle.items():
            for shard in range(cluster.n_shards):
                share = {
                    item: tuple(recs) for item, recs in table.items()
                    if cluster.shard_of(rid, item) == shard
                }
                for node in cluster.replica_nodes(shard):
                    slot = node.replicas.get(shard, {}).get(rid)
                    if slot is None:
                        assert not share
                        continue
                    assert (slot.version, slot.rows) == (version, share)
                    assert all(slot.rows[item] for item in slot.hot)

    @invariant()
    def every_loaded_item_is_placed_where_it_hashes(self):
        placement = self.cluster._placement
        assert placement.keys() == self.oracle.keys()
        for rid, (_, table) in self.oracle.items():
            assert placement[rid] == {
                item: self.cluster.shard_of(rid, item) for item in table
            }

    @invariant()
    def memory_tier_is_bounded(self):
        for node in self.cluster.nodes:
            assert node.memory_entries() <= CAPACITY


TestClusterAgainstDict = ClusterAgainstDict.TestCase
TestClusterAgainstDict.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
