"""Tests for the cluster simulator: clock, cells, pre-emption, cost."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.cluster.cell import Cell, Cluster
from repro.cluster.clock import SimClock
from repro.cluster.cost import CostLedger, ResourcePricing
from repro.cluster.execution import run_with_preemptions
from repro.cluster.machine import MachineSpec, Priority, VMRequest
from repro.cluster.preemption import PreemptionModel
from repro.exceptions import ClusterError


class TestClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.advance(5.0) == 5.0
        assert clock.now == 5.0

    def test_advance_to(self):
        clock = SimClock(10.0)
        clock.advance_to(12.0)
        assert clock.now == 12.0

    def test_no_rewind(self):
        clock = SimClock(10.0)
        with pytest.raises(ClusterError):
            clock.advance(-1.0)
        with pytest.raises(ClusterError):
            clock.advance_to(5.0)


class TestMachineShapes:
    @pytest.mark.parametrize("cpus, memory_gb", [(0, 64.0), (8, 0.0)])
    def test_machine_needs_positive_resources(self, cpus, memory_gb):
        with pytest.raises(ClusterError):
            MachineSpec(cpus=cpus, memory_gb=memory_gb)

    @pytest.mark.parametrize("cpus, memory_gb", [(0, 8.0), (4, 0.0)])
    def test_vm_request_needs_positive_resources(self, cpus, memory_gb):
        with pytest.raises(ClusterError):
            VMRequest(cpus, memory_gb)


class TestCell:
    def test_all_capacity_is_free(self):
        """Nothing places VMs: a cell's free CPUs are its machines'."""
        cell = Cell("c", 4, MachineSpec(cpus=8, memory_gb=64.0))
        assert cell.free_cpus == 32
        assert (cell.name, cell.n_machines) == ("c", 4)
        assert cell.machine_spec == MachineSpec(cpus=8, memory_gb=64.0)

    def test_needs_a_machine(self):
        with pytest.raises(ClusterError):
            Cell("c", 0)


class TestCluster:
    def build(self):
        return Cluster(
            [
                Cell("big", 8, MachineSpec(cpus=8, memory_gb=64)),
                Cell("small", 2, MachineSpec(cpus=8, memory_gb=64)),
            ]
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ClusterError):
            Cluster([Cell("x", 1), Cell("x", 1)])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Cluster([])

    def test_build_cluster_cells(self):
        cluster = build_cluster(n_cells=3, machines_per_cell=2)
        assert list(cluster.cells) == ["cell-0", "cell-1", "cell-2"]
        assert all(
            cell.free_cpus == 2 * 16 for cell in cluster.cells.values()
        )

    def test_split_by_capacity_proportional(self):
        cluster = self.build()
        shares = cluster.split_by_capacity(10)
        assert sum(shares.values()) == 10
        assert shares["big"] > shares["small"] >= 1

    def test_unknown_cell(self):
        with pytest.raises(ClusterError):
            self.build().cell("nope")

    def test_split_fewer_shards_than_cells(self):
        """Regression: 2 shards over 4 equal cells used to go negative."""
        cluster = Cluster(
            [Cell(f"c{i}", 2, MachineSpec(cpus=8, memory_gb=64)) for i in range(4)]
        )
        shares = cluster.split_by_capacity(2)
        assert sum(shares.values()) == 2
        assert all(share >= 0 for share in shares.values())

    def test_split_exact_when_shards_divide_evenly(self):
        assert self.build().split_by_capacity(5) == {"big": 4, "small": 1}

    def test_split_follows_machine_shape_not_count(self):
        """Free capacity is CPUs, not machines: two 32-CPU machines
        outweigh four 8-CPU ones."""
        cluster = Cluster(
            [
                Cell("many", 4, MachineSpec(cpus=8, memory_gb=64)),
                Cell("wide", 2, MachineSpec(cpus=32, memory_gb=256)),
            ]
        )
        assert cluster.split_by_capacity(3) == {"wide": 2, "many": 1}

    def test_equal_cells_share_by_name(self):
        """Ties between equally free cells go to the lower name, so a
        split (and every day built on it) is reproducible."""
        cluster = Cluster(
            [Cell(name, 2, MachineSpec(cpus=8, memory_gb=64))
             for name in ("d", "b", "c", "a")]
        )
        assert cluster.split_by_capacity(2) == {"a": 1, "b": 1, "c": 0, "d": 0}
        assert cluster.split_by_capacity(6) == {"a": 2, "b": 2, "c": 1, "d": 1}

    def test_single_shard_goes_to_most_free_cell(self):
        shares = self.build().split_by_capacity(1)
        assert shares["big"] == 1
        assert shares["small"] == 0

    def test_split_invalid_shard_count_rejected(self):
        with pytest.raises(ClusterError):
            self.build().split_by_capacity(0)

    @settings(max_examples=60, deadline=None)
    @given(
        machines=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        shards=st.integers(1, 40),
    )
    def test_split_by_capacity_total(self, machines, shards):
        """Shares always sum exactly, never go negative, and every free
        cell gets at least one shard whenever there are enough to go
        around."""
        cluster = Cluster(
            [
                Cell(f"h{i}", count, MachineSpec(cpus=4, memory_gb=32))
                for i, count in enumerate(machines)
            ]
        )
        shares = cluster.split_by_capacity(shards)
        assert sum(shares.values()) == shards
        assert all(share >= 0 for share in shares.values())
        if shards >= len(machines):
            assert all(share >= 1 for share in shares.values())


class TestPreemptionModel:
    def test_survival_decreases_with_duration(self):
        model = PreemptionModel()
        short = model.survival_probability(Priority.PREEMPTIBLE, 600)
        long = model.survival_probability(Priority.PREEMPTIBLE, 6 * 3600)
        assert short > long

    def test_regular_far_more_reliable(self):
        model = PreemptionModel()
        duration = 4 * 3600
        assert model.survival_probability(
            Priority.REGULAR, duration
        ) > model.survival_probability(Priority.PREEMPTIBLE, duration)

    def test_expected_attempts(self):
        model = PreemptionModel(preemptible_mean_uptime_hours=1.0)
        assert model.expected_attempts(
            Priority.PREEMPTIBLE, 3600
        ) == pytest.approx(np.e, rel=1e-6)

    def test_samples_deterministic_with_seed(self):
        model = PreemptionModel()
        a = model.sample_time_to_preemption(Priority.PREEMPTIBLE, 5)
        b = model.sample_time_to_preemption(Priority.PREEMPTIBLE, 5)
        assert a == b

    def test_invalid_uptime(self):
        with pytest.raises(ClusterError):
            PreemptionModel(preemptible_mean_uptime_hours=0.0)


class TestPricing:
    def test_preemptible_discount(self):
        pricing = ResourcePricing(preemptible_discount=0.7)
        regular = pricing.cost(VMRequest(4, 32, Priority.REGULAR), 3600)
        cheap = pricing.cost(VMRequest(4, 32, Priority.PREEMPTIBLE), 3600)
        assert cheap == pytest.approx(0.3 * regular)

    def test_cost_scales_with_time_and_size(self):
        pricing = ResourcePricing()
        small = pricing.cost(VMRequest(1, 1, Priority.REGULAR), 3600)
        big = pricing.cost(VMRequest(2, 2, Priority.REGULAR), 7200)
        assert big == pytest.approx(4 * small)

    def test_ledger_accounts(self):
        ledger = CostLedger()
        request = VMRequest(2, 8, Priority.REGULAR)
        ledger.charge("train", request, 3600)
        ledger.charge("train", request, 3600)
        ledger.charge("infer", request, 1800)
        assert ledger.total("train") == pytest.approx(2 * ledger.total("infer") * 2)
        assert ledger.total() == pytest.approx(
            ledger.total("train") + ledger.total("infer")
        )
        assert ledger.cpu_seconds("train") == pytest.approx(2 * 2 * 3600)

    def test_invalid_discount(self):
        with pytest.raises(ClusterError):
            ResourcePricing(preemptible_discount=1.0)


class TestExecution:
    def test_no_preemption_means_single_attempt(self):
        model = PreemptionModel(regular_mean_uptime_hours=1e9)
        trace = run_with_preemptions(
            3600, priority=Priority.REGULAR, preemption_model=model, seed=1
        )
        assert trace.attempts == 1
        assert trace.preemptions == 0
        assert trace.wall_seconds >= 3600

    def test_checkpointing_bounds_lost_work(self):
        """With checkpoints every 60s, no single pre-emption loses much."""
        model = PreemptionModel(preemptible_mean_uptime_hours=0.25)
        trace = run_with_preemptions(
            2 * 3600,
            preemption_model=model,
            checkpoint_interval=60.0,
            checkpoint_write_seconds=0.5,
            seed=7,
        )
        assert trace.preemptions > 0
        assert trace.lost_work_seconds <= trace.preemptions * (60.0 + 0.5 + 30.0)

    def test_no_checkpointing_loses_more(self):
        model = PreemptionModel(preemptible_mean_uptime_hours=0.5)
        with_ckpt = run_with_preemptions(
            3600, preemption_model=model, checkpoint_interval=120.0, seed=3
        )
        without = run_with_preemptions(
            3600, preemption_model=model, checkpoint_interval=None, seed=3
        )
        assert without.billed_seconds >= with_ckpt.billed_seconds

    def test_work_conservation(self):
        """billed = work + lost + checkpoints + restart overheads."""
        model = PreemptionModel(preemptible_mean_uptime_hours=0.5)
        trace = run_with_preemptions(
            3600,
            preemption_model=model,
            checkpoint_interval=300.0,
            checkpoint_write_seconds=2.0,
            restart_overhead_seconds=30.0,
            seed=11,
        )
        restart_overhead = 30.0 * (trace.attempts - 1)
        # Pre-empted attempts may lose part of their restart overhead too,
        # so conservation holds as an inequality within one uptime draw.
        expected = (
            trace.work_seconds
            + trace.lost_work_seconds
            + trace.checkpoint_overhead_seconds
            + restart_overhead
        )
        assert trace.billed_seconds <= expected + 1e-6
        assert trace.billed_seconds >= trace.work_seconds

    def test_invalid_args(self):
        with pytest.raises(ClusterError):
            run_with_preemptions(-1.0)
        with pytest.raises(ClusterError):
            run_with_preemptions(10.0, checkpoint_interval=0.0)

    def test_zero_work(self):
        trace = run_with_preemptions(0.0, seed=1)
        assert trace.billed_seconds == 0.0
        assert trace.attempts == 0
