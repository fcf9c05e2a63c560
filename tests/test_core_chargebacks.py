"""Tests for charge-back attribution and dynamic VM sizing (extensions).

The paper decided against billing retailers (section V) but the design
discussion makes attribution an obvious extension; dynamic VM sizing is
section IV-B2's "dynamically sized virtual machine".
"""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.cluster.cost import CostLedger
from repro.core.config import ConfigRecord
from repro.core.grid import GridSpec
from repro.core.registry import ModelRegistry
from repro.core.service import SigmundService
from repro.core.sweep import SweepPlanner
from repro.core.training import (
    TrainerSettings,
    TrainingPipeline,
    estimate_model_memory_gb,
)
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.exceptions import ClusterError
from repro.models.bpr import BPRHyperParams

FAST = TrainerSettings(max_epochs_full=2, max_epochs_incremental=1,
                       sampler="uniform")


class TestLedgerAttribution:
    def test_attribute_accumulates(self):
        ledger = CostLedger()
        ledger.attribute("chargeback/r1", 1.5)
        ledger.attribute("chargeback/r1", 0.5)
        ledger.attribute("chargeback/r2", 1.0)
        assert ledger.total("chargeback/r1") == pytest.approx(2.0)
        assert ledger.accounts_with_prefix("chargeback/") == {
            "chargeback/r1": 2.0,
            "chargeback/r2": 1.0,
        }

    def test_negative_amount_rejected(self):
        with pytest.raises(ClusterError):
            CostLedger().attribute("x", -0.1)


class TestMemoryEstimate:
    def test_scales_with_items_and_factors(self, small_dataset, tiny_dataset):
        big = ConfigRecord("a", 0, BPRHyperParams(n_factors=64))
        small = ConfigRecord("a", 1, BPRHyperParams(n_factors=8))
        assert estimate_model_memory_gb(
            big, small_dataset
        ) > estimate_model_memory_gb(small, small_dataset)
        same = ConfigRecord("a", 2, BPRHyperParams(n_factors=16))
        assert estimate_model_memory_gb(
            same, small_dataset
        ) > estimate_model_memory_gb(same, tiny_dataset)

    def test_has_floor(self, tiny_dataset):
        config = ConfigRecord("a", 0, BPRHyperParams(n_factors=4))
        assert estimate_model_memory_gb(config, tiny_dataset) >= 0.5


class TestPipelineChargebacks:
    def test_attribution_proportional_and_complete(self):
        big = dataset_from_synthetic(
            generate_retailer(
                RetailerSpec(retailer_id="cb_big", n_items=80, n_users=60,
                             n_events=900, taxonomy_depth=2, seed=1)
            )
        )
        small = dataset_from_synthetic(
            generate_retailer(
                RetailerSpec(retailer_id="cb_small", n_items=30, n_users=15,
                             n_events=120, taxonomy_depth=2, seed=2)
            )
        )
        cluster = build_cluster(n_cells=1, machines_per_cell=4)
        registry = ModelRegistry()
        pipeline = TrainingPipeline(cluster, registry, settings=FAST, seed=0)
        plan = SweepPlanner(GridSpec.small()).full_sweep([big, small])
        billed = 0.0
        for dataset in (big, small):
            own = [c for c in plan.configs if c.retailer_id == dataset.retailer_id]
            _, stats = pipeline.run(dataset, own)
            billed += stats.total_cost

        charges = pipeline.ledger.accounts_with_prefix("chargeback/")
        assert set(charges) == {"chargeback/cb_big", "chargeback/cb_small"}
        # Attribution sums to the billed job cost and follows data volume.
        assert sum(charges.values()) == pytest.approx(billed, rel=1e-6)
        assert charges["chargeback/cb_big"] > charges["chargeback/cb_small"]


class TestServiceChargebacks:
    def test_retailer_costs_view(self):
        service = SigmundService(
            build_cluster(n_cells=1, machines_per_cell=4),
            grid=GridSpec.small(),
            settings=FAST,
        )
        for index, items in enumerate((60, 25)):
            retailer = generate_retailer(
                RetailerSpec(
                    retailer_id=f"svc_cb_{index}", n_items=items,
                    n_users=max(10, items // 2), n_events=items * 4,
                    taxonomy_depth=2, seed=50 + index,
                )
            )
            service.onboard(dataset_from_synthetic(retailer))
        service.run_day()
        costs = service.retailer_costs()
        assert set(costs) == {"svc_cb_0", "svc_cb_1"}
        assert costs["svc_cb_0"] > costs["svc_cb_1"]
        assert sum(costs.values()) == pytest.approx(
            service.total_cost(), rel=1e-6
        )
