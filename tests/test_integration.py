"""End-to-end integration tests: the whole Sigmund loop on a tiny fleet."""

from __future__ import annotations

import pytest

from repro import (
    GridSpec,
    MarketplaceSpec,
    RecommendationServer,
    SigmundService,
    TrainerSettings,
    build_cluster,
    dataset_from_synthetic,
    generate_marketplace,
)
from repro.data.datasets import dataset_from_synthetic as make_dataset
from repro.evaluation import HoldoutEvaluator
from repro.models.popularity import PopularityModel


@pytest.fixture(scope="module")
def fleet():
    return [
        dataset_from_synthetic(retailer)
        for retailer in generate_marketplace(
            MarketplaceSpec(
                n_retailers=3,
                median_items=60,
                sigma_items=0.7,
                users_per_item=0.6,
                events_per_user=10.0,
                seed=21,
            )
        )
    ]


@pytest.fixture(scope="module")
def service_after_two_days(fleet):
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=GridSpec.small(),
        settings=TrainerSettings(
            max_epochs_full=3, max_epochs_incremental=2, sampler="uniform"
        ),
    )
    for dataset in fleet:
        service.onboard(dataset)
    service.run_day()
    service.run_day()
    return service


class TestEndToEnd:
    def test_every_retailer_has_best_model(self, service_after_two_days, fleet):
        for dataset in fleet:
            assert service_after_two_days.best_map(dataset.retailer_id) >= 0.0

    def test_models_beat_popularity_baseline_on_average(
        self, service_after_two_days, fleet
    ):
        wins = 0
        for dataset in fleet:
            best = service_after_two_days.registry.best(dataset.retailer_id)
            evaluator = HoldoutEvaluator(dataset)
            baseline = evaluator.evaluate(
                PopularityModel(dataset.n_items, dataset.train)
            )
            if best.map_at_10 >= baseline.map_at_10:
                wins += 1
        assert wins >= 2, "factorization should beat popularity on most retailers"

    def test_serving_isolated_per_retailer(self, service_after_two_days, fleet):
        """Recommendations for retailer A never contain retailer B items —
        structurally guaranteed because stores are namespaced; verify the
        lookups resolve within the retailer's catalog bounds."""
        server = RecommendationServer(service_after_two_days.substitutes_store)
        for dataset in fleet:
            example = dataset.holdout[0]
            recs = server.recommend(
                dataset.retailer_id, example.context, k=5
            )
            for rec in recs:
                assert 0 <= rec.item_index < dataset.n_items

    def test_cost_accounting_consistent(self, service_after_two_days):
        reports = service_after_two_days.reports
        assert service_after_two_days.total_cost() == pytest.approx(
            sum(r.total_cost for r in reports), rel=1e-6
        )

    def test_incremental_day_cheaper(self, service_after_two_days):
        full, incremental = service_after_two_days.reports[:2]
        assert incremental.training_cost < full.training_cost

    def test_daily_versions_advance(self, service_after_two_days, fleet):
        rid = fleet[0].retailer_id
        assert service_after_two_days.substitutes_store.version_of(rid) == 2


class TestDataRefreshLoop:
    def test_new_data_day_over_day(self, fleet):
        """Simulate fresh interactions arriving: re-split a retailer's log
        and run another day; the service keeps working and re-serves."""
        from repro.data.generator import generate_retailer, RetailerSpec

        service = SigmundService(
            build_cluster(n_cells=1, machines_per_cell=4),
            grid=GridSpec.small(),
            settings=TrainerSettings(
                max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
            ),
        )
        spec = RetailerSpec(
            retailer_id="refresh", n_items=40, n_users=25, n_events=250,
            taxonomy_depth=2, seed=1,
        )
        service.onboard(make_dataset(generate_retailer(spec)))
        service.run_day()
        # "New day": more events observed (larger n_events, same id).
        from dataclasses import replace

        richer = replace(spec, n_events=400, seed=2)
        service.update_dataset(make_dataset(generate_retailer(richer)))
        day1 = service.run_day()
        assert day1.retailers_served == 1
        assert day1.sweep_kind == "incremental"
        assert service.substitutes_store.version_of("refresh") == 2
