"""Tests for the daily service loop and quality monitoring."""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.core.grid import GridSpec
from repro.core.monitoring import QualityMonitor
from repro.core.service import SigmundService
from repro.core.training import TrainerSettings
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.exceptions import DataError
from repro.serving.server import RecommendationServer

FAST_SETTINGS = TrainerSettings(
    max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
)


def tiny_service(n_retailers=2, **kwargs) -> SigmundService:
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=GridSpec.small(),
        settings=FAST_SETTINGS,
        **kwargs,
    )
    for index in range(n_retailers):
        retailer = generate_retailer(
            RetailerSpec(
                retailer_id=f"svc_{index}",
                n_items=40,
                n_users=25,
                n_events=260,
                taxonomy_depth=2,
                taxonomy_fanout=3,
                seed=100 + index,
            )
        )
        service.onboard(dataset_from_synthetic(retailer))
    return service


class TestMonitor:
    def test_first_day_no_alert(self):
        monitor = QualityMonitor()
        assert monitor.record("r", 0, 0.5) is None

    def test_regression_alert(self):
        monitor = QualityMonitor(regression_threshold=0.3)
        monitor.record("r", 0, 0.5)
        alert = monitor.record("r", 1, 0.2)
        assert alert is not None
        assert alert.drop_fraction == pytest.approx(0.6)
        assert monitor.alerts_for_day(1) == [alert]

    def test_small_drop_no_alert(self):
        monitor = QualityMonitor(regression_threshold=0.3)
        monitor.record("r", 0, 0.5)
        assert monitor.record("r", 1, 0.45) is None

    def test_improvement_no_alert(self):
        monitor = QualityMonitor()
        monitor.record("r", 0, 0.2)
        assert monitor.record("r", 1, 0.8) is None

    def test_fleet_summary(self):
        monitor = QualityMonitor()
        for retailer, value in [("a", 0.2), ("b", 0.4), ("c", 0.9)]:
            monitor.record(retailer, 0, value)
        summary = monitor.fleet_summary(0)
        assert summary["retailers"] == 3.0
        assert summary["mean_map"] == pytest.approx(0.5)

    def test_fleet_summary_empty_day(self):
        assert QualityMonitor().fleet_summary(4)["retailers"] == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            QualityMonitor(regression_threshold=0.0)

    def test_failure_alert_carries_stage(self):
        monitor = QualityMonitor()
        alert = monitor.record_failure(
            "r", 0, stage="training", detail="training: cell died"
        )
        assert alert.kind == "failure"
        assert alert.stage == "training"
        assert alert.metric == "training_availability"
        assert monitor.failures_for_day(0) == [alert]

    def test_regression_alert_is_stage_less(self):
        monitor = QualityMonitor(regression_threshold=0.3)
        monitor.record("r", 0, 0.5)
        alert = monitor.record("r", 1, 0.2)
        assert alert is not None
        assert alert.kind == "regression"
        assert alert.stage == ""

    def test_service_failure_alerts_labeled_with_stage(self):
        """The wrap-up derives the stage label from the failure reason, so
        operators can slice alerts by pipeline stage."""
        from repro.serving.gate import GateDecision, PublishGate

        class _RejectEverything(PublishGate):
            def validate(self, retailer_id, *args, **kwargs):
                decision = GateDecision(retailer_id, False, ["forced"])
                self.rejections.append(decision)
                return decision

        service = tiny_service()
        service.run_day()
        service.gate = _RejectEverything()
        service.run_day()
        failures = service.monitor.failures_for_day(1)
        assert len(failures) == 2
        assert all(alert.stage == "publish" for alert in failures)


class TestService:
    def test_day_zero_is_full_sweep(self):
        service = tiny_service()
        report = service.run_day()
        assert report.sweep_kind == "full"
        assert report.configs_trained > 0
        assert report.retailers_served == 2
        assert report.total_cost > 0

    def test_day_one_is_incremental_and_smaller(self):
        service = tiny_service(top_k_incremental=2)
        full = service.run_day()
        incremental = service.run_day()
        assert incremental.sweep_kind == "incremental"
        assert incremental.configs_trained <= full.configs_trained
        assert incremental.configs_trained == 2 * 2  # top_k per retailer

    def test_periodic_full_restart(self):
        service = tiny_service(full_restart_every=2)
        assert service.run_day().sweep_kind == "full"       # day 0
        assert service.run_day().sweep_kind == "incremental"  # day 1
        assert service.run_day().sweep_kind == "full"       # day 2

    def test_serving_stores_loaded_with_versions(self):
        service = tiny_service()
        service.run_day()
        rid = service.retailers[0]
        assert service.substitutes_store.version_of(rid) == 1
        assert service.accessories_store.version_of(rid) == 1
        service.run_day()
        assert service.substitutes_store.version_of(rid) == 2

    def test_served_recommendations_flow(self):
        service = tiny_service()
        service.run_day()
        rid = service.retailers[0]
        dataset = service._datasets[rid]
        example = dataset.holdout[0]
        server = RecommendationServer(service.substitutes_store)
        recs = server.recommend(rid, example.context, k=5)
        assert recs, "serving path should return recommendations"

    def test_onboard_duplicate_rejected(self):
        service = tiny_service(n_retailers=1)
        dataset = service._datasets[service.retailers[0]]
        with pytest.raises(DataError):
            service.onboard(dataset)

    def test_update_requires_onboarded(self, tiny_dataset):
        service = tiny_service(n_retailers=1)
        with pytest.raises(DataError):
            service.update_dataset(tiny_dataset)

    def test_offboard_drops_all_artifacts(self):
        service = tiny_service()
        service.run_day()
        victim = service.retailers[0]
        service.offboard(victim)
        assert victim not in service.retailers
        assert not service.registry.has_models(victim)

    def test_offboard_purges_serving_and_repurchase(self):
        """Regression: offboarding used to leave the departed tenant's
        serving tables and re-purchase detector alive — stale data that
        contradicts the store's privacy framing."""
        from repro.exceptions import ServingError

        service = tiny_service()
        service.run_day()
        victim = service.retailers[0]
        survivor = service.retailers[1]
        assert service.substitutes_store.has_retailer(victim)
        assert service.accessories_store.has_retailer(victim)
        service.offboard(victim)
        assert not service.substitutes_store.has_retailer(victim)
        assert not service.accessories_store.has_retailer(victim)
        with pytest.raises(ServingError):
            service.substitutes_store.lookup(victim, 0)
        with pytest.raises(ServingError):
            service.accessories_store.lookup(victim, 0)
        with pytest.raises(DataError):
            service.repurchase_recommendations(victim, user_id=0)
        # The surviving tenant is untouched.
        assert service.substitutes_store.has_retailer(survivor)

    def test_rollback_retailer_serves_the_previous_days_tables(self):
        service = tiny_service()
        service.run_day()
        rid, other = service.retailers
        day0 = (
            service.substitutes_store.get(rid),
            service.accessories_store.get(rid),
        )
        service.run_day()
        assert service.rollback_retailer(rid) == 1
        assert service.substitutes_store.get(rid) is day0[0]
        assert service.accessories_store.get(rid) is day0[1]
        assert service.accessories_store.version_of(rid) == 1
        # The co-tenant keeps serving today's tables.
        assert service.substitutes_store.version_of(other) == 2
        assert service.accessories_store.version_of(other) == 2

    def test_rollback_retailer_needs_a_previous_day(self):
        from repro.exceptions import ServingError

        service = tiny_service(n_retailers=1)
        service.run_day()
        rid = service.retailers[0]
        with pytest.raises(ServingError, match="no last-good"):
            service.rollback_retailer(rid)
        assert service.substitutes_store.version_of(rid) == 1
        assert service.accessories_store.version_of(rid) == 1

    def test_rollback_retailer_is_one_day_deep(self):
        from repro.exceptions import ServingError

        service = tiny_service(n_retailers=1)
        for _ in range(3):
            service.run_day()
        rid = service.retailers[0]
        assert service.rollback_retailer(rid) == 2
        with pytest.raises(ServingError, match="no last-good"):
            service.rollback_retailer(rid)
        # The next day publishes forward again from the rolled-back table.
        service.run_day()
        assert service.substitutes_store.version_of(rid) == 4

    def test_registry_keeps_only_the_latest_training_day(self):
        service = tiny_service()
        for _ in range(3):
            service.run_day()
        configs = service.journal.day_intent(2)["configs"]
        for rid in service.retailers:
            latest = {c.model_number for c in configs if c.retailer_id == rid}
            models = service.registry._models[rid]
            assert set(models) == latest
            assert {m.output.config.day for m in models.values()} == {2}

    def test_offboard_forgets_the_map_history(self):
        """Regression: a tenant re-onboarded under a departed one's id was
        gated and alerted against its predecessor's MAP."""
        service = tiny_service()
        service.run_day()
        victim = service.retailers[0]
        dataset = service._datasets[victim]
        assert service.monitor.last_map(victim, 1) is not None
        alerts = list(service.monitor.alerts)
        service.offboard(victim)
        service.onboard(dataset)
        assert service.monitor.last_map(victim, 1) is None
        assert service.monitor.metric_history(victim) == {}
        assert service.monitor.alerts == alerts

    def test_offboard_unknown_retailer_is_noop(self):
        service = tiny_service(n_retailers=1)
        service.offboard("never_onboarded")  # must not raise
        assert service.retailers == ["svc_0"]

    def test_mid_stream_onboarding_gets_full_grid(self):
        service = tiny_service(n_retailers=1)
        service.run_day()
        newcomer = generate_retailer(
            RetailerSpec(
                retailer_id="late_joiner",
                n_items=36,
                n_users=20,
                n_events=200,
                taxonomy_depth=2,
                seed=77,
            )
        )
        service.onboard(dataset_from_synthetic(newcomer))
        report = service.run_day()
        assert report.sweep_kind == "incremental"
        assert service.registry.has_models("late_joiner")
        assert service.registry.model_count("late_joiner") >= 2

    def test_empty_service_day(self):
        service = SigmundService(build_cluster(1, 2), settings=FAST_SETTINGS)
        report = service.run_day()
        assert report.configs_trained == 0
        assert report.retailers_served == 0

    def test_monitor_records_daily(self):
        service = tiny_service()
        service.run_day()
        service.run_day()
        rid = service.retailers[0]
        history = service.monitor.metric_history(rid)
        assert set(history) == {0, 1}


class TestRepurchaseSurface:
    def test_requires_a_daily_run(self):
        service = tiny_service(n_retailers=1)
        with pytest.raises(DataError):
            service.repurchase_recommendations(service.retailers[0], 0)

    def test_due_items_surface(self):
        from repro.data.datasets import RetailerDataset
        from repro.data.events import EventType, Interaction
        from repro.data.split import leave_last_out_split

        service = tiny_service(n_retailers=1)
        rid = service.retailers[0]
        base = service._datasets[rid]
        # Fabricate a repurchase-heavy log: users 0 and 1 buy item 0
        # repeatedly on a 10-time-unit cycle, with filler views so the
        # holdout split leaves the purchases in training.
        log = []
        t = 0.0
        for user in (0, 1):
            for _ in range(3):
                log.append(Interaction(t, user, 0, EventType.CONVERSION))
                t += 10.0
            log.append(Interaction(t, user, 1, EventType.VIEW))
            t += 1.0
        split = leave_last_out_split(log)
        service.update_dataset(
            RetailerDataset(
                retailer_id=rid,
                catalog=base.catalog,
                taxonomy=base.taxonomy,
                train=split.train,
                holdout=split.holdout,
            )
        )
        service.run_day()
        due_soon = service.repurchase_recommendations(rid, 0, now=100.0)
        assert due_soon == [0]
        not_due = service.repurchase_recommendations(rid, 0, now=20.5)
        assert not_due == []

    def test_unknown_user_empty(self):
        service = tiny_service(n_retailers=1)
        service.run_day()
        assert service.repurchase_recommendations(
            service.retailers[0], 10 ** 9
        ) == []


class TestServingWindowAccounting:
    """Serving availability accounting: every request lands in exactly
    one bucket, and the monitor rejects any ledger that says otherwise."""

    BUCKETS = {
        "cache": 20, "coalesced": 5, "fresh": 60, "stale": 6,
        "fallback": 5, "shed": 3, "empty": 1,
    }

    def test_conserved_window_accepted(self):
        monitor = QualityMonitor()
        window = monitor.record_serving_window(1, 100, dict(self.BUCKETS))
        assert window.availability == pytest.approx(0.99)
        assert monitor.serving_window(1) is window
        assert monitor.alerts_for_day(1) == []

    def test_degraded_fraction(self):
        monitor = QualityMonitor()
        window = monitor.record_serving_window(1, 100, dict(self.BUCKETS))
        # stale + fallback + shed + empty = 15 of 100.
        assert window.degraded_fraction == pytest.approx(0.15)

    def test_double_count_rejected(self):
        buckets = dict(self.BUCKETS)
        buckets["stale"] += 4  # a serve counted in two buckets
        with pytest.raises(ValueError, match="double-count or gap"):
            QualityMonitor().record_serving_window(1, 100, buckets)

    def test_gap_rejected(self):
        buckets = dict(self.BUCKETS)
        buckets["fallback"] -= 2  # a serve counted nowhere
        with pytest.raises(ValueError, match="double-count or gap"):
            QualityMonitor().record_serving_window(1, 100, buckets)

    def test_unknown_bucket_rejected(self):
        buckets = dict(self.BUCKETS)
        buckets["degraded"] = 0
        with pytest.raises(ValueError, match="unknown serving bucket"):
            QualityMonitor().record_serving_window(1, 100, buckets)

    def test_negative_count_rejected(self):
        buckets = dict(self.BUCKETS)
        buckets["empty"] = -1
        buckets["fresh"] += 2
        with pytest.raises(ValueError, match="negative"):
            QualityMonitor().record_serving_window(1, 100, buckets)

    def test_availability_floor_alert(self):
        monitor = QualityMonitor()
        buckets = dict(self.BUCKETS)
        window = monitor.record_serving_window(
            1, 100, buckets, availability_floor=0.995
        )
        assert window.availability == pytest.approx(0.99)
        alerts = monitor.alerts_for_day(1)
        assert len(alerts) == 1
        assert alerts[0].metric == "serving_availability"
        assert alerts[0].stage == "serving"
        assert alerts[0].kind == "failure"

    def test_floor_met_no_alert(self):
        monitor = QualityMonitor()
        monitor.record_serving_window(
            1, 100, dict(self.BUCKETS), availability_floor=0.99
        )
        assert monitor.alerts_for_day(1) == []
