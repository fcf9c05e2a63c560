"""Crash-recoverable daily runs: journal, kill points, gated publish.

The contract under test: for **every** kill point a coordinator can die
at, ``SigmundService.recover()`` resumes the open day idempotently —
completed retailers are not retrained, billed cost is never billed
twice, and the recovered day's report, store versions, per-retailer
costs, and availability match an uninterrupted run.  The publish gate
guarantees no half-published or broken table is ever served.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.core.checkpoint import (
    CheckpointFaultPlan,
    FilesystemCheckpointStorage,
    InMemoryCheckpointStorage,
)
from repro.core.grid import GridSpec
from repro.core.journal import JournalError, RunJournal
from repro.core.recovery import KILL_STAGES, CrashPlan
from repro.core.service import SigmundService
from repro.core.training import TrainerSettings
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.exceptions import (
    PublishRejectedError,
    ServingError,
    SimulatedCrash,
)
from repro.models.base import RankedRows, ScoredItem
from repro.obs.metrics import MetricsRegistry
from repro.serving.gate import GateDecision, PublishGate
from repro.serving.store import RecommendationStore

FAST_SETTINGS = TrainerSettings(
    max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
)

TINY_GRID = GridSpec(
    n_factors=(4,),
    learning_rates=(0.05,),
    reg_items=(0.01,),
    reg_contexts=(0.01,),
    use_taxonomy=(False,),
    use_brand=(False,),
    use_price=(False,),
    max_configs=2,
)


def make_dataset(retailer_id: str, seed: int):
    return dataset_from_synthetic(
        generate_retailer(
            RetailerSpec(
                retailer_id=retailer_id,
                n_items=40,
                n_users=25,
                n_events=260,
                taxonomy_depth=2,
                taxonomy_fanout=3,
                seed=seed,
            )
        )
    )


def make_service(
    n_retailers: int = 2, settings: TrainerSettings = FAST_SETTINGS, **kwargs
) -> SigmundService:
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=TINY_GRID,
        settings=settings,
        **kwargs,
    )
    for i in range(n_retailers):
        service.onboard(make_dataset(f"r{i}", seed=100 + i))
    return service


def summarize(service: SigmundService) -> dict:
    """Everything recovery must reproduce exactly."""
    return {
        "substitutes": service.substitutes_store.versions(),
        "accessories": service.accessories_store.versions(),
        "retailer_costs": {
            rid: pytest.approx(cost)
            for rid, cost in service.retailer_costs().items()
        },
        "total_cost": pytest.approx(service.total_cost()),
    }


def report_key(report) -> tuple:
    return (
        report.day,
        report.sweep_kind,
        report.configs_trained,
        report.configs_failed,
        report.retailers_served,
        report.retailers_stale,
        report.retailers_unserved,
        report.publishes_rejected,
        pytest.approx(report.training_cost),
        pytest.approx(report.inference_cost),
        report.availability,
    )


def run_with_recovery(service: SigmundService, **run_kwargs):
    """Run one day, recovering (possibly repeatedly) after crashes."""
    try:
        return service.run_day(**run_kwargs)
    except SimulatedCrash:
        pass
    while True:
        try:
            report = service.recover()
        except SimulatedCrash:
            continue
        assert report is not None
        return report


# ----------------------------------------------------------------------
# The run journal
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_protocol_roundtrip(self):
        journal = RunJournal()
        journal.begin_day(0, {"sweep_kind": "full"})
        assert journal.open_day() == 0
        journal.log_task(0, "train", "r0", {"cost": 1.0})
        assert journal.is_done(0, "train", "r0")
        assert journal.task_payload(0, "train", "r0") == {"cost": 1.0}
        journal.commit_day(0)
        assert journal.open_day() is None
        assert journal.is_committed(0)

    def test_duplicate_task_raises(self):
        """Completed work must never be replayed — the journal enforces it."""
        journal = RunJournal()
        journal.begin_day(0, {})
        journal.log_task(0, "train", "r0")
        with pytest.raises(JournalError, match="never be replayed"):
            journal.log_task(0, "train", "r0")

    def test_rebegin_open_day_is_noop(self):
        journal = RunJournal()
        journal.begin_day(0, {"configs": [1, 2]})
        journal.begin_day(0, {"configs": [3]})  # recovery path
        assert journal.day_intent(0) == {"configs": [1, 2]}

    def test_rebegin_committed_day_raises(self):
        journal = RunJournal()
        journal.begin_day(0, {})
        journal.commit_day(0)
        with pytest.raises(JournalError):
            journal.begin_day(0, {})

    def test_task_before_begin_raises(self):
        with pytest.raises(JournalError):
            RunJournal().log_task(0, "train", "r0")

    def test_purge_reaches_committed_days_and_keeps_seal_and_intent(self):
        journal = RunJournal()
        journal.begin_day(0, {"configs": ["a"]})
        journal.log_task(0, "train", "r0", {"cost": 1.0})
        journal.log_task(0, "train", "r1", {"cost": 2.0})
        journal.commit_day(0, seal={"day": 0})
        journal.begin_day(1, {})
        journal.log_task(1, "backfill_train", "r1")
        assert journal.days() == [0, 1]
        for day in journal.days():
            journal.purge_tasks(day, lambda phase, task_id: task_id == "r1")
        assert journal.completed(0, "train") == {"r0": {"cost": 1.0}}
        assert not journal.is_done(1, "backfill_train", "r1")
        assert journal.day_seal(0) == {"day": 0}
        assert journal.day_intent(0) == {"configs": ["a"]}
        with pytest.raises(JournalError):
            journal.purge_tasks(2, lambda phase, task_id: True)

    def test_completed_and_counts(self):
        journal = RunJournal()
        journal.begin_day(2, {})
        journal.log_task(2, "infer", "cell_a", {"loads": 1})
        journal.log_task(2, "infer", "cell_b", {"loads": 2})
        assert journal.task_count(2, "infer") == 2
        assert set(journal.completed(2, "infer")) == {"cell_a", "cell_b"}


# ----------------------------------------------------------------------
# CrashPlan
# ----------------------------------------------------------------------
class TestCrashPlan:
    def test_first_check_of_stage_fires(self):
        plan = CrashPlan().crash_at("train_task")
        with pytest.raises(SimulatedCrash):
            plan.check("train_task", "r0")
        assert plan.fired == [("train_task", "r0")]

    def test_label_and_nth_matching(self):
        plan = CrashPlan().crash_at("publish", label="r1")
        plan.check("publish", "r0")  # no crash
        with pytest.raises(SimulatedCrash):
            plan.check("publish", "r1")

        nth_plan = CrashPlan().crash_at("infer_cell", nth=1)
        nth_plan.check("infer_cell", "a")
        with pytest.raises(SimulatedCrash):
            nth_plan.check("infer_cell", "b")

    def test_rules_disarm_after_firing(self):
        """Recovery re-executes the same path; a persistent rule would
        crash it forever."""
        plan = CrashPlan().crash_at("wrapup")
        with pytest.raises(SimulatedCrash):
            plan.check("wrapup")
        plan.check("wrapup")  # disarmed
        assert plan.crash_count == 1

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown kill stage"):
            CrashPlan().crash_at("reboot")

    def test_simulated_crash_is_not_an_exception(self):
        """It must pierce every ``except Exception`` / ``except
        SigmundError`` in the stack, like a real coordinator death."""
        assert issubclass(SimulatedCrash, BaseException)
        assert not issubclass(SimulatedCrash, Exception)


# ----------------------------------------------------------------------
# The publish gate
# ----------------------------------------------------------------------
GOOD_TABLE = {0: [ScoredItem(1, 0.9)], 1: [ScoredItem(0, 0.4)]}


class TestPublishGate:
    def test_accepts_healthy_table(self):
        gate = PublishGate()
        decision = gate.validate(
            "r0", GOOD_TABLE, 1, RecommendationStore(), n_items=2
        )
        assert decision.accepted
        assert gate.rejections == []

    def test_rejects_empty_table(self):
        gate = PublishGate()
        decision = gate.validate("r0", {}, 1, RecommendationStore(), n_items=10)
        assert not decision.accepted
        assert "empty" in decision.reason

    def test_allow_empty_for_sparse_surface(self):
        gate = PublishGate()
        decision = gate.validate(
            "r0", {}, 1, RecommendationStore(), n_items=10, allow_empty=True
        )
        assert decision.accepted

    def test_rejects_low_coverage(self):
        gate = PublishGate(min_coverage=0.5)
        table = {0: [ScoredItem(1, 0.9)]}
        decision = gate.validate("r0", table, 1, RecommendationStore(), n_items=10)
        assert not decision.accepted
        assert "coverage" in decision.reason

    def test_rejects_non_finite_scores(self):
        gate = PublishGate()
        for bad in (math.nan, math.inf, -math.inf):
            table = {0: [ScoredItem(1, bad)], 1: [ScoredItem(0, 0.2)]}
            decision = gate.validate(
                "r0", table, 1, RecommendationStore(), n_items=2
            )
            assert not decision.accepted
            assert "non-finite" in decision.reason

    def test_rejects_items_outside_the_catalog(self):
        gate = PublishGate()
        for bad in ([2], [-1], [10**12, -5]):
            table = {
                0: [ScoredItem(1, 0.9)] + [ScoredItem(item, 0.5) for item in bad],
                1: [ScoredItem(0, 0.2)],
            }
            decision = gate.validate(
                "r0", table, 1, RecommendationStore(), n_items=2
            )
            assert not decision.accepted
            assert decision.reason == (
                f"{len(bad)} recommendations outside the catalog"
            )
        # An unknown catalog size (0: the retailer left mid-day) checks nothing.
        assert gate.validate(
            "r0", {0: [ScoredItem(7, 0.9)]}, 1, RecommendationStore(), n_items=0
        ).accepted

    def test_rejects_stale_version(self):
        store = RecommendationStore()
        store.load_batch("r0", GOOD_TABLE, version=3)
        gate = PublishGate()
        decision = gate.validate("r0", GOOD_TABLE, 3, store, n_items=2)
        assert not decision.accepted
        assert "not newer" in decision.reason

    def test_rejects_map_collapse(self):
        gate = PublishGate(max_map_drop=0.5)
        decision = gate.validate(
            "r0",
            GOOD_TABLE,
            1,
            RecommendationStore(),
            n_items=2,
            current_map=0.01,
            previous_map=0.40,
        )
        assert not decision.accepted
        assert "collapsed" in decision.reason

    def test_small_map_drop_passes(self):
        gate = PublishGate()
        decision = gate.validate(
            "r0",
            GOOD_TABLE,
            1,
            RecommendationStore(),
            n_items=2,
            current_map=0.35,
            previous_map=0.40,
        )
        assert decision.accepted

    def test_validate_or_raise(self):
        gate = PublishGate()
        with pytest.raises(PublishRejectedError):
            gate.validate_or_raise("r0", {}, 1, RecommendationStore(), n_items=5)


# ----------------------------------------------------------------------
# Store: version monotonicity + rollback
# ----------------------------------------------------------------------
class TestStoreRollback:
    def test_stale_batch_rejected_and_counted(self):
        store = RecommendationStore()
        store.load_batch("r0", GOOD_TABLE, version=2)
        with pytest.raises(ServingError, match="stale batch"):
            store.load_batch("r0", GOOD_TABLE, version=2)
        with pytest.raises(ServingError, match="stale batch"):
            store.load_batch("r0", GOOD_TABLE, version=1)
        assert store.stats.stale_batches_rejected == 2
        assert store.version_of("r0") == 2

    def test_rollback_restores_last_good_table(self):
        store = RecommendationStore()
        store.load_batch("r0", {0: [ScoredItem(1, 0.5)]}, version=1)
        store.load_batch("r0", {0: [ScoredItem(2, 0.7)]}, version=2)
        assert store.rollback("r0") == 1
        assert store.version_of("r0") == 1
        assert store.lookup("r0", 0)[0].item_index == 1
        assert store.stats.rollbacks == 1

    def test_rollback_without_predecessor_raises(self):
        store = RecommendationStore()
        store.load_batch("r0", GOOD_TABLE, version=1)
        with pytest.raises(ServingError, match="no last-good"):
            store.rollback("r0")

    def test_drop_retailer_clears_rollback_state(self):
        store = RecommendationStore()
        store.load_batch("r0", GOOD_TABLE, version=1)
        store.load_batch("r0", GOOD_TABLE, version=2)
        store.drop_retailer("r0")
        with pytest.raises(ServingError):
            store.rollback("r0")


# ----------------------------------------------------------------------
# End-to-end: crash at every kill point, recover, compare
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def baseline_day0():
    """One uninterrupted day-0 run to compare every recovery against."""
    service = make_service()
    report = service.run_day()
    return {
        "summary": summarize(service),
        "report": report_key(report),
        "alerts": report.alerts,
    }


class TestCrashRecoveryEndToEnd:
    @pytest.mark.parametrize("stage", KILL_STAGES)
    def test_recovery_matches_uninterrupted_run(self, stage, baseline_day0):
        crash_plan = CrashPlan().crash_at(stage)
        service = make_service(crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        assert crash_plan.crash_count == 1
        assert service.journal.open_day() == 0
        assert service.reports == []  # a crashed day reports nothing

        report = service.recover()
        assert report is not None
        assert service.journal.is_committed(0)
        assert service.recover() is None  # nothing left to resume

        assert report_key(report) == baseline_day0["report"]
        assert report.alerts == baseline_day0["alerts"]
        assert summarize(service) == baseline_day0["summary"]
        # Exactly one journaled training task per retailer: recovery never
        # replayed completed work (log_task would have raised).
        assert service.journal.task_count(0, "train") == len(service.retailers)

    def test_crash_on_incremental_day(self):
        baseline = make_service()
        baseline.run_day()
        baseline.run_day()

        crash_plan = CrashPlan()
        service = make_service(crash_plan=crash_plan)
        service.run_day()
        crash_plan.crash_at("train_epoch")  # armed for day 1 only
        with pytest.raises(SimulatedCrash):
            service.run_day()
        report = service.recover()

        assert report.day == 1
        assert report.sweep_kind == "incremental"
        base = summarize(baseline)
        ours = summarize(service)
        assert ours["substitutes"] == base["substitutes"]
        assert ours["accessories"] == base["accessories"]
        assert ours["total_cost"] == base["total_cost"]
        assert report.availability == baseline.reports[1].availability

    def test_double_crash_double_recovery(self, baseline_day0):
        crash_plan = (
            CrashPlan().crash_at("train_task").crash_at("publish")
        )
        service = make_service(crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        with pytest.raises(SimulatedCrash):
            service.recover()
        report = service.recover()
        assert crash_plan.crash_count == 2
        assert report_key(report) == baseline_day0["report"]
        assert summarize(service) == baseline_day0["summary"]

    def test_train_epoch_crash_resumes_from_checkpoint(self, baseline_day0):
        crash_plan = CrashPlan().crash_at("train_epoch")
        service = make_service(crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        # The killed config left its epoch-0 checkpoint behind.
        assert service.training.checkpoints.stored_count == 1
        report = service.recover()
        assert report_key(report) == baseline_day0["report"]
        # Recovery restored it instead of retraining from scratch, and
        # completed configs cleaned up after themselves.
        assert service.training.checkpoints.stats.restores >= 1
        assert service.training.checkpoints.stored_count == 0

    def test_corrupt_checkpoint_falls_back_to_cold_start(self, baseline_day0):
        """A crash plus a corrupted checkpoint: recovery still completes
        the day, just without the saved epochs."""
        crash_plan = CrashPlan().crash_at("train_epoch")
        service = make_service(
            crash_plan=crash_plan,
            checkpoint_fault_plan=CheckpointFaultPlan().bit_flip(),
        )
        with pytest.raises(SimulatedCrash):
            service.run_day()
        report = service.recover()
        assert report_key(report) == baseline_day0["report"]
        assert summarize(service) == baseline_day0["summary"]
        assert service.training.checkpoints.stats.corruptions_detected >= 1
        assert service.training.checkpoints.stats.cold_starts >= 1

    def test_publish_mid_crash_never_serves_half_published_pair(self):
        crash_plan = CrashPlan().crash_at("publish_mid")
        service = make_service(crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        # Mid-publish: substitutes table landed, accessories did not.
        stage, rid = crash_plan.fired[0]
        assert service.substitutes_store.version_of(rid) == 1
        assert service.accessories_store.version_of(rid) is None

        service.recover()
        # Recovery completed the pair without a bogus "stale version"
        # rejection of the half-published table.
        assert service.substitutes_store.version_of(rid) == 1
        assert service.accessories_store.version_of(rid) == 1
        assert service.gate.rejections == []

    def test_crashed_day_bills_nothing_extra(self, baseline_day0):
        """Cost equality is the double-billing check: if recovery re-ran
        any billed job, total_cost would exceed the uninterrupted run."""
        crash_plan = CrashPlan().crash_at("infer_cell", nth=1)
        service = make_service(crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        service.recover()
        assert summarize(service)["total_cost"] == baseline_day0["summary"][
            "total_cost"
        ]


class TestTaxonomySamplerDay:
    """The same contracts under ``TrainerSettings()`` defaults: the
    composite ``"taxonomy"`` sampler the fleet runs, not the uniform one
    the fast suites pin."""

    @pytest.fixture(scope="class")
    def baseline(self):
        service = make_service(settings=TrainerSettings())
        report = service.run_day()
        return {
            "summary": summarize(service),
            "report": report_key(report),
            "alerts": report.alerts,
        }

    @pytest.mark.parametrize("stage", ["train_task", "train_epoch"])
    def test_recovery_matches_uninterrupted_run(self, stage, baseline):
        assert TrainerSettings().sampler == "taxonomy"
        crash_plan = CrashPlan().crash_at(stage)
        service = make_service(settings=TrainerSettings(), crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        assert crash_plan.crash_count == 1

        report = service.recover()
        assert service.journal.is_committed(0)
        assert report_key(report) == baseline["report"]
        assert report.alerts == baseline["alerts"]
        assert summarize(service) == baseline["summary"]
        assert service.journal.task_count(0, "train") == len(service.retailers)

    def test_serial_and_dag_days_seal_byte_equal(self):
        seals = []
        for orchestration in ("serial", "dag"):
            service = make_service(
                settings=TrainerSettings(),
                metrics=MetricsRegistry(),
                orchestration=orchestration,
            )
            service.run_day()
            seals.append(json.dumps(service.journal.day_seal(0), sort_keys=True))
        assert seals[0] == seals[1]


class _RejectEverything(PublishGate):
    def validate(self, retailer_id, *args, **kwargs):
        decision = GateDecision(retailer_id, False, ["forced rejection"])
        self.rejections.append(decision)
        return decision


class TestGatedPublishInService:
    def test_rejected_tables_keep_last_good_serving(self):
        service = make_service()
        service.run_day()
        assert service.substitutes_store.versions() == {"r0": 1, "r1": 1}

        service.gate = _RejectEverything()
        report = service.run_day()

        assert report.publishes_rejected == len(service.retailers)
        assert report.retailers_served == 0
        assert report.retailers_stale == len(service.retailers)
        # Last-good tables still serve on both surfaces.
        assert service.substitutes_store.versions() == {"r0": 1, "r1": 1}
        assert service.accessories_store.versions() == {"r0": 1, "r1": 1}
        # Surfaced, not silent: one availability alert per rejection.
        failures = service.monitor.failures_for_day(1)
        assert len(failures) == len(service.retailers)
        assert all(f.metric == "publish_availability" for f in failures)
        assert all(
            reason.startswith("publish:")
            for reason in report.failure_reasons.values()
        )
        # ...and visible in the freshness report.
        freshness = service.substitutes_store.freshness(
            service.retailers, expected_version=2
        )
        assert set(freshness.values()) == {"stale"}

    def test_clean_run_never_rejects(self):
        service = make_service()
        for _ in range(3):
            report = service.run_day()
            assert report.publishes_rejected == 0
        assert service.gate.rejections == []

    def test_out_of_catalog_recommendation_keeps_yesterdays_pair(self):
        """One bad index on one surface: neither surface loads, the
        retailer serves yesterday's complete pair, its neighbour publishes."""
        service = make_service()
        service.run_day()
        n_items = 40
        stores = (service.substitutes_store, service.accessories_store)
        yesterday = [
            [store.lookup("r0", item) for item in range(n_items)]
            for store in stores
        ]

        rank_block = service.inference._rank_block
        calls = []

        def corrupt_second_surface(model, *block):
            rows = rank_block(model, *block)
            calls.append(model)
            # Blocks alternate view / purchase; r0 (sorted first) ranks first.
            if len(calls) == 2:
                items = rows.items.copy()
                items[0] = n_items
                rows = RankedRows(items, rows.scores, rows.bounds)
            return rows

        service.inference._rank_block = corrupt_second_surface
        report = service.run_day()

        assert report.publishes_rejected == 1
        assert report.failure_reasons == {
            "r0": "publish: 1 recommendations outside the catalog"
        }
        assert [store.versions() for store in stores] == [{"r0": 1, "r1": 2}] * 2
        assert [
            [store.lookup("r0", item) for item in range(n_items)]
            for store in stores
        ] == yesterday


# ----------------------------------------------------------------------
# Observability parity: a recovered day seals identical metrics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def metrics_baseline_seal():
    """Canonical day-0 seal JSON from an uninterrupted metrics-enabled run."""
    service = make_service(metrics=MetricsRegistry())
    service.run_day()
    return json.dumps(service.journal.day_seal(0), sort_keys=True)


class TestMetricsParityUnderRecovery:
    @pytest.mark.parametrize("stage", KILL_STAGES)
    def test_recovered_seal_byte_equal(self, stage, metrics_baseline_seal):
        """Day metrics fold exclusively from journaled task payloads, so a
        crash at *any* kill stage followed by recover() must seal the exact
        same fleet/retailer rollups and metric series as a clean run."""
        crash_plan = CrashPlan().crash_at(stage)
        service = make_service(crash_plan=crash_plan, metrics=MetricsRegistry())
        run_with_recovery(service)
        recovered = json.dumps(service.journal.day_seal(0), sort_keys=True)
        assert recovered == metrics_baseline_seal

    def test_seal_carries_day_snapshot(self, metrics_baseline_seal):
        seal = json.loads(metrics_baseline_seal)
        assert seal["schema_version"] == 1
        assert seal["day"] == 0
        assert set(seal["retailers"]) == {"r0", "r1"}
        assert seal["fleet"]["publishes_accepted"] == 2
        assert "metrics" in seal and "counters" in seal["metrics"]

    def test_null_metrics_seal_is_empty_but_committed(self):
        service = make_service()  # NULL_METRICS default
        service.run_day()
        seal = service.journal.day_seal(0)
        assert seal["metrics"]["counters"] == {}
        assert service.journal.seals() == {0: seal}


# ----------------------------------------------------------------------
# Recovery with checkpoints on disk
# ----------------------------------------------------------------------
#: The instrumented day's checkpointing: a blob every simulated second,
#: so every config leaves several behind mid-training.
ON_DISK_SETTINGS = replace(FAST_SETTINGS, checkpoint_interval_seconds=1.0)


def on_disk_service(root, **kwargs) -> SigmundService:
    return make_service(
        settings=ON_DISK_SETTINGS,
        metrics=MetricsRegistry(),
        checkpoint_storage=FilesystemCheckpointStorage(str(root)),
        **kwargs,
    )


@pytest.fixture(scope="module")
def in_memory_day0():
    """The same day uninterrupted, its checkpoints kept in memory."""
    service = make_service(settings=ON_DISK_SETTINGS, metrics=MetricsRegistry())
    report = service.run_day()
    return {
        "seal": json.dumps(service.journal.day_seal(0), sort_keys=True),
        "summary": summarize(service),
        "report": report_key(report),
    }


class TestRecoveryWithCheckpointsOnDisk:
    """The kill-point contract with the blobs in files: a recovered day
    seals byte-equal to an uninterrupted in-memory one, and a committed
    day leaves no file behind."""

    @pytest.mark.parametrize("stage", KILL_STAGES)
    def test_recovered_day_equals_the_in_memory_day(
        self, stage, tmp_path, in_memory_day0
    ):
        crash_plan = CrashPlan().crash_at(stage)
        service = on_disk_service(tmp_path, crash_plan=crash_plan)
        with pytest.raises(SimulatedCrash):
            service.run_day()
        report = service.recover()
        assert crash_plan.crash_count == 1
        sealed = json.dumps(service.journal.day_seal(0), sort_keys=True)
        assert sealed == in_memory_day0["seal"]
        assert report_key(report) == in_memory_day0["report"]
        assert summarize(service) == in_memory_day0["summary"]
        assert list(tmp_path.iterdir()) == []

    def test_a_mid_epoch_kill_resumes_from_the_file_it_left(
        self, tmp_path, in_memory_day0
    ):
        service = on_disk_service(
            tmp_path, crash_plan=CrashPlan().crash_at("train_epoch")
        )
        with pytest.raises(SimulatedCrash):
            service.run_day()
        checkpoints = service.training.checkpoints
        assert [path.suffix for path in tmp_path.iterdir()] == [".ckpt"]
        assert checkpoints.stats.restores == 0
        report = service.recover()
        assert report_key(report) == in_memory_day0["report"]
        assert checkpoints.stats.restores == 1
        assert checkpoints.stats.corruptions_detected == 0
        assert list(tmp_path.iterdir()) == []

    def test_a_warm_started_day_recovers_from_its_files(self, tmp_path):
        """Day 1 warm-starts from day 0's models; a kill in its first
        epoch resumes from the file and lands on the uncrashed run."""
        baseline = make_service(settings=ON_DISK_SETTINGS)
        baseline.run_day()
        baseline.run_day()

        crash_plan = CrashPlan()
        service = on_disk_service(tmp_path, crash_plan=crash_plan)
        service.run_day()
        crash_plan.crash_at("train_epoch")
        with pytest.raises(SimulatedCrash):
            service.run_day()
        assert [path.suffix for path in tmp_path.iterdir()] == [".ckpt"]
        report = service.recover()
        assert report.sweep_kind == "incremental"
        assert report_key(report) == report_key(baseline.reports[1])
        assert summarize(service) == summarize(baseline)
        assert service.training.checkpoints.stats.restores == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_truncated_file_cold_starts_and_the_day_completes(
        self, tmp_path, in_memory_day0
    ):
        """A file cut short behind the storage's back (a lost disk write)
        fails its checksum: the config retrains from scratch, to the same
        models, and the corrupt file is gone."""
        service = on_disk_service(
            tmp_path, crash_plan=CrashPlan().crash_at("train_epoch")
        )
        with pytest.raises(SimulatedCrash):
            service.run_day()
        (path,) = tmp_path.iterdir()
        path.write_bytes(path.read_bytes()[:-7])
        report = service.recover()
        checkpoints = service.training.checkpoints
        assert checkpoints.stats.corruptions_detected == 1
        assert checkpoints.stats.restores == 0
        assert report_key(report) == in_memory_day0["report"]
        assert summarize(service) == in_memory_day0["summary"]
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Property: every expressible kill point recovers equivalently
# ----------------------------------------------------------------------
_PROPERTY_BASELINE: list = []


@settings(max_examples=12, deadline=None)
@given(
    stage=st.sampled_from(KILL_STAGES),
    nth=st.integers(min_value=0, max_value=2),
)
def test_any_kill_point_recovers_equivalently(stage, nth):
    """For every (stage, nth) kill point — including ones that never fire
    because the day has fewer checks — crash + recover() yields the same
    store versions, per-retailer costs, and availability as an
    uninterrupted run."""
    if not _PROPERTY_BASELINE:
        service = make_service()
        report = service.run_day()
        _PROPERTY_BASELINE.append(
            {"summary": summarize(service), "report": report_key(report)}
        )
    baseline = _PROPERTY_BASELINE[0]

    crash_plan = CrashPlan().crash_at(stage, nth=nth)
    service = make_service(crash_plan=crash_plan)
    report = run_with_recovery(service)

    assert report_key(report) == baseline["report"]
    assert summarize(service) == baseline["summary"]
    assert service.journal.is_committed(0)
    assert service.journal.task_count(0, "train") == len(service.retailers)


# ----------------------------------------------------------------------
# Offboarding during an open (crashed) day
# ----------------------------------------------------------------------
class TestOffboardPurgesOpenDayState:
    """Regression: ``offboard()`` used to leave the retailer's journaled
    open-day tasks and checkpoint keys behind, so a retailer offboarded
    mid-crash was resurrected by ``recover()`` — its train payload
    replayed into the report, its inference results republished, and its
    model state left restorable in the checkpoint store."""

    def test_offboard_mid_crash_is_not_resurrected_by_recover(self):
        # Crash right before r1's publish: r1's training, retrieval, and
        # inference results are all journaled by then.
        service = make_service(
            metrics=MetricsRegistry(),
            crash_plan=CrashPlan().crash_at("publish", label="r1"),
        )
        with pytest.raises(SimulatedCrash):
            service.run_day()
        assert service.journal.is_done(0, "train", "r1")

        service.offboard("r1")
        assert not service.journal.is_done(0, "train", "r1")
        assert not service.journal.is_done(0, "retrieval", "r1")

        report = service.recover()
        assert service.journal.is_committed(0)
        # The departed tenant appears nowhere: not served, not failed,
        # not in the sealed day record, and its tables never loaded.
        assert "r1" not in report.failed_retailers
        assert report.retailers_served == 1
        assert not service.substitutes_store.has_retailer("r1")
        assert not service.accessories_store.has_retailer("r1")
        assert service.journal.task_count(0, "train") == 1
        assert service.journal.task_count(0, "publish") == 1
        assert '"r1"' not in json.dumps(service.journal.day_seal(0))

    def test_offboard_mid_crash_purges_checkpoints(self):
        storage = InMemoryCheckpointStorage()
        service = make_service(
            metrics=MetricsRegistry(),
            crash_plan=CrashPlan().crash_at("train_epoch", label="r0/m0@e0"),
            checkpoint_storage=storage,
        )
        with pytest.raises(SimulatedCrash):
            service.run_day()
        # The mid-epoch kill left r0's durable checkpoint behind.
        assert storage.keys() == ["day0/r0/m0"]

        service.offboard("r0")
        assert storage.keys() == []
        assert service.training.checkpoints.stored_count == 0

        report = service.recover()
        assert service.journal.is_committed(0)
        assert "r0" not in report.failed_retailers
        assert service.journal.task_count(0, "train") == 1

    def test_offboard_purge_scrubs_journaled_inference_payloads(self):
        # Crash after inference logged but before any publish: the cell
        # payloads hold r1's result tables (derived from tenant data).
        service = make_service(
            metrics=MetricsRegistry(),
            crash_plan=CrashPlan().crash_at("publish"),
        )
        with pytest.raises(SimulatedCrash):
            service.run_day()
        payload = service.journal.task_payload(0, "infer_plan", "assignment")
        assert any("r1" in group for _, group in payload["assignment"])

        service.offboard("r1")
        payload = service.journal.task_payload(0, "infer_plan", "assignment")
        assert all("r1" not in group for _, group in payload["assignment"])
        for cell_payload in service.journal.completed(0, "infer").values():
            assert "r1" not in cell_payload["results"]
            assert "r1" not in cell_payload["failed"]

        report = service.recover()
        assert report.retailers_served == 1
        assert not service.substitutes_store.has_retailer("r1")

    def test_offboard_with_no_open_day_still_works(self):
        service = make_service(metrics=MetricsRegistry())
        service.run_day()
        seal = json.dumps(service.journal.day_seal(0), sort_keys=True)
        service.offboard("r1")  # committed day: records go, the seal stays
        assert not service.journal.is_done(0, "train", "r1")
        assert service.journal.is_done(0, "train", "r0")
        assert json.dumps(service.journal.day_seal(0), sort_keys=True) == seal
        report = service.run_day()
        assert report.retailers_served == 1
