"""Failure-injection tests: pre-emption, checkpoint recovery, retries.

The design's resilience claims, exercised end to end: a training task
killed mid-run resumes from its latest checkpoint without losing more
than one interval of work; the MapReduce runtime retries pre-empted
tasks to completion; the serving store survives a failed (stale) load.
"""

from __future__ import annotations

import pytest

from repro.cluster.preemption import PreemptionModel
from repro.core.checkpoint import CheckpointManager
from repro.exceptions import MapReduceError, ServingError
from repro.mapreduce.runtime import MAX_TASK_ATTEMPTS, MapReduceJob, MapReduceRuntime
from repro.mapreduce.splits import uniform_splits
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer
from repro.serving.store import RecommendationStore
from repro.models.base import ScoredItem


class TestTrainingRecovery:
    def test_resume_from_checkpoint_preserves_progress(self, small_dataset):
        """Kill training mid-way, restore into a fresh process, finish."""
        params = BPRHyperParams(n_factors=8, learning_rate=0.08, seed=2)
        manager = CheckpointManager(interval_seconds=1.0)

        # First "process": train 3 epochs, checkpointing after each.
        first = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        trainer = BPRTrainer(first, small_dataset, max_epochs=3,
                             convergence_tol=0.0, seed=3)
        now = 0.0
        for epoch, _ in trainer.iter_epochs():
            now += 10.0
            manager.maybe_checkpoint("job", first, now, epoch)
        losses_before_kill = trainer.run_epoch()  # progress we'll lose
        del trainer  # pre-emption: process gone, last epoch lost

        # Second "process": fresh model, restore, continue.
        second = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        restored_epoch = manager.restore("job", second)
        assert restored_epoch == 2
        # The restored model performs like the checkpointed one, not like
        # a random init: its training loss continues from a low level.
        resumed = BPRTrainer(second, small_dataset, max_epochs=1,
                             convergence_tol=0.0, seed=4)
        resumed_loss = resumed.run_epoch()
        fresh = BPRModel(small_dataset.catalog, small_dataset.taxonomy,
                         BPRHyperParams(n_factors=8, seed=99))
        fresh_trainer = BPRTrainer(fresh, small_dataset, max_epochs=1,
                                   convergence_tol=0.0, seed=4)
        fresh_loss = fresh_trainer.run_epoch()
        assert resumed_loss < fresh_loss, (
            "resuming from a checkpoint must beat restarting from scratch"
        )
        assert resumed_loss <= losses_before_kill * 1.5

    def test_restore_after_gc_uses_latest_only(self, small_dataset):
        params = BPRHyperParams(n_factors=4, seed=5)
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        manager = CheckpointManager(interval_seconds=1.0)
        model.item_bias[0] = 1.0
        manager.write("job", model, now=0.0, epoch=0)
        model.item_bias[0] = 2.0
        manager.write("job", model, now=10.0, epoch=1)
        model.item_bias[0] = -1.0
        assert manager.restore("job", model) == 1
        assert model.item_bias[0] == 2.0
        assert manager.stored_count == 1


class TestMapReduceRetries:
    def test_hostile_preemption_still_completes(self):
        hostile = PreemptionModel(preemptible_mean_uptime_hours=0.02)
        runtime = MapReduceRuntime(preemption_model=hostile, seed=6)
        job = MapReduceJob(
            name="retry",
            mapper=lambda r: [(0, r)],
            reducer=lambda key, values: [sum(values)],
            record_cost_fn=lambda r: 20.0,
        )
        outputs, stats = runtime.run(job, uniform_splits([1] * 10, 5))
        assert outputs == [10]
        assert stats.preemptions > 0

    def test_impossible_task_is_dead_lettered(self):
        """A task longer than any plausible uptime exhausts its retries,
        and its records are dead-lettered with the reason."""
        impossible = PreemptionModel(preemptible_mean_uptime_hours=1e-4)
        runtime = MapReduceRuntime(preemption_model=impossible, seed=7)
        job = MapReduceJob(
            name="doomed",
            mapper=lambda r: [(0, r)],
            record_cost_fn=lambda r: 3600.0,
        )
        outputs, stats = runtime.run(job, uniform_splits([1], 1))
        assert outputs == []
        assert stats.tasks_failed == 1
        [letter] = stats.dead_letters
        assert letter.record == 1
        assert letter.attempts == MAX_TASK_ATTEMPTS
        assert isinstance(letter.exception, MapReduceError)
        assert "attempts" in str(letter.exception)


class TestServingResilience:
    def test_stale_load_leaves_store_intact(self):
        store = RecommendationStore()
        store.load_batch("r", {0: [ScoredItem(1, 1.0)]}, version=5)
        with pytest.raises(ServingError):
            store.load_batch("r", {0: []}, version=5)
        # The failed load changed nothing.
        assert store.version_of("r") == 5
        assert [r.item_index for r in store.lookup("r", 0)] == [1]

    def test_retailer_failures_isolated(self):
        """A bad batch for one retailer never touches another's data."""
        store = RecommendationStore()
        store.load_batch("a", {0: [ScoredItem(1, 1.0)]}, version=1)
        store.load_batch("b", {0: [ScoredItem(2, 1.0)]}, version=1)
        with pytest.raises(ServingError):
            store.load_batch("a", {}, version=0)
        assert [r.item_index for r in store.lookup("b", 0)] == [2]
