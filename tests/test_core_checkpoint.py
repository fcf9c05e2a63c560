"""Tests for durable time-interval checkpointing and keep-latest GC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointFaultPlan,
    CheckpointManager,
    FilesystemCheckpointStorage,
    InMemoryCheckpointStorage,
)
from repro.exceptions import CheckpointCorruptionError, CheckpointError


@pytest.fixture()
def make_manager():
    """Builds the manager under test; these keep their blobs in memory."""
    return CheckpointManager


def on_disk(tmp_path):
    """A manager maker whose blobs are files under ``tmp_path`` (the
    backend the instrumented day runs on)."""
    storage = FilesystemCheckpointStorage(str(tmp_path / "ckpts"))
    return lambda **kwargs: CheckpointManager(storage=storage, **kwargs)


class TestCheckpointManager:
    def test_interval_gating(self, make_manager, fresh_model):
        manager = make_manager(interval_seconds=100.0)
        assert manager.maybe_checkpoint("k", fresh_model, now=0.0, epoch=0)
        assert not manager.maybe_checkpoint("k", fresh_model, now=50.0, epoch=1)
        assert manager.maybe_checkpoint("k", fresh_model, now=100.0, epoch=2)
        assert manager.stats.writes == 2

    def test_restore_roundtrip(self, make_manager, fresh_model):
        manager = make_manager()
        fresh_model.item_bias[0] = 7.0
        manager.write("k", fresh_model, now=0.0, epoch=3)
        fresh_model.item_bias[0] = -1.0
        epoch = manager.restore("k", fresh_model)
        assert epoch == 3
        assert fresh_model.item_bias[0] == 7.0
        assert manager.stats.restores == 1

    def test_checkpoint_is_snapshot_not_reference(
        self, make_manager, fresh_model
    ):
        manager = make_manager()
        manager.write("k", fresh_model, now=0.0, epoch=0)
        fresh_model.item_bias[0] = 123.0
        manager.restore("k", fresh_model)
        assert fresh_model.item_bias[0] != 123.0

    def test_keep_latest_only(self, make_manager, fresh_model):
        """Paper: as soon as a new checkpoint is written, GC the previous."""
        manager = make_manager(interval_seconds=1.0)
        manager.write("k", fresh_model, now=0.0, epoch=0)
        manager.write("k", fresh_model, now=10.0, epoch=5)
        assert manager.stored_count == 1
        assert manager.stats.garbage_collected == 1
        assert manager.restore("k", fresh_model) == 5

    def test_restore_missing_raises(self, make_manager, fresh_model):
        with pytest.raises(CheckpointError):
            make_manager().restore("nope", fresh_model)

    def test_discard(self, make_manager, fresh_model):
        manager = make_manager()
        manager.write("k", fresh_model, now=0.0, epoch=0)
        manager.discard("k")
        assert not manager.has_checkpoint("k")
        manager.discard("k")  # idempotent

    def test_checkpoint_age(self, make_manager, fresh_model):
        manager = make_manager()
        assert manager.checkpoint_age("k", now=50.0) is None
        manager.write("k", fresh_model, now=10.0, epoch=0)
        assert manager.checkpoint_age("k", now=50.0) == pytest.approx(40.0)

    def test_keys_independent(self, make_manager, fresh_model):
        manager = make_manager(interval_seconds=100.0)
        assert manager.maybe_checkpoint("a", fresh_model, now=0.0, epoch=0)
        assert manager.maybe_checkpoint("b", fresh_model, now=1.0, epoch=0)
        assert manager.stored_count == 2

    def test_invalid_interval(self, make_manager):
        with pytest.raises(CheckpointError):
            make_manager(interval_seconds=0.0)

    def test_first_maybe_checkpoint_always_writes(
        self, make_manager, fresh_model
    ):
        """The interval clock starts ticking only once a checkpoint exists:
        the first call protects the task immediately."""
        manager = make_manager(interval_seconds=1e9)
        assert manager.maybe_checkpoint("k", fresh_model, now=5.0, epoch=0)
        assert manager.stats.writes == 1
        assert not manager.maybe_checkpoint("k", fresh_model, now=6.0, epoch=1)

    def test_discard_resets_interval_clock(self, make_manager, fresh_model):
        """A re-issued key checkpoints promptly instead of inheriting the
        previous task's 'recently written' timestamp."""
        manager = make_manager(interval_seconds=100.0)
        manager.write("k", fresh_model, now=50.0, epoch=3)
        manager.discard("k")
        # Well inside the old interval, yet the write happens immediately.
        assert manager.maybe_checkpoint("k", fresh_model, now=60.0, epoch=0)

    def test_try_restore_resets_interval_clock(self, make_manager, fresh_model):
        """A resumed task re-checkpoints promptly: the pre-crash timestamp
        may be far in the resumed run's simulated future."""
        manager = make_manager(interval_seconds=100.0)
        manager.write("k", fresh_model, now=500.0, epoch=2)
        assert manager.try_restore("k", fresh_model) == 2
        assert manager.maybe_checkpoint("k", fresh_model, now=0.0, epoch=3)


class TestRestoreAliasing:
    def test_training_past_restore_does_not_mutate_checkpoint(
        self, make_manager, fresh_model
    ):
        """The stored artifact is a byte string: a restored model can never
        alias it, so training past a restore re-restores byte-identically."""
        manager = make_manager()
        fresh_model.item_bias[:] = 1.5
        snapshot = {k: v.copy() for k, v in fresh_model.get_state().items()}
        manager.write("k", fresh_model, now=0.0, epoch=4)

        # "Continue training" after a restore: in-place mutation of every
        # parameter the restore handed back.
        manager.restore("k", fresh_model)
        for array in fresh_model.get_state().values():
            array += 123.0

        assert manager.restore("k", fresh_model) == 4
        for name, array in fresh_model.get_state().items():
            np.testing.assert_array_equal(array, snapshot[name])

    def test_stored_blob_is_stable_across_restores(
        self, make_manager, fresh_model
    ):
        manager = make_manager()
        manager.write("k", fresh_model, now=0.0, epoch=0)
        before = manager.storage.get("k")
        manager.restore("k", fresh_model)
        fresh_model.item_bias += 9.0
        manager.restore("k", fresh_model)
        assert manager.storage.get("k") == before


class TestCheckpointManagerOnDisk(TestCheckpointManager):
    """Every manager semantic above, with the blobs in files."""

    @pytest.fixture()
    def make_manager(self, tmp_path):
        return on_disk(tmp_path)


class TestRestoreAliasingOnDisk(TestRestoreAliasing):
    """A file-backed blob is as unaliased as an in-memory one."""

    @pytest.fixture()
    def make_manager(self, tmp_path):
        return on_disk(tmp_path)


class TestStorageBackends:
    def test_in_memory_is_default(self):
        assert isinstance(CheckpointManager().storage, InMemoryCheckpointStorage)

    def test_filesystem_roundtrip(self, tmp_path, fresh_model):
        storage = FilesystemCheckpointStorage(str(tmp_path / "ckpts"))
        manager = CheckpointManager(storage=storage)
        fresh_model.item_bias[0] = 42.0
        manager.write("day0/retailer_1/m3", fresh_model, now=0.0, epoch=7)
        fresh_model.item_bias[0] = 0.0
        assert manager.restore("day0/retailer_1/m3", fresh_model) == 7
        assert fresh_model.item_bias[0] == 42.0
        # Slashed keys survive the path encoding round trip.
        assert storage.keys() == ["day0/retailer_1/m3"]

    def test_filesystem_delete_and_gc(self, tmp_path, fresh_model):
        storage = FilesystemCheckpointStorage(str(tmp_path))
        manager = CheckpointManager(storage=storage)
        manager.write("k", fresh_model, now=0.0, epoch=0)
        manager.write("k", fresh_model, now=10.0, epoch=1)
        assert manager.stats.garbage_collected == 1
        assert manager.stored_count == 1
        manager.discard("k")
        assert storage.keys() == []

    def test_filesystem_atomicity_leaves_no_temp_files(self, tmp_path, fresh_model):
        root = tmp_path / "ckpts"
        storage = FilesystemCheckpointStorage(str(root))
        manager = CheckpointManager(storage=storage)
        for epoch in range(3):
            manager.write("k", fresh_model, now=float(epoch), epoch=epoch)
        leftovers = [p for p in root.iterdir() if p.suffix != ".ckpt"]
        assert leftovers == []


class TestFaultInjection:
    def test_torn_write_detected_on_restore(self, fresh_model):
        plan = CheckpointFaultPlan().torn_write()
        manager = CheckpointManager(fault_plan=plan)
        manager.write("k", fresh_model, now=0.0, epoch=0)
        with pytest.raises(CheckpointCorruptionError):
            manager.restore("k", fresh_model)
        assert manager.stats.corruptions_detected == 1
        assert manager.stats.corrupt_keys == ["k"]
        # The useless blob was deleted so the next writer starts clean.
        assert not manager.has_checkpoint("k")

    def test_bit_flip_detected_on_restore(self, fresh_model):
        plan = CheckpointFaultPlan().bit_flip(times=1)
        manager = CheckpointManager(fault_plan=plan)
        manager.write("k", fresh_model, now=0.0, epoch=0)
        with pytest.raises(CheckpointCorruptionError, match="checksum"):
            manager.restore("k", fresh_model)

    def test_drop_means_no_checkpoint(self, fresh_model):
        plan = CheckpointFaultPlan().drop()
        manager = CheckpointManager(fault_plan=plan)
        manager.write("k", fresh_model, now=0.0, epoch=0)
        assert not manager.has_checkpoint("k")
        with pytest.raises(CheckpointError):
            manager.restore("k", fresh_model)

    def test_corrupt_restore_leaves_model_untouched(self, fresh_model):
        plan = CheckpointFaultPlan().bit_flip()
        manager = CheckpointManager(fault_plan=plan)
        fresh_model.item_bias[0] = 3.0
        manager.write("k", fresh_model, now=0.0, epoch=0)
        fresh_model.item_bias[0] = -8.0
        with pytest.raises(CheckpointCorruptionError):
            manager.restore("k", fresh_model)
        assert fresh_model.item_bias[0] == -8.0

    def test_try_restore_cold_starts_on_corruption(self, fresh_model):
        plan = CheckpointFaultPlan().torn_write()
        manager = CheckpointManager(fault_plan=plan)
        manager.write("k", fresh_model, now=0.0, epoch=0)
        assert manager.try_restore("k", fresh_model) is None
        assert manager.stats.cold_starts == 1
        assert manager.stats.corruptions_detected == 1

    def test_try_restore_cold_starts_on_missing(self, fresh_model):
        manager = CheckpointManager()
        assert manager.try_restore("absent", fresh_model) is None
        assert manager.stats.cold_starts == 1

    def test_try_restore_reads_storage_once(self, fresh_model):
        """Whole, torn or absent, a resume reads its key once."""
        reads = []

        class CountingStorage(InMemoryCheckpointStorage):
            def get(self, key):
                reads.append(key)
                return super().get(key)

        manager = CheckpointManager(
            storage=CountingStorage(),
            fault_plan=CheckpointFaultPlan().torn_write(
                match=lambda key: key == "torn"
            ),
        )
        manager.write("whole", fresh_model, now=0.0, epoch=3)
        manager.write("torn", fresh_model, now=0.0, epoch=3)
        reads.clear()
        assert manager.try_restore("whole", fresh_model) == 3
        assert manager.try_restore("torn", fresh_model) is None
        assert manager.try_restore("absent", fresh_model) is None
        assert reads == ["whole", "torn", "absent"]
        assert (manager.stats.restores, manager.stats.cold_starts) == (1, 2)

    def test_fault_rules_match_and_disarm(self, fresh_model):
        plan = CheckpointFaultPlan().bit_flip(
            match=lambda key: key.startswith("bad/"), times=1
        )
        manager = CheckpointManager(fault_plan=plan)
        manager.write("good/k", fresh_model, now=0.0, epoch=0)
        manager.write("bad/k", fresh_model, now=0.0, epoch=0)
        manager.write("bad/k2", fresh_model, now=0.0, epoch=0)
        assert manager.restore("good/k", fresh_model) == 0
        with pytest.raises(CheckpointCorruptionError):
            manager.restore("bad/k", fresh_model)
        # times=1: the second matching write was stored intact.
        assert manager.restore("bad/k2", fresh_model) == 0

    def test_faults_on_filesystem_backend(self, tmp_path, fresh_model):
        """Corruption detection is backend-independent."""
        storage = FilesystemCheckpointStorage(str(tmp_path))
        manager = CheckpointManager(
            storage=storage, fault_plan=CheckpointFaultPlan().torn_write()
        )
        manager.write("k", fresh_model, now=0.0, epoch=0)
        assert manager.try_restore("k", fresh_model) is None
        assert manager.stats.cold_starts == 1
