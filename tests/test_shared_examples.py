"""One retailer's training examples, built once per training run.

``ExampleSet`` holds what every config's trainer would otherwise rebuild
from the same dataset — context windows, positives, contexts as CSR
arrays, each strength-constraint example's pool — and a trainer draws only
its constraint negatives from it, on its own stream.  Pinned here: the
``GridSpec.small()`` configs trained through one shared set end byte-equal
(parameters, Adagrad sums, epoch losses, compiled arrays) to trainers that
each build their own, and ``TrainingPipeline.run`` builds its retailer's
set once per run (none when every config dead-letters first), lets it go
when the last BPR config has taken it, and keeps none for the next.  A
published model's Adagrad sums are compared as Train() releases them.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

import repro.core.training as training

from repro import build_cluster
from repro.core.grid import GridSpec
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import (
    TrainerSettings,
    TrainingPipeline,
    _make_sampler,
    train_config,
)
from repro.exceptions import DataError
from repro.mapreduce.runtime import FaultPlan
from repro.models.bpr import BPRModel
from repro.models.optim import Adagrad
from repro.models.trainer import BPRTrainer, ExampleSet
from repro.rng import derive_seed

SETTINGS = TrainerSettings(max_epochs_full=3, max_epochs_incremental=2)


def small_configs(dataset):
    configs = SweepPlanner(GridSpec.small()).full_sweep([dataset]).configs
    assert len(configs) == 4
    return configs


def trained(config, dataset, examples=None):
    """``train_config``'s trainer, run to the end."""
    model = BPRModel(dataset.catalog, dataset.taxonomy, config.params)
    trainer = BPRTrainer(
        model,
        dataset,
        sampler=_make_sampler(SETTINGS, model, dataset),
        max_epochs=SETTINGS.max_epochs_full,
        batch_size=SETTINGS.batch_size,
        seed=derive_seed(config.params.seed, "trainer"),
        examples=examples,
    )
    return trainer, trainer.train()


def test_a_shared_set_trains_byte_equal_to_a_set_per_config(small_dataset):
    shared = ExampleSet.build(small_dataset)
    assert shared.constrained, "no strength-constraint examples drawn"
    for config in small_configs(small_dataset):
        own, own_report = trained(config, small_dataset)
        mine, mine_report = trained(config, small_dataset, shared)
        assert mine_report.epoch_losses == own_report.epoch_losses
        assert mine.model._buffer.tobytes() == own.model._buffer.tobytes()
        assert (
            mine.model.optimizer._flat.tobytes() == own.model.optimizer._flat.tobytes()
        )
        assert mine.examples == own.examples
        for name in ("indptr", "ctx_rows", "ctx_weights", "positives", "negatives"):
            ours, theirs = getattr(mine.compiled, name), getattr(own.compiled, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


def test_the_shared_arrays_are_read_only(small_dataset):
    shared = ExampleSet.build(small_dataset)
    for array in (shared.indptr, shared.ctx_rows, shared.ctx_events, shared.positives):
        with pytest.raises(ValueError):
            array[0] = 1
    # A trainer's negatives are its own.
    trainer, _ = trained(small_configs(small_dataset)[0], small_dataset, shared)
    assert trainer.compiled.negatives.flags.writeable


def test_a_set_trains_only_its_own_retailer(small_dataset, tiny_dataset):
    model = BPRModel(tiny_dataset.catalog, tiny_dataset.taxonomy, small_configs(small_dataset)[0].params)
    with pytest.raises(DataError):
        BPRTrainer(model, tiny_dataset, examples=ExampleSet.build(small_dataset))
    with pytest.raises(DataError):
        BPRTrainer(
            model,
            tiny_dataset,
            strength_constraints=False,
            examples=ExampleSet.build(tiny_dataset),
        )


@pytest.fixture()
def builds(monkeypatch):
    """Every :meth:`ExampleSet.build`, as a weak reference to its set."""
    built = []
    build = ExampleSet.build.__func__

    def counted(cls, dataset, *args, **kwargs):
        examples = build(cls, dataset, *args, **kwargs)
        built.append(weakref.ref(examples))
        return examples

    monkeypatch.setattr(ExampleSet, "build", classmethod(counted))
    return built


def test_a_run_builds_its_retailers_set_once(small_dataset, builds, monkeypatch):
    # Train() releases the Adagrad sums before it returns the model: read
    # them as they are released, keyed by the optimizer that held them.
    sums = {}
    release = Adagrad.release_norms

    def read_then_release(optimizer):
        sums[id(optimizer)] = optimizer._flat.copy()
        release(optimizer)

    monkeypatch.setattr(Adagrad, "release_norms", read_then_release)
    configs = small_configs(small_dataset)
    registry = ModelRegistry()
    pipeline = TrainingPipeline(
        build_cluster(n_cells=2, machines_per_cell=4), registry, settings=SETTINGS
    )
    outputs, stats = pipeline.run(small_dataset, configs)
    assert stats.configs_failed == 0 and len(outputs) == len(configs) > 1
    assert len(builds) == 1
    # Nothing is kept for the next run: it builds the set again.
    pipeline.run(small_dataset, configs)
    assert len(builds) == 2

    # What the run published is what a config trains alone.
    for config in configs[:3]:
        builds.clear()
        alone, _ = train_config(config, small_dataset, SETTINGS)
        assert len(builds) == 1
        published = registry.get(config.retailer_id, config.model_number).model
        assert published._buffer.tobytes() == alone._buffer.tobytes()
        assert published.optimizer._flat is None and alone.optimizer._flat is None
        assert (
            sums[id(published.optimizer)].tobytes() == sums[id(alone.optimizer)].tobytes()
        )


def test_the_set_is_let_go_when_the_last_bpr_config_takes_it(
    small_dataset, builds, monkeypatch
):
    """The run holds its set only while a BPR config is still to train:
    a WALS config between two BPR ones finds it alive, one after the
    last finds it gone, and the run keeps none once it returns."""
    bpr = small_configs(small_dataset)
    wals = [replace(bpr[0], model_number=90 + n, model_kind="wals") for n in range(2)]
    configs = [bpr[0], wals[0], *bpr[1:], wals[1]]
    seen = []
    train = training.train_config

    def observed(config, dataset, **kwargs):
        gc.collect()
        seen.append((config.model_kind, [ref() is not None for ref in builds]))
        return train(config, dataset, **kwargs)

    monkeypatch.setattr(training, "train_config", observed)
    # One cell: its job trains the configs in list order.
    pipeline = TrainingPipeline(
        build_cluster(n_cells=1, machines_per_cell=4), ModelRegistry(), settings=SETTINGS
    )
    outputs, stats = pipeline.run(small_dataset, configs)
    assert stats.configs_failed == 0 and len(outputs) == len(configs)
    assert seen == [("bpr", [True]), ("wals", [True])] + [("bpr", [True])] * 3 + [
        ("wals", [False])
    ]
    gc.collect()
    assert [ref() for ref in builds] == [None]


def test_a_run_whose_every_config_dead_letters_builds_no_set(small_dataset, builds):
    configs = small_configs(small_dataset)
    pipeline = TrainingPipeline(
        build_cluster(n_cells=2, machines_per_cell=4),
        ModelRegistry(),
        settings=SETTINGS,
        fault_plan=FaultPlan().fail_mapper(lambda record: True),
    )
    outputs, stats = pipeline.run(small_dataset, configs)
    assert outputs == [] and builds == []
    assert (stats.configs_trained, stats.configs_failed) == (0, len(configs))
    assert stats.failure == f"training: injected mapper fault for {configs[0]!r}"
