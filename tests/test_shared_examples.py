"""One retailer's training examples, built once per training run.

``ExampleSet`` holds what every config's trainer would otherwise rebuild
from the same dataset — context windows, positives, contexts as CSR
arrays, each strength-constraint example's pool — and a trainer draws only
its constraint negatives from it, on its own stream.  Pinned here: the
``GridSpec.small()`` configs trained through one shared set end byte-equal
(parameters, Adagrad sums, epoch losses, compiled arrays) to trainers that
each build their own, and ``TrainingPipeline.run`` builds each retailer's
set once per run, lets it go when the retailer's last config has taken
it, and keeps none for the next.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_cluster
from repro.core.grid import GridSpec
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import (
    TrainerSettings,
    TrainingPipeline,
    _ExampleSets,
    _make_sampler,
    train_config,
)
from repro.exceptions import DataError
from repro.models.bpr import BPRModel
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


def test_a_run_builds_each_retailers_set_once(small_dataset, tiny_dataset, monkeypatch):
    built = []
    build = ExampleSet.build.__func__

    def counted(cls, dataset, *args, **kwargs):
        built.append(dataset.retailer_id)
        return build(cls, dataset, *args, **kwargs)

    monkeypatch.setattr(ExampleSet, "build", classmethod(counted))
    datasets = {d.retailer_id: d for d in (small_dataset, tiny_dataset)}
    configs = SweepPlanner(GridSpec.small()).full_sweep(list(datasets.values())).configs
    registry = ModelRegistry()
    pipeline = TrainingPipeline(
        build_cluster(n_cells=2, machines_per_cell=4), registry, settings=SETTINGS
    )
    outputs, stats = pipeline.run(configs, datasets)
    assert stats.configs_failed == 0 and len(outputs) == len(configs) > len(datasets)
    assert sorted(built) == sorted(datasets)
    # Nothing is kept for the next run: it builds them again.
    pipeline.run(configs, datasets)
    assert sorted(built) == sorted(list(datasets) * 2)

    # What the run published is what a config trains alone.
    for config in configs[:3]:
        built.clear()
        alone, _ = train_config(config, datasets[config.retailer_id], SETTINGS)
        assert built == [config.retailer_id]
        published = registry.get(config.retailer_id, config.model_number).model
        assert published._buffer.tobytes() == alone._buffer.tobytes()
        assert np.array_equal(published.optimizer._flat, alone.optimizer._flat)


def test_a_set_is_let_go_when_its_last_config_takes_it(small_dataset, tiny_dataset):
    """The run holds a retailer's set only while a config of it is still
    to train; a retry past the count builds its own."""
    datasets = (small_dataset, tiny_dataset)
    configs = SweepPlanner(GridSpec.small()).full_sweep(list(datasets)).configs
    sets = _ExampleSets(configs)
    left = {
        d.retailer_id: sum(c.retailer_id == d.retailer_id and c.model_kind != "wals" for c in configs)
        for d in datasets
    }
    assert min(left.values()) > 1
    first = {d.retailer_id: sets.take(d) for d in datasets}
    for dataset in datasets:
        for _ in range(left[dataset.retailer_id] - 1):
            assert dataset.retailer_id in sets._sets
            assert sets.take(dataset) is first[dataset.retailer_id]
    assert sets._sets == {}
    again = sets.take(small_dataset)
    assert again is not first[small_dataset.retailer_id] and sets._sets == {}
