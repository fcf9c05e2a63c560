"""What a trained model keeps once its use ends.

A model holds its Adagrad norms while it trains and its effective-item
matrix while a job scores with it; a published model holds its
parameters only (DESIGN.md, "What a model holds, when").  Pinned here:

* ``TrainingPipeline.run`` publishes no Adagrad buffer and no cached
  matrix, and neither does a service day with index builds;
* ``InferencePipeline.run_cell`` assembles each model it ranks once and
  drops the matrix when its job ends;
* a released model trains byte-equal to an unreleased twin whose norms
  were reset — on its own, as a warm start and through a checkpoint
  resume.
"""

from __future__ import annotations

import pytest

import repro.core.training as training
from repro import build_cluster
from repro.core.checkpoint import CheckpointManager
from repro.core.config import ConfigRecord
from repro.core.grid import GridSpec
from repro.core.inference import InferencePipeline
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import (
    TrainerSettings,
    TrainingPipeline,
    checkpoint_key,
    train_config,
)
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.optim import Adagrad
from repro.models.trainer import BPRTrainer
from tests.conftest import run_inference
from tests.test_retrieval import make_service

SETTINGS = TrainerSettings(max_epochs_full=3, max_epochs_incremental=2)


def bpr_models(registry, datasets):
    models = [
        entry.model
        for rid in datasets
        for entry in registry._retailer_models(rid).values()
        if isinstance(entry.model, BPRModel)
    ]
    assert models
    return models


def assert_parameters_only(model: BPRModel) -> None:
    assert model.optimizer._flat is None and model.optimizer._accumulators == {}
    assert model._phi_cache is None


@pytest.fixture()
def datasets(small_dataset, tiny_dataset):
    return {d.retailer_id: d for d in (small_dataset, tiny_dataset)}


@pytest.fixture()
def assemblies(monkeypatch):
    """Per model id, how many times its effective-item matrix was built."""
    built = {}
    assemble = BPRModel.effective_item_matrix

    def counted(model):
        if model._phi_cache is None:
            built[id(model)] = built.get(id(model), 0) + 1
        return assemble(model)

    monkeypatch.setattr(BPRModel, "effective_item_matrix", counted)
    return built


def test_a_training_run_publishes_parameters_only(datasets):
    registry = ModelRegistry()
    pipeline = TrainingPipeline(
        build_cluster(n_cells=2, machines_per_cell=4), registry, settings=SETTINGS
    )
    planner = SweepPlanner(GridSpec.small())
    outputs, stats = pipeline.run(planner.full_sweep(list(datasets.values())).configs, datasets)
    assert outputs and stats.configs_failed == 0
    for model in bpr_models(registry, datasets):
        assert_parameters_only(model)
    # A warm-started day reads released models and publishes released ones.
    plan = planner.incremental_sweep(list(datasets.values()), registry, day=1)
    assert any(config.warm_start for config in plan.configs)
    pipeline.run(plan.configs, datasets, day=1)
    for model in bpr_models(registry, datasets):
        assert_parameters_only(model)


def test_an_inference_cell_assembles_once_and_drops_what_it_primed(datasets, assemblies):
    cluster = build_cluster(n_cells=1, machines_per_cell=4)
    registry = ModelRegistry()
    TrainingPipeline(cluster, registry, settings=SETTINGS).run(
        SweepPlanner(GridSpec.small()).full_sweep(list(datasets.values())).configs, datasets
    )
    ranked = [registry.best(rid).model for rid in datasets]
    assemblies.clear()
    results, failed = run_inference(InferencePipeline(cluster, registry, top_n=5), datasets)
    assert sorted(results) == sorted(datasets) and not failed
    assert assemblies == {id(model): 1 for model in ranked}
    for model in ranked:
        assert model._phi_cache is None


def test_a_day_with_index_builds_leaves_parameters_only(assemblies, monkeypatch):
    """An index build leaves its matrix to the day's inference cell, which
    reads it and drops it: one assembly per served model outside Train()."""
    service = make_service(retrieval_threshold=1)
    train = training.train_config

    def forget_training(*args, **kwargs):
        model, output = train(*args, **kwargs)
        assemblies.pop(id(model), None)  # the holdout evaluation's
        return model, output

    monkeypatch.setattr(training, "train_config", forget_training)
    report = service.run_day()
    assert report.indexes_built == 2 and report.retailers_served == 2
    served = {id(service.registry.best(rid).model) for rid in ("r0", "r1")}
    assert assemblies == {key: 1 for key in served}
    for model in bpr_models(service.registry, ("r0", "r1")):
        assert_parameters_only(model)


@pytest.fixture()
def released_and_twin(small_dataset, monkeypatch):
    """One config trained by Train() twice: as published (norms released)
    and as a twin that kept its norms, then had them reset."""
    config = ConfigRecord(
        small_dataset.retailer_id, 0, BPRHyperParams(n_factors=8, seed=5), day=0
    )
    released, released_output = train_config(config, small_dataset, SETTINGS)
    with monkeypatch.context() as patch:
        patch.setattr(Adagrad, "release_norms", lambda optimizer: None)
        twin, twin_output = train_config(config, small_dataset, SETTINGS)
    assert_parameters_only(released)
    assert twin.optimizer._flat.any(), "the twin kept the norms it trained"
    twin.optimizer.reset_norms()
    twin.invalidate_cache()
    assert released._buffer.tobytes() == twin._buffer.tobytes()
    assert released_output.metrics == twin_output.metrics
    return released, twin


def state_bytes(model: BPRModel):
    return model._buffer.tobytes(), model.optimizer._flat.tobytes()


def test_a_released_model_trains_like_a_reset_twin(small_dataset, released_and_twin):
    losses = [
        BPRTrainer(model, small_dataset, max_epochs=2, seed=11).train().epoch_losses
        for model in released_and_twin
    ]
    released, twin = released_and_twin
    assert losses[0] == losses[1]
    assert state_bytes(released) == state_bytes(twin)


def test_a_warm_start_from_a_released_model_trains_like_one_from_a_reset_twin(
    small_dataset, released_and_twin
):
    config = ConfigRecord(
        small_dataset.retailer_id, 0, BPRHyperParams(n_factors=8, seed=5), warm_start=True, day=1
    )
    warm = [
        train_config(config, small_dataset, SETTINGS, warm_model=model)
        for model in released_and_twin
    ]
    (from_released, released_output), (from_twin, twin_output) = warm
    assert released_output.metrics == twin_output.metrics
    assert released_output.epochs_run == twin_output.epochs_run
    assert from_released._buffer.tobytes() == from_twin._buffer.tobytes()


def test_a_resume_from_a_released_models_checkpoint_trains_like_the_twins(
    small_dataset, released_and_twin
):
    config = ConfigRecord(
        small_dataset.retailer_id, 1, BPRHyperParams(n_factors=8, seed=5), day=2
    )
    resumed = []
    for model in released_and_twin:
        manager = CheckpointManager(SETTINGS.checkpoint_interval_seconds)
        manager.write(checkpoint_key(config), model, now=0.0, epoch=0)
        resumed.append(train_config(config, small_dataset, SETTINGS, checkpoints=manager))
        assert manager.stats.restores == 1
    (from_released, released_output), (from_twin, twin_output) = resumed
    assert released_output.metrics == twin_output.metrics
    assert released_output.epochs_run == twin_output.epochs_run == SETTINGS.max_epochs_full
    assert from_released._buffer.tobytes() == from_twin._buffer.tobytes()
