"""Tests for the BPR training loop and example construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import RetailerDataset
from repro.data.events import EventType, Interaction
from repro.data.split import leave_last_out_split
from repro.exceptions import DataError
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer
from repro.rng import make_rng


def make_dataset(interactions, retailer) -> RetailerDataset:
    split = leave_last_out_split(interactions)
    return RetailerDataset(
        retailer_id=retailer.retailer_id,
        catalog=retailer.catalog,
        taxonomy=retailer.taxonomy,
        train=split.train,
        holdout=split.holdout,
    )


class TestExampleConstruction:
    def test_examples_cover_context_windows(self, small_dataset, fresh_model):
        trainer = BPRTrainer(fresh_model, small_dataset, strength_constraints=False)
        histories = small_dataset.train_histories()
        expected = sum(max(0, len(h) - 1) for h in histories.values())
        assert trainer.n_examples == expected

    def test_strength_constraints_add_examples(self, small_dataset, fresh_model):
        plain = BPRTrainer(fresh_model, small_dataset, strength_constraints=False)
        with_constraints = BPRTrainer(
            fresh_model, small_dataset, strength_constraints=True
        )
        assert with_constraints.n_examples > plain.n_examples

    def test_strength_constraint_negative_is_weaker_item(self, tiny_retailer):
        """The explicit negative of a searched item must be an item the
        same user touched with a strictly weaker event."""
        interactions = [
            Interaction(0.0, 1, 0, EventType.VIEW),
            Interaction(1.0, 1, 1, EventType.VIEW),
            Interaction(2.0, 1, 2, EventType.SEARCH),
            # A trailing view so the leave-last-out split holds THIS one
            # out and the search event stays in the training data.
            Interaction(3.0, 1, 3, EventType.VIEW),
        ]
        dataset = make_dataset(interactions, tiny_retailer)
        model = BPRModel(
            dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        trainer = BPRTrainer(model, dataset, strength_constraints=True)
        explicit = [e for e in trainer.examples if e.negative is not None]
        assert explicit, "a search>view constraint example should exist"
        for example in explicit:
            assert example.positive == 2
            assert example.negative in {0, 1}

    def test_retailer_mismatch_rejected(self, small_dataset, tiny_dataset):
        model = BPRModel(
            tiny_dataset.catalog, tiny_dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        with pytest.raises(DataError):
            BPRTrainer(model, small_dataset)


class TestTrainingLoop:
    def test_loss_decreases(self, small_dataset):
        model = BPRModel(
            small_dataset.catalog, small_dataset.taxonomy,
            BPRHyperParams(n_factors=8, learning_rate=0.08, seed=1),
        )
        trainer = BPRTrainer(model, small_dataset, max_epochs=5, seed=2)
        report = trainer.train()
        assert report.epochs_run >= 2
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_early_stopping(self, small_dataset):
        """A huge tolerance makes every epoch 'stale' -> stop at patience."""
        model = BPRModel(
            small_dataset.catalog, small_dataset.taxonomy,
            BPRHyperParams(n_factors=4, seed=5),
        )
        trainer = BPRTrainer(
            model, small_dataset, max_epochs=50, convergence_tol=10.0, patience=2
        )
        report = trainer.train()
        assert report.epochs_run <= 4
        assert report.converged

    def test_reports_steps(self, small_dataset, fresh_model):
        trainer = BPRTrainer(fresh_model, small_dataset, max_epochs=2,
                             convergence_tol=0.0)
        report = trainer.train()
        assert report.sgd_steps == report.epochs_run * trainer.n_examples

    def test_deterministic_given_seed(self, small_dataset, default_params):
        def run():
            model = BPRModel(
                small_dataset.catalog, small_dataset.taxonomy, default_params
            )
            BPRTrainer(model, small_dataset, max_epochs=2, seed=77).train()
            return model.item_embeddings.copy()

        assert np.array_equal(run(), run())

    def test_seed_moves_the_trained_model(self, small_dataset, default_params):
        def run(seed):
            model = BPRModel(
                small_dataset.catalog, small_dataset.taxonomy, default_params
            )
            BPRTrainer(model, small_dataset, max_epochs=1, seed=seed).train()
            return model.item_embeddings.copy()

        assert not np.array_equal(run(77), run(78))

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 100_000])
    def test_epoch_steps_every_example_once(
        self, small_dataset, fresh_model, monkeypatch, batch_size
    ):
        """One loop: batches of ``batch_size`` cover the shuffled examples."""
        trainer = BPRTrainer(
            fresh_model, small_dataset, batch_size=batch_size, seed=3
        )
        step = fresh_model.step_planned
        batches = []

        def recording_step(positive, k, negative, j):
            batches.append(
                (
                    positive.items[positive.bounds[k] : positive.bounds[k + 1]].copy(),
                    negative.items[negative.bounds[j] : negative.bounds[j + 1]].copy(),
                )
            )
            return step(positive, k, negative, j)

        monkeypatch.setattr(fresh_model, "step_planned", recording_step)
        trainer.run_epoch()
        n = trainer.n_examples
        sizes = [len(positives) for positives, _ in batches]
        assert sizes == [min(batch_size, n - start) for start in range(0, n, batch_size)]
        assert [len(negatives) for _, negatives in batches] == sizes
        positives = np.concatenate([positives for positives, _ in batches])
        assert np.array_equal(np.sort(positives), np.sort(trainer.compiled.positives))
        negatives = np.concatenate([negatives for _, negatives in batches])
        assert (negatives >= 0).all(), "a sampled negative was left undrawn"

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_shuffle_is_one_permutation_draw(self, n, seed):
        """``run_epoch`` shuffles with ``rng.permutation(n)``: the same values,
        and the same stream position, as the indexed ``np.arange(n)`` of the
        loop it replaced."""
        ours, theirs = make_rng(seed), make_rng(seed)
        assert np.array_equal(ours.permutation(n), np.arange(n)[theirs.permutation(n)])
        assert ours.integers(1 << 62) == theirs.integers(1 << 62)

    def test_empty_epoch_draws_nothing(self, tiny_retailer):
        dataset = make_dataset([], tiny_retailer)
        model = BPRModel(
            dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        trainer = BPRTrainer(model, dataset, seed=9)
        assert trainer.run_epoch() == 0.0
        assert trainer._rng.integers(1 << 62) == make_rng(9).integers(1 << 62)

    def test_empty_dataset_trains_trivially(self, tiny_retailer):
        dataset = make_dataset([], tiny_retailer)
        model = BPRModel(
            dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        trainer = BPRTrainer(model, dataset, max_epochs=3)
        report = trainer.train()
        assert trainer.n_examples == 0
        assert report.final_loss == 0.0

    def test_empty_examples_short_circuit(self, tiny_retailer):
        """Regression: an empty example list must not spin through all
        max_epochs — one trivial epoch, reported as converged."""
        dataset = make_dataset([], tiny_retailer)
        model = BPRModel(
            dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        trainer = BPRTrainer(model, dataset, max_epochs=50)
        epochs = list(trainer.iter_epochs())
        assert epochs == [(0, 0.0)]
        assert trainer.converged
        report = trainer.train()
        assert report.epochs_run == 1
        assert report.converged

    def test_converged_on_final_epoch_is_reported(self, small_dataset):
        """Regression: hitting the convergence criterion exactly on the
        last allowed epoch used to be misreported as not-converged by the
        old ``epochs_run < max_epochs`` inference."""
        model = BPRModel(
            small_dataset.catalog, small_dataset.taxonomy,
            BPRHyperParams(n_factors=4, seed=5),
        )
        # tol=inf makes every epoch stale: stale reaches patience=2 right
        # after the third epoch — exactly max_epochs.
        trainer = BPRTrainer(
            model, small_dataset, max_epochs=3, convergence_tol=float("inf"),
            patience=2,
        )
        report = trainer.train()
        assert report.epochs_run == 3
        assert report.converged

    def test_zero_loss_epochs_converge(self, small_dataset, fresh_model,
                                       monkeypatch):
        """Regression: at loss 0.0 the old ``previous > 0`` guard froze
        ``stale`` forever and the loop ran all max_epochs."""
        trainer = BPRTrainer(fresh_model, small_dataset, max_epochs=50, patience=2)
        monkeypatch.setattr(trainer, "run_epoch", lambda: 0.0)
        epochs = list(trainer.iter_epochs())
        assert len(epochs) == 3  # first epoch + patience stale epochs
        assert trainer.converged

    def test_not_converged_when_budget_exhausted(self, small_dataset):
        """A run that stops only because max_epochs ran out is not converged."""
        model = BPRModel(
            small_dataset.catalog, small_dataset.taxonomy,
            BPRHyperParams(n_factors=4, seed=5),
        )
        trainer = BPRTrainer(
            model, small_dataset, max_epochs=2, convergence_tol=0.0, patience=2
        )
        report = trainer.train()
        assert report.epochs_run == 2
        assert not report.converged
