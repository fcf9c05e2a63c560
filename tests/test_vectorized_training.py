"""Tests for the mini-batch training step and the trainer's one loop.

The contract under test: ``step_planned`` on a batch of one
non-colliding triple is the paper's per-triple rule as the oracle in
``tests/reference_scalar_sgd.py`` writes it out (for both optimizers), a
``batch_size=1`` epoch is that oracle's loop, larger batches follow
standard mini-batch semantics and reach the same quality, and the cached
effective-item matrix agrees with per-item assembly while staying
coherent across updates.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConfigRecord
from repro.core.training import TrainerSettings, train_config
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.exceptions import ConfigError
from repro.models.bpr import BPRHyperParams, BPRModel, concat_ranges
from repro.models.trainer import DEFAULT_BATCH_SIZE, BPRTrainer

from tests import reference_scalar_sgd as scalar
from tests.conftest import optimizer_state, recompile, sgd_step_batch, step_one

#: A small synthetic retailer shared by the property tests (hypothesis
#: cannot take pytest fixtures).
_RETAILER = generate_retailer(
    RetailerSpec(
        retailer_id="vec_prop",
        n_items=60,
        n_users=40,
        n_events=500,
        taxonomy_depth=2,
        taxonomy_fanout=3,
        n_brands=4,
        seed=11,
    )
)
_DATASET = dataset_from_synthetic(_RETAILER)

#: Feature tables off: the per-triple oracle updates shared feature rows
#: one at a time, so a positive and a negative under one category see each
#: other's writes mid-side; the exact-equivalence contract is defined on
#: non-colliding triples.
_NO_FEATURE_PARAMS = dict(
    n_factors=8,
    learning_rate=0.05,
    use_taxonomy=False,
    use_brand=False,
    use_price=False,
)


def _non_colliding_triples(rng: np.random.Generator, count: int):
    """Random triples whose context items are unique and exclude pos/neg."""
    triples = []
    n_items = _DATASET.n_items
    while len(triples) < count:
        size = int(rng.integers(0, 5))
        members = rng.choice(n_items, size=size + 2, replace=False)
        context = UserContext.from_pairs(
            [(rng.choice(list(_EVENTS)), int(item)) for item in members[:size]]
        )
        triples.append((context, int(members[size]), int(members[size + 1])))
    return triples


_EVENTS = (EventType.VIEW, EventType.SEARCH, EventType.CART, EventType.CONVERSION)


def _csr_of(model: BPRModel, context: UserContext):
    indptr = np.array([0, len(context)], dtype=np.int64)
    rows = np.asarray(context.item_indices, dtype=np.int64)
    return indptr, rows, model.context_weights(context)


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([2, 7]), np.array([3, 2]))
        assert out.tolist() == [2, 3, 4, 7, 8]

    def test_empty_ranges_mixed_in(self):
        out = concat_ranges(np.array([5, 1, 9]), np.array([0, 2, 0]))
        assert out.tolist() == [1, 2]

    def test_all_empty(self):
        assert concat_ranges(np.zeros(0), np.zeros(0)).size == 0


class TestEffectiveVectorsBatch:
    def test_matches_per_item_assembly(self, trained_model):
        items = np.array([0, 3, 3, 57, trained_model.n_items - 1])
        batch = trained_model.effective_item_vectors(items)
        for row, item in enumerate(items):
            assert np.allclose(
                batch[row], scalar.effective_item_vector(trained_model, int(item))
            )

    def test_matrix_cache_reused_until_update(self, small_dataset, default_params):
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        first = model.effective_item_matrix()
        assert model.effective_item_matrix() is first  # cached
        step_one(model, UserContext((1,), (EventType.VIEW,)), 2, 3)
        second = model.effective_item_matrix()
        assert second is not first
        assert not np.allclose(second[2], first[2])

    def test_score_all_consistent_after_updates(self, small_dataset, default_params):
        """Scoring, updating, then scoring again must see the update."""
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        context = UserContext((4, 9), (EventType.VIEW, EventType.CART))
        before = model.score_all(context)
        for _ in range(5):
            step_one(model, context, 7, 21)
        after = model.score_all(context)
        assert after[7] > before[7]

    def test_set_state_invalidates_cache(self, small_dataset, default_params):
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        matrix = model.effective_item_matrix().copy()
        state = model.get_state()
        state["item"] = state["item"] + 1.0
        model.set_state(state)
        assert np.allclose(model.effective_item_matrix(), matrix + 1.0)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    optimizer=st.sampled_from(["sgd", "adagrad"]),
)
def test_scalar_and_batch_step_produce_same_parameters(seed, optimizer):
    """Property: per-triple, a batch of one equals the scalar oracle
    within 1e-9 for both optimizers (same gradients, same adaptive rates).
    """
    params = BPRHyperParams(optimizer=optimizer, seed=3, **_NO_FEATURE_PARAMS)
    scalar_model = BPRModel(_DATASET.catalog, _DATASET.taxonomy, params)
    batch_model = BPRModel(_DATASET.catalog, _DATASET.taxonomy, params)
    rng = np.random.default_rng(seed)
    losses = []
    for context, positive, negative in _non_colliding_triples(rng, 40):
        scalar_loss = scalar.sgd_step(scalar_model, context, positive, negative)
        batch_loss = sgd_step_batch(
            batch_model,
            _csr_of(batch_model, context),
            np.array([positive]),
            np.array([negative]),
        )
        losses.append((scalar_loss, float(batch_loss[0])))
    for scalar_loss, batch_loss in losses:
        assert scalar_loss == pytest.approx(batch_loss, abs=1e-9)
    for name, param in scalar_model._parameters().items():
        np.testing.assert_allclose(
            param,
            batch_model._parameters()[name],
            atol=1e-9,
            err_msg=f"{optimizer}: parameter {name!r} diverged",
        )


class TestBatchStep:
    def test_empty_batch_is_noop(self, fresh_model):
        state = fresh_model.get_state()
        losses = sgd_step_batch(
            fresh_model,
            (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert losses.size == 0
        for name, param in fresh_model._parameters().items():
            assert np.array_equal(param, state[name])

    def test_batch_with_features_updates_feature_tables(
        self, small_dataset, default_params
    ):
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        before = model.taxonomy_embeddings.copy()
        context = UserContext((1, 2), (EventType.VIEW, EventType.VIEW))
        weights = model.context_weights(context)
        indptr = np.array([0, 2, 4], dtype=np.int64)
        rows = np.array([1, 2, 1, 2], dtype=np.int64)
        sgd_step_batch(
            model,
            (indptr, rows, np.concatenate([weights, weights])),
            np.array([5, 6]),
            np.array([30, 31]),
        )
        assert not np.array_equal(model.taxonomy_embeddings, before)

    def test_empty_context_batch_still_updates_items(
        self, small_dataset, default_params
    ):
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        before = model.item_bias.copy()
        empty = (np.array([0, 0], dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
        sgd_step_batch(model, empty, np.array([1]), np.array([2]))
        assert model.item_bias[1] != before[1]

    def test_duplicate_rows_in_one_batch_sum(self, small_dataset):
        """Two triples sharing a positive must both contribute (np.add.at,
        not the last-write-wins of plain fancy indexing)."""
        params = BPRHyperParams(optimizer="sgd", seed=3, **_NO_FEATURE_PARAMS)
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        reference = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        context = UserContext((8,), (EventType.VIEW,))
        indptr = np.array([0, 1, 2], dtype=np.int64)
        rows = np.array([8, 8], dtype=np.int64)
        weights = np.concatenate(
            [model.context_weights(context), model.context_weights(context)]
        )
        sgd_step_batch(
            model, (indptr, rows, weights), np.array([4, 4]), np.array([10, 11])
        )
        # Mini-batch semantics: both gradients evaluated at pre-batch
        # parameters, then summed onto the shared rows.
        user = reference.user_embedding(context)
        expected = reference.item_embeddings[4].copy()
        for negative in (10, 11):
            phi_pos = scalar.effective_item_vector(reference, 4)
            phi_neg = scalar.effective_item_vector(reference, negative)
            z = float(user @ (phi_pos - phi_neg)) + float(
                reference.item_bias[4] - reference.item_bias[negative]
            )
            e = 1.0 / (1.0 + np.exp(np.clip(z, -35.0, 35.0)))
            expected += params.learning_rate * (
                e * user - params.reg_item * reference.item_embeddings[4]
            )
        np.testing.assert_allclose(model.item_embeddings[4], expected, atol=1e-12)


class TestBatchedTrainer:
    def test_invalid_batch_size_rejected(self, small_dataset, fresh_model):
        with pytest.raises(ConfigError):
            BPRTrainer(fresh_model, small_dataset, batch_size=0)

    def test_compiled_examples_align_with_list(self, small_dataset, fresh_model):
        trainer = BPRTrainer(fresh_model, small_dataset, seed=3)
        compiled = trainer.compiled
        assert compiled.positives.size == trainer.n_examples
        for position, example in enumerate(trainer.examples):
            start, stop = compiled.indptr[position], compiled.indptr[position + 1]
            assert compiled.ctx_rows[start:stop].tolist() == list(
                example.context.item_indices
            )
            expected_negative = (
                example.negative if example.negative is not None else -1
            )
            assert compiled.negatives[position] == expected_negative
            np.testing.assert_allclose(
                compiled.ctx_weights[start:stop],
                fresh_model.context_weights(example.context),
            )

    def test_gather_builds_sub_csr(self, small_dataset, fresh_model):
        trainer = BPRTrainer(fresh_model, small_dataset, seed=3)
        batch = np.array([5, 0, 17])
        indptr, rows, weights = trainer.compiled.gather(batch)
        assert indptr[0] == 0 and indptr[-1] == rows.size == weights.size
        for offset, position in enumerate(batch):
            start, stop = indptr[offset], indptr[offset + 1]
            assert rows[start:stop].tolist() == list(
                trainer.examples[position].context.item_indices
            )

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_batched_training_converges_like_batches_of_one(
        self, small_dataset, optimizer
    ):
        """Same seed, batches of one vs 64: different trajectories (mini-batch
        semantics) but equivalent optimization behaviour."""

        def run(batch_size):
            model = BPRModel(
                small_dataset.catalog,
                small_dataset.taxonomy,
                BPRHyperParams(
                    n_factors=8, learning_rate=0.08, optimizer=optimizer, seed=1
                ),
            )
            trainer = BPRTrainer(
                model, small_dataset, max_epochs=4, batch_size=batch_size, seed=2
            )
            return trainer.train()

        single = run(1)
        batched = run(64)
        assert batched.epoch_losses[-1] < batched.epoch_losses[0]
        assert batched.final_loss == pytest.approx(single.final_loss, rel=0.25)

    def test_batched_training_deterministic(self, small_dataset, default_params):
        def run():
            model = BPRModel(
                small_dataset.catalog, small_dataset.taxonomy, default_params
            )
            BPRTrainer(
                model, small_dataset, max_epochs=2, batch_size=32, seed=77
            ).train()
            return model.item_embeddings.copy()

        assert np.array_equal(run(), run())

    def test_fixed_negatives_respected_in_batches(self, small_dataset, fresh_model):
        """Strength-constraint triples keep their compiled fixed negative."""
        trainer = BPRTrainer(
            fresh_model, small_dataset, strength_constraints=True, batch_size=16
        )
        fixed = trainer.compiled.negatives[trainer.compiled.negatives >= 0]
        assert fixed.size > 0
        explicit = [e.negative for e in trainer.examples if e.negative is not None]
        assert sorted(fixed.tolist()) == sorted(explicit)


class TestBatchSizeIsASize:
    """``batch_size`` sizes the one loop; it selects nothing."""

    def test_one_default_everywhere(self):
        signature = inspect.signature(BPRTrainer)
        assert (
            TrainerSettings().batch_size
            == DEFAULT_BATCH_SIZE
            == signature.parameters["batch_size"].default
        )
        assert DEFAULT_BATCH_SIZE > 1

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_batches_of_one_are_the_scalar_loop(self, optimizer):
        """A ``batch_size=1`` epoch against the oracle's per-triple loop.

        Same stream in the same order (asserted on the next draw), every
        feature table on, fixed and sampled negatives.  Contexts that
        repeat an item are left out: the oracle re-reads the repeated
        row's regularizer after the first write, a batch evaluates both
        at the pre-batch value.
        """
        params = BPRHyperParams(n_factors=8, optimizer=optimizer, seed=5)

        def trainer_for():
            model = BPRModel(_DATASET.catalog, _DATASET.taxonomy, params)
            trainer = BPRTrainer(model, _DATASET, batch_size=1, seed=9)
            trainer.examples = [
                example
                for example in trainer.examples
                if len(set(example.context.item_indices)) == len(example.context)
            ]
            trainer.compiled = recompile(trainer)
            return trainer

        ours, oracle = trainer_for(), trainer_for()
        assert ours.n_examples > 100
        assert (ours.compiled.negatives >= 0).any()
        assert (ours.compiled.negatives < 0).any()
        for _ in range(2):
            assert ours.run_epoch() == pytest.approx(
                scalar.run_epoch_scalar(oracle), abs=1e-9
            )
        for name, param in oracle.model.get_state().items():
            np.testing.assert_allclose(
                ours.model.get_state()[name], param, atol=1e-9, err_msg=name
            )
        for name, acc in optimizer_state(oracle.model.optimizer).items():
            np.testing.assert_allclose(
                optimizer_state(ours.model.optimizer)[name], acc, atol=1e-9, err_msg=name
            )
        assert ours._rng.integers(1 << 62) == oracle._rng.integers(1 << 62)

    def test_fleet_map_parity_with_batches_of_one(self):
        """Train() with default settings vs ``batch_size=1`` (one triple per
        update, the paper's schedule) on a seeded fleet: mini-batch semantics
        move single retailers by whole percents either way, the fleet mean
        must hold (measured 0.2329 vs 0.2394)."""
        fleet = [
            dataset_from_synthetic(
                generate_retailer(
                    RetailerSpec(
                        retailer_id=f"parity{index}",
                        n_items=n_items,
                        n_users=n_items // 2,
                        n_events=n_items * 5,
                        taxonomy_depth=2,
                        taxonomy_fanout=3,
                        n_brands=max(2, n_items // 30),
                        seed=2018 + index,
                    )
                )
            )
            for index, n_items in enumerate((50, 60, 70, 80, 90, 100))
        ]

        def fleet_map(settings: TrainerSettings) -> float:
            maps = []
            for number, dataset in enumerate(fleet):
                config = ConfigRecord(
                    dataset.retailer_id,
                    number,
                    BPRHyperParams(n_factors=8, seed=number),
                )
                _, output = train_config(config, dataset, settings)
                maps.append(output.metrics["map@10"])
            return float(np.mean(maps))

        default = fleet_map(TrainerSettings())
        single = fleet_map(TrainerSettings(batch_size=1))
        assert single > 0.1  # the fleet learns something to be on par with
        assert default >= 0.95 * single, (
            f"fleet-mean MAP@10 {default:.4f} at the default batch size vs "
            f"{single:.4f} on batches of one"
        )
