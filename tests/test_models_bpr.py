"""Tests for the BPR model: embeddings, features, updates, state."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.exceptions import ConfigError
from repro.models.bpr import _ASSEMBLY_SLICE, BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer

from tests import reference_batched_sgd as frozen
from tests.conftest import assert_states_equal, optimizer_state, step_one
from tests.reference_scalar_sgd import effective_item_vector


def ctx(*items, event=EventType.VIEW) -> UserContext:
    return UserContext(tuple(items), tuple(event for _ in items))


class TestHyperParams:
    def test_defaults_valid(self):
        BPRHyperParams()

    def test_invalid_factors(self):
        with pytest.raises(ConfigError):
            BPRHyperParams(n_factors=0)

    def test_invalid_decay(self):
        with pytest.raises(ConfigError):
            BPRHyperParams(context_decay=0.0)

    def test_invalid_optimizer(self):
        with pytest.raises(ConfigError):
            BPRHyperParams(optimizer="adam")

    def test_describe_flat(self):
        desc = BPRHyperParams().describe()
        assert desc["n_factors"] == 16
        assert "use_taxonomy" in desc


class TestConstruction:
    def test_parameter_shapes(self, small_dataset, default_params):
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        n, f = small_dataset.n_items, default_params.n_factors
        assert model.item_embeddings.shape == (n, f)
        assert model.context_embeddings.shape == (n, f)
        assert model.item_bias.shape == (n,)
        assert model.taxonomy_embeddings.shape[1] == f
        assert model.brand_embeddings.shape[1] == f

    def test_feature_switches_disable_tables(self, small_dataset):
        params = BPRHyperParams(
            n_factors=4, use_taxonomy=False, use_brand=False, use_price=False
        )
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        assert model.taxonomy_embeddings.shape[0] == 0
        assert model.brand_embeddings.shape[0] == 0
        assert model.price_embeddings.shape[0] == 0
        # Effective vector reduces to the raw item embedding.
        assert np.allclose(
            model.effective_item_vectors(np.array([0]))[0], model.item_embeddings[0]
        )

    def test_deterministic_init(self, small_dataset, default_params):
        a = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        b = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        assert np.array_equal(a.item_embeddings, b.item_embeddings)

    def test_memory_bytes_positive_and_scales(self, small_dataset):
        small = BPRModel(
            small_dataset.catalog, small_dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        large = BPRModel(
            small_dataset.catalog, small_dataset.taxonomy, BPRHyperParams(n_factors=64)
        )
        assert 0 < small.memory_bytes() < large.memory_bytes()


class TestEffectiveVectors:
    def test_taxonomy_contribution(self, small_dataset, default_params):
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        rows = model.item_ancestor_rows(0)
        assert rows.size > 0  # depth-3 taxonomy => non-root ancestors exist
        expected = model.item_embeddings[0] + model.taxonomy_embeddings[rows].sum(axis=0)
        item = small_dataset.catalog[0]
        if item.brand is not None:
            expected = expected + model.brand_embeddings[model._item_brand[0]]
        if item.price is not None and model._item_price_bucket[0] >= 0:
            expected = expected + model.price_embeddings[model._item_price_bucket[0]]
        assert np.allclose(model.effective_item_vectors(np.array([0]))[0], expected)

    def test_effective_matrix_matches_per_item(self, trained_model):
        matrix = trained_model.effective_item_matrix()
        for item in (0, 3, 57, trained_model.n_items - 1):
            assert np.allclose(matrix[item], effective_item_vector(trained_model, item))

    def test_score_all_matches_score_items(self, trained_model):
        context = ctx(1, 5, 9)
        full = trained_model.score_all(context)
        some = trained_model.score_items(context, [0, 5, 11])
        assert np.allclose(full[[0, 5, 11]], some)

    def test_effective_matrix_is_byte_equal_across_assembly_slices(self):
        """Two full assembly slices plus a remainder, against the frozen
        per-table assembly over every item."""
        dataset = dataset_from_synthetic(
            generate_retailer(
                RetailerSpec(
                    retailer_id="assembly_slices",
                    n_items=2 * _ASSEMBLY_SLICE + 333,
                    n_users=10,
                    n_events=200,
                    taxonomy_depth=3,
                    taxonomy_fanout=4,
                    n_brands=12,
                    seed=5,
                )
            )
        )
        model = BPRModel(dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=8, seed=4))
        assert model.n_items > 2 * _ASSEMBLY_SLICE and model.n_items % _ASSEMBLY_SLICE
        for rows in (model._item_ancestors, model._item_brand, model._item_price_bucket):
            assert (rows >= 0).any()

        matrix = model.effective_item_matrix()

        expected = frozen.ReferenceModel(model).effective_item_vectors(np.arange(model.n_items))
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()


class TestContextEmbedding:
    def test_empty_context_is_zero(self, fresh_model):
        assert np.allclose(fresh_model.user_embedding(UserContext.empty()), 0.0)

    def test_weights_normalized(self, fresh_model):
        weights = fresh_model.context_weights(ctx(1, 2, 3))
        assert weights.sum() == pytest.approx(1.0)

    def test_recency_decay_orders_weights(self, fresh_model):
        weights = fresh_model.context_weights(ctx(1, 2, 3))
        assert weights[0] < weights[1] < weights[2]

    def test_event_weighting_boosts_strong_events(self, small_dataset):
        params = BPRHyperParams(n_factors=4, event_weighting=True, context_decay=1.0)
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        context = UserContext((1, 2), (EventType.VIEW, EventType.CART))
        weights = model.context_weights(context)
        assert weights[1] / weights[0] == pytest.approx(2.0)

    def test_event_weighting_off(self, small_dataset):
        params = BPRHyperParams(n_factors=4, event_weighting=False, context_decay=1.0)
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        context = UserContext((1, 2), (EventType.VIEW, EventType.CONVERSION))
        weights = model.context_weights(context)
        assert weights[0] == pytest.approx(weights[1])

    def test_user_embedding_is_weighted_combination(self, fresh_model):
        """Eq. 1: u = sum_j w_j * vC_{I_j}."""
        context = ctx(4, 7)
        weights = fresh_model.context_weights(context)
        expected = (
            weights[0] * fresh_model.context_embeddings[4]
            + weights[1] * fresh_model.context_embeddings[7]
        )
        assert np.allclose(fresh_model.user_embedding(context), expected)


class TestSgdStep:
    """The update rule, driven one triple (a batch of one) at a time."""

    def test_update_reduces_pairwise_loss(self, fresh_model):
        context, pos, neg = ctx(3, 8), 15, 40
        losses = [step_one(fresh_model, context, pos, neg) for _ in range(25)]
        assert losses[-1] < losses[0]

    def test_update_orders_positive_above_negative(self, fresh_model):
        context, pos, neg = ctx(2, 6), 20, 55
        for _ in range(40):
            step_one(fresh_model, context, pos, neg)
        scores = fresh_model.score_items(context, [pos, neg])
        assert scores[0] > scores[1]

    def test_loss_is_positive(self, fresh_model):
        assert step_one(fresh_model, ctx(1), 2, 3) > 0.0

    def test_untouched_rows_unchanged(self, fresh_model):
        before = fresh_model.item_embeddings.copy()
        step_one(fresh_model, ctx(0), 1, 2)
        touched = {1, 2}
        for item in range(10):
            if item in touched:
                continue
            assert np.array_equal(
                fresh_model.item_embeddings[item], before[item]
            ), f"item {item} moved without being in the triple"

    def test_empty_context_still_updates_items(self, fresh_model):
        before = fresh_model.item_bias.copy()
        step_one(fresh_model, UserContext.empty(), 1, 2)
        assert fresh_model.item_bias[1] != before[1]


class TestStateAndWarmStart:
    def test_state_roundtrip(self, small_dataset, default_params):
        a = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        for _ in range(5):
            step_one(a, ctx(1, 2), 3, 4)
        state = a.get_state()
        b = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        b.set_state(state)
        assert np.array_equal(a.item_embeddings, b.item_embeddings)
        assert np.array_equal(a.item_bias, b.item_bias)

    def test_model_state_roundtrip_byte_identical(self, trained_model):
        state = trained_model.get_state()
        assert_states_equal(pickle.loads(pickle.dumps(state)), state)

    def test_model_state_set_matches_get(self, tiny_dataset, default_params):
        model = BPRModel(tiny_dataset.catalog, tiny_dataset.taxonomy, default_params)
        BPRTrainer(model, tiny_dataset, max_epochs=1, seed=5).train()
        state = model.get_state()
        clone = BPRModel(tiny_dataset.catalog, tiny_dataset.taxonomy, default_params)
        clone.set_state(state)
        assert_states_equal(clone.get_state(), state)

    def test_state_is_a_copy(self, fresh_model):
        state = fresh_model.get_state()
        state["item"][0, 0] = 999.0
        assert fresh_model.item_embeddings[0, 0] != 999.0

    def test_set_state_shape_mismatch_rejected(self, small_dataset, fresh_model):
        params = BPRHyperParams(n_factors=fresh_model.params.n_factors + 1)
        other = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        with pytest.raises(ConfigError):
            fresh_model.set_state(other.get_state())

    def test_set_state_missing_key_rejected(self, fresh_model):
        state = fresh_model.get_state()
        del state["bias"]
        with pytest.raises(ConfigError):
            fresh_model.set_state(state)

    def test_warm_start_copies_rows(self, small_dataset, default_params):
        old = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        for _ in range(10):
            step_one(old, ctx(1, 2), 3, 4)
        fresh = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        copied = fresh.warm_start_from(old)
        assert copied == small_dataset.n_items
        assert np.array_equal(fresh.item_embeddings, old.item_embeddings)

    def test_warm_start_skips_mismatched_factor_count(
        self, small_dataset, default_params
    ):
        old = BPRModel(
            small_dataset.catalog,
            small_dataset.taxonomy,
            BPRHyperParams(n_factors=default_params.n_factors + 4),
        )
        fresh = BPRModel(small_dataset.catalog, small_dataset.taxonomy, default_params)
        before = fresh.item_embeddings.copy()
        fresh.warm_start_from(old)
        assert np.array_equal(fresh.item_embeddings, before)


def _trained(dataset, params) -> BPRModel:
    model = BPRModel(dataset.catalog, dataset.taxonomy, params)
    BPRTrainer(model, dataset, max_epochs=1, seed=9).train()
    return model


def _via_set_state(model, dataset):
    other = BPRModel(dataset.catalog, dataset.taxonomy, model.params)
    other.set_state(model.get_state())
    return other


def _via_warm_start(model, dataset):
    other = BPRModel(dataset.catalog, dataset.taxonomy, model.params)
    other.warm_start_from(model)
    return other


def _via_checkpoint(model, dataset):
    manager = CheckpointManager()
    manager.write("cfg", model, now=0.0, epoch=1)
    other = BPRModel(dataset.catalog, dataset.taxonomy, model.params)
    assert manager.try_restore("cfg", other) == 1
    return other


_ROUTES = {
    "set_state": _via_set_state,
    "warm_start_from": _via_warm_start,
    "checkpoint_try_restore": _via_checkpoint,
    "deepcopy": lambda model, dataset: copy.deepcopy(model),
    "pickle": lambda model, dataset: pickle.loads(pickle.dumps(model)),
}


def _assert_one_buffer(model: BPRModel) -> None:
    """Every table is a view of the model's buffer, every accumulator a
    view of the optimizer's — what a step writes is what the tables read."""
    for name, table in model._parameters().items():
        assert table.size and np.shares_memory(table, model._buffer), name
    for name, acc in model.optimizer._accumulators.items():
        assert np.shares_memory(acc, model.optimizer._flat), name
    assert np.shares_memory(model._item_ancestors, model._item_features)


def _state_bytes(model: BPRModel):
    return [
        (name, array.tobytes())
        for state in (model.get_state(), optimizer_state(model.optimizer))
        for name, array in state.items()
    ]


class TestFlatBuffer:
    """The six tables are views of one buffer, Adagrad's sums of another."""

    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_a_copied_model_trains_through_its_own_buffer(
        self, small_dataset, default_params, route
    ):
        original = _trained(small_dataset, default_params)
        twin = _trained(small_dataset, default_params)
        assert _state_bytes(original) == _state_bytes(twin)

        copied = _ROUTES[route](original, small_dataset)
        _assert_one_buffer(copied)
        # Routes that carry parameters only get the twin's accumulators,
        # written through the copy's views.
        for name, acc in twin.optimizer._accumulators.items():
            copied.optimizer._accumulators[name][...] = acc
        assert _state_bytes(copied) == _state_bytes(twin)
        before = _state_bytes(original)

        for model in (copied, twin):
            BPRTrainer(model, small_dataset, seed=11).run_epoch()

        _assert_one_buffer(copied)
        assert _state_bytes(copied) == _state_bytes(twin)
        assert _state_bytes(copied) != before
        assert _state_bytes(original) == before, "training the copy moved the original"

    @pytest.mark.parametrize("optimizer, memory", [("adagrad", 39_552), ("sgd", 19_776)])
    def test_state_keys_and_memory_are_unchanged(self, small_dataset, optimizer, memory):
        """Checkpoints and the cluster simulator read these; the values
        are the ones the per-table arrays gave."""
        params = BPRHyperParams(n_factors=8, learning_rate=0.08, seed=3, optimizer=optimizer)
        model = BPRModel(small_dataset.catalog, small_dataset.taxonomy, params)
        tables = ["item", "context", "bias", "taxonomy", "brand", "price"]
        assert list(model.get_state()) == tables
        assert list(optimizer_state(model.optimizer)) == (
            tables if optimizer == "adagrad" else []
        )
        assert model.memory_bytes() == memory
        shapes = {name: array.shape for name, array in model.get_state().items()}
        assert shapes == {
            "item": (120, 8),
            "context": (120, 8),
            "bias": (120,),
            "taxonomy": (40, 8),
            "brand": (6, 8),
            "price": (8, 8),
        }


class TestRecommenderInterface:
    def test_recommend_excludes_context(self, trained_model):
        context = ctx(10, 11)
        recs = trained_model.recommend(context, k=20)
        rec_items = {r.item_index for r in recs}
        assert 10 not in rec_items and 11 not in rec_items

    def test_recommend_sorted_desc(self, trained_model):
        recs = trained_model.recommend(ctx(4), k=10)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_respects_candidates(self, trained_model):
        pool = [1, 2, 3, 4, 5]
        recs = trained_model.recommend(ctx(50), k=3, candidates=pool)
        assert all(r.item_index in pool for r in recs)

    def test_rank_of_consistency(self, trained_model):
        """rank_of equals the position in the full score ordering."""
        context = ctx(7, 8)
        scores = trained_model.score_all(context)
        target = 33
        expected = int(np.sum(scores >= scores[target]))
        assert trained_model.rank_of(context, target) == expected

    def test_rank_of_missing_target_rejected(self, trained_model):
        with pytest.raises(ValueError):
            trained_model.rank_of(ctx(1), 5, candidates=[1, 2, 3])

    def test_score_items_empty_pool(self, trained_model):
        """Regression: an empty candidate pool must score to an empty
        array, not crash in np.stack."""
        scores = trained_model.score_items(ctx(1, 2), [])
        assert isinstance(scores, np.ndarray)
        assert scores.shape == (0,)
        assert scores.dtype == np.float64

    def test_recommend_with_fully_excluded_pool(self, trained_model):
        """All candidates in the context -> empty recommendation list."""
        assert trained_model.recommend(ctx(1, 2), candidates=[1, 2]) == []
