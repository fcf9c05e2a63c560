"""Tests for random search and successive halving."""

from __future__ import annotations

import pytest

from repro.core.search import (
    SearchSpace,
    random_search,
    successive_halving,
)
from repro.core.training import TrainerSettings
from repro.exceptions import ConfigError
from repro.rng import make_rng

FAST = TrainerSettings(max_epochs_full=2, max_epochs_incremental=2,
                       sampler="uniform")

SMALL_SPACE = SearchSpace(
    factor_choices=(4, 8),
    learning_rate_range=(0.02, 0.2),
    reg_item_range=(0.001, 0.1),
    reg_context_range=(0.001, 0.1),
    taxonomy_choices=(True,),
    brand_choices=(True,),
    price_choices=(True,),
)


class TestSearchSpace:
    def test_sample_within_bounds(self):
        rng = make_rng(1)
        for trial in range(50):
            params = SMALL_SPACE.sample(rng, seed=trial)
            assert params.n_factors in (4, 8)
            assert 0.02 <= params.learning_rate <= 0.2
            assert 0.001 <= params.reg_item <= 0.1
            assert 0.6 <= params.context_decay <= 0.99

    def test_log_uniform_spreads_orders_of_magnitude(self):
        space = SearchSpace(reg_item_range=(1e-4, 1.0))
        rng = make_rng(2)
        draws = [space.sample(rng, seed=i).reg_item for i in range(200)]
        assert min(draws) < 1e-3
        assert max(draws) > 0.1

    def test_invalid_ranges(self):
        with pytest.raises(ConfigError):
            SearchSpace(learning_rate_range=(0.0, 0.1))
        with pytest.raises(ConfigError):
            SearchSpace(factor_choices=())

    def test_samples_deterministic_per_rng(self):
        a = SMALL_SPACE.sample(make_rng(7), seed=0)
        b = SMALL_SPACE.sample(make_rng(7), seed=0)
        assert a == b


class TestRandomSearch:
    def test_runs_all_trials(self, tiny_dataset):
        outcome = random_search(
            tiny_dataset, SMALL_SPACE, n_trials=4, settings=FAST, seed=1
        )
        assert len(outcome.outputs) == 4
        assert outcome.total_epochs >= 4
        assert 0.0 <= outcome.best.map_at_10 <= 1.0

    def test_best_is_argmax(self, tiny_dataset):
        outcome = random_search(
            tiny_dataset, SMALL_SPACE, n_trials=5, settings=FAST, seed=2
        )
        assert outcome.best.map_at_10 == max(o.map_at_10 for o in outcome.outputs)

    def test_distinct_configs(self, tiny_dataset):
        outcome = random_search(
            tiny_dataset, SMALL_SPACE, n_trials=5, settings=FAST, seed=3
        )
        rates = {o.config.params.learning_rate for o in outcome.outputs}
        assert len(rates) == 5


class TestSuccessiveHalving:
    def test_rung_structure(self, tiny_dataset):
        outcome = successive_halving(
            tiny_dataset, SMALL_SPACE, n_initial=4, eta=2,
            epochs_per_rung=1, settings=FAST, seed=4,
        )
        # Rungs of 4, 2, 1 candidates -> 7 trained outputs total.
        assert len(outcome.outputs) == 7
        assert outcome.total_epochs == 7

    def test_budget_concentrates_on_survivors(self, tiny_dataset):
        outcome = successive_halving(
            tiny_dataset, SMALL_SPACE, n_initial=8, eta=2,
            epochs_per_rung=1, settings=FAST, seed=5,
        )
        # 8 + 4 + 2 + 1 = 15 << 8 * 4 epochs of full training.
        assert outcome.total_epochs == 15

    def test_single_candidate(self, tiny_dataset):
        outcome = successive_halving(
            tiny_dataset, SMALL_SPACE, n_initial=1, eta=2,
            epochs_per_rung=1, settings=FAST, seed=6,
        )
        assert len(outcome.outputs) == 1

    def test_validation(self, tiny_dataset):
        with pytest.raises(ConfigError):
            successive_halving(tiny_dataset, n_initial=0)
        with pytest.raises(ConfigError):
            successive_halving(tiny_dataset, eta=1)

    def test_halving_beats_same_budget_random_often(self, small_dataset):
        """Not a guarantee, but with a shared budget the adaptive search
        should be at least competitive with random search."""
        halving = successive_halving(
            small_dataset, SMALL_SPACE, n_initial=6, eta=2,
            epochs_per_rung=1, settings=FAST, seed=7,
        )
        budget_trials = max(1, halving.total_epochs // FAST.max_epochs_full)
        random_outcome = random_search(
            small_dataset, SMALL_SPACE, n_trials=budget_trials,
            settings=FAST, seed=7,
        )
        assert halving.best.map_at_10 >= random_outcome.best.map_at_10 * 0.7


def model_seeds(outcome):
    return [output.config.params.seed for output in outcome.outputs]


class TestSearchSeed:
    """A search's ``seed`` reaches every candidate's model init."""

    @pytest.mark.parametrize(
        "search",
        [
            lambda data, seed: random_search(
                data, SMALL_SPACE, n_trials=2, settings=FAST, seed=seed
            ),
            lambda data, seed: successive_halving(
                data, SMALL_SPACE, n_initial=2, eta=2, epochs_per_rung=1,
                settings=FAST, seed=seed,
            ),
        ],
        ids=["random", "halving"],
    )
    def test_seed_reaches_model_init(self, tiny_dataset, search):
        first = model_seeds(search(tiny_dataset, 1))
        assert model_seeds(search(tiny_dataset, 1)) == first
        assert set(model_seeds(search(tiny_dataset, 2))).isdisjoint(first)

    @pytest.mark.parametrize(
        "search",
        [
            lambda data: random_search(
                data, SMALL_SPACE, n_trials=4, settings=FAST, seed=3
            ),
            lambda data: successive_halving(
                data, SMALL_SPACE, n_initial=4, eta=2, epochs_per_rung=1,
                settings=FAST, seed=3,
            ),
        ],
        ids=["random", "halving"],
    )
    def test_every_trial_inits_its_own_model(self, tiny_dataset, search):
        """Trials of one search never share an init; a rung keeps its trial's."""
        by_trial = {}
        for output in search(tiny_dataset).outputs:
            number = output.config.model_number
            seed = by_trial.setdefault(number, output.config.params.seed)
            assert output.config.params.seed == seed
        assert sorted(by_trial) == [0, 1, 2, 3]
        assert len(set(by_trial.values())) == 4

    def test_strategies_draw_from_separate_streams(self, tiny_dataset):
        """One seed does not give random search and halving the same inits."""
        random_seeds = model_seeds(
            random_search(
                tiny_dataset, SMALL_SPACE, n_trials=2, settings=FAST, seed=5
            )
        )
        halving_seeds = model_seeds(
            successive_halving(
                tiny_dataset, SMALL_SPACE, n_initial=2, eta=2,
                epochs_per_rung=1, settings=FAST, seed=5,
            )
        )
        assert set(random_seeds).isdisjoint(halving_seeds)
