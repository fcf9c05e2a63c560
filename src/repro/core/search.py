"""Beyond grid search: random search and successive halving (§III-C1).

The paper: "Bayesian methods to automatically tune hyper-parameters have
been proposed ... Services like Vizier hold promise to improve on simple
grid-search based techniques — both for managing trials more easily and
for finding better models.  If we were to rebuild the hyperparameter
search today, we would design it to integrate deeply with such a
service."

This module is that rebuild, scoped to what a self-contained library can
ship: a continuous :class:`SearchSpace`, **random search** (the
strongest simple baseline), and **successive halving** — train many
cheap candidates briefly, keep the top ``1/eta``, extend their training
(warm-started, like Sigmund's incremental runs), repeat.  Both return
ordinary :class:`~repro.core.config.OutputConfigRecord` objects so the
rest of the pipeline (registry, inference) is agnostic to how the model
was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.training import TrainerSettings, train_config
from repro.data.datasets import RetailerDataset
from repro.exceptions import ConfigError
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.obs.metrics import NULL_METRICS
from repro.rng import derive_seed, make_rng


@dataclass(frozen=True)
class SearchSpace:
    """A continuous/discrete hyper-parameter space for one retailer."""

    factor_choices: Tuple[int, ...] = (4, 8, 16, 32, 64)
    learning_rate_range: Tuple[float, float] = (0.005, 0.5)
    reg_item_range: Tuple[float, float] = (1e-4, 1.0)
    reg_context_range: Tuple[float, float] = (1e-4, 1.0)
    taxonomy_choices: Tuple[bool, ...] = (True, False)
    brand_choices: Tuple[bool, ...] = (True, False)
    price_choices: Tuple[bool, ...] = (True, False)
    context_decay_range: Tuple[float, float] = (0.6, 0.99)

    def __post_init__(self) -> None:
        for low, high in (
            self.learning_rate_range,
            self.reg_item_range,
            self.reg_context_range,
            self.context_decay_range,
        ):
            if not 0 < low <= high:
                raise ConfigError("ranges must satisfy 0 < low <= high")
        if not self.factor_choices:
            raise ConfigError("factor_choices must be non-empty")

    def sample(self, rng: np.random.Generator, seed: int) -> BPRHyperParams:
        """Draw one configuration (log-uniform over scale parameters)."""

        def log_uniform(low: float, high: float) -> float:
            return float(np.exp(rng.uniform(np.log(low), np.log(high))))

        return BPRHyperParams(
            n_factors=int(rng.choice(self.factor_choices)),
            learning_rate=log_uniform(*self.learning_rate_range),
            reg_item=log_uniform(*self.reg_item_range),
            reg_context=log_uniform(*self.reg_context_range),
            use_taxonomy=bool(rng.choice(self.taxonomy_choices)),
            use_brand=bool(rng.choice(self.brand_choices)),
            use_price=bool(rng.choice(self.price_choices)),
            context_decay=float(
                rng.uniform(*self.context_decay_range)
            ),
            seed=seed,
        )


@dataclass
class SearchOutcome:
    """The result of one search run, plus its total compute."""

    outputs: List[OutputConfigRecord] = field(default_factory=list)
    total_epochs: int = 0

    @property
    def best(self) -> OutputConfigRecord:
        if not self.outputs:
            raise ConfigError("search produced no outputs")
        return max(
            self.outputs, key=lambda o: (o.map_at_10, -o.config.model_number)
        )


def random_search(
    dataset: RetailerDataset,
    space: SearchSpace = SearchSpace(),
    n_trials: int = 16,
    settings: TrainerSettings = TrainerSettings(),
    seed: int = 0,
    metrics=NULL_METRICS,
) -> SearchOutcome:
    """Train ``n_trials`` independently sampled configurations."""
    rng = make_rng(seed)
    outcome = SearchOutcome()
    for trial in range(n_trials):
        params = space.sample(
            rng, derive_seed(seed, dataset.retailer_id, "rs", trial)
        )
        config = ConfigRecord(dataset.retailer_id, trial, params)
        _, output = train_config(config, dataset, settings, metrics=metrics)
        metrics.counter(
            "search_trials_total",
            retailer=dataset.retailer_id,
            strategy="random",
        ).inc()
        outcome.outputs.append(output)
        outcome.total_epochs += output.epochs_run
    return outcome


def successive_halving(
    dataset: RetailerDataset,
    space: SearchSpace = SearchSpace(),
    n_initial: int = 16,
    eta: int = 2,
    epochs_per_rung: int = 2,
    settings: TrainerSettings = TrainerSettings(),
    seed: int = 0,
    metrics=NULL_METRICS,
) -> SearchOutcome:
    """Successive halving over randomly sampled configurations.

    Rung 0 trains every candidate for ``epochs_per_rung`` epochs; each
    later rung warm-starts the surviving top ``1/eta`` fraction and
    trains them ``epochs_per_rung`` more.  Spends most compute on the
    most promising configs — the budget shape a Vizier-style service
    gives you.
    """
    if n_initial < 1:
        raise ConfigError("n_initial must be >= 1")
    if eta < 2:
        raise ConfigError("eta must be >= 2")
    rng = make_rng(seed)
    outcome = SearchOutcome()

    candidates: List[Tuple[ConfigRecord, Optional[BPRModel]]] = []
    for trial in range(n_initial):
        params = space.sample(
            rng, derive_seed(seed, dataset.retailer_id, "sh", trial)
        )
        candidates.append(
            (ConfigRecord(dataset.retailer_id, trial, params), None)
        )

    rung = 0
    rung_settings = TrainerSettings(
        max_epochs_full=epochs_per_rung,
        max_epochs_incremental=epochs_per_rung,
        convergence_tol=0.0,  # rung budget is exact, not early-stopped
        sampler=settings.sampler,
        seconds_per_sgd_step=settings.seconds_per_sgd_step,
        n_threads=settings.n_threads,
    )
    scored: List[Tuple[OutputConfigRecord, BPRModel]] = []
    while candidates:
        scored = []
        for config, warm_model in candidates:
            rung_config = config.for_day(rung, warm_start=warm_model is not None)
            model, output = train_config(
                rung_config, dataset, rung_settings, warm_model=warm_model,
                metrics=metrics,
            )
            metrics.counter(
                "search_trials_total",
                retailer=dataset.retailer_id,
                strategy="halving",
            ).inc()
            outcome.total_epochs += output.epochs_run
            scored.append((output, model))
        scored.sort(key=lambda pair: -pair[0].map_at_10)
        outcome.outputs.extend(output for output, _ in scored)
        if len(scored) == 1:
            break
        keep = max(1, len(scored) // eta)
        candidates = [
            (output.config, model) for output, model in scored[:keep]
        ]
        rung += 1
    return outcome
