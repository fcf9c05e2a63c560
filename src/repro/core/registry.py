"""The model registry: per-retailer models, metrics, and isolation.

Sigmund "guarantees ... completely separating the data and models for
each of the retailers" (section I).  The registry is where that guarantee
is enforced: every read requires the caller to name the retailer it is
acting for, and any mismatch between the requested retailer and the
artifact raises :class:`IsolationError` instead of returning data.

The registry also keeps each retailer's latest training day so the
incremental sweep can pick the top-K configurations and warm-start from
their parameters (section III-C3); older days leave it once a run has
trained the retailer again (:meth:`ModelRegistry.keep_latest_day`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import OutputConfigRecord
from repro.exceptions import IsolationError, ModelNotTrainedError
from repro.models.bpr import BPRModel


@dataclass
class TrainedModel:
    """A trained model plus the output config record that produced it.

    ``model`` is any pipeline-trained recommender carrying a
    ``retailer_id`` — BPR by default, WALS when the config's
    ``model_kind`` selected the least-squares substitute.
    """

    model: "BPRModel"
    output: OutputConfigRecord

    @property
    def retailer_id(self) -> str:
        return self.output.retailer_id

    @property
    def model_number(self) -> int:
        return self.output.config.model_number

    @property
    def map_at_10(self) -> float:
        return self.output.map_at_10


class ModelRegistry:
    """Versioned store of trained models, strictly namespaced by retailer."""

    def __init__(self) -> None:
        self._models: Dict[str, Dict[int, TrainedModel]] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def publish(self, entry: TrainedModel) -> None:
        """Store one trained model under its retailer and model number."""
        if entry.model.retailer_id != entry.retailer_id:
            raise IsolationError(
                f"model trained for {entry.model.retailer_id!r} cannot be "
                f"published under {entry.retailer_id!r}"
            )
        retailer_models = self._models.setdefault(entry.retailer_id, {})
        retailer_models[entry.model_number] = entry

    def keep_latest_day(self, retailer_id: str) -> None:
        """Drop the retailer's models trained before its latest day.

        An older entry was trained on an older snapshot of the catalog
        (and evaluated on an older holdout), so its metric does not
        compete with today's and nothing reads it again.  Called once a
        training run is over, never between its jobs: a later job of the
        same run still warm-starts from yesterday's model of its number.
        """
        models = self._models.get(retailer_id)
        if not models:
            return
        latest = max(m.output.config.day for m in models.values())
        for number in [n for n, m in models.items() if m.output.config.day < latest]:
            del models[number]

    def drop_retailer(self, retailer_id: str) -> None:
        """Remove every artifact of one retailer (off-boarding / ToS resets)."""
        self._models.pop(retailer_id, None)

    # ------------------------------------------------------------------
    # Reads (isolation-checked)
    # ------------------------------------------------------------------
    def _retailer_models(self, retailer_id: str) -> Dict[int, TrainedModel]:
        models = self._models.get(retailer_id)
        if models is None:
            raise ModelNotTrainedError(f"no models for retailer {retailer_id!r}")
        return models

    def get(self, retailer_id: str, model_number: int) -> TrainedModel:
        """Fetch one model; the retailer id must own that model number."""
        entry = self._retailer_models(retailer_id).get(model_number)
        if entry is None:
            raise ModelNotTrainedError(
                f"retailer {retailer_id!r} has no model {model_number}"
            )
        if entry.retailer_id != retailer_id:  # pragma: no cover - defence in depth
            raise IsolationError(
                f"registry corruption: model {model_number} belongs to "
                f"{entry.retailer_id!r}"
            )
        return entry

    def best(self, retailer_id: str) -> TrainedModel:
        """The retailer's best model by MAP@10 (model selection output)."""
        ranked = self.top_k(retailer_id, k=1)
        return ranked[0]

    def top_k(self, retailer_id: str, k: int = 3) -> List[TrainedModel]:
        """Top-K models by MAP@10 — what the incremental sweep retrains."""
        models = list(self._retailer_models(retailer_id).values())
        if not models:
            raise ModelNotTrainedError(f"no models for retailer {retailer_id!r}")
        models.sort(key=lambda m: (-m.map_at_10, m.model_number))
        return models[: max(1, k)]

    def has_models(self, retailer_id: str) -> bool:
        return bool(self._models.get(retailer_id))

    def retailers(self) -> List[str]:
        return sorted(self._models)

    def model_count(self, retailer_id: Optional[str] = None) -> int:
        if retailer_id is not None:
            return len(self._models.get(retailer_id, {}))
        return sum(len(models) for models in self._models.values())

    def assert_isolated(self, acting_for: str, artifact_retailer: str) -> None:
        """Guard helper used by pipelines before touching any artifact."""
        if acting_for != artifact_retailer:
            raise IsolationError(
                f"pipeline acting for {acting_for!r} attempted to touch an "
                f"artifact of {artifact_retailer!r}"
            )
