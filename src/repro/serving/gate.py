"""The publish gate: validate every table before it reaches the store.

Production recommenders treat the model-publish step as the highest-risk
moment of the pipeline — a plausible-looking but broken table silently
degrades every user session until someone notices (cf. the eBay
production system's validation-gated index swaps).  Sigmund's batch
stores make the defence cheap: because loads are atomic and versioned,
rejecting a bad batch simply keeps the last-good table serving.

Checks, per retailer table:

1. **non-empty / coverage** — the table must recommend for at least
   ``min_coverage`` of the catalog; an empty or near-empty table means
   the inference pipeline silently lost its inputs.
2. **finite scores** — any NaN or infinite score is an immediate reject
   (a diverged model must never reach serving); so is any recommended
   item index outside the catalog.
3. **version monotonicity** — the batch must be strictly newer than the
   version currently served (a stale replay must not clobber freshness).
4. **MAP sanity** — today's model-selection MAP must not have collapsed
   relative to the previous run's; a drop beyond ``max_map_drop`` keeps
   yesterday's table serving and raises an alert instead.

A rejection is surfaced through ``QualityMonitor.record_failure`` by the
service layer and shows up as ``stale`` in the freshness report — never
as a half-published or silently broken table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.models.base import ScoredItem
from repro.obs.metrics import NULL_METRICS
from repro.serving.store import RecommendationStore, as_table

#: Fraction of the catalog that must have at least one recommendation.
#: Deliberately permissive: sparse long-tail retailers legitimately cover
#: little; the gate exists to catch *collapse*, not to tune quality.
DEFAULT_MIN_COVERAGE = 0.02

#: Maximum tolerated relative MAP drop vs the previous run.  Far looser
#: than the monitoring alert threshold (0.30): an alert asks a human to
#: look, the gate unilaterally blocks a publish — it fires only on
#: collapse-grade regressions.
DEFAULT_MAX_MAP_DROP = 0.90


@dataclass
class GateDecision:
    """The outcome of validating one retailer's candidate table."""

    retailer_id: str
    accepted: bool
    #: Human-readable reason per failed check (empty when accepted).
    reasons: List[str] = field(default_factory=list)

    @property
    def reason(self) -> str:
        return "; ".join(self.reasons)


class PublishGate:
    """Validates candidate tables against the store they would replace."""

    def __init__(
        self,
        min_coverage: float = DEFAULT_MIN_COVERAGE,
        max_map_drop: float = DEFAULT_MAX_MAP_DROP,
        metrics=NULL_METRICS,
    ):
        if not 0.0 <= min_coverage <= 1.0:
            raise ValueError("min_coverage must be in [0, 1]")
        if not 0.0 < max_map_drop <= 1.0:
            raise ValueError("max_map_drop must be in (0, 1]")
        self.min_coverage = min_coverage
        self.max_map_drop = max_map_drop
        #: Process-level registry: validations accumulate across days, so
        #: these counters are not part of the crash-parity contract.
        self.metrics = metrics
        #: Every rejection, for dashboards/tests: (retailer_id, reason).
        self.rejections: List[GateDecision] = []

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        retailer_id: str,
        recommendations: Mapping[int, Sequence[ScoredItem]],
        version: int,
        store: RecommendationStore,
        n_items: int,
        current_map: Optional[float] = None,
        previous_map: Optional[float] = None,
        allow_empty: bool = False,
    ) -> GateDecision:
        """Check one candidate table; never mutates the store.

        ``allow_empty`` relaxes the coverage checks for surfaces where an
        empty table is a legitimate state — e.g. the purchase-based
        complements surface of a retailer whose log has no conversion
        co-occurrence yet.  Score, catalog and version checks still apply.
        """
        reasons: List[str] = []
        table = as_table(recommendations)
        rows = table.rows

        covered = table.items_covered
        if covered == 0:
            if not allow_empty:
                reasons.append("empty table: no item has any recommendation")
        elif n_items > 0 and not allow_empty and covered / n_items < self.min_coverage:
            reasons.append(
                f"coverage {covered}/{n_items} below minimum "
                f"{self.min_coverage:.0%}"
            )

        bad_scores = int(np.count_nonzero(~np.isfinite(rows.scores)))
        if bad_scores:
            reasons.append(f"{bad_scores} non-finite recommendation scores")

        if n_items > 0:
            outside = int(
                np.count_nonzero((rows.items < 0) | (rows.items >= n_items))
            )
            if outside:
                reasons.append(f"{outside} recommendations outside the catalog")

        served = store.version_of(retailer_id)
        if served is not None and version <= served:
            reasons.append(
                f"version {version} is not newer than served version {served}"
            )

        if (
            current_map is not None
            and previous_map is not None
            and previous_map > 0
        ):
            drop = (previous_map - current_map) / previous_map
            if drop >= self.max_map_drop:
                reasons.append(
                    f"MAP collapsed {drop:.0%} vs previous run "
                    f"({previous_map:.4f} -> {current_map:.4f})"
                )

        decision = GateDecision(
            retailer_id=retailer_id, accepted=not reasons, reasons=reasons
        )
        if not decision.accepted:
            self.rejections.append(decision)
        self.metrics.counter(
            "gate_validations_total",
            outcome="accepted" if decision.accepted else "rejected",
        ).inc()
        return decision
