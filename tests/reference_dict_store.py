"""The store and the gate's table checks as ``src/`` held them until PR 19.

Test-only.  A published table is now three read-only arrays under sorted
item ids (``repro.serving.store.RecommendationTable``) and the gate vets
it with array operations; what that replaced — a ``dict`` of
``ScoredItem`` lists copied on load and on lookup, and a gate that
walked every recommendation — is kept here statement for statement,
without the metrics plumbing, so the differential tests have the
per-recommendation form to compare against.

Like ``tests/reference_per_row_rank.py``: do not speed this up or make it
follow the code under test.  The one check added since (recommendations
outside the catalog) is written the way the loop would have written it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ServingError
from repro.models.base import ScoredItem


class DictStore:
    """``RecommendationStore`` over ``Dict[int, List[ScoredItem]]``."""

    def __init__(self) -> None:
        self._tables: Dict[str, Tuple[int, Dict[int, List[ScoredItem]]]] = {}
        self._previous: Dict[str, Tuple[int, Dict[int, List[ScoredItem]]]] = {}

    def load_batch(
        self,
        retailer_id: str,
        recommendations: Mapping[int, Sequence[ScoredItem]],
        version: int,
    ) -> None:
        current = self._tables.get(retailer_id)
        if current is not None and version <= current[0]:
            raise ServingError(
                f"stale batch for {retailer_id!r}: version {version} <= "
                f"current {current[0]}"
            )
        table = {int(item): list(recs) for item, recs in recommendations.items()}
        if current is not None:
            self._previous[retailer_id] = current
        self._tables[retailer_id] = (version, table)

    def rollback(self, retailer_id: str) -> int:
        previous = self._previous.pop(retailer_id, None)
        if previous is None:
            raise ServingError(
                f"no last-good table to roll back to for {retailer_id!r}"
            )
        self._tables[retailer_id] = previous
        return previous[0]

    def drop_retailer(self, retailer_id: str) -> None:
        self._tables.pop(retailer_id, None)
        self._previous.pop(retailer_id, None)

    def lookup(self, retailer_id: str, item_index: int) -> List[ScoredItem]:
        table = self._tables.get(retailer_id)
        if table is None:
            raise ServingError(f"no recommendations loaded for {retailer_id!r}")
        recs = table[1].get(int(item_index))
        if recs is None:
            return []
        return list(recs)

    def version_of(self, retailer_id: str) -> Optional[int]:
        table = self._tables.get(retailer_id)
        return table[0] if table is not None else None

    def items_covered(self, retailer_id: str) -> int:
        table = self._tables.get(retailer_id)
        if table is None:
            return 0
        return sum(1 for recs in table[1].values() if recs)


def gate_reasons(
    recommendations: Mapping[int, Sequence[ScoredItem]],
    version: int,
    served: Optional[int],
    n_items: int,
    min_coverage: float,
    allow_empty: bool = False,
) -> List[str]:
    """``PublishGate.validate``'s table and version checks, one
    recommendation at a time (no MAP check: it never read the table)."""
    reasons: List[str] = []

    covered = sum(1 for recs in recommendations.values() if recs)
    if covered == 0:
        if not allow_empty:
            reasons.append("empty table: no item has any recommendation")
    elif n_items > 0 and not allow_empty and covered / n_items < min_coverage:
        reasons.append(
            f"coverage {covered}/{n_items} below minimum {min_coverage:.0%}"
        )

    bad_scores = sum(
        1
        for recs in recommendations.values()
        for rec in recs
        if not math.isfinite(rec.score)
    )
    if bad_scores:
        reasons.append(f"{bad_scores} non-finite recommendation scores")

    if n_items > 0:
        outside = sum(
            1
            for recs in recommendations.values()
            for rec in recs
            if not 0 <= rec.item_index < n_items
        )
        if outside:
            reasons.append(f"{outside} recommendations outside the catalog")

    if served is not None and version <= served:
        reasons.append(
            f"version {version} is not newer than served version {served}"
        )
    return reasons
