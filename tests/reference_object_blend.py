"""``blend_context_lookups`` as ``src/`` held it until issue 26, kept as
an oracle.

Test-only.  The blend now keeps ``item -> (blended, source)`` and ranks
plain ``(-score, item, source)`` tuples, building a
``ServedRecommendation`` for the ``k`` survivors only; what it replaced —
a frozen ``ServedRecommendation`` built for every candidate that took a
slot in ``merged``, then a keyed ``sorted`` over them — is copied here
statement for statement, so the differential tests still have the
object-at-a-time blend written out to compare against, field for field
with scores bit-equal.

One thing differs on purpose: this file slices ``ranked[:k]``, so a
negative ``k`` returns all but the last ``-k`` items.  The blend under
test answers any ``k <= 0`` with an empty list; the differential tests
compare ``k >= 0`` only.

Like ``tests/reference_pair_gather_search.py``: do not speed this up or
make it follow the code under test.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.data.events import EventType
from repro.models.base import ScoredItem
from repro.models.bpr import EVENT_CONTEXT_WEIGHT
from repro.serving.server import ServedRecommendation


def object_blend_context_lookups(
    recent: Sequence[Tuple[int, EventType]],
    recs_for: Callable[[int], Iterable[ScoredItem]],
    recency_decay: float,
    seen: Set[int],
    k: int,
) -> List[ServedRecommendation]:
    """Merge per-item lookups into one ranked list (the serving blend)."""
    merged: Dict[int, ServedRecommendation] = {}
    for age, (item, event) in enumerate(reversed(list(recent))):
        weight = (recency_decay ** age) * float(
            EVENT_CONTEXT_WEIGHT[EventType(event)]
        )
        for scored in recs_for(item):
            if scored.item_index in seen:
                continue
            blended = weight * scored.score
            existing = merged.get(scored.item_index)
            if existing is None or blended > existing.score:
                merged[scored.item_index] = ServedRecommendation(
                    item_index=scored.item_index,
                    score=blended,
                    source_item=item,
                )
    ranked = sorted(merged.values(), key=lambda rec: (-rec.score, rec.item_index))
    return ranked[:k]
