"""The request-time recommendation path.

Serving-time computation is deliberately trivial (section II-A): look up
the precomputed recommendations for the context's recent items, merge
with recency weights, drop items the user has already touched, return the
top K.  No model evaluation happens here — new users work immediately
because everything is keyed by item, not user.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.models.bpr import EVENT_CONTEXT_WEIGHT
from repro.serving.store import RecommendationStore

#: How many recent context items contribute lookups per request.
DEFAULT_CONTEXT_LOOKUPS = 3

#: :data:`EVENT_CONTEXT_WEIGHT` keyed by event code (an ``EventType`` and
#: its bare ``int`` find the same weight); a code with no weight is absent.
_CONTEXT_WEIGHTS: Dict[int, float] = {
    int(event): float(weight) for event, weight in EVENT_CONTEXT_WEIGHT.items()
}


class ServedRecommendation(NamedTuple):
    """One recommendation as returned to the frontend (a plain tuple)."""

    item_index: int
    score: float
    source_item: int


#: Builds a row from a ready tuple, skipping the NamedTuple's Python
#: ``__new__``: the blend builds its ``k`` survivors this way.
_new_row = tuple.__new__


def blend_context_lookups(
    recent: Sequence[Tuple[int, EventType]],
    recs_for: Callable[[int], Iterable[ScoredItem]],
    recency_decay: float,
    seen: Set[int],
    k: int,
) -> List[ServedRecommendation]:
    """Merge per-item lookups into one ranked list (the serving blend).

    ``recent`` is the context's most recent ``(item, event)`` pairs,
    oldest first; each contributes the lookup ``recs_for(item)``, its
    scores weighted by recency decay and the event's context strength.
    Items in ``seen`` are dropped; on collisions the strictly stronger
    blended score wins (a tie keeps the more recent lookup's source).  An
    action whose event has no context weight (not an
    :class:`~repro.data.events.EventType` code) makes no lookup and keeps
    its age, so the actions before it decay as they would with it.
    Shared by the in-process :class:`RecommendationServer` and the
    online :class:`~repro.serving.frontend.ServingFrontend`, so both
    tiers rank identically given the same lookups.

    Candidates are ranked as plain ``(-score, item, source)`` tuples;
    only the ``k`` survivors become rows (none if ``k <= 0``).
    """
    best: Dict[int, Tuple[float, int]] = {}
    for age, (item, event) in enumerate(reversed(recent)):
        strength = _CONTEXT_WEIGHTS.get(event)
        if strength is None:
            continue
        weight = (recency_decay ** age) * strength
        for candidate, score in recs_for(item):
            if candidate in seen:
                continue
            blended = weight * score
            existing = best.get(candidate)
            if existing is None or blended > existing[0]:
                best[candidate] = (blended, item)
    if k <= 0:
        return []
    ranked = sorted([
        (-blended, candidate, source)
        for candidate, (blended, source) in best.items()
    ])
    return [
        _new_row(ServedRecommendation, (candidate, -negated, source))
        for negated, candidate, source in ranked[:k]
    ]


class RecommendationServer:
    """Merges precomputed per-item recommendations for a live context.

    The in-process read API over a :class:`RecommendationStore`: whoever
    wants a page straight from a published store builds one over it
    (``RecommendationServer(service.substitutes_store)``).  The tier that
    serves traffic is :class:`~repro.serving.frontend.ServingFrontend`,
    whose fresh pages this class is the oracle for.
    """

    def __init__(
        self,
        store: RecommendationStore,
        context_lookups: int = DEFAULT_CONTEXT_LOOKUPS,
        recency_decay: float = 0.7,
    ):
        self.store = store
        self.context_lookups = context_lookups
        self.recency_decay = recency_decay

    def recommend(
        self,
        retailer_id: str,
        context: UserContext,
        k: int = 10,
    ) -> List[ServedRecommendation]:
        """Top-``k`` merged recommendations for a context.

        The most recent ``context_lookups`` context items each contribute
        their precomputed list; scores are blended with recency decay and
        the context event's strength, and already-seen items are dropped.
        ``k <= 0`` is an empty page (a negative ``k`` must not slice from
        the wrong end).
        """
        if len(context) == 0 or k <= 0:
            return []
        recent = list(zip(context.item_indices, context.events))[-self.context_lookups :]
        return blend_context_lookups(
            recent,
            lambda item: self.store.lookup(retailer_id, item),
            self.recency_decay,
            set(context.item_indices),
            k,
        )
