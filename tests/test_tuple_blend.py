"""The serving blend ranks plain tuples; the object-per-candidate blend it
replaced is frozen in ``tests/reference_object_blend.py``.

Pinned here: for any lookups — duplicate candidates within and across
lookups, exact ties in blended score, negative scores, ``0.0`` / ``-0.0``,
NaN, seen items, empty lookups — and any ``k`` in 0..15, the page equals
the oracle's field for field, scores bit for bit, and the lookups are made
in the same order.  A negative ``k`` is an empty page on every path.
"""

from __future__ import annotations

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.events import EventType
from repro.models.base import ScoredItem
from repro.serving.server import blend_context_lookups
from tests.reference_object_blend import object_blend_context_lookups

ITEMS = range(8)
#: Few distinct values, so exact ties are common: with decay 0.5 and the
#: 1 / 1.5 / 2 / 2.5 event weights, 2.0 x 1.0 and 1.0 x 2.0 collide.
scores = st.one_of(
    st.sampled_from([2.0, 1.0, 0.5, 0.0, -0.0, -1.0, -2.5, math.nan, 3.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
rows = st.lists(st.builds(ScoredItem, st.sampled_from(ITEMS), scores), max_size=6)
lookups = st.dictionaries(st.sampled_from(ITEMS), rows, max_size=len(ITEMS))
recents = st.lists(
    st.tuples(st.sampled_from(ITEMS), st.sampled_from(list(EventType))),
    max_size=4,
)


def fields(page):
    """Every field of a page, scores as their IEEE-754 bytes."""
    return [
        (rec.item_index, rec.source_item, struct.pack("<d", rec.score))
        for rec in page
    ]


def blend_with(blend, recent, table, decay, seen, k):
    calls = []

    def recs_for(item):
        calls.append(item)
        return tuple(table.get(item, ()))

    return blend(recent, recs_for, decay, seen, k), calls


@given(
    recent=recents,
    table=lookups,
    decay=st.sampled_from([1.0, 0.7, 0.5]),
    seen=st.sets(st.sampled_from(ITEMS)),
    k=st.integers(0, 15),
)
@settings(max_examples=400, deadline=None)
def test_blend_equals_the_object_blend(recent, table, decay, seen, k):
    page, calls = blend_with(blend_context_lookups, recent, table, decay, seen, k)
    oracle, oracle_calls = blend_with(
        object_blend_context_lookups, recent, table, decay, seen, k
    )
    assert fields(page) == fields(oracle)
    assert [type(rec) for rec in page] == [type(rec) for rec in oracle]
    assert calls == oracle_calls


def test_a_tie_keeps_the_more_recent_lookup():
    table = {1: (ScoredItem(9, 2.0),), 2: (ScoredItem(9, 1.0),)}
    # Item 2 is the most recent lookup (age 0, CART 2.0 x score 1.0);
    # item 1 is age 1 at decay 1.0 (VIEW 1.0 x score 2.0): both blend 2.0.
    recent = [(1, EventType.VIEW), (2, EventType.CART)]
    page = blend_context_lookups(recent, table.__getitem__, 1.0, set(), 5)
    assert [(r.item_index, r.score, r.source_item) for r in page] == [(9, 2.0, 2)]


class TestNegativeK:
    """Regression: ``ranked[:k]`` with ``k = -1`` returned all candidates
    but the last (the frontend's half is in ``test_serving_frontend``)."""

    def test_blend_answers_an_empty_page_after_the_same_lookups(self):
        table = {item: (ScoredItem(item + 1, 1.0),) for item in ITEMS}
        recent = [(0, EventType.VIEW), (3, EventType.VIEW)]
        for k in (0, -1, -5):
            page, calls = blend_with(
                blend_context_lookups, recent, table, 0.7, set(), k
            )
            assert page == [] and calls == [3, 0]
