"""Co-view and co-buy counting over user histories.

``cv(i)`` — items co-viewed with ``i`` — counts pairs of items the same
user viewed (any event implies a view; stronger events are views too).
``cb(i)`` — items co-bought with ``i`` — counts pairs the same user
bought (conversion events), with carts included at reduced weight since
conversions alone are extremely sparse.

Counting is windowed per user history so that a pathological user with
thousands of events does not dominate the statistics.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.data.events import EventType, Interaction
from repro.data.sessions import build_user_histories

#: Only pair items within this many steps of each other in one history.
DEFAULT_PAIR_WINDOW = 20

#: Cart events count toward co-buy at this weight (conversions count 1.0).
CART_BUY_WEIGHT = 0.5


class CoOccurrenceCounts:
    """Symmetric co-view / co-buy counts plus per-item marginals."""

    def __init__(self, n_items: int):
        self.n_items = n_items
        self._co_view: Dict[int, Counter] = defaultdict(Counter)
        self._co_buy: Dict[int, Counter] = defaultdict(Counter)
        self.view_counts: Counter = Counter()
        self.buy_counts: Counter = Counter()
        self.total_view_pairs = 0.0
        self.total_buy_pairs = 0.0
        # Every item's neighbours, strongest first, as one CSR per table
        # (``_Ranking``): built on the first query, dropped whenever new
        # histories are counted.
        self._ranked: Dict[str, _Ranking] = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def from_interactions(
        cls,
        n_items: int,
        interactions: Iterable[Interaction],
        pair_window: int = DEFAULT_PAIR_WINDOW,
    ) -> "CoOccurrenceCounts":
        """Count co-occurrences across every user's (windowed) history."""
        counts = cls(n_items)
        histories = build_user_histories(interactions)
        for history in histories.values():
            counts._add_history(history, pair_window)
        return counts

    def _add_history(self, history: List[Interaction], pair_window: int) -> None:
        self._ranked.clear()
        viewed = [interaction.item_index for interaction in history]
        bought: List[Tuple[int, float]] = []
        for interaction in history:
            if interaction.event == EventType.CONVERSION:
                bought.append((interaction.item_index, 1.0))
            elif interaction.event == EventType.CART:
                bought.append((interaction.item_index, CART_BUY_WEIGHT))
        for item in viewed:
            self.view_counts[item] += 1
        for item, weight in bought:
            self.buy_counts[item] += weight
        self._add_pairs(self._co_view, [(v, 1.0) for v in viewed], pair_window, "view")
        self._add_pairs(self._co_buy, bought, pair_window, "buy")

    def _add_pairs(
        self,
        table: Dict[int, Counter],
        weighted_items: List[Tuple[int, float]],
        pair_window: int,
        kind: str,
    ) -> None:
        for position, (item_a, weight_a) in enumerate(weighted_items):
            stop = min(len(weighted_items), position + 1 + pair_window)
            for item_b, weight_b in weighted_items[position + 1 : stop]:
                if item_a == item_b:
                    continue
                weight = weight_a * weight_b
                table[item_a][item_b] += weight
                table[item_b][item_a] += weight
                if kind == "view":
                    self.total_view_pairs += weight
                else:
                    self.total_buy_pairs += weight

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def co_viewed(self, item_index: int) -> Counter:
        """All items co-viewed with ``item_index`` and their pair counts."""
        return self._co_view.get(item_index, Counter())

    def co_bought(self, item_index: int) -> Counter:
        """All items co-bought with ``item_index`` and their pair counts."""
        return self._co_buy.get(item_index, Counter())

    def top_co_viewed(self, item_index: int, k: int = 20) -> List[int]:
        """The ``cv(i)`` set, strongest pairs first."""
        return self._ranking("view").row(item_index)[:k].tolist()

    def top_co_bought(self, item_index: int, k: int = 20) -> List[int]:
        """The ``cb(i)`` set, strongest pairs first."""
        return self._ranking("buy").row(item_index)[:k].tolist()

    def top_co_viewed_block(self, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`top_co_viewed` of a block as ``(rows, neighbours)`` pairs:
        row-major, strongest first within a row."""
        return self._ranking("view").block(items, k)

    def top_co_bought_block(self, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`top_co_bought` of a block, like :meth:`top_co_viewed_block`."""
        return self._ranking("buy").block(items, k)

    def _ranking(self, kind: str) -> "_Ranking":
        ranking = self._ranked.get(kind)
        if ranking is None:
            table = self._co_view if kind == "view" else self._co_buy
            ranking = self._ranked[kind] = _Ranking(table, self.n_items)
        return ranking

    def strong_co_occurrence_sets(self, min_count: float = 2.0) -> Dict[int, Set[int]]:
        """Items too strongly related to ever use as negatives (section III-B3)."""
        strong: Dict[int, Set[int]] = {}
        for item, neighbours in self._co_view.items():
            chosen = {other for other, count in neighbours.items() if count >= min_count}
            if chosen:
                strong[item] = chosen
        for item, neighbours in self._co_buy.items():
            chosen = {other for other, count in neighbours.items() if count >= min_count}
            if chosen:
                strong.setdefault(item, set()).update(chosen)
        return strong


class _Ranking:
    """One co-occurrence table's neighbour lists, strongest first, as CSR:
    item ``i``'s are ``neighbours[bounds[i]:bounds[i + 1]]``.

    Within an item, equal counts keep their insertion order — what
    ``sorted(..., key=count, reverse=True)`` and ``Counter.most_common``
    give — because ``np.lexsort`` is stable.
    """

    __slots__ = ("neighbours", "bounds")

    def __init__(self, table: Dict[int, Counter], n_items: int):
        owners = np.fromiter(table, dtype=np.int64, count=len(table))
        sizes = np.fromiter(map(len, table.values()), dtype=np.int64, count=len(table))
        total = int(sizes.sum())
        neighbours = np.fromiter(
            chain.from_iterable(table.values()), dtype=np.int64, count=total
        )
        strengths = np.fromiter(
            chain.from_iterable(c.values() for c in table.values()),
            dtype=np.float64,
            count=total,
        )
        order = np.lexsort((-strengths, np.repeat(owners, sizes)))
        self.neighbours = neighbours[order]
        width = max(n_items, int(owners.max(initial=-1)) + 1)
        self.bounds = np.zeros(width + 1, dtype=np.int64)
        per_item = np.bincount(owners, weights=sizes, minlength=width).astype(np.int64)
        np.cumsum(per_item, out=self.bounds[1:])

    def row(self, item: int) -> np.ndarray:
        if not 0 <= item < self.bounds.size - 1:
            return self.neighbours[:0]
        return self.neighbours[self.bounds[item] : self.bounds[item + 1]]

    def block(self, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        # An item past the table clips to the last bound: no neighbours.
        starts = self.bounds.take(items, mode="clip")
        sizes = np.minimum(self.bounds.take(items + 1, mode="clip") - starts, max(k, 0))
        rows = np.arange(items.size).repeat(sizes)
        ends = sizes.cumsum()
        at = (starts - ends + sizes).repeat(sizes) + np.arange(rows.size)
        return rows, self.neighbours[at]
