"""Retailer catalogs: items with brand, price, and facet metadata.

A catalog is the per-retailer inventory.  Item ids embed the retailer id
(paper section IV-C: "Item IDs contain the retailer ID, so the same item
sold by different retailers will have a different ID"), while dense item
*indices* (0..n-1) are what models and matrices operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError


@dataclass(frozen=True)
class Item:
    """A single catalog entry.

    ``brand`` is ``None`` when the retailer did not provide one — brand
    coverage below ~10% is common for small retailers in the paper and
    drives per-retailer feature selection.
    """

    item_id: str
    index: int
    category_id: str
    brand: Optional[str] = None
    price: Optional[float] = None
    facets: Mapping[str, str] = field(default_factory=dict)


class CatalogColumns(NamedTuple):
    """A catalog's feature attributes as read-only arrays, aligned with
    item indices."""

    #: Sorted distinct brands present in the catalog.
    brand_vocabulary: Tuple[str, ...]
    #: Per item, its brand's position in ``brand_vocabulary``; -1 where
    #: it has none.
    brand_codes: np.ndarray
    #: Per item, its price; ``nan`` where it has none.
    prices: np.ndarray
    #: Items that carry a price attribute (a ``nan`` price is one).
    n_priced: int


class Catalog:
    """An immutable-after-build collection of :class:`Item` objects.

    Its feature attributes are walked once, on first use, into
    :attr:`columns`; the public views below copy out of them.
    """

    def __init__(self, retailer_id: str, items: Sequence[Item]):
        self.retailer_id = retailer_id
        self._items: List[Item] = list(items)
        self._by_id: Dict[str, Item] = {}
        for expected_index, item in enumerate(self._items):
            if item.index != expected_index:
                raise DataError(
                    f"item {item.item_id!r} has index {item.index}, expected {expected_index}"
                )
            if item.item_id in self._by_id:
                raise DataError(f"duplicate item id {item.item_id!r}")
            self._by_id[item.item_id] = item
        self._columns: Optional[CatalogColumns] = None
        self._price_edges: Dict[int, np.ndarray] = {}

    def __getstate__(self) -> Dict[str, object]:
        # Rebuilt on first use after a copy: unpickled arrays come back
        # writeable.
        return {**self.__dict__, "_columns": None, "_price_edges": {}}

    @property
    def columns(self) -> CatalogColumns:
        """The feature columns, built on first use and shared read-only."""
        if self._columns is None:
            vocabulary = tuple(
                sorted({item.brand for item in self._items if item.brand is not None})
            )
            code = {brand: position for position, brand in enumerate(vocabulary)}
            brand_codes = np.fromiter(
                (code.get(item.brand, -1) for item in self._items),
                dtype=np.int64,
                count=len(self._items),
            )
            prices = np.fromiter(
                (np.nan if item.price is None else float(item.price) for item in self._items),
                dtype=np.float64,
                count=len(self._items),
            )
            for array in (brand_codes, prices):
                array.setflags(write=False)
            n_priced = sum(1 for item in self._items if item.price is not None)
            self._columns = CatalogColumns(vocabulary, brand_codes, prices, n_priced)
        return self._columns

    def price_edges(self, n_buckets: int) -> np.ndarray:
        """Quantile edges of ``n_buckets`` price buckets over log-price,
        duplicates merged; empty when fewer than two items have a price.

        Built once per bucket count and shared read-only: every model of
        the catalog with that count buckets its prices by the same edges.
        """
        edges = self._price_edges.get(n_buckets)
        if edges is None:
            prices = self.columns.prices
            known = prices[~np.isnan(prices)]
            if known.size < 2 or n_buckets < 1:
                edges = np.zeros(0)
            else:
                quantiles = np.linspace(0.0, 1.0, n_buckets + 1)
                edges = np.unique(np.quantile(np.log1p(known), quantiles))
            edges.setflags(write=False)
            self._price_edges[n_buckets] = edges
        return edges

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Item:
        return self._items[index]

    def by_id(self, item_id: str) -> Item:
        try:
            return self._by_id[item_id]
        except KeyError:
            raise DataError(f"unknown item id {item_id!r}") from None

    def has_id(self, item_id: str) -> bool:
        return item_id in self._by_id

    # ------------------------------------------------------------------
    # Attribute views used by the feature system
    # ------------------------------------------------------------------
    def brands(self) -> List[Optional[str]]:
        """Per-item brand (``None`` where missing), aligned with indices."""
        return [item.brand for item in self._items]

    def brand_vocabulary(self) -> List[str]:
        """Sorted distinct brands present in the catalog."""
        return list(self.columns.brand_vocabulary)

    def brand_coverage(self) -> float:
        """Fraction of items that carry a brand attribute."""
        if not self._items:
            return 0.0
        covered = int(np.count_nonzero(self.columns.brand_codes >= 0))
        return covered / len(self._items)

    def prices(self) -> np.ndarray:
        """Per-item price array with ``nan`` where missing."""
        return self.columns.prices.copy()

    def price_coverage(self) -> float:
        """Fraction of items that carry a price attribute."""
        if not self._items:
            return 0.0
        return self.columns.n_priced / len(self._items)

    def facet_values(self, facet: str) -> List[Optional[str]]:
        """Per-item value of a named facet (e.g. color), ``None`` if absent."""
        return [item.facets.get(facet) for item in self._items]

    def items_with_facet(self, facet: str, value: str) -> List[int]:
        """Indices of items whose ``facet`` equals ``value``."""
        return [item.index for item in self._items if item.facets.get(facet) == value]


def make_item_id(retailer_id: str, index: int) -> str:
    """Construct the globally unique item id for a retailer-local index."""
    return f"{retailer_id}:item{index}"


def parse_item_id(item_id: str) -> tuple[str, int]:
    """Split a global item id back into ``(retailer_id, index)``."""
    retailer_id, _, local = item_id.rpartition(":item")
    if not retailer_id or not local.isdigit():
        raise DataError(f"malformed item id {item_id!r}")
    return retailer_id, int(local)
