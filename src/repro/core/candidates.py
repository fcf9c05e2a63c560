"""Candidate selection for inference (paper section III-D1).

Naively ranking every item per context is quadratic in catalog size.
Sigmund instead selects ~a thousand likely candidates per item:

* **View-based** (substitutes): ``C = union over j in cv(i) of lca_k(j)``
  — taxonomy-expand the co-viewed items.  ``k = 2`` is the paper's
  empirical sweet spot between precision and coverage.
* **Purchase-based** (complements/accessories):
  ``C = union over j in cb(i) of lca_1(j) minus lca_1(i)`` — co-bought
  items expanded tightly, with the query item's own substitutes removed.
* **Re-purchasable categories** (diapers, water): detected by repeat
  purchases; for them the substitutes are *not* removed and periodic
  recommendations are made on the category's observed repurchase cycle.

The paper also tightens a late-funnel user's candidates to the query
item's facets (same color apparel, same weight-class laptop, ...).  That
is a question about a live user's context, which offline inference over
item ids never asks, so it is not reproduced here (DESIGN.md,
"Late-funnel tightening is not reproduced").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.data.events import EventType, Interaction
from repro.data.taxonomy import Taxonomy, TaxonomyIndex
from repro.exceptions import DataError, TaxonomyError
from repro.models.base import ItemRows, SharedRuns
from repro.obs.metrics import NULL_METRICS

#: Paper: "empirically we found that setting k = 2 provides a good
#: trade-off between quality and coverage" for view-based selection.
DEFAULT_VIEW_LCA_K = 2
#: Paper: "expanding with lca1 provides the best recommendations" for
#: purchase-based selection.
DEFAULT_PURCHASE_LCA_K = 1
#: Paper: "select a subset of likely candidates (about a thousand)".
DEFAULT_MAX_CANDIDATES = 1000
#: How many co-occurring neighbours seed the expansion.
DEFAULT_CO_NEIGHBOURS = 20
#: Per-item candidate count requested from a retrieval index when one is
#: attached — far below ``max_candidates`` because ANN neighbours are
#: already ranked by model score rather than taxonomy membership.
DEFAULT_RETRIEVAL_CANDIDATES = 256


class RepurchaseDetector:
    """Finds categories users buy repeatedly, and their purchase cadence."""

    def __init__(
        self,
        taxonomy: Taxonomy,
        interactions: Sequence[Interaction],
        min_repeat_users: int = 2,
    ):
        self.taxonomy = taxonomy
        self.min_repeat_users = min_repeat_users
        self._repeat_users: Dict[str, Set[int]] = defaultdict(set)
        self._gaps: Dict[str, List[float]] = defaultdict(list)
        self._observe(interactions)

    def _observe(self, interactions: Sequence[Interaction]) -> None:
        last_purchase: Dict[tuple, float] = {}
        for interaction in sorted(interactions, key=lambda it: it.timestamp):
            if interaction.event != EventType.CONVERSION:
                continue
            if not self.taxonomy.has_item(interaction.item_index):
                continue
            category = self.taxonomy.category_of(interaction.item_index)
            key = (interaction.user_id, category)
            previous = last_purchase.get(key)
            if previous is not None:
                self._repeat_users[category].add(interaction.user_id)
                self._gaps[category].append(interaction.timestamp - previous)
            last_purchase[key] = interaction.timestamp

    def is_repurchasable(self, category_id: str) -> bool:
        """A category enough distinct users purchased twice or more."""
        return len(self._repeat_users.get(category_id, ())) >= self.min_repeat_users

    def repurchasable_categories(self) -> List[str]:
        return sorted(
            category
            for category, users in self._repeat_users.items()
            if len(users) >= self.min_repeat_users
        )

    def mean_repurchase_gap(self, category_id: str) -> Optional[float]:
        """Average time between purchases in the category (None if unknown)."""
        gaps = self._gaps.get(category_id)
        if not gaps:
            return None
        return sum(gaps) / len(gaps)

    def due_for_repurchase(
        self, history: Sequence[Interaction], now: float, slack: float = 0.25
    ) -> List[int]:
        """Items whose category cycle says the user is due to buy again.

        An item is due when ``now - last_purchase >= (1 - slack) * cycle``.
        """
        due = []
        last_by_item: Dict[int, float] = {}
        for interaction in history:
            if interaction.event == EventType.CONVERSION:
                last_by_item[interaction.item_index] = max(
                    last_by_item.get(interaction.item_index, 0.0),
                    interaction.timestamp,
                )
        for item, last_time in last_by_item.items():
            if not self.taxonomy.has_item(item):
                continue
            category = self.taxonomy.category_of(item)
            if not self.is_repurchasable(category):
                continue
            cycle = self.mean_repurchase_gap(category)
            if cycle is None:
                continue
            if now - last_time >= (1.0 - slack) * cycle:
                due.append(item)
        return sorted(due)


@dataclass(eq=False)
class NeighbourPass:
    """One block's retrieval neighbours, shared by its two surfaces.

    ``ids`` is drawn on its first read — by whichever surface reader gets
    there first — and the other reads the same ``(B, k)`` id matrix, so
    a block probes the index once however many surfaces it builds.
    """

    retrieval: object
    query: np.ndarray
    k: int

    @cached_property
    def ids(self) -> np.ndarray:
        """:meth:`~repro.retrieval.backend.ModelRetrieval.neighbours_items`:
        each row ascending, ``-1`` padding at its end."""
        return self.retrieval.neighbours_items(self.query, self.k)


@dataclass
class CandidateSelector:
    """Produces the ranked-candidate pool for each item (per retailer)."""

    taxonomy: Taxonomy
    counts: CoOccurrenceCounts
    repurchase: Optional[RepurchaseDetector] = None
    view_lca_k: int = DEFAULT_VIEW_LCA_K
    purchase_lca_k: int = DEFAULT_PURCHASE_LCA_K
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    co_neighbours: int = DEFAULT_CO_NEIGHBOURS
    #: Where batch-selection counters land; the inference pipeline re-binds
    #: this to the current run's registry (selectors are cached across days).
    metrics: object = field(default=NULL_METRICS, repr=False, compare=False)
    #: Optional :class:`~repro.retrieval.backend.ModelRetrieval` adapter.
    #: When attached (large catalogs), the batch selection methods source
    #: candidates from the ANN index instead of walking the taxonomy —
    #: the inference pipeline re-binds this per run, like ``metrics``.
    retrieval: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: Neighbours requested per item from the retrieval index.
    retrieval_k: int = DEFAULT_RETRIEVAL_CANDIDATES

    def __post_init__(self) -> None:
        if self.max_candidates < 1:
            raise DataError("max_candidates must be >= 1")

    def _pools(
        self,
        query: np.ndarray,
        seeds: Tuple[np.ndarray, np.ndarray],
        k: int,
        strip: bool,
    ) -> ItemRows:
        """A block's taxonomy pools: the union of each row's ``seeds``
        (``(rows, seed items)``) expanded to ``lca_k``, cut and gathered as
        runs of the index (:meth:`TaxonomyIndex.expand`) without the query
        item — and, with ``strip``, without its substitutes."""
        if k < 0:
            raise TaxonomyError("k must be non-negative")
        index = self.taxonomy.index()
        drop = self._substitutes(index, query) if strip else (np.full(query.size, -1),) * 2
        items, bounds, shared = index.expand(
            query, *seeds, k, 4 * self.max_candidates, *drop, self.max_candidates
        )
        if shared is not None:
            shared = SharedRuns(shared[0], index.member_items, *shared[1:])
        return self._finish(query, items, bounds, shared)

    def _substitutes(
        self, index: TaxonomyIndex, query: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-order interval of each query item's ``lca_{purchase_lca_k}``
        substitutes; ``(-1, -1)`` where nothing but the item goes (no
        category, ``purchase_lca_k = 0``, or a re-purchasable category)."""
        if self.purchase_lca_k < 0:
            raise TaxonomyError("k must be non-negative")
        subs = index.lca_roots(query, self.purchase_lca_k)
        if self.repurchase is not None:  # one np.isin over the block
            again = [index.number[c] for c in self.repurchase.repurchasable_categories()]
            if again:
                subs[np.isin(index.categories_of(query), again)] = -1
        held = subs >= 0
        return np.where(held, index.cat_enter[subs], -1), np.where(held, index.cat_exit[subs], -1)

    def _finish(self, query, items, bounds, shared=None) -> ItemRows:
        """The block's rows, each held one over ``max_candidates`` cut
        through :meth:`_cap` (a shared row never is: its run is at most
        ``max_candidates`` long)."""
        visit = bounds[1:] - bounds[:-1] > self.max_candidates
        if visit.any():
            rows = [items[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
            for row in visit.nonzero()[0].tolist():
                rows[row] = self._cap(int(query[row]), rows[row])
            capped = ItemRows.of(rows)
            items, bounds = capped.held_items, capped.held_bounds
        return ItemRows(items, bounds, shared)

    def _cap(self, item_index: int, candidates: np.ndarray) -> np.ndarray:
        """Deterministic cap of a sorted unique pool: strongest co-view
        first, then by index.

        Rank by ``(-co_view_strength, item_index)`` — a stable argsort
        over a strength vector breaks ties in ascending-index order
        because the input is already index-sorted — keep the strongest
        ``max_candidates``, and return them index-sorted.
        """
        if candidates.size <= self.max_candidates:
            return candidates
        strength = self.counts.co_viewed(item_index)
        weights = np.zeros(candidates.size)
        if strength:
            neighbours = np.fromiter(
                strength.keys(), dtype=np.int64, count=len(strength)
            )
            values = np.fromiter(
                strength.values(), dtype=np.float64, count=len(strength)
            )
            slots = np.minimum(
                np.searchsorted(candidates, neighbours), candidates.size - 1
            )
            present = candidates[slots] == neighbours
            weights[slots[present]] = values[present]
        order = np.argsort(-weights, kind="stable")[: self.max_candidates]
        capped = candidates[order]
        capped.sort()
        return capped

    # ------------------------------------------------------------------
    # Block readers: one sorted int64 row per item of the block
    # ------------------------------------------------------------------
    def batch_view_based(
        self, items: Sequence[int], neighbours: Optional[NeighbourPass] = None
    ) -> ItemRows:
        """View-based candidates (substitutes, before the purchase
        decision): ``C = union over j in cv(i) of lca_k(j)``, minus the
        item itself, with ``k = view_lca_k``.

        Cold items with no co-view data fall back to their own taxonomy
        neighbourhood — the cold-start path the taxonomy feature exists
        for.  From the attached retrieval index where there is one (and
        ``k >= 1``), else from the taxonomy index.  ``neighbours`` is the
        block's shared pass (:meth:`neighbour_pass` over these ``items``);
        without it the reader draws its own.  A lone item is a block of
        one: ``batch_view_based([item])[0]``."""
        self.metrics.counter("candidate_batches_total", kind="view").inc()
        self.metrics.counter(
            "candidate_items_total", kind="view"
        ).inc(len(items))
        if self.retrieval is not None and self.view_lca_k >= 1:
            return self._retrieval_pools(items, False, neighbours)
        return self._taxonomy_pools(items, self.view_lca_k, False)

    def batch_purchase_based(
        self, items: Sequence[int], neighbours: Optional[NeighbourPass] = None
    ) -> ItemRows:
        """Purchase-based candidates (complements, after the purchase
        decision): ``C = union over j in cb(i) of lca_k(j) minus lca_k(i)``,
        with ``k = purchase_lca_k``.

        The subtraction removes substitutes of the just-bought item —
        nobody wants a second phone right after buying one — *except* for
        re-purchasable categories, where the same items are exactly right.
        The attached retrieval index's neighbours where there is one (and
        ``k >= 1``), substitutes stripped the same way.  ``neighbours`` as
        for :meth:`batch_view_based`."""
        self.metrics.counter("candidate_batches_total", kind="purchase").inc()
        self.metrics.counter(
            "candidate_items_total", kind="purchase"
        ).inc(len(items))
        if self.retrieval is not None and self.purchase_lca_k >= 1:
            return self._retrieval_pools(items, True, neighbours)
        return self._taxonomy_pools(items, self.purchase_lca_k, True)

    def _taxonomy_pools(self, items: Sequence[int], k: int, bought: bool) -> ItemRows:
        """Seeds: the co-bought (``bought``) or co-viewed neighbours; a row
        with none falls back to its co-viewed ones (``bought``) or to its
        own item.  ``bought`` also strips the query's substitutes."""
        query = np.asarray(items, dtype=np.int64)
        counts, width = self.counts, self.co_neighbours
        first = counts.top_co_bought_block if bought else counts.top_co_viewed_block
        rows, seeds = first(query, width)
        empty = (np.bincount(rows, minlength=query.size) == 0).nonzero()[0]
        if empty.size:
            if bought:
                more_rows, more = counts.top_co_viewed_block(query[empty], width)
                more_rows = empty[more_rows]
            else:
                more_rows, more = empty, query[empty]
            rows, seeds = np.concatenate([rows, more_rows]), np.concatenate([seeds, more])
        return self._pools(query, (rows, seeds), k, bought)

    def neighbour_pass(self, items: Sequence[int]) -> Optional[NeighbourPass]:
        """The block's retrieval neighbours, not yet drawn; ``None``
        without an attached index.  Hand it to both surface readers of
        the same ``items`` and the block probes the index once."""
        if self.retrieval is None:
            return None
        query = np.asarray(items, dtype=np.int64)
        return NeighbourPass(
            self.retrieval, query, min(self.retrieval_k, self.retrieval.n_items)
        )

    def _retrieval_pools(
        self,
        items: Sequence[int],
        strip: bool,
        neighbours: Optional[NeighbourPass],
    ) -> ItemRows:
        """Pools from the attached ANN index: the block's neighbour sets
        (ascending rows, padding last) without the padding and the query
        item — and, with ``strip``, its substitutes by their pre-order
        interval.  What is left of each row is still ascending."""
        if neighbours is None:
            neighbours = self.neighbour_pass(items)
        query, ids = neighbours.query, neighbours.ids
        drop = (ids < 0) | (ids == query[:, None])
        self.metrics.counter("retrieval_candidate_items_total").inc(int(drop.size - drop.sum()))
        if strip:
            index = self.taxonomy.index()
            sub_lo, sub_hi = self._substitutes(index, query)
            inside = index.pre_order_of(ids)
            drop |= (sub_lo[:, None] <= inside) & (inside < sub_hi[:, None])
        bounds = np.zeros(query.size + 1, dtype=np.int64)
        np.cumsum(drop.shape[1] - drop.sum(axis=1), out=bounds[1:])
        return self._finish(query, ids[~drop], bounds)
