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
* **Late-funnel users** get candidates constrained to the query item's
  facets (same color apparel, same weight-class laptop, ...).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.data.catalog import Catalog
from repro.data.events import EventType, Interaction
from repro.data.sessions import UserContext
from repro.data.taxonomy import Taxonomy
from repro.exceptions import DataError, TaxonomyError
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


def classify_funnel(context: UserContext, taxonomy: Taxonomy) -> str:
    """Classify a user context as ``"early"`` or ``"late"`` funnel.

    Paper section III-D1: "we also distinguish between early funnel and
    late funnel users.  For late funnel users, we focus very close to the
    viewed item".  A user is late-funnel when their recent actions show
    *converged intent*: strong events (search/cart) concentrated in one
    category neighbourhood.  Browsing across categories is early funnel.
    """
    if len(context) < 2:
        return "early"
    recent_items = context.item_indices[-4:]
    recent_events = context.events[-4:]
    has_strong_intent = any(
        event >= EventType.SEARCH for event in recent_events
    )
    if not has_strong_intent:
        return "early"
    categorized = [
        item for item in recent_items if taxonomy.has_item(item)
    ]
    if len(categorized) < 2:
        return "early"
    anchor = categorized[-1]
    near = sum(
        1
        for item in categorized
        if taxonomy.lca_distance(item, anchor) <= 2
    )
    return "late" if near / len(categorized) >= 0.75 else "early"


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


@dataclass
class CandidateSelector:
    """Produces the ranked-candidate pool for each item (per retailer)."""

    taxonomy: Taxonomy
    counts: CoOccurrenceCounts
    catalog: Catalog
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

    def _union_expansions(self, seeds: Sequence[int], k: int) -> np.ndarray:
        """Sorted union of the (distinct) seeds' ``lca_k`` expansions.

        Expansions accumulate in seed order and stop at the first seed
        that pushes the running union past ``max_candidates * 4``.  An
        expansion is a category subtree and two subtrees are either
        disjoint or nested, so the running union is tracked as its
        *maximal* subtree roots: its size is the sum of theirs (the early
        break is evaluated exactly, without a hash set of items).  A seed
        with no category has no taxonomy neighbourhood and, like every
        seed at ``k = 0``, expands to itself.

        A union of several roots is built for this call and kept by
        nobody; only a single root's array is the index's own (read-only).
        """
        if k < 0:
            raise TaxonomyError("k must be non-negative")
        index = self.taxonomy.index()
        enter, leave, item_path = index.enter, index.exit, index.item_path
        included: Dict[int, int] = {}  # maximal root -> subtree size
        alone: List[int] = []  # seeds that expand to themselves
        for seed in seeds:
            path = item_path.get(seed) if k else None
            if path is None:
                alone.append(seed)
            else:
                root = path[max(len(path) - k, 0)]
                if root in included:
                    continue
                low, high = enter[root], leave[root]
                if not any(enter[other] <= low < leave[other] for other in included):
                    # New maximal root: drop the included roots nested inside
                    # it so the size accounting stays exact.
                    for other in [o for o in included if low <= enter[o] < high]:
                        del included[other]
                    included[root] = index.subtree(root).size
            if sum(included.values()) + len(alone) > self.max_candidates * 4:
                break
        parts = [index.subtree(root) for root in included]
        if alone or not parts:
            parts.append(np.array(sorted(alone), dtype=np.int64))
        if len(parts) == 1:
            return parts[0]
        union = np.concatenate(parts)
        union.sort(kind="stable")  # a merge of sorted runs
        return union

    def _match_facets(
        self, item_index: int, candidates: np.ndarray, facets: Sequence[str]
    ) -> np.ndarray:
        """Candidates whose value equals the query item's on every facet
        (none where the query item itself lacks one of them)."""
        query = self.catalog[item_index].facets
        wanted = [(facet, query.get(facet)) for facet in facets]
        if any(value is None for _, value in wanted):
            return candidates[:0]
        catalog = self.catalog
        keep = [
            all(catalog[other].facets.get(facet) == value for facet, value in wanted)
            for other in candidates.tolist()
        ]
        return candidates[np.array(keep, dtype=bool)]

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
    # View-based (substitutes, before the purchase decision)
    # ------------------------------------------------------------------
    def view_based(
        self,
        item_index: int,
        lca_k: Optional[int] = None,
        same_facets: Optional[Sequence[str]] = None,
    ) -> List[int]:
        """``C = union over j in cv(i) of lca_k(j)`` (minus the item itself).

        Cold items with no co-view data fall back to their own taxonomy
        neighbourhood — the cold-start path the taxonomy feature exists
        for.  ``same_facets`` restricts candidates to items matching the
        query item's facet values (late-funnel tightening).

        One item of :meth:`batch_view_based`'s taxonomy pools, as a list.
        """
        k = self.view_lca_k if lca_k is None else lca_k
        return self._view_pool(item_index, k, same_facets).tolist()

    def batch_view_based(
        self,
        items: Sequence[int],
        lca_k: Optional[int] = None,
        same_facets: Optional[Sequence[str]] = None,
    ) -> List[np.ndarray]:
        """:meth:`view_based` for a block of items, one sorted int64 array
        per item — from the attached retrieval index where there is one
        (and ``k >= 1``, no facets), else from the taxonomy index."""
        k = self.view_lca_k if lca_k is None else lca_k
        self.metrics.counter("candidate_batches_total", kind="view").inc()
        self.metrics.counter(
            "candidate_items_total", kind="view"
        ).inc(len(items))
        if self.retrieval is not None and k >= 1 and not same_facets:
            pools = self._retrieval_candidates(items)
            return [self._cap(item, pool) for item, pool in zip(items, pools)]
        return [self._view_pool(item, k, same_facets) for item in items]

    def _view_pool(
        self, item_index: int, k: int, same_facets: Optional[Sequence[str]]
    ) -> np.ndarray:
        seeds = self.counts.top_co_viewed(item_index, self.co_neighbours)
        if not seeds:
            seeds = [item_index]
        union = self._union_expansions(seeds, k)
        pool = union[union != item_index]
        if same_facets:
            pool = self._match_facets(item_index, pool, same_facets)
        return self._cap(item_index, pool)

    # ------------------------------------------------------------------
    # Purchase-based (complements, after the purchase decision)
    # ------------------------------------------------------------------
    def purchase_based(
        self, item_index: int, lca_k: Optional[int] = None
    ) -> List[int]:
        """``C = union over j in cb(i) of lca_1(j) minus lca_1(i)``.

        The subtraction removes substitutes of the just-bought item —
        nobody wants a second phone right after buying one — *except* for
        re-purchasable categories, where the same items are exactly right.

        One item of :meth:`batch_purchase_based`'s taxonomy pools, as a list.
        """
        k = self.purchase_lca_k if lca_k is None else lca_k
        return self._purchase_pool(item_index, k).tolist()

    def batch_purchase_based(
        self, items: Sequence[int], lca_k: Optional[int] = None
    ) -> List[np.ndarray]:
        """:meth:`purchase_based` for a block of items, one sorted int64
        array per item — the attached retrieval index's neighbours where
        there is one (and ``k >= 1``), substitutes stripped the same way."""
        k = self.purchase_lca_k if lca_k is None else lca_k
        self.metrics.counter("candidate_batches_total", kind="purchase").inc()
        self.metrics.counter(
            "candidate_items_total", kind="purchase"
        ).inc(len(items))
        if self.retrieval is not None and k >= 1:
            pools = self._retrieval_candidates(items)
            return [
                self._cap(item, self._strip_substitutes(item, pool))
                for item, pool in zip(items, pools)
            ]
        return [self._purchase_pool(item, k) for item in items]

    def _purchase_pool(self, item_index: int, k: int) -> np.ndarray:
        seeds = self.counts.top_co_bought(item_index, self.co_neighbours)
        if not seeds:
            # No purchase signal: fall back to co-viewed complements.
            seeds = self.counts.top_co_viewed(item_index, self.co_neighbours)
        union = self._union_expansions(seeds, k)
        return self._cap(
            item_index, self._strip_substitutes(item_index, union[union != item_index])
        )

    def _repurchasable(self, item_index: int) -> bool:
        return (
            self.repurchase is not None
            and self.taxonomy.has_item(item_index)
            and self.repurchase.is_repurchasable(self.taxonomy.category_of(item_index))
        )

    def _strip_substitutes(
        self, item_index: int, candidates: np.ndarray
    ) -> np.ndarray:
        """Remove the query item's own substitutes from a sorted pool
        that no longer holds the item itself.

        Applied on the purchase path unless the item's category is
        re-purchasable (where substitutes are exactly right).  An item
        with no category has none but itself.
        """
        if not candidates.size or self._repurchasable(item_index):
            return candidates
        substitutes = self._union_expansions([item_index], self.purchase_lca_k)
        # Both arrays are sorted: a searchsorted membership probe is
        # several times cheaper than ``np.setdiff1d``.
        slots = np.minimum(
            np.searchsorted(substitutes, candidates), substitutes.size - 1
        )
        return candidates[substitutes[slots] != candidates]

    def _retrieval_candidates(self, items: Sequence[int]) -> List[np.ndarray]:
        """Per-item sorted neighbour pools from the attached ANN index.

        One batched index probe covers the whole block; padding ids and
        the query item itself are dropped per row.
        """
        seeds = np.asarray(items, dtype=np.int64)
        k = min(self.retrieval_k, self.retrieval.n_items)
        ids, _ = self.retrieval.search_items(seeds, k)
        pools: List[np.ndarray] = []
        total = 0
        for row, item in zip(ids, seeds):
            pool = row[(row >= 0) & (row != item)]
            pool = np.sort(pool)
            total += pool.size
            pools.append(pool)
        self.metrics.counter("retrieval_candidate_items_total").inc(total)
        return pools

    # ------------------------------------------------------------------
    # Context-aware selection (funnel stage)
    # ------------------------------------------------------------------
    def for_context(self, context: UserContext) -> List[int]:
        """Candidates for a live context, tightened for late-funnel users.

        Early funnel: the normal view-based expansion around the most
        recent item.  Late funnel (converged intent): candidates are
        constrained "very close to the viewed item" — same category
        (lca 1) and matching facets where the query item has them.
        """
        if len(context) == 0:
            return []
        query = context.most_recent_item
        stage = classify_funnel(context, self.taxonomy)
        if stage == "late":
            return self.near_item(query)
        return self.view_based(query)

    def near_item(self, item_index: int) -> List[int]:
        """Candidates "very close to the viewed item" (late funnel).

        Same category (lca 1) around the *query item itself*, facet-
        matched where the item carries facets; falls back to the plain
        same-category set when the facet filter empties the pool.
        """
        union = self._union_expansions([item_index], 1)
        candidates = union[union != item_index]
        facets = [
            name
            for name, value in self.catalog[item_index].facets.items()
            if value is not None
        ]
        if facets:
            matched = self._match_facets(item_index, candidates, facets)
            if matched.size:
                candidates = matched
        return self._cap(item_index, candidates).tolist()
