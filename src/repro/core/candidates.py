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
from repro.exceptions import DataError
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
        """Sorted union of the seeds' ``lca_k`` expansions, early break included.

        Mirrors the reference loop (:meth:`_expand`) exactly: expansions
        accumulate in seed order and stop at the first seed that pushes
        the running union past ``max_candidates * 4``.  An expansion is a
        category subtree and two subtrees are either disjoint or nested,
        so the running union is tracked as its *maximal* subtree roots:
        its size is the sum of theirs (the early break is evaluated
        exactly, without a hash set of items), and the taxonomy index
        keeps each distinct union — items whose neighbourhoods resolve
        to the same subtrees share one array.
        """
        index = self.taxonomy.index()
        enter, leave = index.enter, index.exit
        included: Dict[int, int] = {}  # maximal root -> subtree size
        for seed in seeds:
            root = index.lca_root(seed, k)
            if root in included:
                continue
            low, high = enter[root], leave[root]
            if not any(enter[other] <= low < leave[other] for other in included):
                # New maximal root: drop the included roots nested inside
                # it so the size accounting stays exact.
                for other in [o for o in included if low <= enter[o] < high]:
                    del included[other]
                included[root] = index.subtree(root).size
            if sum(included.values()) > self.max_candidates * 4:
                break
        if not included:
            return np.empty(0, dtype=np.int64)
        return index.subtree(*sorted(included))

    def _cap_array(self, item_index: int, candidates: np.ndarray) -> np.ndarray:
        """:meth:`_cap` for a sorted unique candidate array.

        Reproduces the reference ordering exactly: rank by
        ``(-co_view_strength, item_index)`` — a stable argsort over a
        strength vector breaks ties in ascending-index order because the
        input is already index-sorted — keep the strongest
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

        This is the per-item reference implementation (a set of item
        lists); the inference pipeline uses :meth:`batch_view_based`,
        which produces identical candidates from the taxonomy index.
        """
        k = self.view_lca_k if lca_k is None else lca_k
        seeds = self.counts.top_co_viewed(item_index, self.co_neighbours)
        if not seeds:
            seeds = [item_index]
        candidates = self._expand(item_index, seeds, k)
        if same_facets:
            candidates = self._filter_facets(item_index, candidates, same_facets)
        return self._cap(item_index, candidates)

    def batch_view_based(
        self,
        items: Sequence[int],
        lca_k: Optional[int] = None,
        same_facets: Optional[Sequence[str]] = None,
    ) -> List[np.ndarray]:
        """:meth:`view_based` for a block of items, one sorted int64 array
        per item (values identical to the singular method's list).

        Expansions are the taxonomy index's sorted subtree arrays,
        unioned per item by :meth:`_union_expansions`.
        """
        k = self.view_lca_k if lca_k is None else lca_k
        self.metrics.counter("candidate_batches_total", kind="view").inc()
        self.metrics.counter(
            "candidate_items_total", kind="view"
        ).inc(len(items))
        if same_facets or k < 1:
            # Facet filtering / item-local expansions: reference path.
            return [
                np.asarray(
                    self.view_based(item, lca_k=k, same_facets=same_facets),
                    dtype=np.int64,
                )
                for item in items
            ]
        if self.retrieval is not None:
            pools = self._retrieval_candidates(items)
            return [
                self._cap_array(item, pool)
                for item, pool in zip(items, pools)
            ]
        return [self._view_candidates_array(item, k) for item in items]

    def _view_candidates_array(self, item_index: int, k: int) -> np.ndarray:
        seeds = self.counts.top_co_viewed(item_index, self.co_neighbours)
        if not seeds:
            seeds = [item_index]
        union = self._union_expansions(seeds, k)
        return self._cap_array(item_index, union[union != item_index])

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

        Like :meth:`view_based` this is the per-item reference path;
        :meth:`batch_purchase_based` is the amortized equivalent.
        """
        k = self.purchase_lca_k if lca_k is None else lca_k
        seeds = self.counts.top_co_bought(item_index, self.co_neighbours)
        if not seeds:
            # No purchase signal: fall back to co-viewed complements.
            seeds = self.counts.top_co_viewed(item_index, self.co_neighbours)
        candidates = self._expand(item_index, seeds, k)
        if not self._repurchasable(item_index):
            candidates -= set(self.taxonomy.lca_k(item_index, self.purchase_lca_k))
        return self._cap(item_index, candidates)

    def batch_purchase_based(
        self, items: Sequence[int], lca_k: Optional[int] = None
    ) -> List[np.ndarray]:
        """:meth:`purchase_based` for a block of items, one sorted int64
        array per item (values identical to the singular method's list)."""
        k = self.purchase_lca_k if lca_k is None else lca_k
        self.metrics.counter("candidate_batches_total", kind="purchase").inc()
        self.metrics.counter(
            "candidate_items_total", kind="purchase"
        ).inc(len(items))
        if k < 1:
            return [
                np.asarray(self.purchase_based(item, lca_k=k), dtype=np.int64)
                for item in items
            ]
        if self.retrieval is not None:
            pools = self._retrieval_candidates(items)
            return [
                self._cap_array(
                    item, self._strip_substitutes(item, pool)
                )
                for item, pool in zip(items, pools)
            ]
        return [self._purchase_candidates_array(item, k) for item in items]

    def _purchase_candidates_array(self, item_index: int, k: int) -> np.ndarray:
        seeds = self.counts.top_co_bought(item_index, self.co_neighbours)
        if not seeds:
            seeds = self.counts.top_co_viewed(item_index, self.co_neighbours)
        union = self._union_expansions(seeds, k)
        return self._cap_array(
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
        """Remove the query item's own substitutes from a sorted pool.

        Applied on the purchase path unless the item's category is
        re-purchasable (where substitutes are exactly right).
        """
        if self._repurchasable(item_index):
            return candidates
        index = self.taxonomy.index()
        substitutes = index.subtree(index.lca_root(item_index, self.purchase_lca_k))
        if substitutes.size and candidates.size:
            # Both arrays are sorted: a searchsorted membership probe
            # is several times cheaper than ``np.setdiff1d``.
            slots = np.minimum(
                np.searchsorted(substitutes, candidates),
                substitutes.size - 1,
            )
            candidates = candidates[substitutes[slots] != candidates]
        return candidates

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
        candidates: Set[int] = set(self.taxonomy.lca_k(item_index, 1))
        candidates.discard(item_index)
        facets = [
            name
            for name, value in self.catalog[item_index].facets.items()
            if value is not None
        ]
        if facets:
            matched = self._filter_facets(item_index, candidates, facets)
            if matched:
                return self._cap(item_index, matched)
        return self._cap(item_index, candidates)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _expand(self, item_index: int, seeds: Sequence[int], k: int) -> Set[int]:
        """Union of the seeds' ``lca_k``, cut off once far past the cap."""
        candidates: Set[int] = set()
        for seed in seeds:
            candidates.update(self.taxonomy.lca_k(seed, k))
            if len(candidates) > self.max_candidates * 4:
                break
        candidates.discard(item_index)
        return candidates

    def _filter_facets(
        self, item_index: int, candidates: Set[int], facets: Sequence[str]
    ) -> Set[int]:
        query = self.catalog[item_index]
        kept = set()
        for candidate in candidates:
            other = self.catalog[candidate]
            if all(
                query.facets.get(facet) is not None
                and other.facets.get(facet) == query.facets.get(facet)
                for facet in facets
            ):
                kept.add(candidate)
        return kept

    def _cap(self, item_index: int, candidates: Set[int]) -> List[int]:
        """Deterministic cap: strongest co-occurrence first, then by index."""
        if len(candidates) <= self.max_candidates:
            return sorted(candidates)
        strength = self.counts.co_viewed(item_index)
        ranked = sorted(
            candidates, key=lambda c: (-strength.get(c, 0.0), c)
        )
        return sorted(ranked[: self.max_candidates])
