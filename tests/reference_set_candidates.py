"""``CandidateSelector``'s per-item pools as ``src/`` built them with
Python sets until issue 24, kept as an oracle.

Test-only.  Every pool is now one array implementation on
``Taxonomy.index()`` (``TaxonomyIndex.expand`` -> drop the query item and
its substitutes -> ``_cap``); what that replaced — ``_expand`` / ``_cap``
over a ``set`` of item indices, one ``Taxonomy.lca_k`` list per seed — is
copied here statement for statement, re-hung as functions over a live
selector's ``taxonomy`` / ``counts`` / ``repurchase`` and its knobs.  (Its
facet filter and ``near_item`` left with the selector's.)

Where the two differ on purpose, this file keeps the old answer:
``Taxonomy.lca_k`` raises for an uncategorised seed or query item (the
selector gives such a seed its own singleton and strips nothing), and a
negative ``k`` raises only once a seed is expanded.  The differential
tests compare wherever this file does not raise.

Like ``tests/reference_taxonomy_walk.py``: do not speed this up or make
it follow the code under test.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.candidates import CandidateSelector


def _expand(
    selector: CandidateSelector, item_index: int, seeds: Sequence[int], k: int
) -> Set[int]:
    """Union of the seeds' ``lca_k``, cut off once far past the cap."""
    candidates: Set[int] = set()
    for seed in seeds:
        candidates.update(selector.taxonomy.lca_k(seed, k))
        if len(candidates) > selector.max_candidates * 4:
            break
    candidates.discard(item_index)
    return candidates


def _cap(
    selector: CandidateSelector, item_index: int, candidates: Set[int]
) -> List[int]:
    """Deterministic cap: strongest co-occurrence first, then by index."""
    if len(candidates) <= selector.max_candidates:
        return sorted(candidates)
    strength = selector.counts.co_viewed(item_index)
    ranked = sorted(candidates, key=lambda c: (-strength.get(c, 0.0), c))
    return sorted(ranked[: selector.max_candidates])


def _repurchasable(selector: CandidateSelector, item_index: int) -> bool:
    return (
        selector.repurchase is not None
        and selector.taxonomy.has_item(item_index)
        and selector.repurchase.is_repurchasable(
            selector.taxonomy.category_of(item_index)
        )
    )


def view_based(
    selector: CandidateSelector,
    item_index: int,
    lca_k: Optional[int] = None,
) -> List[int]:
    k = selector.view_lca_k if lca_k is None else lca_k
    seeds = selector.counts.top_co_viewed(item_index, selector.co_neighbours)
    if not seeds:
        seeds = [item_index]
    candidates = _expand(selector, item_index, seeds, k)
    return _cap(selector, item_index, candidates)


def purchase_based(
    selector: CandidateSelector, item_index: int, lca_k: Optional[int] = None
) -> List[int]:
    k = selector.purchase_lca_k if lca_k is None else lca_k
    seeds = selector.counts.top_co_bought(item_index, selector.co_neighbours)
    if not seeds:
        # No purchase signal: fall back to co-viewed complements.
        seeds = selector.counts.top_co_viewed(item_index, selector.co_neighbours)
    candidates = _expand(selector, item_index, seeds, k)
    if not _repurchasable(selector, item_index):
        candidates -= set(
            selector.taxonomy.lca_k(item_index, selector.purchase_lca_k)
        )
    return _cap(selector, item_index, candidates)
