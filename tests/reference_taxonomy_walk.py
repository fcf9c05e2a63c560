"""``Taxonomy``'s ancestor / LCA / subtree answers as ``src/`` walked them
until the taxonomy index (issue 23), kept as an oracle.

Test-only.  ``Taxonomy`` now answers ``ancestors`` / ``lca`` /
``lca_distance`` / ``ancestor_at_distance`` / ``items_in`` / ``lca_k``
from one ``TaxonomyIndex``; what that replaced — ``_lca_node`` and the
loops that chased ``parent_id`` and ``children`` through the node dict —
is copied here statement for statement, re-hung as functions over a live
taxonomy's ``_nodes`` / ``_item_category`` / ``_category_items``, so the
differential tests still have every walk written out one parent at a
time to compare against.  ``items_in``'s stack order is the member order
``lca_k`` has always had; the generator draws companions from that list
by position, so it is part of the contract, not an accident.

``feature_maps`` is ``BPRModel._build_feature_maps``'s per-item ancestor
loop from the same commit.

Like ``tests/reference_per_row_rank.py``: do not speed this up or make
it follow the code under test.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.taxonomy import ROOT_CATEGORY, CategoryNode, Taxonomy
from repro.exceptions import TaxonomyError


def _node(taxonomy: Taxonomy, category_id: str) -> CategoryNode:
    try:
        return taxonomy._nodes[category_id]
    except KeyError:
        raise TaxonomyError(f"unknown category {category_id!r}") from None


def items_in(
    taxonomy: Taxonomy, category_id: str, include_descendants: bool = False
) -> List[int]:
    if not include_descendants:
        return list(taxonomy._category_items[_node(taxonomy, category_id).category_id])
    collected: List[int] = []
    stack = [category_id]
    while stack:
        current = stack.pop()
        collected.extend(taxonomy._category_items[_node(taxonomy, current).category_id])
        stack.extend(taxonomy._nodes[current].children)
    return collected


def ancestors(
    taxonomy: Taxonomy, category_id: str, include_self: bool = True
) -> List[str]:
    node = _node(taxonomy, category_id)
    path = [node.category_id] if include_self else []
    while node.parent_id is not None:
        path.append(node.parent_id)
        node = taxonomy._nodes[node.parent_id]
    return path


def item_ancestors(
    taxonomy: Taxonomy, item_index: int, include_category: bool = True
) -> List[str]:
    return ancestors(
        taxonomy, taxonomy.category_of(item_index), include_self=include_category
    )


def _lca_node(
    taxonomy: Taxonomy, node_a: CategoryNode, node_b: CategoryNode
) -> CategoryNode:
    # Level the deeper side, then climb in step; the root is shared.
    while node_a.depth > node_b.depth:
        node_a = taxonomy._nodes[node_a.parent_id]
    while node_b.depth > node_a.depth:
        node_b = taxonomy._nodes[node_b.parent_id]
    while node_a is not node_b:
        node_a = taxonomy._nodes[node_a.parent_id]
        node_b = taxonomy._nodes[node_b.parent_id]
    return node_a


def lca(taxonomy: Taxonomy, category_a: str, category_b: str) -> str:
    return _lca_node(
        taxonomy, _node(taxonomy, category_a), _node(taxonomy, category_b)
    ).category_id


def lca_distance(taxonomy: Taxonomy, item_a: int, item_b: int) -> int:
    if item_a == item_b:
        return 0
    node_a = taxonomy._nodes[taxonomy.category_of(item_a)]
    node_b = taxonomy._nodes[taxonomy.category_of(item_b)]
    top = _lca_node(taxonomy, node_a, node_b)
    return max(node_a.depth, node_b.depth) + 1 - top.depth


def ancestor_at_distance(taxonomy: Taxonomy, category_id: str, k: int) -> str:
    node = _node(taxonomy, category_id)
    for _ in range(k):
        if node.parent_id is None:
            break
        node = taxonomy._nodes[node.parent_id]
    return node.category_id


def lca_k(taxonomy: Taxonomy, item_index: int, k: int) -> List[int]:
    if k < 0:
        raise TaxonomyError("k must be non-negative")
    if k == 0:
        return [item_index]
    top = ancestor_at_distance(taxonomy, taxonomy.category_of(item_index), k - 1)
    return items_in(taxonomy, top, include_descendants=True)


def feature_maps(
    taxonomy: Taxonomy, n_items: int, use_taxonomy: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``(_item_ancestors, _anc_counts)`` as the per-item loop built them."""
    categories = sorted(taxonomy.categories())
    cat_row = {category: row for row, category in enumerate(categories)}
    ancestor_rows: List[List[int]] = []
    for index in range(n_items):
        rows: List[int] = []
        if use_taxonomy and taxonomy.has_item(index):
            rows = [
                cat_row[category]
                for category in item_ancestors(taxonomy, index)
                if category != ROOT_CATEGORY
            ]
        ancestor_rows.append(rows)
    anc_counts = np.array([len(rows) for rows in ancestor_rows], dtype=np.int64)
    table = np.full((n_items, int(anc_counts.max(initial=0))), -1, dtype=np.int64)
    for index, rows in enumerate(ancestor_rows):
        table[index, : len(rows)] = rows
    return table, anc_counts
