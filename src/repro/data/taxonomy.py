"""Product taxonomy trees and Least-Common-Ancestor distances.

A taxonomy is a tree of category nodes (paper Fig. 3).  Items attach to
leaf categories.  The paper defines the distance between two items as the
number of levels between an item's category and the least common ancestor
of the two items' categories: e.g. two Android phones are at distance 1
(their LCA is "Android Phones"), an Android phone and an iPhone are at
distance 2 (LCA "Smart Phones").

``lca_k(i)`` — the set of items within LCA distance ``k`` of item ``i`` —
drives both negative sampling (sample far-away items) and candidate
selection (expand co-occurring items to taxonomy neighbours).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.exceptions import TaxonomyError
from repro.rng import SeedLike, make_rng

ROOT_CATEGORY = "root"


@dataclass
class CategoryNode:
    """A single category in the taxonomy tree."""

    category_id: str
    parent_id: Optional[str]
    depth: int
    children: List[str] = field(default_factory=list)


class Taxonomy:
    """A rooted tree of product categories with item attachments.

    The tree always contains a root category named :data:`ROOT_CATEGORY`
    at depth 0.  Categories are added top-down with
    :meth:`add_category`; items are attached to (typically leaf)
    categories with :meth:`assign_item`.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, CategoryNode] = {
            ROOT_CATEGORY: CategoryNode(ROOT_CATEGORY, None, 0)
        }
        self._item_category: Dict[int, str] = {}
        self._category_items: Dict[str, List[int]] = {ROOT_CATEGORY: []}

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def add_category(self, category_id: str, parent_id: str = ROOT_CATEGORY) -> None:
        """Add a category under ``parent_id``.

        Raises :class:`TaxonomyError` if the category already exists or the
        parent is unknown — the tree shape is append-only by design so that
        LCA distances never change under a trained model.
        """
        if category_id in self._nodes:
            raise TaxonomyError(f"category {category_id!r} already exists")
        parent = self._nodes.get(parent_id)
        if parent is None:
            raise TaxonomyError(f"unknown parent category {parent_id!r}")
        self._nodes[category_id] = CategoryNode(category_id, parent_id, parent.depth + 1)
        self._category_items[category_id] = []
        parent.children.append(category_id)

    def assign_item(self, item_index: int, category_id: str) -> None:
        """Attach ``item_index`` to ``category_id`` (re-assignment allowed)."""
        if category_id not in self._nodes:
            raise TaxonomyError(f"unknown category {category_id!r}")
        previous = self._item_category.get(item_index)
        if previous is not None:
            self._category_items[previous].remove(item_index)
        self._item_category[item_index] = category_id
        self._category_items[category_id].append(item_index)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return len(self._nodes)

    @property
    def num_items(self) -> int:
        return len(self._item_category)

    def categories(self) -> Iterator[str]:
        return iter(self._nodes)

    def children_of(self, category_id: str) -> Sequence[str]:
        return tuple(self._node(category_id).children)

    def parent_of(self, category_id: str) -> Optional[str]:
        return self._node(category_id).parent_id

    def depth_of(self, category_id: str) -> int:
        return self._node(category_id).depth

    def leaves(self) -> List[str]:
        """All categories with no children."""
        return [c for c, node in self._nodes.items() if not node.children]

    def category_of(self, item_index: int) -> str:
        try:
            return self._item_category[item_index]
        except KeyError:
            raise TaxonomyError(f"item {item_index} has no category") from None

    def has_item(self, item_index: int) -> bool:
        return item_index in self._item_category

    def items_in(self, category_id: str, include_descendants: bool = False) -> List[int]:
        """Items attached to ``category_id`` (optionally its whole subtree)."""
        if not include_descendants:
            return list(self._category_items[self._node(category_id).category_id])
        collected: List[int] = []
        stack = [category_id]
        while stack:
            current = stack.pop()
            collected.extend(self._category_items[self._node(current).category_id])
            stack.extend(self._nodes[current].children)
        return collected

    # ------------------------------------------------------------------
    # Ancestors and LCA distances
    # ------------------------------------------------------------------
    def ancestors(self, category_id: str, include_self: bool = True) -> List[str]:
        """Path from ``category_id`` up to (and including) the root."""
        node = self._node(category_id)
        path = [node.category_id] if include_self else []
        while node.parent_id is not None:
            path.append(node.parent_id)
            node = self._nodes[node.parent_id]
        return path

    def item_ancestors(self, item_index: int, include_category: bool = True) -> List[str]:
        """Ancestor categories of an item, nearest first."""
        return self.ancestors(self.category_of(item_index), include_self=include_category)

    def lca(self, category_a: str, category_b: str) -> str:
        """Least common ancestor of two categories."""
        return self._lca_node(
            self._node(category_a), self._node(category_b)
        ).category_id

    def _lca_node(self, node_a: CategoryNode, node_b: CategoryNode) -> CategoryNode:
        # Level the deeper side, then climb in step; the root is shared.
        while node_a.depth > node_b.depth:
            node_a = self._nodes[node_a.parent_id]
        while node_b.depth > node_a.depth:
            node_b = self._nodes[node_b.parent_id]
        while node_a is not node_b:
            node_a = self._nodes[node_a.parent_id]
            node_b = self._nodes[node_b.parent_id]
        return node_a

    def lca_distance(self, item_a: int, item_b: int) -> int:
        """Paper's item distance (Fig. 3): items are leaf nodes of the tree.

        An item hangs one level below its category, and the distance is
        the number of levels from the item up to the least common
        ancestor: two items in the same category are at distance 1
        (their LCA is the category), Nexus 5X and iPhone 6 at distance 2
        (LCA "smart phones"), Nexus 5X and "other" at distance 3 (LCA
        "cell phones").  When the items sit at different depths we use
        the deeper climb.  ``distance(i, i) == 0``.
        """
        if item_a == item_b:
            return 0
        node_a = self._nodes[self.category_of(item_a)]
        node_b = self._nodes[self.category_of(item_b)]
        lca = self._lca_node(node_a, node_b)
        return max(node_a.depth, node_b.depth) + 1 - lca.depth

    def ancestor_at_distance(self, category_id: str, k: int) -> str:
        """The ancestor ``k`` levels above ``category_id`` (clamped at root)."""
        node = self._node(category_id)
        for _ in range(k):
            if node.parent_id is None:
                break
            node = self._nodes[node.parent_id]
        return node.category_id

    def lca_k(self, item_index: int, k: int) -> List[int]:
        """All items within LCA distance ``k`` of ``item_index``.

        This is the paper's ``lca_k(i)``: ``lca_1`` is the item's own
        category (e.g. other Android phones), ``lca_2`` the parent's
        subtree (all smart phones), and so on.  ``k = 0`` is just the
        item itself.  The result includes ``item_index`` (callers exclude
        it where needed).
        """
        if k < 0:
            raise TaxonomyError("k must be non-negative")
        if k == 0:
            return [item_index]
        top = self.ancestor_at_distance(self.category_of(item_index), k - 1)
        return self.items_in(top, include_descendants=True)

    def copy(self) -> "Taxonomy":
        """An independent deep copy (same tree, same item assignments).

        Day-over-day evolution appends items to a *copy* so earlier
        snapshots stay frozen.
        """
        duplicate = Taxonomy()
        # Re-add categories in depth order so parents exist first.
        ordered = sorted(
            (node for node in self._nodes.values() if node.parent_id is not None),
            key=lambda node: node.depth,
        )
        for node in ordered:
            duplicate.add_category(node.category_id, node.parent_id)
        for item, category in self._item_category.items():
            duplicate.assign_item(item, category)
        return duplicate

    def _node(self, category_id: str) -> CategoryNode:
        try:
            return self._nodes[category_id]
        except KeyError:
            raise TaxonomyError(f"unknown category {category_id!r}") from None


def random_taxonomy(
    n_items: int,
    depth: int = 3,
    fanout: int = 4,
    seed: SeedLike = None,
) -> Taxonomy:
    """Generate a random taxonomy and attach ``n_items`` items to leaves.

    The tree is a complete ``fanout``-ary tree of the given ``depth``
    (root at depth 0, leaves at depth ``depth``).  Items are assigned to
    leaf categories with a mild skew: some categories are larger than
    others, mirroring real catalogs where e.g. "phone cases" dwarfs
    "telescopes".
    """
    if depth < 1:
        raise TaxonomyError("taxonomy depth must be >= 1")
    if fanout < 1:
        raise TaxonomyError("taxonomy fanout must be >= 1")
    rng = make_rng(seed)
    taxonomy = Taxonomy()
    frontier = [ROOT_CATEGORY]
    for level in range(1, depth + 1):
        next_frontier = []
        for parent in frontier:
            for child_index in range(fanout):
                category_id = f"{parent}/c{level}_{child_index}" if parent != ROOT_CATEGORY else f"c{level}_{child_index}"
                taxonomy.add_category(category_id, parent)
                next_frontier.append(category_id)
        frontier = next_frontier

    leaves = taxonomy.leaves()
    # Dirichlet weights give leaf categories heterogeneous sizes.
    weights = rng.dirichlet([0.7] * len(leaves))
    assignments = rng.choice(len(leaves), size=n_items, p=weights)
    for item_index, leaf_index in enumerate(assignments):
        taxonomy.assign_item(item_index, leaves[int(leaf_index)])
    return taxonomy
