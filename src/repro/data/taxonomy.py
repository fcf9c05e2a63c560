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

Ancestor, LCA and subtree questions are answered from one
:class:`TaxonomyIndex` per taxonomy version (DESIGN.md, "Taxonomy index").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TaxonomyError
from repro.rng import SeedLike, make_rng

ROOT_CATEGORY = "root"
#: :meth:`TaxonomyIndex.expand` hands rows sharing one run over by
#: reference, to be ranked as one score matrix, only when they ask for at
#: least this many (row, item) pairs between them.  Below it the matrix
#: path's fixed cost (a few dozen numpy calls a run) outweighs what the
#: pair path spends on those pairs: dense's shared runs (median 4 rows x
#: 11 items, none over 2 000 pairs) ranked slower as matrices, while
#: wide's (median 49 x 120) hold 99 % of their pairs in runs past this.
SHARED_RUN_PAIRS = 1024


@dataclass
class CategoryNode:
    """A single category in the taxonomy tree."""

    category_id: str
    parent_id: Optional[str]
    depth: int
    children: List[str] = field(default_factory=list)


def path_distance(path_a: Tuple[int, ...], path_b: Tuple[int, ...]) -> int:
    """The paper's LCA distance (Fig. 3) of two distinct items, from their
    categories' root-first paths (``TaxonomyIndex.item_path``).

    An item hangs one level below its category, and the distance is the
    number of levels from the item up to the least common ancestor: two
    items in the same category are at distance 1 (their LCA is the
    category), Nexus 5X and iPhone 6 at distance 2 (LCA "smart phones"),
    Nexus 5X and "other" at distance 3 (LCA "cell phones").  When the
    items sit at different depths the deeper climb counts.  The LCA's
    depth is the length of the common prefix.  The samplers' inner loop:
    no ``zip``, no ``max``.
    """
    len_a, len_b = len(path_a), len(path_b)
    shorter = len_a if len_a < len_b else len_b
    shared = 1  # every path starts at the root
    while shared < shorter and path_a[shared] == path_b[shared]:
        shared += 1
    return len_a + len_b - shorter + 1 - shared


class _PerItem(dict):
    """``[key]`` raises :class:`TaxonomyError` for a missing key; ``.get`` and ``in`` do not."""

    complaint = "item {} has no category"

    def __missing__(self, key: object) -> None:
        raise TaxonomyError(self.complaint.format(key))


class _PerCategory(_PerItem):
    complaint = "unknown category {!r}"


class TaxonomyIndex:
    """One taxonomy version as flat tables; built by :meth:`Taxonomy.index`.

    Scalar readers take the plain-Python rows (``paths``, ``item_path``,
    ``enter`` / ``exit``), vectorised readers the arrays: a numpy scalar
    read costs ten times a tuple read.
    """

    def __init__(self, taxonomy: "Taxonomy"):
        nodes, item_category = taxonomy._nodes, taxonomy._item_category
        #: Category ids, sorted; a category's position is its number.
        self.categories: Tuple[str, ...] = tuple(sorted(nodes))
        self.number = _PerCategory((c, n) for n, c in enumerate(self.categories))
        paths: List[Tuple[int, ...]] = [()] * len(nodes)
        #: Pre-order numbers: ``a`` is ``b`` or an ancestor of it iff
        #: ``enter[a] <= enter[b] < exit[a]``.
        self.enter: List[int] = [0] * len(nodes)
        self.exit: List[int] = [0] * len(nodes)
        # Items in the same visiting order, so that the items under a category
        # are ``_tour[_starts[enter]:_starts[exit]]``.  The order is frozen:
        # the generator draws companions from ``lca_k`` by position.
        self._tour: List[int] = []
        self._starts: List[int] = []
        stack = [ROOT_CATEGORY]
        while stack:
            node = nodes[stack.pop()]
            current = self.number[node.category_id]
            above = () if node.parent_id is None else paths[self.number[node.parent_id]]
            paths[current] = above + (current,)
            self.enter[current] = len(self._starts)
            self._starts.append(len(self._tour))
            self._tour.extend(taxonomy._category_items[node.category_id])
            for member in paths[current]:  # every subtree this category is in grows
                self.exit[member] = len(self._starts)
            stack.extend(node.children)
        self._starts.append(len(self._tour))
        #: Root-first ancestor numbers per category, the category last.
        self.paths: Tuple[Tuple[int, ...], ...] = tuple(paths)
        #: ``paths`` row of each categorised item's category; ``[item]``
        #: raises :class:`TaxonomyError` for the others, ``.get`` does not.
        self.item_path = _PerItem(
            (item, paths[self.number[category]]) for item, category in item_category.items()
        )
        self.cat_depth = np.array([len(path) - 1 for path in paths], dtype=np.int64)
        #: ``paths`` as one table, padded with -1 on the right.
        self.cat_ancestors = np.full((len(nodes), self.cat_depth.max() + 1), -1, dtype=np.int64)
        for current, path in enumerate(paths):
            self.cat_ancestors[current, : len(path)] = path
        #: Category number per item index, -1 where uncategorised.
        self.item_cat = np.full(max(item_category, default=-1) + 1, -1, dtype=np.int64)
        self.item_cat[list(item_category)] = [path[-1] for path in self.item_path.values()]
        #: ``enter`` / ``exit`` as arrays, and the category at each pre-order number.
        self.cat_enter = np.array(self.enter, dtype=np.int64)
        self.cat_exit = np.array(self.exit, dtype=np.int64)
        self.pre_order = np.argsort(self.cat_enter)
        self._lay_out_members()

    def _lay_out_members(self) -> None:
        """Every category's subtree, sorted, the runs laid end to end in
        pre-order: ``member_items[member_bounds[e]:member_bounds[e + 1]]``
        is the subtree of the category entered at ``e`` — one entry per
        (item, level) of the tree.  ``member_rank[i, d]`` is where item
        ``i`` sits in ``member_items`` inside its depth-``d`` ancestor's run
        (-1 where it has none), so a pool drops its query item by position.
        """
        items = np.flatnonzero(self.item_cat >= 0)
        above = self.cat_ancestors[self.item_cat[items]]  # (items, levels), -1 padded
        held = above >= 0
        owner = self.cat_enter[above[held]]
        member = np.broadcast_to(items[:, None], above.shape)[held]
        level = np.broadcast_to(np.arange(above.shape[1]), above.shape)[held]
        # ``member`` ascends already: a stable sort by owner keeps each run sorted.
        order = np.argsort(owner, kind="stable")
        self.member_items = member[order]
        self.member_bounds = np.zeros(len(self.categories) + 1, dtype=np.int64)
        self.member_bounds[1:] = np.bincount(owner, minlength=len(self.categories)).cumsum()
        self.member_rank = np.full((self.item_cat.size, above.shape[1]), -1, dtype=np.int64)
        self.member_rank[member[order], level[order]] = np.arange(order.size)
        for table in (self.member_items, self.member_bounds, self.member_rank):
            table.setflags(write=False)

    def lca_root(self, item_index: int, k: int) -> int:
        """Number of the category whose subtree is ``lca_k(item_index, k >= 1)``."""
        path = self.item_path[item_index]
        return path[max(len(path) - k, 0)]

    def members(self, category: int) -> List[int]:
        """Items of category number ``category`` and below, in tour order."""
        return self._tour[self._starts[self.enter[category]] : self._starts[self.exit[category]]]

    def subtree(self, category: int) -> np.ndarray:
        """Sorted items of category number ``category`` and below: a
        read-only slice of ``member_items`` (DESIGN.md, "Taxonomy index")."""
        start = self.enter[category]
        return self.member_items[self.member_bounds[start] : self.member_bounds[start + 1]]

    def categories_of(self, items: np.ndarray) -> np.ndarray:
        """``item_cat`` of each item id (>= 0), -1 for ids past its end too."""
        if not self.item_cat.size:
            return np.full(items.shape, -1, dtype=np.int64)
        return np.where(items < self.item_cat.size, self.item_cat.take(items, mode="clip"), -1)

    def pre_order_of(self, items: np.ndarray) -> np.ndarray:
        """``enter`` of each item's category, -1 for none."""
        cats = self.categories_of(items)
        return np.where(cats >= 0, self.cat_enter[cats], -1)

    def lca_roots(self, items: np.ndarray, k: int) -> np.ndarray:
        """:meth:`lca_root` of each item, -1 where it has none (the item
        is uncategorised, or ``k == 0``: it expands to itself)."""
        cats = self.categories_of(items)
        if k == 0:
            return np.full_like(cats, -1)
        roots = self.cat_ancestors[cats, np.maximum(self.cat_depth[cats] + 1 - k, 0)]
        return np.where(cats >= 0, roots, -1)

    def expand(
        self,
        query: np.ndarray,
        rows: np.ndarray,
        seeds: np.ndarray,
        k: int,
        bound: int,
        drop_lo: np.ndarray,
        drop_hi: np.ndarray,
        share_items: int,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[np.ndarray, ...]]]:
        """Each query item's union of its seeds' ``lca_k`` subtrees, as
        sorted rows ``(items, bounds, shared)``: without the query item,
        and without the subtree whose pre-order interval is ``[drop_lo[r],
        drop_hi[r])`` (-1: none).

        A row whose union is one whole run of ``member_items`` (one
        maximal root, no lone seed, nothing dropped inside it) of at most
        ``share_items`` items, when another row of the block has the same
        run and the run's rows ask for at least :data:`SHARED_RUN_PAIRS`
        (row, item) pairs between them, is handed over by reference instead
        of gathered: it is empty in ``items`` and ``shared`` is ``(rows, lo, hi, omit)`` — row
        ``rows[j]`` is ``member_items[lo[j]:hi[j]]`` without ``omit[j]``,
        its query item, or -1 where the run does not hold that item
        (``shared`` is ``None`` when no row is).

        ``rows`` / ``seeds`` pair every seed with its row, in seed order.
        A seed with no category (or at ``k = 0``) expands to itself.
        Subtrees are laminar, so a row's union is its maximal roots' runs
        of ``member_items``, and a row whose union passes ``bound`` keeps
        its seeds up to the one that crossed it.  The query item is cut
        out of its run, runs inside the dropped subtree go (a run around
        it is masked), one gather emits every row, and only a row of
        several runs is sorted.
        """
        n = query.size
        roots = self.lca_roots(seeds, k)
        lone = roots < 0
        top_rows, enter = self._maximal_roots(rows, roots)
        lo, hi = self.member_bounds[enter], self.member_bounds[enter + 1]
        union = np.bincount(top_rows, hi - lo, minlength=n)
        if lone.any():
            union += np.bincount(rows[lone], minlength=n)
        if union.max(initial=0) > bound:  # only these rows need accounting in seed order
            keep = np.ones(rows.size, dtype=bool)
            for row in (union > bound).nonzero()[0].tolist():
                at = (rows == row).nonzero()[0]
                keep[at[np.argmax(self._prefix_unions(roots[at]) > bound) + 1 :]] = False
            rows, seeds, roots, lone = rows[keep], seeds[keep], roots[keep], lone[keep]
            top_rows, enter = self._maximal_roots(rows, roots)
            lo, hi = self.member_bounds[enter], self.member_bounds[enter + 1]
        leave = self.cat_exit[self.pre_order[enter]]
        below, above = drop_lo[top_rows], drop_hi[top_rows]
        around = top_rows[(enter < below) & (below < leave)]
        kept = (enter < below) | (above <= enter)
        if not kept.all():
            top_rows, enter, leave, lo, hi = (a[kept] for a in (top_rows, enter, leave, lo, hi))
        alone_rows, alone = rows[lone], seeds[lone]
        if alone.size:
            inside = self.pre_order_of(alone)
            kept = (alone != query[alone_rows]) & (
                (inside < drop_lo[alone_rows]) | (drop_hi[alone_rows] <= inside)
            )
            alone_rows, alone = alone_rows[kept], alone[kept]
        shared = None
        whole = np.bincount(top_rows, minlength=n) == 1
        whole[around] = False
        whole[alone_rows] = False
        at = (whole[top_rows] & (hi - lo <= share_items)).nonzero()[0]
        sharing = np.bincount(enter[at])[enter[at]]
        at = at[(sharing > 1) & (sharing * (hi - lo)[at] >= SHARED_RUN_PAIRS)]
        if at.size:
            ref_rows = top_rows[at]
            mine = self.pre_order_of(query[ref_rows])
            holds = (enter[at] <= mine) & (mine < leave[at])
            shared = (ref_rows, lo[at], hi[at], np.where(holds, query[ref_rows], -1))
            kept = np.ones(top_rows.size, dtype=bool)
            kept[at] = False
            top_rows, enter, leave, lo, hi = (a[kept] for a in (top_rows, enter, leave, lo, hi))
        # One gather emits every other row's runs, in (row, enter) order.
        size = hi - lo
        bounds = np.zeros(n + 1, dtype=np.int64)
        bounds[1:] = np.bincount(top_rows, size, minlength=n).cumsum()
        ends = size.cumsum()
        items = self.member_items.take((lo - ends + size).repeat(size) + np.arange(bounds[-1]))
        # The query item leaves its run: one position, found by its rank.
        mine = self.pre_order_of(query)[top_rows]
        holds = ((enter <= mine) & (mine < leave)).nonzero()[0]
        if holds.size:
            depth = self.cat_depth[self.pre_order[enter[holds]]]
            rank = self.member_rank[query[top_rows[holds]], depth]
            keep = np.ones(items.size, dtype=bool)
            keep[ends[holds] - size[holds] + rank - lo[holds]] = False
            items = items[keep]
            bounds[1:] -= np.bincount(top_rows[holds], minlength=n).cumsum()
        if alone.size:  # one-item runs, merged in row order
            owner = np.arange(n).repeat(bounds[1:] - bounds[:-1])
            order = np.concatenate([owner, alone_rows]).argsort(kind="stable")
            items = np.concatenate([items, alone])[order]
            bounds[1:] += np.bincount(alone_rows, minlength=n).cumsum()
        if top_rows.size + alone.size > 1:  # rows of several runs: merge them
            several = np.bincount(np.concatenate([top_rows, alone_rows]), minlength=n) > 1
            for row in several.nonzero()[0].tolist():
                items[bounds[row] : bounds[row + 1]].sort(kind="stable")
        if around.size:  # what those runs hold of the dropped subtree
            owner = np.arange(n).repeat(bounds[1:] - bounds[:-1])
            inside = self.pre_order_of(items)
            keep = (inside < drop_lo[owner]) | (drop_hi[owner] <= inside)
            items = items[keep]
            bounds[1:] = np.bincount(owner[keep], minlength=n).cumsum()
        return items, bounds, shared

    def _maximal_roots(
        self, rows: np.ndarray, roots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's maximal roots (category numbers, -1: none) as
        ``(rows, enter)``, sorted.  Pre-order intervals are laminar: in
        (row, enter) order a root is nested (or repeated) exactly when its
        ``enter`` is below the running maximum ``exit`` before it in its row."""
        width = len(self.categories) + 1
        held = roots >= 0
        if not held.all():
            rows, roots = rows[held], roots[held]
        keys = rows * width + self.cat_enter[roots]
        keys.sort()
        enter = keys % width
        reach = np.maximum.accumulate(keys - enter + self.cat_exit[self.pre_order[enter]])
        top = keys[1:] >= reach[:-1]
        if top.all():
            return keys // width, enter
        top = np.concatenate([[True], top])
        return keys[top] // width, enter[top]

    def _prefix_unions(self, roots: np.ndarray) -> np.ndarray:
        """Sizes of the unions of one row's first 1, 2, ... expansions
        (roots in seed order, -1 for a seed that is its own).  Root ``j``
        counts from its own prefix up to the first root covering it (one
        around it, or the same root earlier)."""
        alone, order = roots < 0, np.arange(roots.size)
        enter = np.where(alone, -1, self.cat_enter[roots])
        leave = np.where(alone, -1, self.cat_exit[roots])
        start = np.maximum(enter, 0)
        size = np.where(alone, 1, self.member_bounds[start + 1] - self.member_bounds[start])
        covers = (enter[:, None] <= enter) & (enter < leave[:, None])
        covers &= (enter[:, None] != enter) | (order[:, None] < order)
        until = np.where(covers.any(axis=0), covers.argmax(axis=0), roots.size)
        live = until > order
        change = np.bincount(order[live], size[live], minlength=roots.size + 1)
        change -= np.bincount(until[live], size[live], minlength=roots.size + 1)
        return np.cumsum(change[:-1])


class Taxonomy:
    """A rooted tree of product categories with item attachments.

    The tree always contains a root category named :data:`ROOT_CATEGORY`
    at depth 0.  Categories are added top-down with
    :meth:`add_category`; items are attached to (typically leaf)
    categories with :meth:`assign_item`.
    """

    def __init__(self) -> None:
        self._nodes = _PerCategory({ROOT_CATEGORY: CategoryNode(ROOT_CATEGORY, None, 0)})
        self._item_category: Dict[int, str] = _PerItem()
        self._category_items: Dict[str, List[int]] = {ROOT_CATEGORY: []}
        self._index: Optional[TaxonomyIndex] = None

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
        self._index = None

    def assign_item(self, item_index: int, category_id: str) -> None:
        """Attach ``item_index`` to ``category_id`` (re-assignment allowed)."""
        if category_id not in self._nodes:
            raise TaxonomyError(f"unknown category {category_id!r}")
        if item_index < 0:  # a catalog position; the index's tables are laid out by it
            raise TaxonomyError(f"item index {item_index} is negative")
        previous = self._item_category.get(item_index)
        if previous is not None:
            self._category_items[previous].remove(item_index)
        self._item_category[item_index] = category_id
        self._category_items[category_id].append(item_index)
        self._index = None

    def index(self) -> TaxonomyIndex:
        """The tables of the current tree, built on first use after a change."""
        if self._index is None:
            self._index = TaxonomyIndex(self)
        return self._index

    def __getstate__(self) -> Dict[str, object]:
        # Derived state: an unpickled copy rebuilds it (~1 ms) on first use.
        return {**self.__dict__, "_index": None}

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
        return tuple(self._nodes[category_id].children)

    def parent_of(self, category_id: str) -> Optional[str]:
        return self._nodes[category_id].parent_id

    def depth_of(self, category_id: str) -> int:
        return self._nodes[category_id].depth

    def leaves(self) -> List[str]:
        """All categories with no children."""
        return [c for c, node in self._nodes.items() if not node.children]

    def category_of(self, item_index: int) -> str:
        return self._item_category[item_index]

    def has_item(self, item_index: int) -> bool:
        return item_index in self._item_category

    def items_in(self, category_id: str, include_descendants: bool = False) -> List[int]:
        """Items attached to ``category_id`` (optionally its whole subtree)."""
        if not include_descendants:
            return list(self._category_items[self._nodes[category_id].category_id])
        index = self.index()
        return index.members(index.number[category_id])

    # ------------------------------------------------------------------
    # Ancestors and LCA distances
    # ------------------------------------------------------------------
    def ancestors(self, category_id: str, include_self: bool = True) -> List[str]:
        """Path from ``category_id`` up to (and including) the root."""
        index = self.index()
        path = index.paths[index.number[category_id]]
        return [index.categories[n] for n in reversed(path if include_self else path[:-1])]

    def item_ancestors(self, item_index: int, include_category: bool = True) -> List[str]:
        """Ancestor categories of an item, nearest first."""
        return self.ancestors(self.category_of(item_index), include_self=include_category)

    def lca(self, category_a: str, category_b: str) -> str:
        """Least common ancestor of two categories."""
        index = self.index()
        path_a = index.paths[index.number[category_a]]
        path_b = index.paths[index.number[category_b]]
        # Root-first paths agree on their common prefix and nowhere after it.
        return index.categories[[a for a, b in zip(path_a, path_b) if a == b][-1]]

    def ancestor_at_distance(self, category_id: str, k: int) -> str:
        """The ancestor ``k`` levels above ``category_id`` (clamped at root)."""
        index = self.index()
        path = index.paths[index.number[category_id]]
        return index.categories[path[max(len(path) - 1 - max(k, 0), 0)]]

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
        index = self.index()
        return index.members(index.lca_root(item_index, k))

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
