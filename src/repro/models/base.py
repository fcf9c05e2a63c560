"""The common recommender interface.

Every model — BPR, WALS, co-occurrence, popularity, and the hybrid — is a
:class:`Recommender`: given a user context it scores items, and given a
candidate set it returns the top-K.  Inference, evaluation and serving
only ever talk to this interface, so models are interchangeable (the paper
notes BPR could be swapped for least-squares "easily", section VI).
"""

from __future__ import annotations

import abc
import operator
from itertools import repeat
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.data.events import EventType
from repro.data.sessions import UserContext


class ScoredItem(NamedTuple):
    """An item index paired with a model score (higher is better).

    What a *reader* of recommendations gets: :meth:`Recommender.recommend`
    returns a list of these, and so does one row of a :class:`RankedRows`
    or one ``lookup`` of a published table.  Nothing holds them in bulk —
    a day's ``n_items x surfaces x k`` recommendations stay in arrays from
    the top-k kernel to the store, because a tuple subclass is an object
    the garbage collector tracks for as long as it lives.
    """

    item_index: int
    score: float


def _as_item_array(items: Sequence[int]) -> np.ndarray:
    """Candidate sequence -> int64 index array (no copy when already one).

    Any integer ndarray is accepted directly (``int32`` from an index
    structure must not fall through to the element-wise ``list()`` path),
    while float ndarrays raise instead of being silently truncated —
    ``np.asarray([2.7], dtype=np.int64)`` would quietly score item 2.
    """
    if isinstance(items, np.ndarray):
        if items.dtype.kind not in "iu":
            raise TypeError(
                f"item indices must be an integer array, got dtype "
                f"{items.dtype}"
            )
        return items.astype(np.int64, copy=False)
    return np.asarray(list(items), dtype=np.int64)


def _exclude_items(pool: np.ndarray, context: UserContext) -> np.ndarray:
    """Drop the context's items from ``pool``, preserving candidate order."""
    if len(context) == 0 or pool.size == 0:
        return pool
    seen = np.asarray(context.item_indices, dtype=np.int64)
    if seen.size == 1:
        # The inference pipeline's contexts are single items.
        return pool[pool != seen[0]]
    if seen.size <= 16:
        # Typical contexts are a handful of items: a broadcast compare is
        # several times cheaper than np.isin's sort-based set machinery.
        return pool[~(pool[:, None] == seen).any(axis=1)]
    return pool[~np.isin(pool, seen)]


def top_k_select(
    scores: np.ndarray, k: int, tiebreak: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of the ``k`` best scores, ordered ``(score desc, tiebreak asc)``.

    The total order is fully deterministic: equal scores break by the
    ``tiebreak`` key (the position itself when omitted) and NaN scores
    rank strictly worst, themselves ordered by tiebreak.  Every ranking
    path — per-item, batched, exact retrieval, ANN retrieval — selects
    through this one function, so two paths fed the same scores can never
    reorder tied items against each other (argpartition's behavior under
    ties is unspecified and has changed across numpy versions).
    """
    n = scores.size
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    tb = np.arange(n, dtype=np.int64) if tiebreak is None else tiebreak
    if k < n:
        # k-th largest score: partition sorts NaN last, so the pivot is
        # NaN only when fewer than k scores are numbers at all.
        kth = -np.partition(-scores, k - 1)[k - 1]
        if not np.isnan(kth):
            # Everything at or above the pivot (never a NaN) holds the
            # whole top-k plus the pivot's surplus ties, which the stable
            # sort leaves past position k in tiebreak order.
            sel = np.flatnonzero(scores >= kth)
            return sel[np.lexsort((tb[sel], -scores[sel]))[:k]]
    # Stable lexsort: primary score descending, secondary tiebreak
    # ascending; NaN keys sink to the end preserving tiebreak order.
    return np.lexsort((tb, -scores))[:k]


def _top_k_arrays(
    pool: np.ndarray, scores: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` of a scored pool as aligned ``(items, scores)`` arrays.

    Shared by the per-item and batched paths: both feed this the same
    (pool, scores) arrays and ties break by item index (not pool
    position), so selection is identical by construction — including
    against the retrieval backends, which rank through the same
    :func:`top_k_select` order.
    """
    top = top_k_select(scores, k, tiebreak=pool)
    return pool[top], scores[top]


def _top_k(pool: np.ndarray, scores: np.ndarray, k: int) -> List[ScoredItem]:
    """:func:`_top_k_arrays` as the ``ScoredItem`` list a reader gets."""
    return _scored_items(*_top_k_arrays(pool, scores, k))


def _scored_items(items: np.ndarray, scores: np.ndarray) -> List[ScoredItem]:
    """Aligned index and score arrays -> ``ScoredItem`` list."""
    # .tolist() converts to native int/float in one C pass, and
    # tuple.__new__ skips the Python frame of the generated __new__.
    pairs = zip(items.tolist(), scores.tolist())
    return list(map(tuple.__new__, repeat(ScoredItem), pairs))


class RankedRows(Sequence[List[ScoredItem]]):
    """One ranked list per row, held as three read-only arrays.

    Row ``r`` is ``items[bounds[r]:bounds[r + 1]]`` with its aligned
    ``scores``, best first — what :func:`segmented_top_k` leaves in hand.
    It reads as a sequence of ``ScoredItem`` lists, but a row's objects
    exist only while someone holds the list that indexing it built: each
    ``rows[r]`` is a fresh list the caller may mutate.  The arrays are
    frozen at construction (the instance takes them over), which is what
    lets a day's journal payload, the publish gate and both versions a
    store keeps share one buffer without a defensive copy.
    """

    __slots__ = ("items", "scores", "bounds")

    def __init__(
        self, items: np.ndarray, scores: np.ndarray, bounds: np.ndarray
    ) -> None:
        if (
            items.shape != scores.shape
            or bounds.ndim != 1
            or bounds.size == 0
            or bounds[0] != 0
            or bounds[-1] != items.size
        ):
            raise ValueError(
                f"bounds {bounds.shape} do not partition {items.shape} items "
                f"and {scores.shape} scores"
            )
        for array in (items, scores, bounds):
            array.setflags(write=False)
        self.items, self.scores, self.bounds = items, scores, bounds

    @classmethod
    def from_counts(
        cls, items: np.ndarray, scores: np.ndarray, counts: np.ndarray
    ) -> "RankedRows":
        """Rows laid end to end, ``counts[r]`` entries for row ``r``."""
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return cls(items, scores, bounds)

    @classmethod
    def concat(cls, blocks: Iterable["RankedRows"]) -> "RankedRows":
        """The blocks' rows, one block after the other (a lone block is
        returned as it is: nothing can write to what the two would share)."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.from_counts(
                np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
            )
        return cls.from_counts(
            np.concatenate([block.items for block in blocks]),
            np.concatenate([block.scores for block in blocks]),
            np.concatenate([block.counts for block in blocks]),
        )

    @property
    def counts(self) -> np.ndarray:
        """Entries per row."""
        return np.diff(self.bounds)

    def take(self, order: np.ndarray) -> "RankedRows":
        """Rows re-ordered: row ``j`` of the result is row ``order[j]``."""
        counts = self.counts[order]
        ends = np.cumsum(counts)
        # Each entry's source: its row's old start plus its offset in the row.
        source = np.repeat(self.bounds[:-1][order] - (ends - counts), counts)
        source += np.arange(source.size)
        return RankedRows.from_counts(self.items[source], self.scores[source], counts)

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[r] for r in range(*row.indices(len(self)))]
        row = operator.index(row)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("row index out of range")
        lo, hi = self.bounds[row], self.bounds[row + 1]
        return _scored_items(self.items[lo:hi], self.scores[lo:hi])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Through the constructor: unpickled arrays come back writeable.
        return type(self), (self.items, self.scores, self.bounds)

    def __repr__(self) -> str:
        return f"RankedRows({len(self)} rows, {self.items.size} entries)"


class ItemRows(Sequence[np.ndarray]):
    """Candidate pools laid end to end: row ``r`` is the read-only int64
    array ``items[bounds[r]:bounds[r + 1]]``.

    What a block's candidate selection hands :meth:`Recommender.recommend_batch`,
    which ranks the flat ``items`` as they are.
    """

    __slots__ = ("items", "bounds")

    def __init__(self, items: np.ndarray, bounds: np.ndarray) -> None:
        for array in (items, bounds):
            array.setflags(write=False)
        self.items, self.bounds = items, bounds

    @classmethod
    def of(cls, pools: Iterable[Sequence[int]]) -> "ItemRows":
        """Pools flattened once."""
        arrays = [_as_item_array(pool) for pool in pools]
        bounds = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([pool.size for pool in arrays], out=bounds[1:])
        items = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(items, bounds)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __iter__(self) -> Iterator[np.ndarray]:
        # Not ``Sequence``'s index-until-IndexError walk: a row is a slice.
        bounds = self.bounds.tolist()
        return map(self.items.__getitem__, map(slice, bounds[:-1], bounds[1:]))

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[r] for r in range(*row.indices(len(self)))]
        row = operator.index(row)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("row index out of range")
        return self.items[self.bounds[row] : self.bounds[row + 1]]

    def __repr__(self) -> str:
        return f"ItemRows({len(self)} rows, {self.items.size} items)"


class SingleActions(Sequence[UserContext]):
    """User contexts of one action each, all of one ``event``, held as
    their item ids: row ``r`` is ``UserContext((items[r],), (event,))``.

    What offline inference hands :meth:`Recommender.recommend_batch` for a
    block's surface, which asks :meth:`Recommender.rank_items` with the ids
    as they are.  Indexing a row builds its context; nothing else builds any.
    """

    __slots__ = ("items", "event")

    def __init__(self, items: Sequence[int], event: EventType) -> None:
        self.items = _as_item_array(items)
        self.event = event

    def __len__(self) -> int:
        return self.items.size

    def __getitem__(self, row: int) -> UserContext:
        return UserContext((int(self.items[row]),), (self.event,))

    def __repr__(self) -> str:
        return f"SingleActions({len(self)} rows, {self.event.name})"


#: Scratch cells per scored pair in :func:`segmented_top_k`, which pads a
#: run of rows to its widest pool: runs are cut so that stays at most this
#: multiple of their pairs, and one catalog-sized pool beside 127 small
#: ones is padded alone, not as ``128 x n_items`` doubles.  Sized on
#: perfbench: ``wide_incr_uniform_cold`` pools run 46-1 000 wide inside a
#: block (1-11 runs at 4, mean 3.2) and rank in 290-310 us a block at any
#: factor from 2 to 16, 255 us unbounded, 2 700 us at 1.
_PAD_FACTOR = 4
#: Tiebreak key of a padding cell: after every real item.
_LAST_ITEM = np.iinfo(np.int64).max


def segmented_top_k(
    scores: np.ndarray,
    items: np.ndarray,
    owners: np.ndarray,
    sizes: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`top_k_select` for every segment of a flat array at once.

    Segment ``r`` is the ``sizes[r]`` consecutive entries whose ``owners``
    are ``r``; ``items`` is the tiebreak key.  Returns ``(top, counts)``:
    flat positions grouped by segment — ``counts[r]`` for segment ``r`` —
    each group exactly as ``top_k_select(its scores, k, tiebreak=its
    items)`` orders it.

    One lexsort over a whole block is slower than a per-segment loop (1.7
    against 1.4 ms for 128 x 100), so entries are first cut to those not
    below their segment's k-th score (a row-wise partition of the padded
    scores) and the ``~rows x k`` survivors, padded again, sort row by row.
    """
    counts = np.minimum(sizes, max(k, 0))
    if scores.size == 0 or k <= 0:
        return np.empty(0, dtype=np.int64), counts
    ends = np.cumsum(sizes)
    starts = ends - sizes
    chunks = []
    row = 0
    while row < sizes.size:
        # The longest run of rows from ``row`` on that fits the pad bound
        # (a single row always does).
        widths = np.maximum.accumulate(sizes[row:])
        fits = widths * np.arange(1, widths.size + 1) <= _PAD_FACTOR * (
            ends[row:] - starts[row]
        )
        stop = row + int(np.flatnonzero(fits)[-1]) + 1
        lo, hi, width = starts[row], ends[stop - 1], int(widths[stop - row - 1])
        run_sizes = sizes[row:stop]
        if width > k:
            # Row-major cells of the padded matrix are the flat order.
            padded = np.full((stop - row, width), np.nan)
            padded[np.arange(width) < run_sizes[:, None]] = scores[lo:hi]
            # Negated, NaN sorts last: the k-th best is NaN only in a row
            # with fewer than k numbers, which "not below it" keeps whole;
            # elsewhere that keeps the top k, their ties and the row's
            # NaNs, which sort behind those.
            np.negative(padded, out=padded)
            padded.partition(k - 1, axis=1)
            kth = np.repeat(-padded[:, k - 1], run_sizes)
            kept = lo + np.flatnonzero(~(scores[lo:hi] < kth))
            per_row = np.bincount(owners[kept] - row, minlength=stop - row)
        else:
            kept, per_row = np.arange(lo, hi), run_sizes
        # The survivors, padded again to their widest row, sort row by row:
        # score descending (NaN last), then item; padding sorts after both.
        slots = np.arange(int(per_row.max())) < per_row[:, None]
        by_score = np.full(slots.shape, np.nan)
        by_score[slots] = -scores[kept]
        by_item = np.full(slots.shape, _LAST_ITEM)
        by_item[slots] = items[kept]
        order = np.lexsort((by_item, by_score), axis=1)[:, :k]
        # A row's first ``counts`` columns are survivors, never padding.
        order += (np.cumsum(per_row) - per_row)[:, None]
        chunks.append(
            kept[order[np.arange(order.shape[1]) < counts[row:stop, None]]]
        )
        row = stop
    return np.concatenate(chunks), counts


def _kept(
    items: np.ndarray, owners: np.ndarray, sizes: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat pools' ``(items, owners, sizes)`` cut to the ``keep`` entries."""
    if keep.all():
        return items, owners, sizes
    owners = owners[keep]
    return items[keep], owners, np.bincount(owners, minlength=sizes.size)


def _ranked(
    scores: np.ndarray, items: np.ndarray, owners: np.ndarray, sizes: np.ndarray, k: int
) -> RankedRows:
    """The scored flat pools' top-``k`` per row, through :func:`segmented_top_k`."""
    top, counts = segmented_top_k(scores, items, owners, sizes, k)
    return RankedRows.from_counts(items[top], scores[top], counts)


class Recommender(abc.ABC):
    """Scores items for a user context and produces ranked recommendations."""

    #: Number of items this model knows about.
    n_items: int

    @abc.abstractmethod
    def score_items(
        self, context: UserContext, item_indices: Sequence[int]
    ) -> np.ndarray:
        """Affinity scores for ``item_indices`` given ``context``.

        Returns an array aligned with ``item_indices``.  Scores are only
        comparable within one call (ranking semantics, paper section VII).
        """

    def score_all(self, context: UserContext) -> np.ndarray:
        """Scores for every item in the catalog (naive full inference)."""
        return self.score_items(context, range(self.n_items))

    def recommend(
        self,
        context: UserContext,
        k: int = 10,
        candidates: Optional[Sequence[int]] = None,
        exclude_context_items: bool = True,
    ) -> List[ScoredItem]:
        """Top-``k`` items for ``context``, optionally restricted to candidates.

        ``exclude_context_items`` drops items the user already interacted
        with — the common production default for substitute/complement
        surfaces.
        """
        if candidates is None:
            pool = np.arange(self.n_items)
        else:
            pool = _as_item_array(candidates)
        if exclude_context_items:
            pool = _exclude_items(pool, context)
        if pool.size == 0:
            return []
        scores = np.asarray(self.score_items(context, pool), dtype=np.float64)
        return _top_k(pool, scores, k)

    def score_contexts(
        self,
        contexts: Sequence[UserContext],
        item_indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Score matrix for a batch of contexts: ``(B, n_items)`` (or
        ``(B, len(item_indices))`` when a column subset is given).

        The dense kernel: every context against the *same* columns, which
        is the evaluators' question (a holdout block against the catalog
        or one shared negative sample).  Contexts that each bring their
        own pool go through :meth:`score_pairs` instead.

        The default stacks one :meth:`score_all` / :meth:`score_items`
        call per context — correct for any model; embedding models
        override this with a single matrix multiply.
        """
        if item_indices is None:
            width = self.n_items
            rows = [self.score_all(context) for context in contexts]
        else:
            items = _as_item_array(item_indices)
            width = items.size
            rows = [self.score_items(context, items) for context in contexts]
        if not rows:
            return np.zeros((0, width), dtype=np.float64)
        return np.stack([np.asarray(row, dtype=np.float64) for row in rows])

    def score_pairs(
        self,
        contexts: Sequence[UserContext],
        items: np.ndarray,
        owners: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Scores of the flat ``(contexts[owners[i]], items[i])`` pairs.

        The ragged kernel: the contexts' own pools laid end to end
        (``sizes[r]`` items for context ``r``, ``owners`` naming each
        item's context), so only the pairs asked for are scored — offline
        inference's question, where every item brings its own candidate
        list.  The default is one :meth:`score_items` call per non-empty
        pool (like :meth:`recommend`, which never hands a model an empty
        one) — correct for any model, pool-relative ones included;
        embedding models override it with one gather-and-dot per batch.
        """
        scores = np.empty(items.size, dtype=np.float64)
        lo = 0
        for context, size in zip(contexts, sizes.tolist()):
            if size:
                scores[lo : lo + size] = self.score_items(context, items[lo : lo + size])
            lo += size
        return scores

    def recommend_batch(
        self,
        contexts: Sequence[UserContext],
        candidate_lists: Optional[Sequence[Optional[Sequence[int]]]] = None,
        k: int = 10,
        exclude_context_items: bool = True,
    ) -> RankedRows:
        """Batched :meth:`recommend`: one list of recommendations per context.

        ``candidate_lists`` aligns with ``contexts`` (``None`` entries — or
        ``None`` for the whole argument — mean the full catalog).  The rows
        that bring a list are ranked as one flat array: pools concatenated,
        context items dropped, one :meth:`score_pairs` call (work is the
        number of pairs asked for, never ``B x |union of pools|``), one
        :func:`segmented_top_k` — and when each of them is one action, all
        of one event, the whole question is :meth:`rank_items`', asked with
        their item ids.  The whole-catalog rows ask the dense
        question: they share one :meth:`score_contexts` matrix and rank
        row by row through :func:`_top_k_arrays`.  Both select in
        :func:`top_k_select`'s order, so results match :meth:`recommend`
        call-for-call — including exclude-context-items and
        NaN/diverged-model semantics.

        Offline inference asks with :class:`SingleActions` and
        :class:`ItemRows`, which go to :meth:`rank_items` as they are.

        The result is the kernels' arrays behind a sequence of
        ``ScoredItem`` lists (:class:`RankedRows`): indexing a row builds
        its list, nothing else builds any.
        """
        if (
            exclude_context_items
            and isinstance(contexts, SingleActions)
            and isinstance(candidate_lists, ItemRows)
        ):
            return self.rank_items(contexts.items, candidate_lists, k, contexts.event)
        contexts = list(contexts)
        if candidate_lists is None:
            candidate_lists = [None] * len(contexts)
        elif not isinstance(candidate_lists, ItemRows):
            candidate_lists = list(candidate_lists)
        if len(candidate_lists) != len(contexts):
            raise ValueError(
                f"got {len(contexts)} contexts but "
                f"{len(candidate_lists)} candidate lists"
            )
        if isinstance(candidate_lists, ItemRows):
            pools, listed, whole = candidate_lists, list(range(len(contexts))), []
        else:
            listed = [
                row for row, candidates in enumerate(candidate_lists)
                if candidates is not None
            ]
            whole = [
                row for row, candidates in enumerate(candidate_lists)
                if candidates is None
            ]
            pools = ItemRows.of(candidate_lists[row] for row in listed)
        blocks: List[RankedRows] = []
        if listed:
            listed_contexts = [contexts[row] for row in listed]
            events = {context.events for context in listed_contexts}
            if exclude_context_items and len(events) == 1 and len(next(iter(events))) == 1:
                # Each row is one action, all of one event: the item-id question.
                (event,) = events.pop()
                query = np.fromiter(
                    (context.item_indices[0] for context in listed_contexts),
                    dtype=np.int64,
                    count=len(listed_contexts),
                )
                blocks.append(self.rank_items(query, pools, k, event))
            else:
                blocks.append(
                    self._rank_listed(
                        listed_contexts, pools.items, pools.sizes, k, exclude_context_items
                    )
                )
        if whole:
            full_pool = np.arange(self.n_items)
            matrix = self.score_contexts([contexts[row] for row in whole])
            for row, row_scores in zip(whole, matrix):
                pool = full_pool
                if exclude_context_items:
                    pool = _exclude_items(pool, contexts[row])
                items, scores = _top_k_arrays(pool, row_scores[pool], k)
                blocks.append(
                    RankedRows(items, scores, np.array([0, items.size]))
                )
        # Inference's blocks are all listed: the kernel's arrays as they are.
        ranked = RankedRows.concat(blocks)
        if listed and whole:
            ranked = ranked.take(np.argsort(listed + whole))
        return ranked

    def rank_items(
        self,
        query: Sequence[int],
        pools: Sequence[Sequence[int]],
        k: int = 10,
        event: EventType = EventType.VIEW,
    ) -> RankedRows:
        """Top-``k`` of ``pools[r]`` for the user whose whole context is
        one ``event`` on item ``query[r]``, that item left out of its pool.

        Offline inference's question, asked once per block and surface
        with the block's item ids as one array: what :meth:`recommend_batch`
        answers for the contexts ``UserContext((query[r],), (event,))``,
        which sends such a batch here.  One compare over the flat pools
        drops every row's own item, :meth:`_score_queries` scores the rest,
        and one :func:`segmented_top_k` ranks them.
        """
        query = _as_item_array(query)
        if not isinstance(pools, ItemRows):
            pools = ItemRows.of(pools)
        if len(pools) != query.size:
            raise ValueError(
                f"got {query.size} query items but {len(pools)} candidate lists"
            )
        items, sizes = pools.items, pools.sizes
        owners = np.repeat(np.arange(sizes.size), sizes)
        items, owners, sizes = _kept(items, owners, sizes, items != query[owners])
        scores = self._score_queries(query, event, items, owners, sizes)
        return _ranked(scores, items, owners, sizes, k)

    def _score_queries(
        self,
        query: np.ndarray,
        event: EventType,
        items: np.ndarray,
        owners: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """:meth:`score_pairs` for the single-action contexts of
        :meth:`rank_items`.  This default builds them; a model that needs
        no context object for one action overrides it."""
        contexts = [UserContext((item,), (event,)) for item in query.tolist()]
        return self.score_pairs(contexts, items, owners, sizes)

    def _rank_listed(
        self,
        contexts: List[UserContext],
        items: np.ndarray,
        sizes: np.ndarray,
        k: int,
        exclude_context_items: bool,
    ) -> RankedRows:
        """Top-``k`` of each context's own pool, the pools laid end to end
        (``sizes[r]`` items for context ``r``)."""
        owners = np.repeat(np.arange(sizes.size), sizes)
        if exclude_context_items:
            keep = np.ones(items.size, dtype=bool)
            ends = np.cumsum(sizes).tolist()
            for context, start, stop in zip(contexts, [0] + ends, ends):
                keep[start:stop] = ~np.isin(items[start:stop], context.item_indices)
            items, owners, sizes = _kept(items, owners, sizes, keep)
        scores = self.score_pairs(contexts, items, owners, sizes)
        return _ranked(scores, items, owners, sizes, k)

    def rank_of(
        self,
        context: UserContext,
        target_item: int,
        candidates: Optional[Sequence[int]] = None,
    ) -> int:
        """1-based rank of ``target_item`` among ``candidates`` (or all items).

        Ties are counted against the target (worst-case rank among equals),
        which keeps evaluation pessimistic and deterministic.
        """
        if candidates is None:
            pool = np.arange(self.n_items)
        else:
            pool = _as_item_array(candidates)
        scores = np.asarray(self.score_items(context, pool), dtype=np.float64)
        target_positions = np.flatnonzero(pool == target_item)
        if target_positions.size == 0:
            raise ValueError(f"target item {target_item} not in candidate pool")
        target_score = scores[target_positions[0]]
        if not np.isfinite(target_score):
            # A diverged model (NaN/inf scores) must rank worst, not best —
            # otherwise model selection would pick garbage.
            return int(pool.size)
        better_or_equal = int(np.sum(scores >= target_score))
        return better_or_equal
