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
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


def _top_k(pool: np.ndarray, scores: np.ndarray, k: int) -> List[ScoredItem]:
    """Top-``k`` of a scored pool as the ``ScoredItem`` list a reader gets.

    Ties break by item index (not pool position), in :func:`top_k_select`'s
    order — the order :func:`segmented_top_k` and the retrieval backends
    rank in, so every path fed the same scores selects the same items.
    """
    top = top_k_select(scores, k, tiebreak=pool)
    return _scored_items(pool[top], scores[top])


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
    def concat(
        cls, blocks: Iterable["RankedRows"], order: Optional[np.ndarray] = None
    ) -> "RankedRows":
        """The blocks' rows, one block after the other; with ``order`` (a
        permutation of those rows), row ``j`` of the result is row
        ``order[j]`` of that sequence instead.

        Each entry is copied once, straight to its slot.
        ``concat(blocks).take(order)`` would build the concatenation on
        the way: two copies of a table alive at once, and on wide a 2 MB
        higher ``day_peak_rss_mb`` (glibc hands the freed copy back to
        later allocations, not to the system).  A lone block in its own
        order is returned as it is: nothing can write to what the two
        would share.
        """
        blocks = list(blocks)
        if order is None:
            if len(blocks) == 1:
                return blocks[0]
            order = np.arange(sum(map(len, blocks)))
        counts = np.concatenate([block.counts for block in blocks] or [_NO_ROWS])
        landing = np.empty_like(order)
        landing[order] = np.arange(order.size)
        bounds = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(counts[order], out=bounds[1:])
        items = np.empty(bounds[-1], dtype=np.int64)
        scores = np.empty(bounds[-1])
        first = 0
        for block in blocks:
            rows = landing[first : first + len(block)]
            # Each entry's slot: its row's new start plus its offset in the row.
            slots = np.repeat(bounds[rows] - block.bounds[:-1], block.counts)
            slots += np.arange(slots.size)
            items[slots], scores[slots] = block.items, block.scores
            first += len(block)
        return cls(items, scores, bounds)

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


class SharedRuns(NamedTuple):
    """The rows of an :class:`ItemRows` held by reference to one array.

    Row ``rows[j]`` is the run ``source[lo[j]:hi[j]]`` (sorted, like every
    row) without the item ``omit[j]`` (``-1``: the run does not hold it).
    Rows of one run are
    one candidate pool, which :meth:`Recommender.recommend_batch` ranks
    as one ``(rows x run)`` score matrix instead of pair by pair.
    """

    rows: np.ndarray
    source: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    omit: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return self.hi - self.lo - (self.omit >= 0)

    def row(self, j: int) -> np.ndarray:
        """Shared row ``j``, built as an array of its own (read-only)."""
        run = self.source[self.lo[j] : self.hi[j]]
        row = run[run != self.omit[j]]
        row.setflags(write=False)
        return row


class ItemRows(Sequence[np.ndarray]):
    """Candidate pools: row ``r`` is a read-only sorted int64 array.

    What a block's candidate selection hands :meth:`Recommender.recommend_batch`.
    Rows lie end to end in one flat buffer, ``held_items[held_bounds[r]:
    held_bounds[r + 1]]``, except the ``shared`` ones (a
    :class:`SharedRuns`, or ``None``), which are empty there and are
    built only when read.  ``items`` / ``bounds`` are every row laid end
    to end, the buffer itself when nothing is shared.
    """

    __slots__ = ("held_items", "held_bounds", "shared", "_flat")

    def __init__(
        self,
        items: np.ndarray,
        bounds: np.ndarray,
        shared: Optional[SharedRuns] = None,
    ) -> None:
        for array in (items, bounds):
            array.setflags(write=False)
        self.held_items, self.held_bounds, self.shared = items, bounds, shared
        self._flat = (items, bounds) if shared is None else None

    @classmethod
    def of(cls, pools: Iterable[Sequence[int]]) -> "ItemRows":
        """Pools flattened once."""
        arrays = [_as_item_array(pool) for pool in pools]
        bounds = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([pool.size for pool in arrays], out=bounds[1:])
        items = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        return cls(items, bounds)

    def _flatten(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row end to end, built once: the held entries and the
        shared runs' (less each row's ``omit``, past which a sorted run's
        entries move up one slot) scattered to their rows' places."""
        if self._flat is None:
            bounds = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(self.sizes, out=bounds[1:])
            items = np.empty(bounds[-1], dtype=np.int64)
            shift = np.repeat(bounds[:-1] - self.held_bounds[:-1], np.diff(self.held_bounds))
            items[shift + np.arange(shift.size)] = self.held_items
            shared = self.shared
            width = shared.hi - shared.lo
            start = np.repeat(shared.lo - np.cumsum(width) + width, width)
            run = shared.source[start + np.arange(start.size)]
            omit = np.repeat(shared.omit, width)
            keep = run != omit
            slot = start - np.repeat(shared.lo - bounds[shared.rows], width)
            slot += np.arange(slot.size) - ((omit >= 0) & (run > omit))
            items[slot[keep]] = run[keep]
            for array in (items, bounds):
                array.setflags(write=False)
            self._flat = items, bounds
        return self._flat

    @property
    def items(self) -> np.ndarray:
        return self._flatten()[0]

    @property
    def bounds(self) -> np.ndarray:
        return self._flatten()[1]

    @property
    def sizes(self) -> np.ndarray:
        sizes = np.diff(self.held_bounds)
        if self.shared is not None:
            sizes[self.shared.rows] = self.shared.sizes
        return sizes

    def __len__(self) -> int:
        return self.held_bounds.size - 1

    def __iter__(self) -> Iterator[np.ndarray]:
        # Not ``Sequence``'s index-until-IndexError walk: a row is a slice.
        items, bounds = self._flatten()
        bounds = bounds.tolist()
        return map(items.__getitem__, map(slice, bounds[:-1], bounds[1:]))

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[r] for r in range(*row.indices(len(self)))]
        row = operator.index(row)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("row index out of range")
        if self.shared is not None:
            at = np.flatnonzero(self.shared.rows == row)
            if at.size:
                return self.shared.row(int(at[0]))
        return self.held_items[self.held_bounds[row] : self.held_bounds[row + 1]]

    def __repr__(self) -> str:
        return f"ItemRows({len(self)} rows, {int(self.sizes.sum())} items)"


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
#: No rows (and an empty pool).
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)


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
    every = counts
    live = sizes > 0
    if not live.all():
        # Empty rows own no entry: renumbered away, they cut no run.
        owners = (np.cumsum(live) - 1)[owners]
        sizes, counts = sizes[live], counts[live]
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
    return np.concatenate(chunks), every


def shared_top_k(
    scores: np.ndarray, pool: np.ndarray, own: np.ndarray, k: int, work: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Each row's top ``k`` of one shared ``pool`` without the row's
    ``own`` item, as :func:`top_k_select` orders them (tiebreak: item).

    ``scores`` is the ``(rows, pool)`` matrix and ``work`` a scratch array
    of its shape (the partition's).  Returns ``(items, scores)``, both
    ``(rows, k)``.

    Under the total order (score desc, item asc), a row's best ``k + 1``
    hold its top ``k`` whether or not they hold its own item: drop that
    item if it is there and keep the first ``k``.  One row-wise partition
    finds them — the entries not below the ``k + 1``-th score — exactly
    when every score under it is strictly lower.  Where that cannot be
    read off the partition (a tie at the cut, a NaN anywhere) the answer
    is ``None`` and the caller ranks the rows pair by pair, as it does a
    pool of at most ``k + 1`` items, which it never hands over (``k >= 1``).
    """
    n_rows, width = scores.shape
    np.copyto(work, scores)
    # Ascending, NaN last: the k + 1 best, and every NaN, from ``kth`` on.
    kth = width - k - 1
    work.partition(kth, axis=1)
    if np.isnan(work[:, kth:]).any() or not (work[:, :kth].max(axis=1) < work[:, kth]).all():
        return None
    # Exactly k + 1 entries a row, in row order.
    at = np.flatnonzero(scores >= work[:, kth, None])
    items = pool.take(at % width).reshape(n_rows, k + 1)
    best = scores.take(at).reshape(n_rows, k + 1)
    order = np.lexsort((items, -best), axis=1)
    order += np.arange(0, order.size, k + 1)[:, None]
    items, best = items.take(order), best.take(order)
    keep = items != own[:, None]
    keep &= np.cumsum(keep, axis=1) <= k
    return items[keep].reshape(n_rows, k), best[keep].reshape(n_rows, k)


def _rank_runs(
    matrix: Optional[Callable[..., np.ndarray]],
    query: np.ndarray,
    shared: Optional[SharedRuns],
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``shared`` rows ranked one matrix per run, where
    :func:`shared_top_k` can: ``(done, items, scores)``, the rows done and
    their ``(done, k)`` top entries.  The rest are left to the pair path.

    Every run's matrix and partition copy are views of one scratch
    buffer, sized to the call's largest run: a call holds at most
    ``2 x rows x run`` doubles of them, whatever its number of runs.
    """
    done: List[np.ndarray] = []
    tops: List[Tuple[np.ndarray, np.ndarray]] = []
    if matrix is not None and shared is not None and k >= 1:
        # One group per run: rows of equal (lo, hi), whichever producer
        # laid them out.
        order = np.lexsort((shared.hi, shared.lo))
        lo, hi = shared.lo[order], shared.hi[order]
        starts = np.flatnonzero(
            np.concatenate([[True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
        )
        ends = np.append(starts[1:], lo.size)
        runs = [
            (start, stop, first, width)
            for start, stop, first, width in zip(
                starts.tolist(), ends.tolist(), lo[starts].tolist(), (hi - lo)[starts].tolist()
            )
            if width > k + 1
        ]
        cells = max(((stop - start) * width for start, stop, _, width in runs), default=0)
        scratch = np.empty(2 * cells)
        for start, stop, first, width in runs:
            rows = shared.rows[order[start:stop]]
            pool = shared.source[first : first + width]
            shape = (rows.size, width)
            scores = matrix(rows, pool, scratch[: rows.size * width].reshape(shape))
            work = scratch[cells : cells + rows.size * width].reshape(shape)
            top = shared_top_k(scores, pool, query[rows], k, work)
            if top is not None:
                done.append(rows)
                tops.append(top)
    if not done:
        return _NO_ROWS, _NO_ROWS, _NO_ROWS
    items, scores = zip(*tops)
    return np.concatenate(done), np.concatenate(items), np.concatenate(scores)


def _pair_rows(pools: ItemRows, done: np.ndarray) -> ItemRows:
    """``pools`` held in one flat buffer, rows ``done`` (shared rows
    ranked already) empty: what the pair path ranks."""
    shared = pools.shared
    if shared is None:
        return pools
    rest = ~np.isin(shared.rows, done)
    if not rest.any():
        return ItemRows(pools.held_items, pools.held_bounds)
    rest = SharedRuns(
        shared.rows[rest], shared.source, shared.lo[rest], shared.hi[rest], shared.omit[rest]
    )
    return ItemRows(*ItemRows(pools.held_items, pools.held_bounds, rest)._flatten())


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
        or one shared negative sample).  Single actions that each bring
        their own pool go through :meth:`_score_queries` instead.

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

    def recommend_batch(
        self,
        query: Sequence[int],
        pools: Sequence[Sequence[int]],
        k: int = 10,
        event: EventType = EventType.VIEW,
    ) -> RankedRows:
        """Top-``k`` of ``pools[r]`` for the user whose whole context is
        one ``event`` on item ``query[r]``, that item left out of its pool.

        Offline inference's question, asked once per block and surface
        with the block's item ids as one array and its pools as
        :class:`ItemRows`: row ``r`` is what :meth:`recommend` answers for
        ``UserContext((query[r],), (event,))`` with ``candidates=pools[r]``.
        Rows that share one run (``pools.shared``) are ranked as one
        ``(rows x run)`` score matrix per run, where the model scores
        matrices (``_scorers``) and :func:`shared_top_k` can cut them; every
        other row goes pair by pair: one compare over the flat pools drops
        every row's own item, the pair scorer scores the rest (work is the
        number of pairs asked for, never ``B x |union of pools|``), and one
        :func:`segmented_top_k` ranks them.  Both paths select in
        :func:`top_k_select`'s order — NaN/diverged-model semantics
        included — and score a pair to the same bits.

        The result is the kernels' arrays behind a sequence of
        ``ScoredItem`` lists (:class:`RankedRows`): indexing a row builds
        its list, nothing else builds any.
        """
        query = _as_item_array(query)
        if not isinstance(pools, ItemRows):
            pools = ItemRows.of(pools)
        if len(pools) != query.size:
            raise ValueError(
                f"got {query.size} query items but {len(pools)} candidate lists"
            )
        pairs, matrix = self._scorers(query, event)
        done, best_items, best_scores = _rank_runs(matrix, query, pools.shared, k)
        pools = _pair_rows(pools, done)
        items, sizes = pools.held_items, np.diff(pools.held_bounds)
        owners = np.repeat(np.arange(sizes.size), sizes)
        keep = items != query[owners]
        if not keep.all():
            items, owners = items[keep], owners[keep]
            sizes = np.bincount(owners, minlength=sizes.size)
        scores = pairs(items, owners, sizes)
        top, counts = segmented_top_k(scores, items, owners, sizes, k)
        if not done.size:
            return RankedRows.from_counts(items[top], scores[top], counts)
        # The matrix rows' ``k`` entries go to their own slots, the pair
        # rows' entries, in row order, to every other slot.
        counts[done] = k
        bounds = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        slots = bounds[done][:, None] + np.arange(k)
        paired = np.ones(bounds[-1], dtype=bool)
        paired[slots] = False
        ranked_items = np.empty(bounds[-1], dtype=np.int64)
        ranked_scores = np.empty(bounds[-1])
        ranked_items[slots], ranked_scores[slots] = best_items, best_scores
        ranked_items[paired], ranked_scores[paired] = items[top], scores[top]
        return RankedRows(ranked_items, ranked_scores, bounds)

    def _scorers(
        self, query: np.ndarray, event: EventType
    ) -> Tuple[Callable[..., np.ndarray], Optional[Callable[..., np.ndarray]]]:
        """``(pairs, matrix)`` for one ``event`` on each ``query`` item.

        ``pairs(items, owners, sizes)`` is :meth:`_score_queries` over the
        flat pairs; ``matrix(rows, pool, out)`` writes the scores of query
        rows ``rows`` against every item of ``pool`` into the
        ``(rows, pool)`` array ``out`` and returns it, each cell to the bits
        ``pairs`` gives that pair.  ``None`` here: the default model scores
        pairs only, and :meth:`recommend_batch` ranks every row that way.
        """
        return partial(self._score_queries, query, event), None

    def _score_queries(
        self,
        query: np.ndarray,
        event: EventType,
        items: np.ndarray,
        owners: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Scores of the flat ``(query[owners[i]], items[i])`` pairs, for
        one ``event`` on each query item: row ``r``'s ``sizes[r]`` items
        lie end to end after row ``r - 1``'s.

        The default builds each row's one-action context and makes one
        :meth:`score_items` call per non-empty pool (like :meth:`recommend`,
        which never hands a model an empty one) — correct for any model,
        pool-relative ones included; embedding models override it with one
        gather-and-dot per batch.
        """
        scores = np.empty(items.size, dtype=np.float64)
        lo = 0
        for item, size in zip(query.tolist(), sizes.tolist()):
            if size:
                context = UserContext((item,), (event,))
                scores[lo : lo + size] = self.score_items(context, items[lo : lo + size])
            lo += size
        return scores

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
