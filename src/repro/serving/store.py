"""The versioned, batch-swapped recommendation store.

Each retailer's recommendations are loaded as one atomic batch: readers
see either yesterday's complete table or today's complete table, never a
mix.  All reads are namespaced by retailer id and cross-retailer access
is impossible by construction — the privacy guarantee of section I.

A batch is a :class:`RecommendationTable`: sorted item ids over the
read-only arrays the top-k kernel produced.  Inference builds it, the
journal, the publish gate and the store hold that one object, and a
``ScoredItem`` exists only in the list a :meth:`~RecommendationStore.lookup`
hands its caller.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ServingError
from repro.models.base import RankedRows, ScoredItem
from repro.obs.metrics import NULL_METRICS


class RecommendationTable(Mapping[int, List[ScoredItem]]):
    """One surface of one retailer: item id -> ranked recommendations.

    ``item_ids`` (strictly increasing) names the rows of ``rows``, whose
    three arrays — flat ``items``, flat ``scores``, row ``bounds`` — are
    the whole table.  It reads as the ``dict`` of ``ScoredItem`` lists it
    replaces (``table[item]`` builds that item's list, fresh each time),
    and every array is read-only, so whoever holds the table may share it.
    """

    __slots__ = ("item_ids", "rows")

    def __init__(self, item_ids: np.ndarray, rows: RankedRows) -> None:
        if item_ids.shape != (len(rows),):
            raise ValueError(
                f"{item_ids.shape} item ids for {len(rows)} rows"
            )
        if np.any(item_ids[1:] <= item_ids[:-1]):
            order = np.argsort(item_ids, kind="stable")
            item_ids, rows = item_ids[order], rows.take(order)
            if np.any(item_ids[1:] == item_ids[:-1]):
                raise ValueError("an item id names two rows of one table")
        item_ids.setflags(write=False)
        self.item_ids, self.rows = item_ids, rows

    @property
    def items_covered(self) -> int:
        """Items with at least one recommendation."""
        return int(np.count_nonzero(self.rows.counts))

    def __len__(self) -> int:
        return self.item_ids.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.item_ids.tolist())

    def __getitem__(self, item: int) -> List[ScoredItem]:
        try:
            item = operator.index(item)
        except TypeError:
            raise KeyError(item) from None
        row = int(np.searchsorted(self.item_ids, item))
        if row == self.item_ids.size or self.item_ids[row] != item:
            raise KeyError(item)
        return self.rows[row]

    def __reduce__(self):
        # Through the constructor: unpickled arrays come back writeable.
        return type(self), (self.item_ids, self.rows)

    def __repr__(self) -> str:
        return (
            f"RecommendationTable({len(self)} items, "
            f"{self.rows.items.size} recommendations)"
        )


def as_table(
    recommendations: Mapping[int, Sequence[ScoredItem]],
) -> RecommendationTable:
    """Any item -> recommendations mapping as a :class:`RecommendationTable`
    (no copy when already one).

    The boundary for callers that still build a ``dict`` of lists — tests,
    examples, hand-made tables: one pass over the pairs, once, so the
    gate and the store have arrays to work on and nothing else to handle.
    """
    if isinstance(recommendations, RecommendationTable):
        return recommendations
    item_ids = np.array([int(item) for item in recommendations], dtype=np.int64)
    lists = list(recommendations.values())
    flat = [rec for recs in lists for rec in recs]
    rows = RankedRows.from_counts(
        np.array([rec.item_index for rec in flat], dtype=np.int64),
        np.array([rec.score for rec in flat], dtype=np.float64),
        np.array([len(recs) for recs in lists], dtype=np.int64),
    )
    return RecommendationTable(item_ids, rows)


@dataclass
class StoreStats:
    """Operational counters for monitoring dashboards."""

    batches_loaded: int = 0
    lookups: int = 0
    misses: int = 0
    #: Batches rejected for version monotonicity — a stale late-arriving
    #: publish (e.g. a delayed pipeline replaying yesterday) that must
    #: not clobber a fresher table.  Silent rejection would hide a
    #: misbehaving publisher, so the rejection is counted here as well
    #: as raised.
    stale_batches_rejected: int = 0
    #: Tables rolled back to their last-good predecessor.
    rollbacks: int = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return 1.0 - self.misses / self.lookups


@dataclass
class _Slot:
    """One retailer's published table plus the version it was published at."""

    version: int
    table: RecommendationTable


class RecommendationStore:
    """In-memory item -> top-N recommendations, per retailer, versioned.

    The tenant-slot policy of the serving half: a load must carry a
    higher version than the slot holds (a stale one is counted and
    raised, never applied), the table a load replaces is kept as the
    single last-good for :meth:`rollback`, and :meth:`drop_retailer`
    forgets both.
    """

    def __init__(self, metrics=NULL_METRICS, name: str = "store") -> None:
        self._slots: Dict[str, _Slot] = {}
        #: Last-good predecessor of each current slot, kept so a table
        #: that passed the publish gate but turns out bad in production
        #: can be rolled back without a republish.
        self._previous: Dict[str, _Slot] = {}
        self.stats = StoreStats()
        #: Process-level registry mirroring :attr:`stats`; store state
        #: accumulates across days so these counters are not part of the
        #: crash-parity contract.  ``name`` distinguishes the stores
        #: (substitutes vs accessories).
        self.metrics = metrics
        self.name = name

    def load(
        self, retailer_id: str, table: RecommendationTable, version: int
    ) -> None:
        """Atomically replace a retailer's slot (the only write path).

        Versions must be monotonically increasing per retailer — a stale
        load (e.g. a delayed pipeline replaying yesterday) is rejected
        rather than silently clobbering fresher data.
        """
        current = self._slots.get(retailer_id)
        if current is not None:
            if version <= current.version:
                self.stats.stale_batches_rejected += 1
                self.metrics.counter(
                    "store_stale_rejected_total", store=self.name
                ).inc()
                raise ServingError(
                    f"stale batch for {retailer_id!r}: version "
                    f"{version} <= current {current.version}"
                )
            self._previous[retailer_id] = current
        self._slots[retailer_id] = _Slot(version, table)
        self.stats.batches_loaded += 1
        self.metrics.counter(
            "store_batches_loaded_total", store=self.name
        ).inc()

    def rollback(self, retailer_id: str) -> int:
        """Re-serve the last-good table (the one the current load replaced).

        The escape hatch behind the publish gate: if a table that passed
        validation regresses in production, the previous complete table
        comes back atomically.  Returns the version now being served.
        Raises :class:`ServingError` when there is nothing to roll back
        to — a retailer on its first table keeps it (serving something
        beats serving nothing).
        """
        previous = self._previous.pop(retailer_id, None)
        if previous is None:
            raise ServingError(
                f"no last-good table to roll back to for {retailer_id!r}"
            )
        self._slots[retailer_id] = previous
        self.stats.rollbacks += 1
        self.metrics.counter("store_rollbacks_total", store=self.name).inc()
        return previous.version

    def drop_retailer(self, retailer_id: str) -> None:
        """Delete a retailer's slot outright (offboarding purge).

        Afterwards the retailer reads exactly like one that was never
        loaded — a departed tenant must not be served stale
        recommendations — and, re-onboarded, loads version 1 again.
        Dropping an unknown retailer is a no-op so offboarding stays
        idempotent.
        """
        self._slots.pop(retailer_id, None)
        self._previous.pop(retailer_id, None)

    def get(self, retailer_id: str) -> Optional[RecommendationTable]:
        """The table the retailer serves now (``None`` when not loaded)."""
        slot = self._slots.get(retailer_id)
        return slot.table if slot is not None else None

    def has_retailer(self, retailer_id: str) -> bool:
        return retailer_id in self._slots

    def version_of(self, retailer_id: str) -> Optional[int]:
        slot = self._slots.get(retailer_id)
        return slot.version if slot is not None else None

    def retailers(self) -> List[str]:
        return sorted(self._slots)

    def versions(self) -> Dict[str, int]:
        """Current version per loaded retailer."""
        return {rid: slot.version for rid, slot in self._slots.items()}

    def load_batch(
        self,
        retailer_id: str,
        recommendations: Mapping[int, Sequence[ScoredItem]],
        version: int,
    ) -> None:
        """Atomically replace a retailer's table with a new batch.

        No copy: a table's arrays are read-only, so this version, the
        last-good one and the journal's payload can be one buffer.
        """
        self.load(retailer_id, as_table(recommendations), version)

    def lookup(self, retailer_id: str, item_index: int) -> List[ScoredItem]:
        """Precomputed recommendations for one item (empty when unknown)."""
        self.stats.lookups += 1
        self.metrics.counter("store_lookups_total", store=self.name).inc()
        table = self.get(retailer_id)
        if table is None:
            self.stats.misses += 1
            self.metrics.counter("store_misses_total", store=self.name).inc()
            raise ServingError(f"no recommendations loaded for {retailer_id!r}")
        recs = table.get(int(item_index))
        if recs is None:
            self.stats.misses += 1
            self.metrics.counter("store_misses_total", store=self.name).inc()
            return []
        return recs  # built for this call: the caller's to mutate

    def items_covered(self, retailer_id: str) -> int:
        """How many items of a retailer have at least one recommendation."""
        table = self.get(retailer_id)
        return table.items_covered if table is not None else 0

    def freshness(
        self, retailer_ids: Sequence[str], expected_version: int
    ) -> Dict[str, str]:
        """Classify each retailer as ``fresh``, ``stale``, or ``unserved``.

        The availability view of graceful degradation: after day N every
        retailer should be at version N+1 (*fresh*); one whose pipeline
        failed still serves an older table (*stale* — degraded but alive);
        *unserved* means no table at all (failed before its first load)
        and is the state the daily loop exists to avoid.
        """
        states: Dict[str, str] = {}
        for rid in retailer_ids:
            version = self.version_of(rid)
            if version is None:
                states[rid] = "unserved"
            elif version >= expected_version:
                states[rid] = "fresh"
            else:
                states[rid] = "stale"
        return states
