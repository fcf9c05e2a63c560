"""The daily-run journal: a write-ahead intent log for crash recovery.

The paper runs Sigmund entirely on pre-emptible capacity (section IV-B3),
which protects *tasks* via checkpoints — but the daily coordinator itself
can die mid-run, stranding a half-trained, half-published day.  The
journal closes that gap with classic WAL discipline:

1. ``begin_day`` records the day's **intent** before any work starts —
   the sweep kind and the exact config records planned, so recovery
   replans nothing (the plan may depend on registry state that later
   work mutates).
2. ``log_task`` records each unit of work **after** it completed (and
   after its side effects — registry publish, ledger billing — landed),
   together with a payload carrying everything the final report needs.
   Logging the same task twice raises: recovery must never replay
   completed work, and the journal is where that invariant lives.
3. ``commit_day`` marks the day durable; an uncommitted day is exactly
   what :meth:`~repro.core.service.SigmundService.recover` resumes.

Each day is one :class:`DayRecord` — intent, tasks by phase, seal — and
the journal is its one holder; :meth:`RunJournal.purge_tasks` is how a
departing retailer's records leave any day.

Like the checkpoint store, the journal is an in-memory stand-in for the
shared filesystem (payloads hold live objects where a real system would
reference files); what it models faithfully is the *ordering*: intent
before work, completion after effects, commit last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.exceptions import SigmundError


class JournalError(SigmundError):
    """The run journal was used out of protocol (duplicate task, no day)."""


@dataclass
class DayRecord:
    """Everything the journal holds of one day, in one place."""

    #: The ``begin_day`` payload: sweep kind and the pinned configs.
    intent: Dict[str, object]
    #: phase -> task_id -> payload of every completed unit of work.
    tasks: Dict[str, Dict[str, Dict[str, object]]] = field(default_factory=dict)
    #: The observability snapshot committed with the day.
    seal: Optional[Dict[str, object]] = None
    committed: bool = False


class RunJournal:
    """The daily-run write-ahead log: one :class:`DayRecord` per day."""

    def __init__(self) -> None:
        self._days: Dict[int, DayRecord] = {}

    def _record(self, day: int) -> DayRecord:
        record = self._days.get(day)
        if record is None:
            raise JournalError(f"day {day} was never begun")
        return record

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def begin_day(self, day: int, payload: Dict[str, object]) -> None:
        """Log the day's intent; re-beginning an open day is a no-op.

        (Recovery re-executes the day through the same code path as the
        original run; the original ``begin`` record must win.)
        """
        record = self._days.get(day)
        if record is None:
            self._days[day] = DayRecord(intent=payload)
        elif record.committed:
            raise JournalError(f"day {day} is already committed")

    def log_task(
        self,
        day: int,
        phase: str,
        task_id: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one completed unit of work; duplicates raise loudly."""
        tasks = self._record(day).tasks.setdefault(phase, {})
        if task_id in tasks:
            raise JournalError(
                f"task {phase}/{task_id!r} already logged for day {day}: "
                "completed work must never be replayed"
            )
        tasks[task_id] = payload or {}

    def commit_day(
        self, day: int, seal: Optional[Dict[str, object]] = None
    ) -> None:
        """Mark the day durable, optionally with a **seal**.

        The seal is the day's observability snapshot (metrics rollups,
        report fields) written atomically with the commit record — the
        parity contract of crash recovery is that a recovered day commits
        a byte-identical seal to the uninterrupted run's.
        """
        record = self._record(day)
        if record.committed:
            raise JournalError(f"day {day} is already committed")
        record.committed = True
        record.seal = seal

    def purge_tasks(self, day: int, match: Callable[[str, str], bool]) -> None:
        """Drop completed tasks of a journaled day matching a predicate.

        ``match(phase, task_id)`` picks the records to forget.  This
        exists for offboarding: the privacy framing forbids keeping a
        departing retailer's journaled payloads (they carry model state
        and result tables) alive at all — on an open day, where
        :meth:`recover` would otherwise replay them, and on every
        committed one.  A committed day's seal and intent are the
        immutable record of what happened; a purge leaves them.
        """
        for phase, tasks in self._record(day).tasks.items():
            for task_id in [t for t in tasks if match(phase, t)]:
                del tasks[task_id]

    # ------------------------------------------------------------------
    # Reading (the recovery path)
    # ------------------------------------------------------------------
    def days(self) -> List[int]:
        """Every journaled day, open or committed, ascending."""
        return sorted(self._days)

    def open_day(self) -> Optional[int]:
        """The begun-but-uncommitted day, if any (at most one exists)."""
        for day in sorted(self._days, reverse=True):
            if not self._days[day].committed:
                return day
        return None

    def day_intent(self, day: int) -> Dict[str, object]:
        return self._record(day).intent

    def _tasks(self, day: int, phase: str) -> Dict[str, Dict[str, object]]:
        record = self._days.get(day)
        return record.tasks.get(phase, {}) if record is not None else {}

    def is_done(self, day: int, phase: str, task_id: str) -> bool:
        return task_id in self._tasks(day, phase)

    def task_payload(self, day: int, phase: str, task_id: str) -> Dict[str, object]:
        try:
            return self._tasks(day, phase)[task_id]
        except KeyError:
            raise JournalError(
                f"no completed task {phase}/{task_id!r} for day {day}"
            ) from None

    def completed(self, day: int, phase: str) -> Dict[str, Dict[str, object]]:
        """task_id -> payload of every completed task in one phase."""
        return dict(self._tasks(day, phase))

    def is_committed(self, day: int) -> bool:
        record = self._days.get(day)
        return record is not None and record.committed

    def committed_days(self) -> List[int]:
        """Every committed day, ascending (backfills target the latest)."""
        return [day for day in self.days() if self._days[day].committed]

    def day_seal(self, day: int) -> Dict[str, object]:
        """The seal committed with ``day`` (raises when none exists)."""
        record = self._days.get(day)
        if record is None or record.seal is None:
            raise JournalError(f"no seal committed for day {day}")
        return record.seal

    def seals(self) -> Dict[int, Dict[str, object]]:
        """All committed day seals, keyed by day."""
        return {
            day: record.seal
            for day, record in sorted(self._days.items())
            if record.seal is not None
        }

    def task_count(self, day: int, phase: str) -> int:
        return len(self._tasks(day, phase))
