"""Durable time-interval checkpointing with keep-latest-only GC.

Paper section IV-B3: "we asynchronously checkpoint the model learned to a
shared filesystem ... on a fixed time-interval (e.g. every few minutes)
instead of ... after a fixed number of iterations", because iteration
time varies wildly across retailer sizes; and "we only need to keep the
latest checkpoint around, so as soon as a new checkpoint is written, we
garbage-collect the previous checkpoint".

The manager serializes each checkpoint to a self-verifying blob (magic
header + SHA-256 checksum + payload) and hands it to a pluggable
:class:`CheckpointStorage` backend: :class:`InMemoryCheckpointStorage`
is the default stand-in for the shared filesystem, and
:class:`FilesystemCheckpointStorage` writes real files with atomic
write-then-rename semantics.  Because the stored artifact is a byte
string in both cases, a restored model can never alias the stored
checkpoint — training after a restore cannot mutate the blob, and
re-restoring yields byte-identical state.

Durability failures are first-class: a :class:`CheckpointFaultPlan`
injects torn writes, bit flips, and dropped blobs, and ``restore``
detects every one of them via the checksum and raises
:class:`CheckpointCorruptionError` (``try_restore`` converts that into a
clean cold-start).  Timestamps run against the *simulated* clock so
experiments measure exactly the work-loss bound the policy provides.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import (
    CheckpointCorruptionError,
    CheckpointError,
    SigmundError,
)
from repro.models.bpr import BPRModel

#: Paper: "every few minutes".
DEFAULT_CHECKPOINT_INTERVAL_SECONDS = 300.0

#: Blob format: magic + 32-byte SHA-256 of the payload + pickled payload.
_MAGIC = b"SIGCKPT1"
_DIGEST_SIZE = 32


def _encode(state: Dict[str, np.ndarray], written_at: float, epoch: int) -> bytes:
    payload = pickle.dumps(
        {"state": state, "written_at": written_at, "epoch": epoch},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def _decode(key: str, blob: bytes) -> Dict[str, object]:
    header = len(_MAGIC) + _DIGEST_SIZE
    if len(blob) < header or not blob.startswith(_MAGIC):
        raise CheckpointCorruptionError(
            f"checkpoint {key!r} is truncated or not a checkpoint blob"
        )
    digest, payload = blob[len(_MAGIC) : header], blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointCorruptionError(
            f"checkpoint {key!r} failed its checksum (torn write or bit rot)"
        )
    try:
        decoded = pickle.loads(payload)
    except Exception as exc:  # checksum passed but payload unreadable
        raise CheckpointCorruptionError(
            f"checkpoint {key!r} could not be deserialized: {exc}"
        ) from exc
    return decoded


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class CheckpointFaultPlan:
    """Deterministic storage-corruption injection for robustness tests.

    Three fault kinds, each optionally keyed by a predicate on the
    checkpoint key and limited to the first ``times`` matching writes:

    * :meth:`torn_write` — the stored blob is truncated mid-payload (a
      writer died without the atomic rename, or the filesystem lied).
    * :meth:`bit_flip` — one byte of the stored payload is corrupted
      (bit rot on the shared filesystem).
    * :meth:`drop` — the blob silently never lands (a lost file).

    The ``write`` call itself still *appears* to succeed — that is what
    makes these faults dangerous, and why ``restore`` must verify the
    checksum instead of trusting the write path.
    """

    def __init__(self) -> None:
        self._rules: List[dict] = []

    def _add(self, kind: str, match, times) -> "CheckpointFaultPlan":
        self._rules.append(
            {"kind": kind, "match": match, "times": times, "fired": 0}
        )
        return self

    def torn_write(
        self,
        match: Optional[Callable[[str], bool]] = None,
        times: Optional[int] = None,
    ) -> "CheckpointFaultPlan":
        """Truncate matching blobs mid-payload."""
        return self._add("torn", match, times)

    def bit_flip(
        self,
        match: Optional[Callable[[str], bool]] = None,
        times: Optional[int] = None,
    ) -> "CheckpointFaultPlan":
        """Flip one bit of matching blobs' payload."""
        return self._add("flip", match, times)

    def drop(
        self,
        match: Optional[Callable[[str], bool]] = None,
        times: Optional[int] = None,
    ) -> "CheckpointFaultPlan":
        """Silently lose matching blobs (the file never appears)."""
        return self._add("drop", match, times)

    def corrupt(self, key: str, blob: bytes) -> Optional[bytes]:
        """The blob to actually store for ``key`` (None = store nothing)."""
        for rule in self._rules:
            if rule["times"] is not None and rule["fired"] >= rule["times"]:
                continue
            if rule["match"] is not None and not rule["match"](key):
                continue
            rule["fired"] += 1
            if rule["kind"] == "drop":
                return None
            if rule["kind"] == "torn":
                return blob[: max(1, len(blob) * 2 // 3)]
            flipped = bytearray(blob)
            flipped[-1] ^= 0x40  # payload byte: checksum will not match
            return bytes(flipped)
        return blob


# ----------------------------------------------------------------------
# Storage backends
# ----------------------------------------------------------------------
class CheckpointStorage:
    """Abstract blob store keyed by checkpoint key (one blob per key)."""

    def put(self, key: str, blob: bytes) -> None:
        raise NotImplementedError

    def get(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove ``key``'s blob; returns whether one existed."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError


class InMemoryCheckpointStorage(CheckpointStorage):
    """The default shared-filesystem stand-in: a dict of byte strings."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}

    def put(self, key: str, blob: bytes) -> None:
        self._blobs[key] = blob

    def get(self, key: str) -> Optional[bytes]:
        return self._blobs.get(key)

    def delete(self, key: str) -> bool:
        return self._blobs.pop(key, None) is not None

    def keys(self) -> List[str]:
        return sorted(self._blobs)


class FilesystemCheckpointStorage(CheckpointStorage):
    """Real files under a root directory, written atomically.

    Each blob is written to a temporary file in the same directory and
    then moved into place with ``os.replace`` — readers see either the
    previous complete checkpoint or the new complete checkpoint, never a
    partially written file.  (The :class:`CheckpointFaultPlan` models the
    storage layer corrupting data *after* a successful-looking write,
    which atomic rename cannot defend against — only checksums can.)
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        # Keys contain "/" (e.g. "retailer_3/m17"); flatten, keep legible.
        safe = key.replace("%", "%25").replace("/", "%2F")
        return os.path.join(self.root, safe + ".ckpt")

    def put(self, key: str, blob: bytes) -> None:
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, key: str) -> Optional[bytes]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            return handle.read()

    def delete(self, key: str) -> bool:
        path = self._path(key)
        if not os.path.exists(path):
            return False
        os.unlink(path)
        return True

    def keys(self) -> List[str]:
        names = []
        for name in os.listdir(self.root):
            if name.endswith(".ckpt"):
                names.append(name[: -len(".ckpt")].replace("%2F", "/").replace("%25", "%"))
        return sorted(names)


@dataclass
class _CheckpointMeta:
    """In-memory index entry: when/what was last written for a key."""

    written_at: float
    epoch: int


@dataclass
class CheckpointStats:
    """Operational counters for dashboards and tests."""

    writes: int = 0
    #: Total encoded blob bytes handed to storage (the "checkpoint bytes"
    #: line on the fleet snapshot's process section).
    bytes_written: int = 0
    garbage_collected: int = 0
    restores: int = 0
    #: Restores that found a blob failing its integrity check.
    corruptions_detected: int = 0
    #: ``try_restore`` calls that fell back to cold start (missing or
    #: corrupt checkpoint).
    cold_starts: int = 0
    corrupt_keys: List[str] = field(default_factory=list)


class CheckpointManager:
    """Latest-only durable checkpoints on a fixed simulated-time interval.

    Interval semantics:

    * The **first** ``maybe_checkpoint`` call for a key always writes
      immediately (the epoch-0 checkpoint) — the interval clock only
      starts ticking once a checkpoint exists, so a fresh task is never
      exposed to a full interval of unprotected work.
    * :meth:`discard` resets the interval clock along with the blob, so
      a re-onboarded retailer (or a re-issued config key) checkpoints
      promptly on its first new ``maybe_checkpoint`` instead of
      inheriting a stale "recently written" timestamp.
    """

    def __init__(
        self,
        interval_seconds: float = DEFAULT_CHECKPOINT_INTERVAL_SECONDS,
        storage: Optional[CheckpointStorage] = None,
        fault_plan: Optional[CheckpointFaultPlan] = None,
    ):
        if interval_seconds <= 0:
            raise CheckpointError("checkpoint interval must be positive")
        self.interval_seconds = interval_seconds
        self.storage = storage if storage is not None else InMemoryCheckpointStorage()
        self.fault_plan = fault_plan
        self._meta: Dict[str, _CheckpointMeta] = {}
        self._last_written: Dict[str, float] = {}
        self.stats = CheckpointStats()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def maybe_checkpoint(
        self, key: str, model: BPRModel, now: float, epoch: int
    ) -> bool:
        """Write a checkpoint if the interval has elapsed for this key.

        The first call for a key writes unconditionally (see the class
        docstring); afterwards a write happens once ``interval_seconds``
        of simulated time have passed since the last one.
        """
        last = self._last_written.get(key)
        if last is not None and now - last < self.interval_seconds:
            return False
        self.write(key, model, now, epoch)
        return True

    def write(self, key: str, model: BPRModel, now: float, epoch: int) -> None:
        """Unconditionally checkpoint; the previous one is GC'd."""
        blob = _encode(model.get_state(), now, epoch)
        if self.fault_plan is not None:
            corrupted = self.fault_plan.corrupt(key, blob)
        else:
            corrupted = blob
        existed = key in self._meta or self.storage.get(key) is not None
        if corrupted is None:
            # Dropped blob: the writer believes it succeeded, but the
            # previous checkpoint (if any) was already GC'd — the key now
            # has nothing restorable, exactly like a lost file.
            self.storage.delete(key)
            self._meta.pop(key, None)
        else:
            self.storage.put(key, corrupted)
            self._meta[key] = _CheckpointMeta(written_at=now, epoch=epoch)
        if existed:
            self.stats.garbage_collected += 1
        self._last_written[key] = now
        self.stats.writes += 1
        self.stats.bytes_written += len(blob)

    # ------------------------------------------------------------------
    # Restoring
    # ------------------------------------------------------------------
    def has_checkpoint(self, key: str) -> bool:
        return self.storage.get(key) is not None

    def restore(self, key: str, model: BPRModel) -> int:
        """Load the latest checkpoint into ``model``; returns its epoch.

        Raises :class:`CheckpointError` when no blob exists and
        :class:`CheckpointCorruptionError` when the blob fails its
        integrity check; in the corruption case the useless blob is
        deleted so the next writer starts clean.
        """
        blob = self.storage.get(key)
        if blob is None:
            raise CheckpointError(f"no checkpoint for {key!r}")
        return self._restore_blob(key, blob, model)

    def _restore_blob(self, key: str, blob: bytes, model: BPRModel) -> int:
        """Decode ``key``'s ``blob`` into ``model``; returns its epoch."""
        try:
            decoded = _decode(key, blob)
            try:
                model.set_state(decoded["state"])  # type: ignore[arg-type]
            except SigmundError as exc:
                # Checksum-valid but unusable (missing parameter, shape
                # drift): just as unrestorable as a torn write.
                raise CheckpointCorruptionError(
                    f"checkpoint {key!r} does not fit the model: {exc}"
                ) from exc
        except CheckpointCorruptionError:
            self.stats.corruptions_detected += 1
            self.stats.corrupt_keys.append(key)
            self.storage.delete(key)
            self._meta.pop(key, None)
            raise
        self.stats.restores += 1
        return int(decoded["epoch"])  # type: ignore[arg-type]

    def try_restore(self, key: str, model: BPRModel) -> Optional[int]:
        """Restore if a valid checkpoint exists; None means cold start.

        The recovery path: a missing blob and a corrupt blob both degrade
        cleanly to ``None`` (the model is untouched by a failed restore —
        :meth:`BPRModel.set_state` validates every array before assigning
        any).  On success the interval clock is reset so the resumed task
        writes a fresh checkpoint promptly rather than inheriting the
        pre-crash timestamp, which may be far in the resumed run's future.
        """
        blob = self.storage.get(key)
        try:
            epoch = None if blob is None else self._restore_blob(key, blob, model)
        except CheckpointCorruptionError:
            epoch = None
        if epoch is None:
            self.stats.cold_starts += 1
            return None
        self._last_written.pop(key, None)
        return epoch

    def checkpoint_age(self, key: str, now: float) -> Optional[float]:
        """Seconds since this key's latest checkpoint (None if absent)."""
        meta = self._meta.get(key)
        if meta is None or self.storage.get(key) is None:
            return None
        return now - meta.written_at

    def discard(self, key: str) -> None:
        """Drop a finished task's checkpoint (training completed).

        Also resets the interval clock (see the class docstring): the
        next ``maybe_checkpoint`` under this key writes immediately.
        """
        if self.storage.delete(key):
            self.stats.garbage_collected += 1
        self._meta.pop(key, None)
        self._last_written.pop(key, None)

    def discard_matching(self, match: Callable[[str], bool]) -> int:
        """Discard every stored checkpoint whose key matches.

        The offboarding path: checkpoint keys embed the retailer id
        (``day<d>/<rid>/m<n>``), and a departed tenant's model state must
        not survive in the checkpoint store — nor be restorable by a
        recovered day.  Returns how many blobs were dropped.
        """
        dropped = 0
        for key in list(self.storage.keys()):
            if match(key):
                self.discard(key)
                dropped += 1
        return dropped

    @property
    def stored_count(self) -> int:
        return len(self.storage.keys())
