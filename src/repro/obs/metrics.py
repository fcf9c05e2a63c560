"""Labeled metrics with mergeable snapshots (the fleet's dashboards).

Sigmund's two-engineer team runs thousands of recommendation problems
daily only because the system is self-reporting (paper sections I, VII):
per-retailer throughput, cost, and pipeline health must surface without
anyone babysitting a tenant.  This module is the measurement substrate:

* :class:`MetricsRegistry` hands out labeled **counters** (monotonic),
  **gauges** (high-watermark), and fixed-bucket **histograms**.
* :meth:`MetricsRegistry.snapshot` freezes the registry into a
  :class:`MetricsSnapshot`, a plain-data value that merges with other
  snapshots — the shape a MapReduce-style fleet needs, where every task
  measures locally and the coordinator folds task snapshots together.
* :class:`NullMetricsRegistry` is the disabled mode: every instrument is
  a shared no-op singleton, so instrumented hot paths cost one dynamic
  dispatch when observability is off and benchmarks do not move.
* A live registry resolves a series once: the first
  ``counter(name, **labels)`` call builds the series key and finds (or
  creates) the instrument; every later call with the same arguments is
  one dictionary read by call signature.  Keys, snapshots and seals are
  the same as when every call built its key — the memo only remembers
  which instrument the key led to.

Merge semantics are chosen so folding is **associative and commutative**
(property-tested in ``tests/test_obs_metrics.py``):

* counters add,
* gauges keep the maximum (they record high-watermarks — makespans,
  peak sizes — which is the only gauge reading that merges without an
  ordering),
* histograms add bucket counts pointwise (bucket bounds must match;
  merging mismatched schemas raises instead of silently mangling).

Those semantics are also what makes the crash-recovery parity guarantee
cheap: a day's metrics are folded from journaled task snapshots, so a
recovered day folds the *same* snapshots in the same order and lands on
byte-identical JSON (see ``tests/test_crash_recovery.py``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SigmundError


class MetricsError(SigmundError):
    """An instrument was used out of contract (negative inc, schema clash)."""


#: Default histogram bucket upper bounds (seconds-ish scale); the last
#: implicit bucket is +inf.  Callers with real distributions pass their own.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0,
)


def metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical series key: ``name{k=v,...}`` with labels sorted by key.

    Sorted labels make the key independent of call-site keyword order, so
    two snapshots of the same logical series always merge — and the JSON
    export is byte-stable.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing series (events, items, seconds billed)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A high-watermark series (makespans, peak queue depth).

    ``set`` keeps the maximum seen, not the last write: the maximum is
    the only point reading that merges commutatively across snapshots,
    and every gauge in this codebase is a "how bad did it get" quantity.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket distribution; counts plus a running sum.

    Buckets are upper bounds in ascending order with an implicit final
    +inf bucket, so ``counts`` has ``len(buckets) + 1`` cells and the
    total observation count is conserved under merge.
    """

    __slots__ = ("buckets", "counts", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise MetricsError(
                f"histogram buckets must be non-empty and strictly "
                f"ascending, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value

    @property
    def count(self) -> int:
        return sum(self.counts)


class NullInstrument:
    """One shared no-op standing in for every disabled instrument."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The singleton every :class:`NullMetricsRegistry` hands out.
NULL_INSTRUMENT = NullInstrument()


class MetricsSnapshot:
    """A frozen, mergeable view of one registry's series.

    Plain data: three dicts keyed by :func:`metric_key`.  Snapshots
    compare by value, merge without mutating their inputs, and export to
    canonical JSON (sorted keys) so equality can be asserted byte-wise.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(
        self,
        counters: Optional[Mapping[str, float]] = None,
        gauges: Optional[Mapping[str, float]] = None,
        histograms: Optional[Mapping[str, Dict[str, object]]] = None,
    ) -> None:
        self.counters: Dict[str, float] = dict(counters or {})
        self.gauges: Dict[str, float] = dict(gauges or {})
        # key -> {"buckets": tuple, "counts": list, "sum": float}
        self.histograms: Dict[str, Dict[str, object]] = {
            key: {
                "buckets": tuple(hist["buckets"]),  # type: ignore[arg-type]
                "counts": list(hist["counts"]),  # type: ignore[arg-type]
                "sum": float(hist["sum"]),  # type: ignore[arg-type]
            }
            for key, hist in (histograms or {}).items()
        }

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot folding ``other`` into this one.

        Counters add, gauges max, histogram bucket counts add pointwise.
        Histograms of the same series with different bucket bounds are a
        schema bug and raise rather than merge into nonsense.
        """
        merged = MetricsSnapshot(self.counters, self.gauges, self.histograms)
        for key, value in other.counters.items():
            merged.counters[key] = merged.counters.get(key, 0.0) + value
        for key, value in other.gauges.items():
            merged.gauges[key] = max(merged.gauges.get(key, value), value)
        for key, hist in other.histograms.items():
            mine = merged.histograms.get(key)
            if mine is None:
                merged.histograms[key] = {
                    "buckets": tuple(hist["buckets"]),  # type: ignore[arg-type]
                    "counts": list(hist["counts"]),  # type: ignore[arg-type]
                    "sum": float(hist["sum"]),  # type: ignore[arg-type]
                }
                continue
            if tuple(mine["buckets"]) != tuple(hist["buckets"]):  # type: ignore[arg-type]
                raise MetricsError(
                    f"cannot merge histogram {key!r}: bucket bounds "
                    f"{mine['buckets']} != {hist['buckets']}"
                )
            mine["counts"] = [
                a + b
                for a, b in zip(mine["counts"], hist["counts"])  # type: ignore[arg-type]
            ]
            mine["sum"] = float(mine["sum"]) + float(hist["sum"])  # type: ignore[arg-type]
        return merged

    # ------------------------------------------------------------------
    # Reading / export
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> float:
        return self.counters.get(metric_key(name, labels), 0.0)

    def gauge(self, name: str, **labels: str) -> float:
        return self.gauges.get(metric_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of every series of ``name`` across all label sets."""
        prefix = name + "{"
        return sum(
            value
            for key, value in self.counters.items()
            if key == name or key.startswith(prefix)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: {
                    "buckets": list(hist["buckets"]),  # type: ignore[arg-type]
                    "counts": list(hist["counts"]),  # type: ignore[arg-type]
                    "sum": hist["sum"],
                }
                for key, hist in self.histograms.items()
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, so equal snapshots are byte-equal."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsSnapshot({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms)"
        )


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold any number of snapshots into one (empty input -> empty)."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged


class MetricsRegistry:
    """Hands out labeled instruments and freezes them into snapshots.

    Instruments are memoized by series key, so repeated
    ``registry.counter("x", retailer="r0")`` calls hit the same
    :class:`Counter` — call sites never hold instrument references
    across requests unless they want to.

    A call is resolved once: the instrument is also memoized by the
    call's signature — ``(kind, name, *labels.items())``, a histogram's
    buckets after the name — so a repeated call builds no series key.
    The first call of a signature takes the keyed path (``metric_key``,
    get-or-create, the bucket check), so one series reached with its
    labels in another order, or ``retailer=1`` beside ``retailer="1"``,
    is still one instrument, and a histogram asked for with other buckets
    raises every time.  Label values must be hashable, and values that
    compare equal must print alike (``str`` and ``int``, as every call
    site passes: ``True`` would share ``1``'s signature, not its key).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: call signature -> the instrument the keyed dicts above hold.
        self._resolved: Dict[tuple, object] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        signature = ("counter", name, *labels.items())
        instrument = self._resolved.get(signature)
        if instrument is None:
            key = metric_key(name, labels)
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
            self._resolved[signature] = instrument
        return instrument  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        signature = ("gauge", name, *labels.items())
        instrument = self._resolved.get(signature)
        if instrument is None:
            key = metric_key(name, labels)
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
            self._resolved[signature] = instrument
        return instrument  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        signature = ("histogram", name, tuple(buckets), *labels.items())
        instrument = self._resolved.get(signature)
        if instrument is None:
            key = metric_key(name, labels)
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(buckets)
            elif instrument.buckets != tuple(float(b) for b in buckets):
                raise MetricsError(
                    f"histogram {key!r} re-registered with different buckets"
                )
            self._resolved[signature] = instrument
        return instrument  # type: ignore[return-value]

    def snapshot(self) -> MetricsSnapshot:
        """Freeze current values; zero-valued series are kept (a counter
        that exists at zero is information, not noise)."""
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: {"buckets": h.buckets, "counts": list(h.counts), "sum": h.sum}
                for k, h in self._histograms.items()
            },
        )

    def fold(self, snapshot: MetricsSnapshot) -> None:
        """Replay a snapshot's values into this registry.

        The coordinator-side half of the task-snapshot pattern: counters
        add, gauges take the max, histogram counts add.  Folding the same
        snapshots in any order yields the same registry state (the merge
        properties above), which is what the crash-recovery parity test
        leans on.
        """
        for key, value in snapshot.counters.items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.inc(value)
        for key, value in snapshot.gauges.items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set(value)
        for key, hist in snapshot.histograms.items():
            buckets: Tuple[float, ...] = tuple(hist["buckets"])  # type: ignore[arg-type]
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram(buckets)
            elif mine.buckets != buckets:
                raise MetricsError(
                    f"cannot fold histogram {key!r}: bucket bounds differ"
                )
            counts: List[int] = list(hist["counts"])  # type: ignore[arg-type]
            mine.counts = [a + b for a, b in zip(mine.counts, counts)]
            mine.sum += float(hist["sum"])  # type: ignore[arg-type]


class NullMetricsRegistry:
    """The disabled registry: every instrument is the shared no-op.

    Hot paths take a registry parameter defaulting to :data:`NULL_METRICS`;
    with it installed, instrumentation costs one method call returning a
    singleton whose mutators are empty — provably nothing else, which is
    what keeps the E20/E22/E23 benchmark numbers fixed.
    """

    enabled = False

    def counter(self, name: str, **labels: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def fold(self, snapshot: MetricsSnapshot) -> None:
        pass


#: Shared disabled registry — the default value of every ``metrics``
#: parameter in the instrumented pipelines.
NULL_METRICS = NullMetricsRegistry()
