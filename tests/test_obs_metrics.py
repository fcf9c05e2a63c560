"""Property tests for the metrics substrate (repro.obs.metrics).

The crash-recovery parity guarantee rests on snapshot merging being
associative and commutative, and on histogram observation counts being
conserved under merge — so those are property-tested here with
hypothesis rather than spot-checked.  The null registry's no-op
contract (what keeps benchmarks fixed when observability is off) is
verified too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as metrics_module
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
    merge_snapshots,
    metric_key,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["a_total", "b_total", "c_seconds", "d_items"])
_VALUES = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_BUCKETS = (1.0, 10.0, 100.0)


@st.composite
def snapshots(draw) -> MetricsSnapshot:
    counters = draw(
        st.dictionaries(_NAMES, _VALUES, max_size=4)
    )
    gauges = draw(
        st.dictionaries(st.sampled_from(["g1", "g2"]), _VALUES, max_size=2)
    )
    histograms = {}
    for key in draw(st.sets(st.sampled_from(["h1", "h2"]), max_size=2)):
        counts = draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=len(_BUCKETS) + 1,
                max_size=len(_BUCKETS) + 1,
            )
        )
        histograms[key] = {
            "buckets": _BUCKETS,
            "counts": counts,
            "sum": draw(_VALUES),
        }
    return MetricsSnapshot(counters, gauges, histograms)


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------
class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=snapshots(), b=snapshots())
    def test_merge_commutative(self, a, b):
        left = a.merge(b).to_dict()
        right = b.merge(a).to_dict()
        assert left["counters"] == pytest.approx(right["counters"])
        assert left["gauges"] == right["gauges"]
        assert left["histograms"].keys() == right["histograms"].keys()
        for key in left["histograms"]:
            assert (
                left["histograms"][key]["counts"]
                == right["histograms"][key]["counts"]
            )
            assert left["histograms"][key]["sum"] == pytest.approx(
                right["histograms"][key]["sum"]
            )

    @settings(max_examples=60, deadline=None)
    @given(a=snapshots(), b=snapshots(), c=snapshots())
    def test_merge_associative(self, a, b, c):
        left = a.merge(b).merge(c).to_dict()
        right = a.merge(b.merge(c)).to_dict()
        assert left["counters"] == pytest.approx(right["counters"])
        assert left["gauges"] == right["gauges"]
        for key in left["histograms"]:
            assert (
                left["histograms"][key]["counts"]
                == right["histograms"][key]["counts"]
            )

    @settings(max_examples=60, deadline=None)
    @given(a=snapshots(), b=snapshots())
    def test_histogram_counts_conserved(self, a, b):
        merged = a.merge(b)
        for key, hist in merged.histograms.items():
            expected = sum(a.histograms.get(key, {}).get("counts", []))
            expected += sum(b.histograms.get(key, {}).get("counts", []))
            assert sum(hist["counts"]) == expected

    @settings(max_examples=40, deadline=None)
    @given(a=snapshots())
    def test_empty_is_identity(self, a):
        empty = MetricsSnapshot()
        assert empty.merge(a) == a
        assert a.merge(empty) == a

    @settings(max_examples=40, deadline=None)
    @given(a=snapshots(), b=snapshots())
    def test_merge_does_not_mutate_inputs(self, a, b):
        before_a, before_b = a.to_dict(), b.to_dict()
        a.merge(b)
        assert a.to_dict() == before_a
        assert b.to_dict() == before_b

    def test_bucket_schema_mismatch_raises(self):
        a = MetricsSnapshot(
            histograms={"h": {"buckets": (1.0, 2.0), "counts": [0, 0, 0], "sum": 0.0}}
        )
        b = MetricsSnapshot(
            histograms={"h": {"buckets": (1.0, 3.0), "counts": [0, 0, 0], "sum": 0.0}}
        )
        with pytest.raises(MetricsError):
            a.merge(b)

    @settings(max_examples=30, deadline=None)
    @given(parts=st.lists(snapshots(), max_size=4))
    def test_merge_snapshots_equals_pairwise_fold(self, parts):
        folded = MetricsSnapshot()
        for part in parts:
            folded = folded.merge(part)
        assert merge_snapshots(parts) == folded

    @settings(max_examples=30, deadline=None)
    @given(parts=st.lists(snapshots(), max_size=4))
    def test_fold_matches_merge(self, parts):
        """Registry.fold over task snapshots == pure snapshot merging."""
        registry = MetricsRegistry()
        for part in parts:
            registry.fold(part)
        merged = merge_snapshots(parts)
        got = registry.snapshot().to_dict()
        want = merged.to_dict()
        assert got["counters"] == pytest.approx(want["counters"])
        assert got["gauges"] == want["gauges"]
        for key in want["histograms"]:
            assert (
                got["histograms"][key]["counts"]
                == want["histograms"][key]["counts"]
            )


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", retailer="r0")
        counter.inc()
        counter.inc(2.5)
        assert registry.snapshot().counter("x_total", retailer="r0") == 3.5

    @settings(max_examples=30, deadline=None)
    @given(amount=st.floats(max_value=-1e-9, min_value=-1e9))
    def test_negative_increment_raises(self, amount):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("x_total").inc(amount)

    def test_gauge_keeps_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("peak")
        gauge.set(3.0)
        gauge.set(1.0)  # lower write does not regress the high-watermark
        assert registry.snapshot().gauge("peak") == 3.0

    def test_instruments_memoized_by_series(self):
        registry = MetricsRegistry()
        assert registry.counter("x", a="1", b="2") is registry.counter(
            "x", b="2", a="1"
        )
        assert registry.counter("x", a="1") is not registry.counter("x", a="2")

    def test_histogram_observe_and_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        # upper bounds are inclusive (bisect_left): 1.0 lands in bucket 0
        assert hist.counts == [2, 1, 1]
        assert hist.sum == pytest.approx(106.5)

    def test_histogram_invalid_buckets_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("bad", buckets=())
        with pytest.raises(MetricsError):
            registry.histogram("bad2", buckets=(2.0, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("bad3", buckets=(1.0, 1.0))

    def test_histogram_reregistration_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        registry.histogram("lat", buckets=(1.0, 2.0))  # same schema is fine
        with pytest.raises(MetricsError):
            registry.histogram("lat", buckets=(1.0, 3.0))

    def test_default_buckets_are_valid(self):
        MetricsRegistry().histogram("d", buckets=DEFAULT_BUCKETS).observe(5.0)

    def test_metric_key_sorts_labels(self):
        assert metric_key("x", {}) == "x"
        assert metric_key("x", {"b": "2", "a": "1"}) == "x{a=1,b=2}"

    def test_zero_valued_series_kept_in_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("seen_total", retailer="r0")  # never incremented
        snap = registry.snapshot()
        assert "seen_total{retailer=r0}" in snap.counters
        assert snap.counter("seen_total", retailer="r0") == 0.0

    def test_counter_total_sums_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("x_total", retailer="r0").inc(2)
        registry.counter("x_total", retailer="r1").inc(3)
        registry.counter("x_total_other").inc(100)  # prefix must not match
        assert registry.snapshot().counter_total("x_total") == 5.0


# ----------------------------------------------------------------------
# Snapshot export
# ----------------------------------------------------------------------
class TestSnapshotExport:
    @settings(max_examples=30, deadline=None)
    @given(a=snapshots())
    def test_json_roundtrip_byte_stable(self, a):
        copy = MetricsSnapshot(a.counters, a.gauges, a.histograms)
        assert a == copy
        assert a.to_json() == copy.to_json()

    def test_eq_against_other_types(self):
        assert MetricsSnapshot() != object()
        assert MetricsSnapshot() == MetricsSnapshot()


# ----------------------------------------------------------------------
# Null registry: the zero-overhead disabled mode
# ----------------------------------------------------------------------
class TestNullRegistry:
    def test_all_instruments_are_the_shared_noop(self):
        registry = NullMetricsRegistry()
        assert registry.counter("x", retailer="r0") is NULL_INSTRUMENT
        assert registry.gauge("g") is NULL_INSTRUMENT
        assert registry.histogram("h", buckets=(1.0,)) is NULL_INSTRUMENT
        assert NULL_METRICS.counter("y") is NULL_INSTRUMENT

    def test_noop_mutators_accept_everything(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.inc(-5.0)  # no contract checks when disabled
        NULL_INSTRUMENT.set(3.0)
        NULL_INSTRUMENT.observe(1.0)

    def test_snapshot_empty_and_fold_noop(self):
        loaded = MetricsSnapshot(counters={"x": 5.0})
        NULL_METRICS.fold(loaded)
        snap = NULL_METRICS.snapshot()
        assert snap.to_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled is True
        assert NULL_METRICS.enabled is False


# ----------------------------------------------------------------------
# Fleet fold: per-worker registries folded into the day registry
# ----------------------------------------------------------------------
_OBSERVATIONS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["train_total", "peak_rss", "epoch_seconds"]),
        _VALUES,
    ),
    max_size=24,
)


def _apply(registry: MetricsRegistry, observations) -> None:
    for kind, name, value in observations:
        if kind == "counter":
            registry.counter(name + "_c").inc(value)
        elif kind == "gauge":
            registry.gauge(name + "_g").set(value)
        else:
            registry.histogram(name + "_h", buckets=_BUCKETS).observe(value)


class TestFleetWorkerFold:
    """The fleet runs each Train() task against a fresh per-worker
    MetricsRegistry and folds the shipped snapshots into the coordinator's
    day registry.  Worker placement must not change the sealed day: any
    partition of the observation stream across workers has to fold to the
    same snapshot a serial registry would produce."""

    @settings(max_examples=30, deadline=None)
    @given(observations=_OBSERVATIONS, n_workers=st.integers(1, 4))
    def test_worker_partition_folds_to_serial_registry(
        self, observations, n_workers
    ):
        serial = MetricsRegistry()
        _apply(serial, observations)

        day = MetricsRegistry()
        for worker in range(n_workers):
            per_worker = MetricsRegistry()  # fresh registry per task/worker
            _apply(per_worker, observations[worker::n_workers])
            day.fold(per_worker.snapshot())

        got = day.snapshot().to_dict()
        want = serial.snapshot().to_dict()
        assert got["counters"] == pytest.approx(want["counters"])
        assert got["gauges"] == want["gauges"]
        assert got["histograms"].keys() == want["histograms"].keys()
        for key, hist in want["histograms"].items():
            assert got["histograms"][key]["counts"] == hist["counts"]
            assert got["histograms"][key]["sum"] == pytest.approx(hist["sum"])

    def test_fold_order_is_irrelevant(self):
        parts = []
        for worker in range(3):
            registry = MetricsRegistry()
            registry.counter("tasks_total", worker=str(worker)).inc(worker + 1)
            registry.counter("tasks_total").inc(1)
            parts.append(registry.snapshot())

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            forward.fold(part)
        for part in reversed(parts):
            backward.fold(part)
        assert forward.snapshot() == backward.snapshot()


# ----------------------------------------------------------------------
# A series is resolved once: the signature memo against keyed lookups
# ----------------------------------------------------------------------
class KeyedRegistry(MetricsRegistry):
    """The registry with no signature memo: every call builds its key."""

    def counter(self, name, **labels):
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name, **labels):
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name, buckets=DEFAULT_BUCKETS, **labels):
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        elif instrument.buckets != tuple(float(b) for b in buckets):
            raise MetricsError(f"histogram {key!r} re-registered")
        return instrument


_LABELS = st.lists(
    st.tuples(
        st.sampled_from(["retailer", "stage", "reason"]),
        st.sampled_from([1, "1", 2, "r0", "r1"]),
    ),
    max_size=3,
    unique_by=lambda pair: pair[0],
)
_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["x", "y"]),
        st.sampled_from([_BUCKETS, (1, 10, 100), (2.0, 20.0)]),
        _LABELS,
        _VALUES,
    ),
    max_size=40,
)


def _replay(registry, calls):
    """Apply ``calls`` (labels in the order drawn); each outcome."""
    outcomes = []
    for kind, name, buckets, labels, value in calls:
        try:
            if kind == "counter":
                registry.counter(name, **dict(labels)).inc(value)
            elif kind == "gauge":
                registry.gauge(name, **dict(labels)).set(value)
            else:
                registry.histogram(name, buckets, **dict(labels)).observe(value)
            outcomes.append("ok")
        except MetricsError:
            outcomes.append("raised")
    return outcomes


class TestResolvedOnce:
    @settings(max_examples=200, deadline=None)
    @given(calls=_CALLS)
    def test_snapshot_is_byte_equal_to_keyed_lookups(self, calls):
        memo, keyed = MetricsRegistry(), KeyedRegistry()
        assert _replay(memo, calls) == _replay(keyed, calls)
        assert memo.snapshot().to_json() == keyed.snapshot().to_json()

    def test_a_repeated_call_builds_no_key(self, monkeypatch):
        registry = MetricsRegistry()
        first = (
            registry.counter("c", retailer="r0"),
            registry.gauge("g"),
            registry.histogram("h", _BUCKETS, served="cache"),
        )
        keys = []
        monkeypatch.setattr(
            metrics_module, "metric_key",
            lambda name, labels: keys.append(name) or metric_key(name, labels),
        )
        again = (
            registry.counter("c", retailer="r0"),
            registry.gauge("g"),
            registry.histogram("h", _BUCKETS, served="cache"),
        )
        assert all(a is b for a, b in zip(first, again)) and keys == []
        registry.counter("c", retailer="r1")
        assert keys == ["c"]

    def test_other_buckets_raise_on_every_call(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0))
        for _ in range(3):
            with pytest.raises(MetricsError):
                registry.histogram("lat", buckets=(1.0, 3.0))
            assert registry.histogram("lat", buckets=(1.0, 2.0)) is hist
            assert registry.histogram("lat", buckets=(1, 2)) is hist

    def test_label_order_and_spelling_reach_one_series(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        registry.counter("x", b="2", a="1").inc()
        registry.counter("x", b="2", a="1").inc()
        registry.counter("req", retailer=1).inc()
        registry.counter("req", retailer="1").inc(2)
        assert registry.counter("x", a="1", b="2") is registry.counter(
            "x", b="2", a="1"
        )
        assert registry.counter("req", retailer=1) is registry.counter(
            "req", retailer="1"
        )
        assert registry.snapshot().counters == {
            "x{a=1,b=2}": 3.0, "req{retailer=1}": 3.0,
        }
