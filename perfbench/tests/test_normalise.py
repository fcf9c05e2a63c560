"""Normalisation arithmetic on synthetic probe series."""

import numpy as np
import pytest

from perfbench.normalise import SpeedSeries, percentile, rolling_median
from perfbench.probe import REF_KERNEL_NS

MS = 1_000_000
#: Unsmoothed, a probe's own time normalises to exactly the reference.
PROBE_COST = REF_KERNEL_NS


def series(kernels, step=20 * MS, smooth=1):
    return SpeedSeries(
        [(index * step, kernel) for index, kernel in enumerate(kernels)], smooth
    )


def test_reference_speed_leaves_time_unchanged_apart_from_probes_inside():
    speed = series([REF_KERNEL_NS] * 10)
    # 25 ms .. 95 ms holds the probes at 40, 60, 80 ms.
    assert speed.normalised_ns(25 * MS, 95 * MS) == pytest.approx(70 * MS - 3 * PROBE_COST)
    # No probe inside: nothing to subtract.
    assert speed.normalised_ns(41 * MS, 59 * MS) == pytest.approx(18 * MS)


def test_slow_stretch_counts_for_less():
    # Probes at 0, 20, 40, 60 ms; the box runs at half speed from 30 ms on
    # (the edge between the second and third sample).
    speed = series([REF_KERNEL_NS, REF_KERNEL_NS, 2 * REF_KERNEL_NS, 2 * REF_KERNEL_NS])
    got = speed.normalised_ns(21 * MS, 39 * MS)
    assert got == pytest.approx(9 * MS * 1.0 + 9 * MS * 0.5)


def test_intervals_outside_the_series_use_the_nearest_sample():
    speed = series([2 * REF_KERNEL_NS, REF_KERNEL_NS])
    assert speed.normalised_ns(-50 * MS, -10 * MS) == pytest.approx(40 * MS * 0.5)
    assert speed.normalised_ns(100 * MS, 140 * MS) == pytest.approx(40 * MS)


def test_single_sample_series():
    speed = SpeedSeries([(5 * MS, REF_KERNEL_NS // 2)])
    assert speed.normalised_ns(10 * MS, 20 * MS) == pytest.approx(20 * MS)


def test_vectorised_matches_scalar_and_is_additive():
    rng = np.random.default_rng(3)
    speed = series(rng.integers(400_000, 700_000, size=50), smooth=5)
    starts = np.sort(rng.uniform(0, 900 * MS, size=40))
    ends = starts + rng.uniform(0, 80 * MS, size=40)
    vector = speed.normalised_ns(starts, ends)
    for start, end, got in zip(starts, ends, vector):
        assert speed.normalised_ns(start, end) == pytest.approx(got)
    # Splitting an interval at a point with no probe on it changes nothing.
    whole = speed.normalised_ns(101 * MS, 507 * MS)
    parts = speed.normalised_ns(101 * MS, 333 * MS) + speed.normalised_ns(333 * MS, 507 * MS)
    assert whole == pytest.approx(parts)


def test_rolling_median_drops_a_lone_outlier_but_keeps_a_state_change():
    kernels = np.array([500, 500, 1500, 500, 500, 600, 600, 600, 600], dtype=np.float64)
    smoothed = rolling_median(kernels, 5)
    assert smoothed[2] == 500
    assert list(smoothed[-3:]) == [600, 600, 600]


def test_probe_overhead_and_sample_count():
    speed = series([REF_KERNEL_NS] * 11)
    assert speed.samples_between(0, 200 * MS) == 11
    assert speed.probe_ns_between(0, 200 * MS) == pytest.approx(11 * REF_KERNEL_NS)
    assert speed.speed_cv() == 0.0


def test_rejects_empty_and_non_positive_samples():
    with pytest.raises(ValueError):
        SpeedSeries([])
    with pytest.raises(ValueError):
        SpeedSeries([(0, 0)])


def test_percentile_needs_ten_samples_beyond_it():
    values = np.arange(1000, dtype=np.float64)
    assert percentile(values, 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile(values[:999], 99.0)
    with pytest.raises(ValueError):
        percentile(np.arange(150_000), 99.995)
    # The median is always allowed.
    assert percentile(values[:3], 50.0) == 1.0


def test_serve_cost_per_request_is_the_typical_chunk_plus_the_typical_republish():
    from types import SimpleNamespace

    from perfbench.report import Timings
    from perfbench.workloads import CHUNK

    timings = Timings.__new__(Timings)
    # Three full chunks (one of them hit by a slow burst) and a last one of 100.
    timings.chunk_ns = np.array([10.0, 50.0, 12.0, 1.0]) * CHUNK
    timings.chunk_ns[-1] = 11.0 * 100
    timings.n_requests = 3 * CHUNK + 100
    timings.republish_ns = np.zeros(0)
    timings.result = SimpleNamespace(
        workload=SimpleNamespace(serve=SimpleNamespace(republish_every_chunks=0))
    )
    assert timings.serve_us_per_req() == pytest.approx(11.5 / 1e3)
    timings.republish_ns = np.array([2.0, 4.0, 40.0]) * 2 * CHUNK
    timings.result.workload.serve.republish_every_chunks = 2
    assert timings.serve_us_per_req() == pytest.approx((11.5 + 4.0) / 1e3)
