"""The one normalisation function, used for set-up, day, serve and spans.

A :class:`SpeedSeries` is built from probe samples ``(t_ns, kernel_ns)``.
Each sample covers the time up to the midpoint towards its neighbours;
inside that stretch one wall nanosecond counts as
``REF_KERNEL_NS / kernel_ns`` normalised nanoseconds.  A timed interval's
normalised duration is the integral of that factor over it, minus the
normalised cost of every probe that ran *inside* the interval (the
sampler's own work is not the program's).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from perfbench.probe import REF_KERNEL_NS, Sample

#: Kernel times are replaced by the median of this many neighbours: a probe
#: hit by an interrupt or a context switch reads slow once, while the box's
#: real speed states last seconds.
SMOOTH_WINDOW = 5

ArrayLike = Union[float, int, Sequence[float], np.ndarray]


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Centred rolling median with the edges padded by their end values."""
    if window <= 1 or len(values) < 2:
        return values.astype(np.float64)
    half = window // 2
    padded = np.pad(values.astype(np.float64), half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return np.median(windows, axis=1)


class SpeedSeries:
    """Piecewise-constant CPU speed, integrable over any interval."""

    def __init__(
        self, samples: Sequence[Sample], smooth_window: int = SMOOTH_WINDOW
    ) -> None:
        if not samples:
            raise ValueError("a speed series needs at least one probe sample")
        ordered = np.array(sorted(samples), dtype=np.float64)
        self.times = ordered[:, 0]
        self.kernel_ns = ordered[:, 1]
        if np.any(self.kernel_ns <= 0):
            raise ValueError("kernel times must be positive")
        self.factors = REF_KERNEL_NS / rolling_median(self.kernel_ns, smooth_window)
        #: Running normalised cost of the probes themselves: what to take
        #: off an interval that contains some.
        self._probe_cost = np.concatenate(([0.0], np.cumsum(self.kernel_ns * self.factors)))
        n = len(ordered)
        if n == 1:
            self._edges = np.empty(0)
            self._left = self.times.copy()
            self._base = np.zeros(1)
            return
        # Segment i is [edges[i-1], edges[i]); the first and last are open.
        self._edges = (self.times[1:] + self.times[:-1]) / 2.0
        widths = np.diff(self._edges)
        cumulative = np.concatenate(([0.0], np.cumsum(widths * self.factors[1:-1])))
        self._left = np.concatenate((self._edges[:1], self._edges))
        self._base = np.concatenate(([0.0], cumulative))

    def _integral(self, t: np.ndarray) -> np.ndarray:
        """Normalised time elapsed between the first edge and ``t``."""
        segment = np.searchsorted(self._edges, t, side="right")
        return self._base[segment] + (t - self._left[segment]) * self.factors[segment]

    def _inside(self, start: ArrayLike, end: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Index range of the probes whose midpoint lies in ``[start, end]``."""
        return (
            np.searchsorted(self.times, start, side="left"),
            np.searchsorted(self.times, end, side="right"),
        )

    def normalised_ns(self, start: ArrayLike, end: ArrayLike) -> np.ndarray:
        """Normalised nanoseconds of ``[start, end]`` (vectorised)."""
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        lo, hi = self._inside(start, end)
        probes = self._probe_cost[hi] - self._probe_cost[lo]
        return self._integral(end) - self._integral(start) - probes

    def samples_between(self, start: float, end: float) -> int:
        lo, hi = self._inside(start, end)
        return int(hi - lo)

    def probe_ns_between(self, start: float, end: float) -> float:
        """Raw wall nanoseconds the probes themselves took inside an interval."""
        lo, hi = self._inside(start, end)
        return float(self.kernel_ns[lo:hi].sum())

    def speed_cv(self) -> float:
        """Coefficient of variation of the (smoothed) speed factor."""
        return float(self.factors.std() / self.factors.mean())


def percentile(values: np.ndarray, q: float, min_beyond: int = 10) -> float:
    """``q``-th percentile, refused unless ``min_beyond`` samples lie beyond it.

    A percentile with fewer samples beyond it than that does not repeat
    from run to run (p99.9 of 150 000 requests was tried: 67-82 us).
    """
    values = np.asarray(values)
    beyond = round(len(values) * (1.0 - q / 100.0), 9)
    if q > 50.0 and beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only {beyond:.1f} beyond it "
            f"(need {min_beyond})"
        )
    return float(np.percentile(values, q))
