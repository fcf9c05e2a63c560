"""Quality monitoring across thousands of retailers.

A self-serve service cannot be babysat per retailer (section I: "design
away any manual per-retailer configuration"); instead, per-retailer
MAP@10 is recorded every day and regressions beyond a threshold raise
alerts for the (two-engineer) team.  The monitor also surfaces fleet-wide
aggregates for dashboards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: Relative MAP drop that fires an alert.
DEFAULT_REGRESSION_THRESHOLD = 0.30

#: The frontend's mutually-exclusive serving outcome buckets.  Every
#: request terminates in exactly one, so their counts must sum to the
#: request count — the conservation law serving-window accounting
#: enforces (no double-count, no gap).
SERVING_BUCKETS = (
    "cache", "coalesced", "fresh", "stale", "fallback", "shed", "empty",
)


@dataclass(frozen=True)
class Alert:
    """One quality regression or pipeline failure worth a human look."""

    retailer_id: str
    day: int
    metric: str
    previous: float
    current: float
    #: "regression" (metric dropped) or "failure" (pipeline stage died).
    kind: str = "regression"
    #: Free-form context, e.g. the exception message behind a failure.
    detail: str = ""
    #: Which pipeline stage raised the alert ("training", "inference",
    #: "publish"); empty for metric regressions, which are stage-less.
    stage: str = ""

    @property
    def drop_fraction(self) -> float:
        if self.previous == 0:
            return 0.0
        return (self.previous - self.current) / self.previous


@dataclass(frozen=True)
class ServingWindow:
    """One observation window of serving-outcome accounting.

    ``buckets`` maps each :data:`SERVING_BUCKETS` name to its count;
    construction via :meth:`QualityMonitor.record_serving_window` has
    already verified conservation (``sum(buckets) == requests``).
    """

    day: int
    requests: int
    buckets: Dict[str, int]

    @property
    def availability(self) -> float:
        """Fraction of requests answered with *something* (non-empty)."""
        if self.requests == 0:
            return 1.0
        return 1.0 - self.buckets.get("empty", 0) / self.requests

    @property
    def degraded_fraction(self) -> float:
        """Fraction served below full freshness (stale/fallback/shed/empty)."""
        if self.requests == 0:
            return 0.0
        degraded = sum(
            self.buckets.get(name, 0)
            for name in ("stale", "fallback", "shed", "empty")
        )
        return degraded / self.requests


class QualityMonitor:
    """Tracks per-retailer daily metrics and raises regression alerts."""

    def __init__(self, regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD):
        if not 0.0 < regression_threshold <= 1.0:
            raise ValueError("regression_threshold must be in (0, 1]")
        self.regression_threshold = regression_threshold
        self._history: Dict[str, Dict[int, float]] = {}
        self.alerts: List[Alert] = []
        # day -> conservation-checked serving-outcome accounting.
        self._serving_windows: Dict[int, ServingWindow] = {}

    def record(self, retailer_id: str, day: int, map_at_10: float) -> Optional[Alert]:
        """Record today's metric; returns an alert if it regressed badly."""
        history = self._history.setdefault(retailer_id, {})
        previous_day = max((d for d in history if d < day), default=None)
        history[day] = map_at_10
        if previous_day is None:
            return None
        previous = history[previous_day]
        if previous <= 0:
            return None
        drop = (previous - map_at_10) / previous
        if drop >= self.regression_threshold:
            alert = Alert(
                retailer_id=retailer_id,
                day=day,
                metric="map@10",
                previous=previous,
                current=map_at_10,
            )
            self.alerts.append(alert)
            return alert
        return None

    def record_failure(
        self, retailer_id: str, day: int, stage: str, detail: str = ""
    ) -> Alert:
        """Record that a pipeline stage failed for a retailer today.

        A failed retailer keeps serving yesterday's recommendations (the
        degradation the service layer arranges), so nothing shows up in
        the metric history — this alert is what keeps the failure from
        being silent.  Always alerts: availability loss is never below
        the threshold.
        """
        alert = Alert(
            retailer_id=retailer_id,
            day=day,
            metric=f"{stage}_availability",
            previous=1.0,
            current=0.0,
            kind="failure",
            detail=detail,
            stage=stage,
        )
        self.alerts.append(alert)
        return alert

    def record_serving_window(
        self,
        day: int,
        requests: int,
        buckets: Dict[str, int],
        availability_floor: Optional[float] = None,
    ) -> ServingWindow:
        """Record one serving window, enforcing bucket conservation.

        ``buckets`` must cover each request exactly once: an unknown
        bucket name, a negative count, or a sum that misses ``requests``
        (double-count or gap) raises ``ValueError`` — accounting bugs
        fail loudly here instead of silently skewing availability.
        With an ``availability_floor``, a window whose availability
        falls below it raises a ``kind="failure"`` alert with
        ``stage="serving"``.
        """
        unknown = sorted(set(buckets) - set(SERVING_BUCKETS))
        if unknown:
            raise ValueError(f"unknown serving buckets: {unknown}")
        negative = sorted(name for name, count in buckets.items() if count < 0)
        if negative:
            raise ValueError(f"negative serving bucket counts: {negative}")
        total = sum(buckets.values())
        if total != requests:
            raise ValueError(
                "serving bucket conservation violated: buckets sum to "
                f"{total} but {requests} requests were served "
                "(double-count or gap)"
            )
        window = ServingWindow(
            day=day,
            requests=int(requests),
            buckets={name: int(buckets.get(name, 0)) for name in SERVING_BUCKETS},
        )
        self._serving_windows[day] = window
        if (
            availability_floor is not None
            and window.availability < availability_floor
        ):
            self.alerts.append(
                Alert(
                    retailer_id="*",
                    day=day,
                    metric="serving_availability",
                    previous=float(availability_floor),
                    current=window.availability,
                    kind="failure",
                    detail=(
                        f"{window.buckets.get('empty', 0)} of "
                        f"{window.requests} requests went unanswered"
                    ),
                    stage="serving",
                )
            )
        return window

    def drop_retailer(self, retailer_id: str) -> None:
        """Forget a departed retailer's MAP history (offboarding).

        The history is the gate's and the regression check's baseline, so
        a tenant later onboarded under the same id starts without one.
        The alert log stays: it is the operator's record of what happened.
        """
        self._history.pop(retailer_id, None)

    def serving_window(self, day: int) -> Optional[ServingWindow]:
        return self._serving_windows.get(day)

    def metric_history(self, retailer_id: str) -> Dict[int, float]:
        return dict(self._history.get(retailer_id, {}))

    def last_map(self, retailer_id: str, before_day: int) -> Optional[float]:
        """The most recent recorded MAP strictly before ``before_day``.

        The publish gate's baseline: today's candidate table is sanity-
        checked against the last run that actually served.  ``None`` when
        the retailer has no earlier history (nothing to compare against —
        the gate skips the MAP check rather than blocking a first
        publish).
        """
        history = self._history.get(retailer_id, {})
        previous_day = max((d for d in history if d < before_day), default=None)
        if previous_day is None:
            return None
        return history[previous_day]

    def fleet_summary(self, day: int) -> Dict[str, float]:
        """Aggregate MAP stats over every retailer with a value for ``day``."""
        values = [
            history[day] for history in self._history.values() if day in history
        ]
        if not values:
            return {"retailers": 0.0, "mean_map": 0.0, "p10_map": 0.0, "p90_map": 0.0}
        arr = np.asarray(values)
        return {
            "retailers": float(arr.size),
            "mean_map": float(arr.mean()),
            "p10_map": float(np.percentile(arr, 10)),
            "p90_map": float(np.percentile(arr, 90)),
        }

    def alerts_for_day(self, day: int) -> List[Alert]:
        return [alert for alert in self.alerts if alert.day == day]

    def failures_for_day(self, day: int) -> List[Alert]:
        return [
            alert
            for alert in self.alerts
            if alert.day == day and alert.kind == "failure"
        ]
