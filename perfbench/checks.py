"""Output checks, run on every invocation; any failure exits non-zero.

A benchmark number for a run whose outputs are wrong is worse than no
number, so the day's publish state and every served page are checked
before anything is reported.
"""

from __future__ import annotations

import math
from typing import List

from perfbench.run import RunResult


def unexpected_failures(result: RunResult) -> int:
    """Operations that failed although the workload does not script it.

    The hostile retailer's days, shed requests and empty pages are the
    workload's design and are counted by ``served_share`` instead.
    """
    hostile = set(result.workload.day.hostile)
    unscripted = sum(
        1
        for report in result.day.reports
        for retailer_id in report.failed_retailers
        if retailer_id not in hostile
    )
    return unscripted + result.serve.raised + result.serve.bad_pages


def check_peak_rss(result: RunResult) -> List[str]:
    """``day_peak_rss_mb`` must be a peak the day phase itself set.

    Peak RSS is a high-water mark of the whole process, so this only holds
    for the first run a process makes (the untraced one), in which set-up
    builds the serving world and the request stream after the day phase.
    """
    day = result.day
    if day.peak_rss_mb > day.peak_rss_before_mb:
        return []
    return [
        f"the day phase did not raise the process's peak RSS "
        f"({day.peak_rss_before_mb:.1f} MB before it): day_peak_rss_mb is the harness's"
    ]


def check_run(result: RunResult) -> List[str]:
    """Every violated expectation, as one line each (empty when correct)."""
    problems: List[str] = []
    day_spec, serve_spec = result.workload.day, result.workload.serve
    service = result.service
    day, serve = result.day, result.serve

    # -- day phase -------------------------------------------------------
    hostile = sorted(day_spec.hostile)
    for report in day.reports:
        if sorted(report.failed_retailers) != hostile:
            problems.append(
                f"day {report.day}: failed retailers {report.failed_retailers} "
                f"!= scripted {hostile}"
            )
    expected_version = day_spec.n_days
    for retailer_id in service.retailers:
        for store in (service.substitutes_store, service.accessories_store):
            version = store.version_of(retailer_id)
            want = None if retailer_id in day_spec.hostile else expected_version
            if version != want:
                problems.append(
                    f"{retailer_id}: {store.name} at version {version}, expected {want}"
                )
    for _, retailer_id in day_spec.offboard_before:
        if service.substitutes_store.has_retailer(retailer_id):
            problems.append(f"{retailer_id}: still served after offboarding")
    if day_spec.retrieval_threshold is not None:
        built = sum(report.indexes_built for report in day.reports)
        rejected = sum(report.indexes_rejected for report in day.reports)
        if built == 0 or rejected:
            problems.append(f"ANN indexes: {built} built, {rejected} rejected on recall")
    if service.journal.committed_days() != list(range(day_spec.n_days)):
        problems.append(f"journal committed {service.journal.committed_days()}")
    if service.journal.open_day() is not None:
        problems.append(f"journal day {service.journal.open_day()} left open")
    if not (math.isfinite(day.map_at_10) and day.map_at_10 > 0.0):
        problems.append(f"fleet MAP@10 is {day.map_at_10}")

    # -- serve phase -----------------------------------------------------
    if serve.raised:
        problems.append(f"{serve.raised} requests raised")
    if serve.bad_pages:
        problems.append(f"{serve.bad_pages} pages over k items or with duplicates")
    if sum(serve.buckets.values()) != serve.stats_requests:
        problems.append(
            f"buckets {serve.buckets} do not sum to {serve.stats_requests} requests"
        )
    if serve.stats_requests != len(serve.starts):
        problems.append(
            f"frontend counted {serve.stats_requests} of {len(serve.starts)} requests"
        )
    for bucket in serve_spec.expect_buckets:
        if serve.buckets[bucket] == 0:
            problems.append(f"serving bucket {bucket!r} is empty on this workload")
    if serve_spec.republish_every_chunks and not serve.republish_intervals:
        problems.append("no mid-stream republish happened")
    return problems
