"""Metric definitions and how each is computed from a run's raw stamps.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions; ``BENCHMARK.json`` repeats them and a test keeps
the two in step.  End-to-end metrics always come from an untraced run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from perfbench.normalise import SpeedSeries, percentile
from perfbench.run import BUCKETS, RunResult
from perfbench.workloads import CHUNK

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: A bound has to be wider than the run-to-run spread or it gates on noise:
#: the timing bounds are about three times the widest inter-quartile spread
#: this box has shown between ten runs of one commit *after* normalisation
#: (day 1-8 %, serve loop 2-4 %, p50 1-4 %, p99 3-15 %, set-up 3-19 %; README
#: "What the box can resolve"), capped at 25 %.  Memory, MAP and the served
#: share repeat to < 1 %.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("day_norm_s", "s", "lower", 0.20),
    ("day_peak_rss_mb", "MB", "lower", 0.03),
    ("day_map_at_10", "MAP", "higher", 0.03),
    ("serve_norm_us_per_req", "us", "lower", 0.12),
    ("serve_p50_norm_us", "us", "lower", 0.12),
    ("serve_p99_norm_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("served_share", "ratio", "higher", 0.01),
)

#: What the issue that defined the benchmark asked for (``served_share`` for
#: its ``failed_share``, "no increase").  The box does not resolve the timing
#: ones; ``--aa`` reports against them all the same.
ISSUE_BOUNDS: Dict[str, float] = {
    "day_norm_s": 0.05,
    "day_peak_rss_mb": 0.03,
    "day_map_at_10": 0.03,
    "serve_norm_us_per_req": 0.05,
    "serve_p50_norm_us": 0.05,
    "serve_p99_norm_us": 0.10,
    "setup_s": 0.10,
    "served_share": 0.0,
}

SERVE_BUCKETS_TIMED = ("cache", "fresh", "stale", "fallback", "shed")

#: (name, unit, better).  The README table says which end-to-end metric
#: each should move, and on which workload.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("data.generate_s", "s", "lower"),
    ("core.sweep.plan_s", "s", "lower"),
    ("core.sweep.configs", "count", "lower"),
    ("core.training.run_self_s", "s", "lower"),
    ("core.training.train_config_self_s", "s", "lower"),
    ("mapreduce.run_self_s", "s", "lower"),
    ("models.trainer.compile_s", "s", "lower"),
    ("models.trainer.sgd_s", "s", "lower"),
    ("models.trainer.sgd_steps", "count", "lower"),
    ("models.trainer.triples_per_s", "1/s", "higher"),
    ("models.negatives.sample_s", "s", "lower"),
    ("evaluation.evaluate_s", "s", "lower"),
    ("core.checkpoint.write_s", "s", "lower"),
    ("core.checkpoint.writes", "count", "lower"),
    ("core.checkpoint.bytes", "count", "lower"),
    ("core.journal.log_s", "s", "lower"),
    ("core.journal.records", "count", "lower"),
    ("cooccurrence.build_s", "s", "lower"),
    ("core.candidates.select_s", "s", "lower"),
    ("core.candidates.mean_candidates", "count", "lower"),
    ("models.recommend_batch_s", "s", "lower"),
    ("models.items_scored", "count", "lower"),
    ("core.inference.run_self_s", "s", "lower"),
    ("retrieval.build_s", "s", "lower"),
    ("retrieval.search_s", "s", "lower"),
    ("retrieval.recall", "ratio", "higher"),
    ("serving.gate.validate_s", "s", "lower"),
    ("serving.gate.rejected", "count", "lower"),
    ("serving.store.load_batch_s", "s", "lower"),
    ("obs.seal_s", "s", "lower"),
    ("dag.runner.self_s", "s", "lower"),
    ("core.service.run_day_self_s", "s", "lower"),
    ("day.full_norm_s", "s", "lower"),
    ("day.incr_norm_s", "s", "lower"),
    ("day.layer_residual_share", "ratio", "lower"),
    ("serving.traffic.generate_s", "s", "lower"),
    ("serving.cluster.load_batch_ms", "ms", "lower"),
    ("serving.cluster.load_batch_calls", "count", "lower"),
    *((f"serving.frontend.bucket_share.{b}", "ratio", "higher") for b in BUCKETS if b != "coalesced"),
    *((f"serving.frontend.bucket_us.{b}", "us", "lower") for b in SERVE_BUCKETS_TIMED),
    ("serving.frontend.cache_key_us", "us", "lower"),
    ("serving.cluster.lookup_us", "us", "lower"),
    ("serving.cluster.lookups_per_req", "count", "lower"),
    ("serving.cluster.failovers_per_req", "count", "lower"),
    ("serving.server.blend_us", "us", "lower"),
    ("serving.frontend.fallback_us", "us", "lower"),
    ("serving.overload.admit_us", "us", "lower"),
    ("serving.overload.shed_share", "ratio", "lower"),
    ("serving.frontend.invalidate_us", "us", "lower"),
    ("serving.frontend.cache_invalidations", "count", "lower"),
    ("serving.frontend.request_self_us", "us", "lower"),
    ("probe.kernel_us_p50", "us", "lower"),
    ("probe.speed_cv", "ratio", "lower"),
    ("probe.overhead_share", "ratio", "lower"),
    ("trace.overhead_share.day", "ratio", "lower"),
    ("trace.overhead_share.serve", "ratio", "lower"),
    ("day_raw_wall_s", "s", "lower"),
    ("serve_raw_us_per_req", "us", "lower"),
    ("day_retailers_per_hour", "1/h", "higher"),
    ("serve_rps_per_core", "1/s", "higher"),
    ("failed_share", "ratio", "lower"),
)

#: The sampler must have taken at least this many samples a second over
#: set-up and the day phase, and cost at most this share of them.
MIN_SAMPLES_PER_S = 20.0
MAX_PROBE_OVERHEAD = 0.05

Metrics = Dict[str, Dict[str, object]]


class ProbeError(RuntimeError):
    """The speed probe was starved or too expensive: the run is void."""


class Timings:
    """A run's stamps turned into normalised numbers."""

    def __init__(self, result: RunResult) -> None:
        self.result = result
        self.series = SpeedSeries(result.samples)
        series, day, serve = self.series, result.day, result.serve
        self.setup_ns = [
            float(series.normalised_ns(*first) + series.normalised_ns(*second))
            for first, second in result.setup_intervals
        ]
        self.day_ns_by_kind: Dict[str, float] = {}
        for start, end, kind in day.intervals:
            self.day_ns_by_kind[kind] = self.day_ns_by_kind.get(kind, 0.0) + float(
                series.normalised_ns(start, end)
            )
        self.day_ns = sum(self.day_ns_by_kind.values())
        self.day_raw_ns = float(sum(end - start for start, end, _ in day.intervals))
        chunks = np.array(serve.chunk_intervals, dtype=np.float64)
        self.chunk_ns = series.normalised_ns(chunks[:, 0], chunks[:, 1])
        self.serve_loop_ns = float(self.chunk_ns.sum())
        self.serve_raw_ns = float((chunks[:, 1] - chunks[:, 0]).sum())
        self.republish_ns = np.zeros(0)
        if serve.republish_intervals:
            republishes = np.array(serve.republish_intervals, dtype=np.float64)
            self.republish_ns = series.normalised_ns(republishes[:, 0], republishes[:, 1])
            self.serve_loop_ns += float(self.republish_ns.sum())
            self.serve_raw_ns += float((republishes[:, 1] - republishes[:, 0]).sum())
        self.latency_us = series.normalised_ns(serve.starts, serve.ends) / 1e3
        self.n_requests = len(serve.starts)

    def serve_us_per_req(self) -> float:
        """What a request costs the serving loop in a typical chunk.

        The median over chunks of normalised chunk time / requests in the
        chunk, plus the median republish spread over the requests between
        two republishes.  The machine's slow bursts last ~0.1 s and hit a
        minority of the 150-200 chunks; the plain mean over the loop took
        all of them in and spread twice as far from run to run.
        """
        sizes = np.full(len(self.chunk_ns), float(CHUNK))
        sizes[-1] = self.n_requests - CHUNK * (len(sizes) - 1)
        per_request = float(np.median(self.chunk_ns / sizes))
        every = self.result.workload.serve.republish_every_chunks
        if len(self.republish_ns):
            per_request += float(np.median(self.republish_ns)) / (every * CHUNK)
        return per_request / 1e3

    # -- the probe's own health -----------------------------------------
    def _sampled_ns(self) -> float:
        return float(sum(end - start for start, end in self.result.sampled_windows))

    def probe_overhead_share(self) -> float:
        probes = sum(
            self.series.probe_ns_between(start, end)
            for start, end in self.result.sampled_windows
        )
        return probes / self._sampled_ns()

    def probe_samples_per_s(self) -> float:
        taken = sum(
            self.series.samples_between(start, end)
            for start, end in self.result.sampled_windows
        )
        return taken / (self._sampled_ns() / 1e9)

    def check_probe(self) -> None:
        rate = self.probe_samples_per_s()
        if rate < MIN_SAMPLES_PER_S:
            raise ProbeError(
                f"probe took {rate:.1f} samples/s over set-up and day "
                f"(need {MIN_SAMPLES_PER_S:g}): the box is oversubscribed"
            )
        overhead = self.probe_overhead_share()
        if overhead > MAX_PROBE_OVERHEAD:
            raise ProbeError(
                f"probe.overhead_share {overhead:.3f} > {MAX_PROBE_OVERHEAD}"
            )

    # -- shares ----------------------------------------------------------
    def failed_share(self) -> float:
        day, serve = self.result.day, self.result.serve
        failed = (
            day.retailer_days_failed
            + serve.raised
            + serve.buckets["shed"]
            + serve.buckets["empty"]
        )
        return failed / (day.retailer_days + self.n_requests)


def end_to_end(timings: Timings) -> Metrics:
    day = timings.result.day
    values = {
        "day_norm_s": timings.day_ns / 1e9,
        "day_peak_rss_mb": day.peak_rss_mb,
        "day_map_at_10": day.map_at_10,
        "serve_norm_us_per_req": timings.serve_us_per_req(),
        "serve_p50_norm_us": percentile(timings.latency_us, 50.0),
        "serve_p99_norm_us": percentile(timings.latency_us, 99.0),
        "setup_s": float(np.median(timings.setup_ns)) / 1e9,
        "served_share": 1.0 - timings.failed_share(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def per_layer(untraced: Timings, traced: Timings) -> Metrics:
    """The traced run's layer rows plus the untraced run's context numbers."""
    result = traced.result
    tracer = result.tracer
    # Per phase, so that warm-up requests do not count as served ones.
    table = {
        **tracer.layer_table(traced.series, within="setup"),
        **tracer.layer_table(traced.series, within="day"),
    }
    serving = tracer.layer_table(traced.series, within="serve")
    loads = [t["serving.cluster.load_batch"] for t in (table, serving) if "serving.cluster.load_batch" in t]
    table.update(serving)
    counters = tracer.counters
    serve = untraced.result.serve
    n = untraced.n_requests

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_ns", 0.0) / 1e9

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    def us_per_call(name: str) -> float:
        row = table.get(name)
        return row["self_ns"] / row["calls"] / 1e3 if row and row["calls"] else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    day_rows = {
        "core.sweep.plan_s": self_s("core.sweep.plan"),
        "core.training.run_self_s": self_s("core.training.run"),
        "core.training.train_config_self_s": self_s("core.training.train_config"),
        "mapreduce.run_self_s": self_s("mapreduce.run"),
        "models.trainer.compile_s": self_s("models.trainer.compile"),
        "models.trainer.sgd_s": self_s("models.trainer.sgd"),
        "models.negatives.sample_s": self_s("models.negatives.sample"),
        "evaluation.evaluate_s": self_s("evaluation.evaluate"),
        "core.checkpoint.write_s": self_s("core.checkpoint.write"),
        "core.journal.log_s": self_s("core.journal.log"),
        "cooccurrence.build_s": self_s("cooccurrence.build"),
        "core.candidates.select_s": self_s("core.candidates.select"),
        "models.recommend_batch_s": self_s("models.recommend_batch"),
        "core.inference.run_self_s": self_s("core.inference.run"),
        "retrieval.build_s": self_s("retrieval.build"),
        "retrieval.search_s": self_s("retrieval.search"),
        "serving.gate.validate_s": self_s("serving.gate.validate"),
        "serving.store.load_batch_s": self_s("serving.store.load_batch"),
        "obs.seal_s": self_s("obs.seal"),
        "dag.runner.self_s": self_s("dag.runner"),
        "core.service.run_day_self_s": self_s("core.service.run_day"),
    }
    day_total_s = traced.day_ns / 1e9
    sgd_total_s = table.get("models.trainer.sgd", {}).get("total_ns", 0.0) / 1e9
    checkpoints = result.service.training.checkpoints.stats
    values = dict(day_rows)
    values.update(
        {
            "data.generate_s": self_s("data.generate"),
            "core.sweep.configs": counters.get("core.sweep.configs", 0),
            "models.trainer.sgd_steps": counters.get("models.trainer.sgd_steps", 0),
            "models.trainer.triples_per_s": ratio(
                counters.get("models.trainer.sgd_steps", 0), sgd_total_s
            ),
            "core.checkpoint.writes": checkpoints.writes,
            "core.checkpoint.bytes": checkpoints.bytes_written,
            "core.journal.records": calls("core.journal.log"),
            "core.candidates.mean_candidates": ratio(
                counters.get("core.candidates.candidates", 0),
                counters.get("core.candidates.lists", 0),
            ),
            "models.items_scored": counters.get("models.items_scored", 0),
            "retrieval.recall": ratio(
                counters.get("retrieval.recall_sum", 0.0),
                counters.get("retrieval.recall_n", 0),
            ),
            "serving.gate.rejected": counters.get("serving.gate.rejected", 0),
            "day.full_norm_s": traced.day_ns_by_kind.get("full", 0.0) / 1e9,
            "day.incr_norm_s": traced.day_ns_by_kind.get("incremental", 0.0) / 1e9,
            # What the layer rows leave unexplained of the traced day.
            "day.layer_residual_share": abs(day_total_s - sum(day_rows.values()))
            / day_total_s,
            "serving.traffic.generate_s": self_s("serving.traffic.generate"),
            # Set-up loads and mid-stream republishes together.
            "serving.cluster.load_batch_ms": ratio(
                sum(row["total_ns"] for row in loads) / 1e6,
                sum(row["calls"] for row in loads),
            ),
            "serving.cluster.load_batch_calls": sum(row["calls"] for row in loads),
            "serving.frontend.cache_key_us": us_per_call("serving.frontend.cache_key"),
            "serving.cluster.lookup_us": us_per_call("serving.cluster.lookup"),
            "serving.cluster.lookups_per_req": ratio(
                calls("serving.cluster.lookup"), calls("serving.frontend.request")
            ),
            "serving.cluster.failovers_per_req": serve.failovers / n,
            "serving.server.blend_us": us_per_call("serving.server.blend"),
            "serving.frontend.fallback_us": us_per_call("serving.frontend.fallback"),
            "serving.overload.admit_us": us_per_call("serving.overload.admit"),
            "serving.overload.shed_share": serve.buckets["shed"] / n,
            "serving.frontend.invalidate_us": us_per_call("serving.frontend.invalidate"),
            "serving.frontend.cache_invalidations": serve.cache_invalidations,
            "serving.frontend.request_self_us": us_per_call("serving.frontend.request"),
            "probe.kernel_us_p50": float(np.median(untraced.series.kernel_ns)) / 1e3,
            "probe.speed_cv": untraced.series.speed_cv(),
            "probe.overhead_share": untraced.probe_overhead_share(),
            "trace.overhead_share.day": traced.day_ns / untraced.day_ns - 1.0,
            "trace.overhead_share.serve": traced.serve_loop_ns / untraced.serve_loop_ns - 1.0,
            "day_raw_wall_s": untraced.day_raw_ns / 1e9,
            "serve_raw_us_per_req": untraced.serve_raw_ns / n / 1e3,
            "day_retailers_per_hour": untraced.result.day.retailer_days
            / (untraced.day_raw_ns / 1e9)
            * 3600.0,
            "serve_rps_per_core": 1e9 / (untraced.serve_loop_ns / n),
            "failed_share": untraced.failed_share(),
        }
    )
    for index, name in enumerate(BUCKETS):
        if name == "coalesced":
            continue
        values[f"serving.frontend.bucket_share.{name}"] = serve.buckets[name] / n
        if name in SERVE_BUCKETS_TIMED:
            in_bucket = untraced.latency_us[serve.bucket == index]
            values[f"serving.frontend.bucket_us.{name}"] = (
                float(np.median(in_bucket)) if len(in_bucket) else 0.0
            )
    return {name: {"value": _number(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def _number(value: object) -> float:
    value = float(value)  # numpy scalars would not serialise
    return value if math.isfinite(value) else 0.0


def format_table(metrics: Metrics) -> List[str]:
    width = max(len(name) for name in metrics)
    return [
        f"{name:<{width}}  {entry['value']:>16.6f}  {entry['unit']}"
        for name, entry in metrics.items()
    ]
