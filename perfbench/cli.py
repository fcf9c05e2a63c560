"""Command line: one run of one workload, or the A/A table (``--aa``)."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from perfbench.workloads import WORKLOADS

#: ``run_seconds`` of BENCHMARK.json: what the fixed work of one run was
#: sized to measure (day phase + serve phase) on the reference box.
RUN_SECONDS = 25
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench",
        description="Speed-normalised day + serve benchmark (see perfbench/README.md).",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="drives the request stream")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="measurement budget; the workloads are fixed-work sized to it "
        "(a time-boxed day could not repeat its digest), so it is only checked",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: an untraced and a traced run, reporting the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="seconds-sized workloads (tests)")
    parser.add_argument(
        "--aa", type=int, nargs="?", const=5, metavar="N",
        help="run every workload N times, twice over, and compare the two sets",
    )
    parser.add_argument("--out", help="with --aa: also write the JSON report here")
    return parser


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    # Imported here: numpy and repro load only once the BLAS thread count
    # is set, and --help stays instant.
    import numpy as np

    from perfbench import checks, report
    from perfbench.layers import install
    from perfbench.machine import envelope
    from perfbench.run import OUT_DIR, pin_to_one_cpu, run_once
    from perfbench.trace import Patcher, Tracer

    pinned = pin_to_one_cpu()
    workload = WORKLOADS[name](smoke)
    result = run_once(workload, seed, setup_repeats=1 if trace else SETUP_REPEATS)
    timings = report.Timings(result)
    timings.check_probe()
    problems = checks.check_run(result) + checks.check_peak_rss(result)
    failed = checks.unexpected_failures(result)
    digests = {
        "day_seal_sha256": result.day.seal_sha256,
        "serve_pages_sha256": result.serve.pages_sha256,
    }
    end_to_end = report.end_to_end(timings)
    metrics = end_to_end
    if trace:
        result.service = None  # let the untraced run's service go before another is built
        tracer = Tracer()
        with Patcher() as patcher:
            install(patcher, tracer)
            traced_result = run_once(workload, seed, tracer=tracer)
        traced = report.Timings(traced_result)
        traced.check_probe()
        problems += [f"traced run: {p}" for p in checks.check_run(traced_result)]
        failed += checks.unexpected_failures(traced_result)
        if traced_result.day.seal_sha256 != digests["day_seal_sha256"]:
            problems.append("traced and untraced runs sealed different days")
        if traced_result.serve.pages_sha256 != digests["serve_pages_sha256"]:
            problems.append("traced and untraced runs served different pages")
        metrics = report.per_layer(timings, traced)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(
            json.dumps({"probe_samples": traced_result.samples, "spans": tracer.dump()})
        )
        print(f"spans written to {spans_path}")

    for key, value in {**envelope(pinned), "workload": name, "seed": seed, **digests}.items():
        print(f"{key}: {value}")
    # Raw wall-clock is always shown beside the normalised numbers.
    print(f"day_raw_wall_s: {timings.day_raw_ns / 1e9:.3f}")
    print(f"serve_raw_us_per_req: {timings.serve_raw_ns / timings.n_requests / 1e3:.3f}")
    print(f"probe_kernel_us_p50: {float(np.median(timings.series.kernel_ns)) / 1e3:.1f}")
    print(f"probe_overhead_share: {timings.probe_overhead_share():.4f}")
    print(f"probe_samples_per_s: {timings.probe_samples_per_s():.1f}")
    measured_s = (timings.day_raw_ns + timings.serve_raw_ns) / 1e9
    print(f"measured_raw_s: {measured_s:.3f} (budget --seconds {seconds:g})")
    if not smoke and not 0.5 * seconds <= measured_s <= 2.0 * seconds:
        print(
            f"warning: fixed work measured {measured_s:.1f} s against a "
            f"--seconds budget of {seconds:g}", file=sys.stderr,
        )
    # The untraced run's end-to-end numbers are shown with --trace 1 too;
    # the result object holds only the metrics the flag asks for.
    print("\n".join(report.format_table(end_to_end)))
    if trace:
        print("\n".join(report.format_table(metrics)))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    day, serve = result.day, result.serve
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": day.retailer_days + len(serve.starts),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.aa is not None:
        from perfbench.aa import run_aa

        return run_aa(args.aa, args.seed, args.seconds, args.smoke, args.out)
    if args.workload is None:
        parser.error("--workload is required (or use --aa)")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
