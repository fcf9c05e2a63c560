"""Every workload at ``--smoke`` scale: checks pass, names match, digests repeat."""

import copy
import dataclasses
import json
import shutil
import subprocess

import pytest

from conftest import ROOT
from perfbench import checks, report
from perfbench.cli import RUN_SECONDS
from perfbench.layers import install
from perfbench.run import run_once
from perfbench.trace import Patcher, Tracer
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke_runs(request):
    """Two same-seed runs and one other-seed run of one workload."""
    workload = WORKLOADS[request.param](smoke=True)
    return [run_once(workload, seed) for seed in (7, 7, 8)]


def test_checks_pass_and_nothing_unscripted_fails(smoke_runs):
    for result in smoke_runs:
        assert checks.check_run(result) == []
        assert checks.unexpected_failures(result) == 0


def test_a_day_that_does_not_raise_the_peak_rss_is_reported(smoke_runs):
    result = copy.copy(smoke_runs[0])
    result.day = dataclasses.replace(result.day, peak_rss_before_mb=result.day.peak_rss_mb)
    assert any("peak RSS" in problem for problem in checks.check_peak_rss(result))


def test_set_up_is_timed_in_two_halves_around_the_day(smoke_runs):
    result = smoke_runs[0]
    (first, second), = result.setup_intervals
    day_start, day_end = result.day.intervals[0][0], result.day.intervals[-1][1]
    assert first[0] < first[1] <= day_start < day_end <= second[0] < second[1]
    assert second[1] <= result.serve.chunk_intervals[0][0]


def test_same_seed_repeats_digests_and_exact_metrics(smoke_runs):
    first, second, other = smoke_runs
    assert first.day.seal_sha256 == second.day.seal_sha256
    assert first.serve.pages_sha256 == second.serve.pages_sha256
    assert first.day.map_at_10 == second.day.map_at_10
    assert first.serve.buckets == second.serve.buckets
    # The seed drives the request stream and nothing in the day phase.
    assert other.serve.pages_sha256 != first.serve.pages_sha256
    assert other.day.seal_sha256 == first.day.seal_sha256


def test_end_to_end_metrics_are_the_declared_ones_and_never_zero(smoke_runs):
    timings = report.Timings(smoke_runs[0])
    timings.check_probe()
    metrics = report.end_to_end(timings)
    assert list(metrics) == [name for name, *_ in report.END_TO_END]
    for name, unit, _, _ in report.END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0.0, name
    assert len(timings.latency_us) == smoke_runs[0].workload.serve.n_requests


def test_traced_run_partitions_the_day_and_serves_the_same_pages(smoke_runs):
    untraced = smoke_runs[0]
    tracer = Tracer()
    with Patcher() as patcher:
        install(patcher, tracer)
        traced = run_once(untraced.workload, untraced.seed, tracer=tracer)
    assert checks.check_run(traced) == []
    assert traced.serve.pages_sha256 == untraced.serve.pages_sha256
    assert traced.day.seal_sha256 == untraced.day.seal_sha256
    metrics = report.per_layer(report.Timings(untraced), report.Timings(traced))
    assert list(metrics) == [name for name, *_ in report.PER_LAYER]
    assert metrics["day.layer_residual_share"]["value"] <= 0.02
    assert metrics["models.trainer.sgd_s"]["value"] > 0.0
    assert metrics["serving.frontend.request_self_us"]["value"] > 0.0
    churn = untraced.workload.name == "churn_protected_republish"
    for name in ("dag.runner.self_s", "retrieval.build_s", "serving.overload.admit_us"):
        assert (metrics[name]["value"] > 0.0) == churn, name


def test_benchmark_json_repeats_the_definitions_in_report():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for declared in BENCHMARK["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]]().why
        assert len(declared["why"]) <= 200 and "\n" not in declared["why"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(report.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(report.PER_LAYER)
    assert len(BENCHMARK["per_layer"]) <= 128


def _cli(cwd, *extra):
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", "dense_full_zipf_hot", "--seed", "3",
         "--seconds", str(BENCHMARK["run_seconds"]), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_object_last(trace):
    done = _cli(ROOT, "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_command_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".out", "__pycache__"),
    )
    done = _cli(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
