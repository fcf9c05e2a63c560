"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

CATALOG_CSV = """item_id,category,brand,price
a,x/y,b1,10.0
b,x/y,b2,12.0
c,x/z,b1,8.0
"""

EVENTS_CSV = """user_id,item_id,event,timestamp
u1,a,view,1
u1,b,view,2
u1,c,purchase,3
u2,b,view,1
u2,a,cart,2
u2,c,view,3
"""


@pytest.fixture()
def csv_paths(tmp_path):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(CATALOG_CSV)
    events = tmp_path / "events.csv"
    events.write_text(EVENTS_CSV)
    return str(catalog), str(events)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.items == 300
        assert args.command == "demo"

    def test_service_overrides(self):
        args = build_parser().parse_args(
            ["service", "--retailers", "2", "--days", "1"]
        )
        assert args.retailers == 2
        assert args.days == 1

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.command == "metrics"
        assert args.retailers == 3
        assert args.days == 1
        assert args.indent == 2

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.command == "serve-bench"
        assert args.retailers == 4
        assert args.requests == 2000
        assert args.qps == 1000.0
        assert args.cache_ttl_ms == 60_000.0

    def test_run_day_defaults(self):
        args = build_parser().parse_args(["run-day"])
        assert args.command == "run-day"
        assert args.retailers == 3
        assert args.days == 2
        assert args.serial is False
        assert args.max_parallelism == 1
        assert args.blocks is None
        assert args.schedule is False
        assert args.seal_out is None

    def test_run_day_overrides(self):
        args = build_parser().parse_args(
            ["run-day", "--serial", "--max-parallelism", "4",
             "--blocks", "train,publish", "--schedule"]
        )
        assert args.serial is True
        assert args.max_parallelism == 4
        assert args.blocks == "train,publish"
        assert args.schedule is True


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--items", "60", "--users", "30",
                     "--events", "300", "--epochs", "2", "--factors", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAP@10" in out
        assert "top-5" in out

    def test_service_runs(self, capsys):
        code = main(["service", "--retailers", "2", "--days", "2",
                     "--median-items", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep=full" in out
        assert "sweep=incremental" in out
        assert "chargeback" in out

    def test_inspect_csv(self, csv_paths, capsys):
        catalog, events = csv_paths
        assert main(["inspect", catalog, events]) == 0
        out = capsys.readouterr().out
        assert "items: 3" in out

    def test_train_csv(self, csv_paths, capsys):
        catalog, events = csv_paths
        assert main(["train", catalog, events, "--epochs", "2",
                     "--factors", "4"]) == 0
        out = capsys.readouterr().out
        assert "map@10" in out

    def test_metrics_emits_valid_fleet_snapshot(self, capsys):
        code = main(["metrics", "--retailers", "2", "--days", "1",
                     "--median-items", "40"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {
            "schema_version", "day", "sweep_kind", "report", "fleet",
            "retailers", "metrics", "process",
        }
        assert snapshot["schema_version"] == 1
        assert snapshot["day"] == 0
        assert snapshot["sweep_kind"] == "full"
        assert len(snapshot["retailers"]) == 2
        for rollup in snapshot["retailers"].values():
            assert rollup["configs_trained"] > 0
            assert rollup["triples_per_second"] > 0
        assert snapshot["fleet"]["publishes_accepted"] == 2
        assert snapshot["metrics"]["counters"]
        assert snapshot["process"]["checkpoints"]["writes"] >= 0

    def test_run_day_dag_matches_serial_output(self, capsys):
        dag_args = ["run-day", "--retailers", "2", "--days", "2",
                    "--median-items", "40", "--max-parallelism", "4",
                    "--schedule"]
        assert main(dag_args) == 0
        dag_out = capsys.readouterr().out
        assert "sweep=full" in dag_out
        assert "sweep=incremental" in dag_out
        assert "infer_plan" in dag_out
        assert "makespan=" in dag_out

        serial_args = ["run-day", "--retailers", "2", "--days", "2",
                       "--median-items", "40", "--serial"]
        assert main(serial_args) == 0
        serial_out = capsys.readouterr().out
        # Per-day report lines are identical across orchestrators.
        day_lines = [l for l in dag_out.splitlines() if l.startswith("day ")]
        assert day_lines == [
            l for l in serial_out.splitlines() if l.startswith("day ")
        ]

    def test_run_day_partial_blocks_and_seal_out(self, tmp_path, capsys):
        seal_path = tmp_path / "seal.json"
        code = main(["run-day", "--retailers", "2", "--days", "1",
                     "--median-items", "40", "--blocks", "train",
                     "--seal-out", str(seal_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "partial (train)" in out
        assert "wrote day 0 seal" in out
        seal = json.loads(seal_path.read_text())
        assert seal["day"] == 0
        assert seal["fleet"]["publishes_accepted"] == 2

    def test_retrieval_bench_prints_a_finite_speedup_per_nprobe(self, capsys):
        rc = main(["retrieval-bench", "--items", "1500", "--queries", "16",
                   "--nprobes", "1", "4", "--k", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact:" in out
        rows = re.findall(
            r"nprobe=\s*(\d+): recall@10=([\d.]+) ([\d.]+) ms/query "
            r"\(([\d.]+)x\)", out
        )
        assert [int(row[0]) for row in rows] == [1, 4]
        for _, recall, ann_ms, speedup in rows:
            assert 0.0 <= float(recall) <= 1.0
            assert float(ann_ms) > 0.0
            assert 0.0 <= float(speedup) < float("inf")

    def test_serve_bench_runs(self, capsys):
        code = main(["serve-bench", "--retailers", "2", "--items", "120",
                     "--requests", "300", "--users", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold: p50=" in out
        assert "warm: p50=" in out
        assert "cache_hit_rate=" in out
        assert "stale_serves=" in out


class TestBlasThreadCap:
    """``python -m repro`` runs on one BLAS thread; ``import repro`` and an
    explicit environment are left alone."""

    READ = (
        "import ctypes\n"
        "from repro.cli import _openblas\n"
        "print([get() for get in _openblas('get_num_threads', restype=ctypes.c_int)])\n"
    )
    #: ``python -m repro --help`` (the parser exits 0), then read the pool.
    AS_MAIN = (
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0\n"
    )

    def _threads(self, code, **env):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        environ = {
            key: value
            for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
        environ.update(env, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code + self.READ],
            env=environ,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    def test_cap_holds_under_dash_m_and_not_under_import(self):
        untouched = self._threads("import numpy\n")
        if not untouched:
            pytest.skip("numpy runs on no OpenBLAS this process can see")
        assert self._threads("import repro\n") == untouched
        assert self._threads(self.AS_MAIN) == [1] * len(untouched)

    def test_explicit_environment_wins(self):
        chosen = self._threads("import numpy\n", OPENBLAS_NUM_THREADS="2")
        if not chosen:
            pytest.skip("numpy runs on no OpenBLAS this process can see")
        assert self._threads(self.AS_MAIN, OPENBLAS_NUM_THREADS="2") == chosen
