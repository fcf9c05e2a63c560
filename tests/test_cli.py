"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import SigmundService, build_cluster
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

    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.command == "metrics"
        assert args.retailers == 3
        assert args.days == 1
        assert args.indent == 2

    def test_metrics_overrides(self):
        args = build_parser().parse_args(
            ["metrics", "--retailers", "2", "--days", "3",
             "--median-items", "40", "--seed", "5", "--indent", "0"]
        )
        assert (args.retailers, args.days, args.median_items) == (2, 3, 40)
        assert (args.seed, args.indent) == (5, 0)

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

    def test_train_has_no_workers_option(self, capsys):
        """Hogwild is modelled, not run: ``train`` trains one serial loop."""
        with pytest.raises(SystemExit) as exit:
            build_parser().parse_args(
                ["train", "catalog.csv", "events.csv", "--workers", "2"]
            )
        assert exit.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_commands_are_exactly_one_per_job(self):
        """The daily loop runs through ``run-day`` (``metrics`` for its
        snapshot); serving and retrieval speed are the E24 / E26 benches."""
        parser = build_parser()
        assert "{demo,train,inspect,metrics,chaos,run-day}" in parser.format_usage()
        for gone in ("service", "serve-bench", "retrieval-bench"):
            with pytest.raises(SystemExit):
                parser.parse_args([gone])

    def test_run_day_has_no_workers_option(self, capsys):
        """Train()'s fan-out is modelled, not run: every map task trains in
        the one process, and the service takes no worker pool."""
        with pytest.raises(SystemExit) as exit:
            build_parser().parse_args(["run-day", "--workers", "2"])
        assert exit.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        for option in ("n_workers", "executor"):
            with pytest.raises(TypeError, match=option):
                SigmundService(build_cluster(n_cells=1, machines_per_cell=2), **{option: 2})


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--items", "60", "--users", "30",
                     "--events", "300", "--epochs", "2", "--factors", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAP@10" in out
        assert "top-5" in out

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
        ledger = snapshot["process"]["ledger"]
        assert ledger["total_cost"] > 0
        assert set(ledger["chargebacks"]) == set(snapshot["retailers"])
        assert all(cost > 0 for cost in ledger["chargebacks"].values())

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
