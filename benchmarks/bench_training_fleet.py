"""E25 — process-parallel training fleet: throughput and parity.

The paper's Train() step is "a map-only job" over thousands of
per-retailer configs (section IV-B).  Earlier experiments *model*
parallel speed inside the simulated clock; this experiment measures the
fleet for real: the same sweep run through the serial reference
pipeline and through ``ProcessFleetExecutor`` at 1/2/4 workers, timed
on the wall clock.  Outputs and published model states must be
byte-identical at every worker count: worker placement must never move
a random draw.

The lock-free Hogwild threads *inside* one task (IV-B2) are modelled,
not run: ``TrainerSettings.thread_speedup()`` bills them (E13).  Real
shared-memory lanes were measured here until they left the code: on 2
cores they ran 1.10 / 1.16 / 0.99x of serial ``BPRTrainer.train()`` at
1 / 2 / 4 lanes, against a modelled 1.0 / 1.85 / 3.55x.

Absolute speedups are hardware-honest: the run records
``os.cpu_count()`` and only asserts scaling (>= 3x at 4 workers) when
at least 4 cores are actually available.  Parity is asserted always —
it must hold on any machine.

A Train() task must be worth shipping: the executor pickles the dataset
out and the model state back, a few milliseconds per task.  Since
mini-batch training became the default (PR 13) a 3-epoch task on these
60-item retailers is ~15 ms of compute and the fleet only measured its own
overhead (0.84x at 2 workers on 2 cores), so tasks are sized in epochs
(``EPOCHS = 30``, 640 events per retailer: ~200 ms each) rather than by
pinning a slower loop back in — the executor, not the SGD loop, is what
E25 measures.

Results land in ``benchmarks/results/e25.txt`` and ``BENCH_fleet.json``.
``E25_FAST=1`` runs a 2-worker tiny sweep and asserts parity plus
(given >= 2 cores) throughput no worse than serial — the CI smoke mode.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from benchmarks.bench_util import emit, fmt_row, machine, machine_line
from repro import build_cluster
from repro.core.config import ConfigRecord
from repro.core.registry import ModelRegistry
from repro.core.training import TrainerSettings, TrainingPipeline
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.fleet.executor import FleetTask, ProcessFleetExecutor
from repro.models.bpr import BPRHyperParams

RESULTS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_fleet.json"

EPOCHS = 30
SETTINGS = TrainerSettings(
    max_epochs_full=EPOCHS,
    max_epochs_incremental=1,
    sampler="uniform",
    convergence_tol=0.0,  # fixed epoch budget: every run does equal work
)


def make_datasets(n_retailers: int, n_events: int) -> dict:
    datasets = {}
    for i in range(n_retailers):
        dataset = dataset_from_synthetic(
            generate_retailer(
                RetailerSpec(
                    retailer_id=f"r{i}",
                    n_items=60,
                    n_users=40,
                    n_events=n_events,
                    taxonomy_depth=2,
                    taxonomy_fanout=3,
                    seed=500 + i,
                )
            )
        )
        datasets[dataset.retailer_id] = dataset
    return datasets


def make_configs(datasets: dict, per_retailer: int) -> list:
    configs = []
    for retailer_id in sorted(datasets):
        for number in range(per_retailer):
            configs.append(
                ConfigRecord(
                    retailer_id,
                    number,
                    BPRHyperParams(
                        n_factors=6 + 2 * (number % 2),
                        learning_rate=0.05 + 0.02 * (number % 3),
                        seed=number,
                    ),
                )
            )
    return configs


def _warm(payload):
    """Trivial pre-warm task so pool spawn cost stays out of the timings."""
    return payload


def run_sweep(datasets, configs, executor=None):
    registry = ModelRegistry()
    pipeline = TrainingPipeline(
        build_cluster(n_cells=1, machines_per_cell=8),
        registry,
        settings=SETTINGS,
        executor=executor,
    )
    t0 = time.perf_counter()
    outputs, _ = pipeline.run(configs, datasets, day=0)
    seconds = time.perf_counter() - t0
    states = {
        output.config.key: registry.get(
            output.retailer_id, output.config.model_number
        ).model.get_state()
        for output in outputs
    }
    return outputs, states, seconds


def assert_sweeps_identical(reference, candidate, label):
    ref_outputs, ref_states, _ = reference
    got_outputs, got_states, _ = candidate
    assert got_outputs == ref_outputs, f"{label}: outputs diverged from serial"
    assert got_states.keys() == ref_states.keys()
    for key, ref_state in ref_states.items():
        for name, values in ref_state.items():
            assert np.array_equal(got_states[key][name], values), (
                f"{label}: model state {key}/{name} diverged from serial"
            )


def test_training_fleet(capsys):
    fast = bool(os.environ.get("E25_FAST"))
    cores = os.cpu_count() or 1

    if fast:
        datasets = make_datasets(n_retailers=2, n_events=640)
        configs = make_configs(datasets, per_retailer=2)
        worker_counts = [2]
    else:
        datasets = make_datasets(n_retailers=3, n_events=640)
        configs = make_configs(datasets, per_retailer=4)
        worker_counts = [1, 2, 4]

    serial = run_sweep(datasets, configs)
    serial_seconds = serial[2]

    fleet_rows = []
    for n_workers in worker_counts:
        with ProcessFleetExecutor(n_workers=n_workers) as executor:
            executor.run_tasks(
                [FleetTask(str(i), _warm, i) for i in range(n_workers)]
            )
            result = run_sweep(datasets, configs, executor=executor)
        assert_sweeps_identical(serial, result, f"fleet-{n_workers}")
        fleet_rows.append(
            {
                "workers": n_workers,
                "seconds": result[2],
                "speedup_vs_serial": serial_seconds / max(result[2], 1e-9),
                "identical": True,
            }
        )

    lines = [
        machine_line(),
        f"{len(configs)} configs x {len(datasets)} retailers x {EPOCHS} epochs",
        "",
        "Train() sweep: serial reference vs process fleet "
        "(byte-identical outputs asserted at every width)",
        fmt_row("executor", "wall(s)", "speedup", "identical", widths=[10, 9, 9, 10]),
        fmt_row("serial", serial_seconds, "1.00x", "-", widths=[10, 9, 9, 10]),
    ]
    for row in fleet_rows:
        lines.append(
            fmt_row(
                f"fleet-{row['workers']}",
                row["seconds"],
                f"{row['speedup_vs_serial']:.2f}x",
                "yes",
                widths=[10, 9, 9, 10],
            )
        )

    if fast:
        # CI smoke: parity held (asserted above); with real parallel
        # hardware the 2-worker fleet must not be slower than serial.
        if cores >= 2:
            assert fleet_rows[0]["speedup_vs_serial"] >= 1.0
        emit("E25", "process-parallel training fleet (smoke)", lines, capsys)
        return

    emit("E25", "process-parallel training fleet", lines, capsys)

    # Scaling claims only where the hardware can back them.
    if cores >= 4:
        by_workers = {row["workers"]: row for row in fleet_rows}
        assert by_workers[4]["speedup_vs_serial"] >= 3.0
        assert by_workers[2]["speedup_vs_serial"] >= 1.5
    elif cores >= 2:
        assert fleet_rows[1]["speedup_vs_serial"] >= 1.2

    RESULTS_JSON.write_text(
        json.dumps(
            {
                "experiment": "E25",
                "source": "benchmarks/bench_training_fleet.py",
                "cpu_count": cores,
                "machine": machine(),
                "n_configs": len(configs),
                "n_retailers": len(datasets),
                "epochs": EPOCHS,
                "serial_seconds": serial_seconds,
                "fleet": fleet_rows,
            },
            indent=2,
        )
        + "\n"
    )
