"""E25 — process-parallel training fleet: throughput, parity, Hogwild.

The paper's Train() step is "a map-only job" over thousands of
per-retailer configs (section IV-B), with lock-free Hogwild threads
inside each task (IV-B2).  Earlier experiments *model* parallel speed
with ``TrainerSettings.thread_speedup()`` inside the simulated clock;
this experiment measures the real thing:

1. **fleet throughput** — the same sweep run through the serial
   reference pipeline and through ``ProcessFleetExecutor`` at 1/2/4
   workers, timed on the wall clock.  Outputs and published model
   states must be byte-identical at every worker count: worker
   placement must never move a random draw.
2. **shared-memory Hogwild** — ``SharedMemoryHogwild`` lanes updating
   one model lock-free through ``multiprocessing.shared_memory``, timed
   against serial ``BPRTrainer.train()`` on the same model, data and
   epoch budget (the number a caller would otherwise get), with the
   *measured* speedup reported next to the modelled ``thread_speedup()``
   curve it replaces.

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
E25 measures.  The Hogwild lanes run the same mini-batch pass as the
serial trainer (``BPRTrainer.run_pass`` over their shard), so their task
is sized the same way: a 250-item retailer for ``HOGWILD_EPOCHS`` epochs
is ~4 s of serial SGD, several times the ~1 s of fixed cost a multi-lane
run pays (spawning interpreters, each lane rebuilding the example list).
At 20 epochs (1.3 s of SGD) that fixed cost is the result: 2 lanes 0.6x.
Each Hogwild row is the fastest of ``HOGWILD_LAPS`` interleaved laps.

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
from repro.fleet.hogwild import SharedMemoryHogwild
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer

RESULTS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_fleet.json"

EPOCHS = 30
#: Epoch budget of the Hogwild rows (the retailer is ``medium_dataset``).
HOGWILD_EPOCHS = 60
HOGWILD_LAPS = 3
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


def _hogwild_model(dataset) -> BPRModel:
    return BPRModel(
        dataset.catalog,
        dataset.taxonomy,
        BPRHyperParams(n_factors=8, learning_rate=0.08, seed=7),
    )


def time_serial_trainer(dataset, max_epochs: int) -> float:
    """Serial ``BPRTrainer.train()``: what the lanes have to beat."""
    model = _hogwild_model(dataset)
    t0 = time.perf_counter()
    # Like a Hogwild run: example construction is inside the clock, and
    # the epoch budget is fixed (no early stop).
    report = BPRTrainer(
        model,
        dataset,
        max_epochs=max_epochs,
        patience=max_epochs + 1,
        seed=7,
    ).train()
    seconds = time.perf_counter() - t0
    assert report.epochs_run == max_epochs
    return seconds


def time_hogwild(dataset, lanes: int, max_epochs: int) -> float:
    trainer = SharedMemoryHogwild(
        _hogwild_model(dataset),
        dataset,
        n_processes=lanes,
        max_epochs=max_epochs,
        seed=7,
    )
    t0 = time.perf_counter()
    report = trainer.train()
    seconds = time.perf_counter() - t0
    assert report.epochs_run == max_epochs
    return seconds


def test_training_fleet(medium_dataset, capsys):
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

    # --- shared-memory Hogwild: measured wall clock vs the model --------
    retailer = medium_dataset
    lane_counts = [1, 2, 4]
    # Laps interleave serial and every lane count, so whatever else the box
    # is doing at some moment costs all rows alike; a row is its best lap.
    trainer_seconds = float("inf")
    lane_seconds = dict.fromkeys(lane_counts, float("inf"))
    for _ in range(HOGWILD_LAPS):
        trainer_seconds = min(
            trainer_seconds, time_serial_trainer(retailer, HOGWILD_EPOCHS)
        )
        for lanes in lane_counts:
            lane_seconds[lanes] = min(
                lane_seconds[lanes], time_hogwild(retailer, lanes, HOGWILD_EPOCHS)
            )
    assert trainer_seconds >= 1.0, (
        f"the Hogwild task is {trainer_seconds:.2f} s of serial SGD: too short "
        f"to tell lanes from process start-up; raise HOGWILD_EPOCHS"
    )
    hogwild_rows = []
    lines += [
        "",
        f"shared-memory Hogwild on {retailer.n_items} items x {HOGWILD_EPOCHS} "
        f"epochs: measured speedup over serial BPRTrainer.train() vs "
        f"modelled thread_speedup()",
        fmt_row("trainer", "wall(s)", "measured", "modelled", widths=[10, 9, 9, 9]),
        fmt_row("serial", trainer_seconds, "1.00x", "-", widths=[10, 9, 9, 9]),
    ]
    for lanes, seconds in lane_seconds.items():
        measured = trainer_seconds / max(seconds, 1e-9)
        modelled = TrainerSettings(n_threads=lanes).thread_speedup()
        hogwild_rows.append(
            {
                "lanes": lanes,
                "seconds": seconds,
                "measured_speedup": measured,
                "modelled_speedup": modelled,
            }
        )
        lines.append(
            fmt_row(
                f"{lanes}-lane",
                seconds,
                f"{measured:.2f}x",
                f"{modelled:.2f}x",
                widths=[10, 9, 9, 9],
            )
        )

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
                "hogwild_epochs": HOGWILD_EPOCHS,
                "hogwild_laps": HOGWILD_LAPS,
                "hogwild_baseline": "serial BPRTrainer.train(), same model and epochs",
                "hogwild_serial_trainer_seconds": trainer_seconds,
                "hogwild": hogwild_rows,
            },
            indent=2,
        )
        + "\n"
    )
