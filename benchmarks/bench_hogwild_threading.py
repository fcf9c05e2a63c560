"""E13 — one retailer per machine + Hogwild lanes (paper section IV-B2).

"Instead of implementing a complex and brittle scheduling constraint, we
chose to train only a single retailer on a physical machine at a time,
and instead use multiple threads to train faster ... Once we have
allocated the memory, requesting CPUs to run additional training threads
helps us make more efficient use of the memory already requested."

Three measurements:

1. correctness — lock-free Hogwild training reaches the same quality as
   single-lane training on the same budget.  The lanes are real:
   ``SharedMemoryHogwild`` worker processes racing on one shared-memory
   model (CPython threads would only take turns on the GIL), each
   running the trainer's own mini-batch pass over its shard,
2. cost — with memory as the fixed cost, adding threads to one model is
   cheaper per trained model than renting more single-thread VMs (the
   simulator's ``thread_speedup()`` cost model; E25 has the measured
   wall clock of the lanes),
3. safety — packing multiple map tasks per machine makes large-retailer
   collisions exceed machine memory, which the one-model-per-machine
   policy makes impossible by construction.

CI runs this file as a smoke: 4 process lanes must keep > 0.7x of the
1-lane MAP@10.
"""

from __future__ import annotations

import numpy as np

from benchmarks.bench_util import emit, fmt_row, machine_line
from repro.cluster.cost import ResourcePricing
from repro.cluster.machine import Priority, VMRequest
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.fleet.hogwild import SharedMemoryHogwild
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.rng import make_rng

PRICING = ResourcePricing()
MACHINE_MEMORY_GB = 128.0
THREAD_EFFICIENCY = 0.85


def hogwild_quality(dataset, n_lanes):
    model = BPRModel(
        dataset.catalog, dataset.taxonomy,
        BPRHyperParams(n_factors=12, learning_rate=0.08, seed=8),
    )
    SharedMemoryHogwild(
        model, dataset, n_processes=n_lanes, max_epochs=4, seed=8
    ).train()
    return HoldoutEvaluator(dataset).evaluate(model).map_at_10


def test_hogwild_threading(medium_dataset, benchmark, capsys):
    # --- 1. lock-free quality parity -------------------------------------
    single = hogwild_quality(medium_dataset, 1)
    multi = hogwild_quality(medium_dataset, 4)

    # --- 2. cost per model: threads amortize the memory ------------------
    base_seconds = 3600.0
    lines = [
        machine_line(),
        f"quality parity: MAP@10 1 lane {single:.4f} vs "
        f"4 shared-memory process lanes {multi:.4f}",
        "",
        "cost of one trained model (32 GB resident, pre-emptible):",
        fmt_row("threads", "wall(s)", "cost/model", widths=[8, 9, 11]),
    ]
    costs = {}
    for threads in (1, 2, 4, 8):
        speedup = 1.0 + (threads - 1) * THREAD_EFFICIENCY
        duration = base_seconds / speedup
        request = VMRequest(threads, 32.0, Priority.PREEMPTIBLE)
        cost = PRICING.cost(request, duration)
        costs[threads] = cost
        lines.append(
            fmt_row(threads, f"{duration:.0f}", cost, widths=[8, 9, 11])
        )

    # --- 3. memory collisions under multi-task packing -------------------
    # Lognormal model footprints: most models are small, a few are huge —
    # like real retailer fleets.
    rng = make_rng(5)
    footprints = np.minimum(
        np.exp(rng.normal(2.2, 1.3, size=4000)), MACHINE_MEMORY_GB
    )
    tasks_per_machine = 4
    collisions = 0
    trials = len(footprints) // tasks_per_machine
    for start in range(0, trials * tasks_per_machine, tasks_per_machine):
        if footprints[start : start + tasks_per_machine].sum() > MACHINE_MEMORY_GB:
            collisions += 1
    collision_rate = collisions / trials
    lines.append("")
    lines.append(
        f"packing {tasks_per_machine} map tasks/machine on {MACHINE_MEMORY_GB:.0f}GB: "
        f"{collision_rate * 100:.1f}% of machines exceed memory"
    )
    lines.append(
        "one-model-per-machine + threads: memory collisions are impossible"
    )

    assert multi > single * 0.7, "Hogwild racing must not destroy quality"
    assert costs[4] < costs[1], "threads must cut per-model cost"
    assert costs[8] < costs[2]
    assert collision_rate > 0.05, (
        "the naive packing should show a real collision risk"
    )
    emit("E13", "Hogwild lanes on one model per machine", lines, capsys)

    # One round: every call spawns four interpreters.
    benchmark.pedantic(
        lambda: hogwild_quality(medium_dataset, 4), rounds=1, iterations=1
    )
