"""E13 — one retailer per machine + Hogwild threads (paper section IV-B2).

"Instead of implementing a complex and brittle scheduling constraint, we
chose to train only a single retailer on a physical machine at a time,
and instead use multiple threads to train faster ... Once we have
allocated the memory, requesting CPUs to run additional training threads
helps us make more efficient use of the memory already requested."

The paper's argument is about cost, and Hogwild is modelled here, not
run: the simulator bills a model's threads through
``TrainerSettings.thread_speedup()``.  Two measurements:

1. cost — with memory as the fixed cost, adding threads to one model is
   cheaper per trained model than renting more single-thread VMs,
2. safety — packing multiple map tasks per machine makes large-retailer
   collisions exceed machine memory, which the one-model-per-machine
   policy makes impossible by construction.

CI runs this file as a smoke: 4 and 8 threads must cut the per-model
cost, and naive packing must collide on > 5 % of machines.
"""

from __future__ import annotations

import numpy as np

from benchmarks.bench_util import emit, fmt_row, machine_line
from repro.cluster.cost import ResourcePricing
from repro.cluster.machine import Priority, VMRequest
from repro.core.training import TrainerSettings
from repro.rng import make_rng

PRICING = ResourcePricing()
MACHINE_MEMORY_GB = 128.0


def model_cost(threads: int, base_seconds: float):
    """Wall seconds and cost of one 32 GB pre-emptible model at ``threads``."""
    duration = base_seconds / TrainerSettings(n_threads=threads).thread_speedup()
    request = VMRequest(threads, 32.0, Priority.PREEMPTIBLE)
    return duration, PRICING.cost(request, duration)


def test_hogwild_threading(benchmark, capsys):
    # --- 1. cost per model: threads amortize the memory ------------------
    base_seconds = 3600.0
    lines = [
        machine_line(),
        "cost of one trained model (32 GB resident, pre-emptible):",
        fmt_row("threads", "wall(s)", "cost/model", widths=[8, 9, 11]),
    ]
    costs = {}
    for threads in (1, 2, 4, 8):
        duration, cost = model_cost(threads, base_seconds)
        costs[threads] = cost
        lines.append(
            fmt_row(threads, f"{duration:.0f}", cost, widths=[8, 9, 11])
        )

    # --- 2. memory collisions under multi-task packing -------------------
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

    assert costs[4] < costs[1], "threads must cut per-model cost"
    assert costs[8] < costs[2]
    assert collision_rate > 0.05, (
        "the naive packing should show a real collision risk"
    )
    emit("E13", "Hogwild threads on one model per machine", lines, capsys)

    benchmark(lambda: model_cost(4, base_seconds))
