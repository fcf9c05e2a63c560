#!/usr/bin/env python
"""Cost planning on pre-emptible capacity (paper sections II-B, IV-B).

Answers the operator questions the paper's systems sections answer:

* How much cheaper are pre-emptible VMs once you account for restarts?
* How does the checkpoint interval trade lost work against overhead?
* How do Hogwild threads change the cost of one training job?

Everything runs on the simulated cluster, so the numbers are exact
expectations over the pre-emption model rather than anecdotes.

Run:  python examples/cluster_cost_planning.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cost import ResourcePricing
from repro.cluster.execution import expected_cost_comparison, run_with_preemptions
from repro.cluster.machine import Priority, VMRequest
from repro.cluster.preemption import PreemptionModel
from repro.core.training import TrainerSettings


def main() -> None:
    pricing = ResourcePricing()
    preemption = PreemptionModel(preemptible_mean_uptime_hours=6.0)
    job_hours = 3.0
    work_seconds = job_hours * 3600.0

    # --- pre-emptible vs regular -----------------------------------------
    comparison = expected_cost_comparison(
        work_seconds,
        request_cpus=4,
        request_memory_gb=32,
        pricing=pricing,
        preemption_model=preemption,
        checkpoint_interval=300.0,
        trials=200,
        seed=1,
    )
    print(f"A {job_hours:.0f}h training job on 4 CPUs / 32 GB:")
    for priority in ("regular", "preemptible"):
        row = comparison[priority]
        print(
            f"  {priority:<12} mean cost {row['mean_cost']:.4f}  "
            f"mean wall {row['mean_wall_seconds'] / 3600:.2f}h"
        )
    print(
        f"  savings from pre-emptible capacity: "
        f"{comparison['savings_fraction'] * 100:.1f}% "
        f"(paper: 'nearly 70%')"
    )

    # --- checkpoint interval sweep ----------------------------------------
    print("\nCheckpoint interval sweep (same job, pre-emptible):")
    print(f"  {'interval':>10} {'overhead%':>10} {'lost h':>8} {'ckpts':>6}")
    rng = np.random.default_rng(2)
    for interval in (None, 60.0, 300.0, 1800.0, 7200.0):
        overheads, losts, ckpts = [], [], []
        for _ in range(100):
            trace = run_with_preemptions(
                work_seconds,
                preemption_model=preemption,
                checkpoint_interval=interval,
                seed=rng,
            )
            overheads.append(trace.overhead_ratio)
            losts.append(trace.lost_work_seconds / 3600)
            ckpts.append(trace.checkpoints_written)
        label = "none" if interval is None else f"{interval:.0f}s"
        print(
            f"  {label:>10} {np.mean(overheads) * 100:>9.1f}% "
            f"{np.mean(losts):>8.2f} {np.mean(ckpts):>6.1f}"
        )

    # --- thread count: memory is the fixed cost ----------------------------
    print("\nThreads vs cost for one model (32 GB resident either way):")
    print("  the paper's point: once the model's memory is allocated, extra")
    print("  CPUs for Hogwild threads amortize it (section IV-B2).")
    print(f"  {'threads':>8} {'wall h':>8} {'cost':>8}")
    single_thread_seconds = work_seconds
    for threads in (1, 2, 4, 8):
        speedup = TrainerSettings(n_threads=threads).thread_speedup()
        duration = single_thread_seconds / speedup
        request = VMRequest(cpus=threads, memory_gb=32, priority=Priority.PREEMPTIBLE)
        cost = pricing.cost(request, duration)
        print(f"  {threads:>8} {duration / 3600:>8.2f} {cost:>8.4f}")


if __name__ == "__main__":
    main()
