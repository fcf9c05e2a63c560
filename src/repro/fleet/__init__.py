"""The process-parallel training fleet.

The cluster simulator schedules thousands of Train() tasks in *simulated*
parallel, but until this package existed every map task's real compute ran
in one Python process.  :class:`ProcessFleetExecutor` fans per-config map
tasks over a pool of spawned worker processes behind the :class:`Executor`
protocol; the serial in-process path stays the reference implementation
and the simulated-clock billing/preemption/checkpoint semantics remain the
scheduling layer on top.

Parallelism *within* one config — the paper's lock-free Hogwild threads
(section IV-B2) — is modelled, not run: the simulator bills it through
:meth:`repro.core.training.TrainerSettings.thread_speedup`.

Determinism contract: every Train() task is fully seeded from its config
record (:func:`repro.rng.derive_seed` of the config's own seed), so a
sweep run through the fleet is byte-identical to the serial run — worker
placement never moves a random draw.
"""

from repro.fleet.executor import (
    CRASHED,
    ERROR,
    OK,
    Executor,
    FleetTask,
    ProcessFleetExecutor,
    SerialExecutor,
    TaskOutcome,
)
from repro.fleet.tasks import TrainTaskResult, TrainTaskSpec, run_train_task

__all__ = [
    "CRASHED",
    "ERROR",
    "OK",
    "Executor",
    "FleetTask",
    "ProcessFleetExecutor",
    "SerialExecutor",
    "TaskOutcome",
    "TrainTaskResult",
    "TrainTaskSpec",
    "run_train_task",
]
