"""Shared-memory Hogwild: lock-free SGD across worker *processes*.

The paper trains one model with lock-free threads (section IV-B2);
CPython threads share one GIL, so the lanes here are processes.  Every
model parameter and Adagrad accumulator lives in one
``multiprocessing.shared_memory`` segment
(:class:`~repro.fleet.sharedmem.SharedArrayBlock`), and ``n_processes``
spawned workers run :meth:`BPRTrainer.run_pass` — the serial trainer's
own mini-batch loop — against the *same physical arrays* with no locks:
the benign-race recipe of Niu et al. [24], with processes standing in
for threads.

Determinism: every lane seeds from
:func:`repro.rng.derive_worker_seed(seed, process_index, 0, ...)` —
logical lane indices, never pids — and each worker rebuilds the identical
example list from the dataset (same construction seed), then takes the
``examples[p::n]`` shard.  With ``n_processes=1`` the run is exactly
reproducible; with more, losses vary benignly with interleaving while
the update *schedule* per lane stays fixed.

The E25 bench times this class under a wall clock — replacing the
``TrainerSettings.thread_speedup()`` analytical model with a measured
speedup — while the cluster simulator keeps using the analytical model
for scheduling, billing, and preemption.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from typing import Dict, List

import numpy as np

from repro.data.datasets import RetailerDataset
from repro.exceptions import ConfigError, SigmundError
from repro.fleet.sharedmem import SharedArrayBlock, attach_shared_arrays
from repro.models.bpr import BPRModel
from repro.models.trainer import BPRTrainer, TrainingReport
from repro.rng import derive_worker_seed, make_rng

#: Namespace prefix for optimizer accumulators inside the shared block
#: ("//" cannot collide with parameter names).
OPT_PREFIX = "opt//"

#: Per-epoch synchronization timeout; a worker that stalls this long is
#: considered lost and the run aborts instead of hanging forever.
_SYNC_TIMEOUT_SECONDS = 300.0

#: How long the coordinator waits on the result queue before it checks
#: whether a lane has died: the bound on noticing a lost lane.
_POLL_SECONDS = 5.0


def _hogwild_worker_main(
    handle,
    worker_index: int,
    n_processes: int,
    dataset: RetailerDataset,
    params,
    max_epochs: int,
    seed: int,
    barrier,
    results,
) -> None:
    """One Hogwild lane (module-level: pickles by reference under spawn).

    Attaches the shared segment, points a fresh model (and its optimizer)
    at the shared buffers, and trains its shard.  The per-epoch barrier
    keeps lanes on the same epoch — the paper's threads also advance an
    epoch together — so "epoch e mean loss" is well-defined.
    """
    views, shm = attach_shared_arrays(handle)
    try:
        model = BPRModel(dataset.catalog, dataset.taxonomy, params)
        model.bind_parameters(
            {
                name: view
                for name, view in views.items()
                if not name.startswith(OPT_PREFIX)
            }
        )
        accumulators = {
            name[len(OPT_PREFIX) :]: view
            for name, view in views.items()
            if name.startswith(OPT_PREFIX)
        }
        if accumulators:
            model.optimizer.bind_state(accumulators)
        # Same construction seed in every lane -> identical example list;
        # the lane trains only its examples[p::n] shard of it.
        base = BPRTrainer(model, dataset, max_epochs=max_epochs, seed=seed)
        shard = np.arange(worker_index, base.n_examples, n_processes)
        for epoch in range(max_epochs):
            rng = make_rng(
                derive_worker_seed(seed, worker_index, 0, "hogwild", epoch)
            )
            total = base.run_pass(shard, rng)
            results.put((worker_index, epoch, total, len(shard)))
            barrier.wait(timeout=_SYNC_TIMEOUT_SECONDS)
    finally:
        shm.close()


class SharedMemoryHogwild:
    """Trains one model with ``n_processes`` lock-free worker processes.

    The caller's ``model`` provides the initial parameters and receives
    the trained ones back (optimizer accumulators included), so it slots
    in wherever a serial :class:`BPRTrainer` result is expected.
    """

    def __init__(
        self,
        model: BPRModel,
        dataset: RetailerDataset,
        n_processes: int = 2,
        max_epochs: int = 5,
        seed: int = 0,
        start_method: str = "spawn",
    ):
        if n_processes < 1:
            raise ConfigError("n_processes must be >= 1")
        if dataset.retailer_id != model.retailer_id:
            raise ConfigError(
                f"model for {model.retailer_id!r} cannot train on "
                f"{dataset.retailer_id!r} data"
            )
        self.model = model
        self.dataset = dataset
        self.n_processes = n_processes
        self.max_epochs = max_epochs
        self.seed = seed
        self._start_method = start_method

    def train(self) -> TrainingReport:
        if self.n_processes == 1:
            return self._train_inline()
        return self._train_processes()

    def _train_inline(self) -> TrainingReport:
        """Single-lane reference path: no shared memory, fully deterministic."""
        base = BPRTrainer(
            self.model, self.dataset, max_epochs=self.max_epochs, seed=self.seed
        )
        report = TrainingReport()
        if not base.examples:
            return report
        shard = np.arange(base.n_examples)
        for epoch in range(self.max_epochs):
            rng = make_rng(derive_worker_seed(self.seed, 0, 0, "hogwild", epoch))
            total = base.run_pass(shard, rng)
            report.epochs_run = epoch + 1
            report.sgd_steps += len(shard)
            report.epoch_losses.append(total / len(shard))
        return report

    def _train_processes(self) -> TrainingReport:
        model = self.model
        shared: Dict[str, object] = dict(model.get_state())
        for name, values in model.optimizer.get_state().items():
            shared[OPT_PREFIX + name] = values
        block = SharedArrayBlock(shared)  # type: ignore[arg-type]
        ctx = multiprocessing.get_context(self._start_method)
        barrier = ctx.Barrier(self.n_processes)
        results = ctx.Queue()
        workers: List[multiprocessing.process.BaseProcess] = []
        try:
            for index in range(self.n_processes):
                process = ctx.Process(
                    target=_hogwild_worker_main,
                    args=(
                        block.handle,
                        index,
                        self.n_processes,
                        self.dataset,
                        model.params,
                        self.max_epochs,
                        self.seed,
                        barrier,
                        results,
                    ),
                    name=f"hogwild-lane-{index}",
                    daemon=True,
                )
                process.start()
                workers.append(process)
            report = self._drain(results, workers)
            for process in workers:
                process.join(timeout=_SYNC_TIMEOUT_SECONDS)
            # Copy the shared (trained) arrays back into the caller's model.
            model.set_state(
                {
                    name: array
                    for name, array in block.arrays.items()
                    if not name.startswith(OPT_PREFIX)
                }
            )
            model.optimizer.set_state(
                {
                    name[len(OPT_PREFIX) :]: array
                    for name, array in block.arrays.items()
                    if name.startswith(OPT_PREFIX)
                }
            )
            return report
        finally:
            for process in workers:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
            block.close()
            block.unlink()

    def _drain(self, results, workers) -> TrainingReport:
        """Collect every lane's per-epoch message; abort if a lane is lost."""
        epoch_losses = [0.0] * self.max_epochs
        epoch_counts = [0] * self.max_epochs
        expected = self.n_processes * self.max_epochs
        for _ in range(expected):
            stalled = 0.0
            while True:
                try:
                    _, epoch, total, count = results.get(timeout=_POLL_SECONDS)
                    break
                except queue_module.Empty:
                    stalled += _POLL_SECONDS
                    # A lane that exited cleanly has already flushed all
                    # its messages; only an abnormal exit (or a full sync
                    # timeout with nothing arriving) is a lost lane.
                    crashed = any(
                        process.exitcode not in (None, 0)
                        for process in workers
                    )
                    if crashed or stalled >= _SYNC_TIMEOUT_SECONDS:
                        raise SigmundError(
                            "hogwild lane died before finishing its epochs"
                        ) from None
            epoch_losses[epoch] += total
            epoch_counts[epoch] += count
        report = TrainingReport()
        report.epochs_run = self.max_epochs
        report.sgd_steps = sum(epoch_counts)
        report.epoch_losses = [
            epoch_losses[epoch] / max(1, epoch_counts[epoch])
            for epoch in range(self.max_epochs)
        ]
        return report
