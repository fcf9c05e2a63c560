"""E20 — mini-batch size vs training throughput and quality.

Sigmund's daily loop sits on the BPR training hot path: thousands of
per-retailer models retrained every day (paper section III-C).  The
trainer has one loop (``BPRTrainer.run_epoch``): the example list is
compiled into flat CSR arrays once and every ``batch_size`` triples take
one ``sgd_step_batch`` — one scatter-add per parameter table.  The paper's
schedule, one triple per update, is ``batch_size=1`` through that same
loop: it pays the whole per-step numpy overhead for a single triple, and
is the baseline row here.

Measured here:

1. throughput — triples/sec at batches of one vs mini-batches of
   increasing size (the acceptance bars are >= 3x at the default size and
   >= 5x at batch_size >= 64),
2. quality parity — same-seed batches-of-one and default-batch runs
   converge to the same holdout MAP@10 within 5 % (mini-batch semantics,
   not a different model).

``E20_FAST=1`` is the CI smoke: batches of one against the default batch
size only, same two assertions, nothing written to ``results/``.
"""

from __future__ import annotations

import os
import time

from benchmarks.bench_util import emit, fmt_row, machine_line
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import DEFAULT_BATCH_SIZE, BPRTrainer

BATCH_SIZES = (16, DEFAULT_BATCH_SIZE, 64, 256)
EPOCHS = 2


def make_trainer(dataset, batch_size):
    model = BPRModel(
        dataset.catalog,
        dataset.taxonomy,
        BPRHyperParams(n_factors=16, learning_rate=0.08, seed=3),
    )
    return BPRTrainer(
        model, dataset, max_epochs=6, batch_size=batch_size, seed=7
    )


def triples_per_second(dataset, batch_size):
    trainer = make_trainer(dataset, batch_size)
    trainer.run_epoch()  # warm-up: numpy allocations, caches
    start = time.perf_counter()
    for _ in range(EPOCHS):
        trainer.run_epoch()
    elapsed = time.perf_counter() - start
    return EPOCHS * trainer.n_examples / elapsed


def trained_quality(dataset, batch_size):
    trainer = make_trainer(dataset, batch_size)
    trainer.train()
    return HoldoutEvaluator(dataset).evaluate(trainer.model).map_at_10


def test_vectorized_training_speedup(medium_dataset, benchmark, capsys):
    fast = bool(os.environ.get("E20_FAST"))
    sizes = (DEFAULT_BATCH_SIZE,) if fast else BATCH_SIZES
    single_rate = triples_per_second(medium_dataset, batch_size=1)
    rates = {size: triples_per_second(medium_dataset, size) for size in sizes}

    single_map = trained_quality(medium_dataset, batch_size=1)
    default_map = trained_quality(medium_dataset, DEFAULT_BATCH_SIZE)

    lines = [
        machine_line(),
        f"retailer: {medium_dataset.retailer_id} "
        f"({medium_dataset.n_items} items, "
        f"{make_trainer(medium_dataset, 1).n_examples} triples/epoch)",
        "",
        fmt_row("batch", "triples/s", "speedup", widths=[8, 12, 9]),
        fmt_row(1, f"{single_rate:,.0f}", "1.0x", widths=[8, 12, 9]),
    ]
    for size in sizes:
        lines.append(
            fmt_row(
                size,
                f"{rates[size]:,.0f}",
                f"{rates[size] / single_rate:.1f}x",
                widths=[8, 12, 9],
            )
        )
    lines.append("")
    lines.append(
        f"quality parity: MAP@10 batch-1 {single_map:.4f} vs "
        f"batch-{DEFAULT_BATCH_SIZE} (default) {default_map:.4f}"
    )
    if fast:
        with capsys.disabled():
            print("\n== E20 (fast smoke) ==\n" + "\n".join(lines))
    else:
        emit("E20", "mini-batch size vs training throughput", lines, capsys)

    default_rate = rates[DEFAULT_BATCH_SIZE]
    assert default_rate >= 3.0 * single_rate, (
        f"the default batch size must be >= 3x batches of one "
        f"({default_rate:,.0f} vs {single_rate:,.0f} triples/s)"
    )
    assert abs(default_map - single_map) <= 0.05 * single_map, (
        f"default-batch MAP@10 {default_map:.4f} must stay within 5 % of "
        f"batches of one's {single_map:.4f}"
    )
    for size in (s for s in sizes if s >= 64):
        assert rates[size] >= 5.0 * single_rate, (
            f"batch_size={size} must be >= 5x batches of one "
            f"({rates[size]:,.0f} vs {single_rate:,.0f} triples/s)"
        )

    benchmark(lambda: triples_per_second(medium_dataset, sizes[-1]))
