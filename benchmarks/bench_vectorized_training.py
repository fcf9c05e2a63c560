"""E20 — mini-batch size vs training throughput and quality.

Sigmund's daily loop sits on the BPR training hot path: thousands of
per-retailer models retrained every day (paper section III-C).  The
trainer has one loop (``BPRTrainer.run_epoch``): the example list is
compiled into flat CSR arrays once, each window of ``PLAN_WINDOW``
batches has its parameter-free indices planned once, and every
``batch_size`` triples take one ``step_planned`` — gathers, arithmetic
and two flat optimizer updates over the model's one parameter buffer,
whatever the number of tables.  The paper's schedule, one triple per
update, is ``batch_size=1`` through that same loop: it pays the whole
per-step numpy overhead for a single triple, and is the baseline row
here.

Measured here:

1. throughput — triples/sec at batches of one vs mini-batches of
   increasing size (the acceptance bars are >= 3x at the default size and
   >= 5x at batch_size >= 64),
2. quality parity — same-seed batches-of-one and default-batch runs
   converge to the same holdout MAP@10 within 5 % (mini-batch semantics,
   not a different model),
3. the composite sampler's cost — an epoch with the fleet's default
   ``"taxonomy"`` sampler (``CompositeNegativeSampler``: candidate pools
   drawn per window, picked against the model per step) at the default
   batch size costs <= 2x an epoch with the uniform sampler on the same
   retailer,
4. dispatch — ``ufunc.at`` calls per default-size ``step_planned`` (the
   per-batch step) on the taxonomy + brand + price model, counted from
   ``sys.setprofile`` ``c_call`` events: at most 6 (22 while every table
   and item side was an Adagrad step of its own),
5. planning — a uniform-sampler epoch builds ``ceil(batches / PLAN_WINDOW)``
   positive plans, not one per batch, and draws its negatives in one
   ``sample_batch`` call.

``E20_FAST=1`` is the CI smoke: batches of one against the default batch
size only, same five assertions, nothing written to ``results/``.
"""

from __future__ import annotations

import math
import os
import sys
import time
from unittest import mock

import numpy as np

from benchmarks.bench_util import emit, fmt_row, machine_line
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.negatives import CompositeNegativeSampler
from repro.models import trainer as trainer_module
from repro.models.trainer import DEFAULT_BATCH_SIZE, PLAN_WINDOW, BPRTrainer

BATCH_SIZES = (16, DEFAULT_BATCH_SIZE, 64, 256)
EPOCHS = 2
#: Bound on a composite-sampler epoch over a uniform-sampler one.
COMPOSITE_EPOCH_RATIO = 2.0
#: Bound on ``ufunc.at`` calls in one default-size ``step_planned``:
#: the user segment-sum, the item-vector assembly, and two Adagrad updates
#: of two scatters each.
MAX_AT_CALLS_PER_STEP = 6


def make_trainer(dataset, batch_size, composite=False):
    model = BPRModel(
        dataset.catalog,
        dataset.taxonomy,
        BPRHyperParams(n_factors=16, learning_rate=0.08, seed=3),
    )
    sampler = (
        CompositeNegativeSampler(dataset.n_items, taxonomy=dataset.taxonomy, model=model)
        if composite
        else None
    )
    return BPRTrainer(
        model, dataset, sampler=sampler, max_epochs=6, batch_size=batch_size, seed=7
    )


def triples_per_second(dataset, batch_size, composite=False):
    trainer = make_trainer(dataset, batch_size, composite)
    trainer.run_epoch()  # warm-up: numpy allocations, caches
    start = time.perf_counter()
    for _ in range(EPOCHS):
        trainer.run_epoch()
    elapsed = time.perf_counter() - start
    return EPOCHS * trainer.n_examples / elapsed


def ufunc_at_calls_per_step(dataset):
    """``ufunc.at`` calls inside each default-size ``step_planned`` of one
    epoch, read off ``sys.setprofile`` ``c_call`` events."""
    trainer = make_trainer(dataset, DEFAULT_BATCH_SIZE)
    step = BPRModel.step_planned.__code__
    counts = []
    inside = False

    def profile(frame, event, arg):
        nonlocal inside
        if event in ("call", "return") and frame.f_code is step:
            inside = event == "call"
            if inside:
                counts.append(0)
        elif event == "c_call" and inside and getattr(arg, "__name__", None) == "at":
            if isinstance(getattr(arg, "__self__", None), np.ufunc):
                counts[-1] += 1

    sys.setprofile(profile)
    try:
        trainer.run_epoch()
    finally:
        sys.setprofile(None)
    return counts[: trainer.n_examples // DEFAULT_BATCH_SIZE]


def plans_and_draws_per_epoch(dataset):
    """``(plans, batches, sample_batch calls)`` of one default-size
    uniform-sampler epoch."""
    trainer = make_trainer(dataset, DEFAULT_BATCH_SIZE)
    plans = []
    draws = []
    plan, draw = trainer_module.PositivePlan, trainer.sampler.sample_batch

    def counting_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    def counting_draw(*args):
        draws.append(1)
        return draw(*args)

    with mock.patch.object(trainer_module, "PositivePlan", counting_plan), mock.patch.object(
        trainer.sampler, "sample_batch", counting_draw
    ):
        trainer.run_epoch()
    return len(plans), math.ceil(trainer.n_examples / DEFAULT_BATCH_SIZE), len(draws)


def trained_quality(dataset, batch_size):
    trainer = make_trainer(dataset, batch_size)
    trainer.train()
    return HoldoutEvaluator(dataset).evaluate(trainer.model).map_at_10


def test_vectorized_training_speedup(medium_dataset, benchmark, capsys):
    fast = bool(os.environ.get("E20_FAST"))
    sizes = (DEFAULT_BATCH_SIZE,) if fast else BATCH_SIZES
    single_rate = triples_per_second(medium_dataset, batch_size=1)
    rates = {size: triples_per_second(medium_dataset, size) for size in sizes}
    composite_rate = triples_per_second(
        medium_dataset, DEFAULT_BATCH_SIZE, composite=True
    )
    composite_ratio = rates[DEFAULT_BATCH_SIZE] / composite_rate

    single_map = trained_quality(medium_dataset, batch_size=1)
    default_map = trained_quality(medium_dataset, DEFAULT_BATCH_SIZE)
    at_calls = ufunc_at_calls_per_step(medium_dataset)
    plans, batches, draws = plans_and_draws_per_epoch(medium_dataset)

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
    lines.append(
        f"composite sampler at batch {DEFAULT_BATCH_SIZE}: "
        f"{composite_rate:,.0f} triples/s, an epoch {composite_ratio:.2f}x "
        f"a uniform-sampler epoch"
    )
    lines.append(
        f"dispatch at batch {DEFAULT_BATCH_SIZE}: {max(at_calls)} ufunc.at calls "
        f"per step_planned (max over {len(at_calls)} full steps)"
    )
    lines.append(
        f"planning at batch {DEFAULT_BATCH_SIZE}: {plans} positive plans for "
        f"{batches} batches (window {PLAN_WINDOW}), {draws} sample_batch call per "
        f"uniform epoch"
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
    assert composite_ratio <= COMPOSITE_EPOCH_RATIO, (
        f"a composite-sampler epoch must cost <= {COMPOSITE_EPOCH_RATIO}x a "
        f"uniform-sampler epoch ({composite_ratio:.2f}x)"
    )
    assert max(at_calls) <= MAX_AT_CALLS_PER_STEP, (
        f"a default-size step_planned must make <= {MAX_AT_CALLS_PER_STEP} "
        f"ufunc.at calls ({max(at_calls)})"
    )
    assert plans == math.ceil(batches / PLAN_WINDOW) and draws == 1, (
        f"a uniform-sampler epoch must plan once per window of {PLAN_WINDOW} "
        f"batches and draw its negatives once ({plans} plans for {batches} "
        f"batches, {draws} sample_batch calls)"
    )
    for size in (s for s in sizes if s >= 64):
        assert rates[size] >= 5.0 * single_rate, (
            f"batch_size={size} must be >= 5x batches of one "
            f"({rates[size]:,.0f} vs {single_rate:,.0f} triples/s)"
        )

    benchmark(lambda: triples_per_second(medium_dataset, sizes[-1]))
