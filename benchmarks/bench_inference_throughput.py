"""E22 — batched offline inference & evaluation vs the per-item loops.

The daily loop's inference cost is dominated by Python overhead: two
scoring calls per item (view + purchase surface), each re-deriving the
candidate pool and paying a full interpreter round trip for one gemv.
The batched path ranks each 128-item block as one flat array: its
``(item, candidate)`` pairs scored in one gather-and-dot
(``_score_queries``: only the pairs asked for, never ``block x |union of
candidate lists|``) and selected in one ``segmented_top_k``, over the
flat candidate arrays the block's selection emitted (runs of the taxonomy
index's members array, cut and gathered once per block).  The order is
``top_k_select``'s, which the per-item path applies row by row; the
per-item path reads its pools as one-row blocks
(``batch_view_based([item])`` / ``batch_purchase_based([item])``).

Measured here, per synthetic retailer scale:

1. items/s — per-item ``recommend`` loop vs ``recommend_batch`` over
   128-item blocks, both surfaces per item (``MEDIUM_BAR`` on the medium
   retailer),
2. holdout examples/s — a per-example loop over ``rank_of`` /
   ``estimate_rank`` (built here; the library has one evaluator) vs
   ``HoldoutEvaluator`` (exact or sampled, whichever the scale selects),
3. the top-k stage alone — ``top_k_select`` row by row vs one
   ``segmented_top_k`` over the same scored 128-item blocks (view
   surface), in rows/s, so the table shows which stage a change in the
   totals above came from,
4. selection alone — one-row blocks (``batch_view_based([item])`` +
   ``batch_purchase_based([item])`` per item) vs the same readers over
   128-item blocks, in items/s, rows checked equal first,
5. publish — one ``PUBLISH_SCALE`` retailer through the day's own
   rank -> reduce -> gate -> load (``InferencePipeline.run_cell``,
   ``PublishGate.validate`` and ``RecommendationStore.load_batch`` on
   both surfaces): recommendations published, what the garbage collector
   cost over that stretch (``gc.callbacks``), and how many tracked
   objects per recommendation are still alive once both stores serve.
   A published table is arrays, so that is a handful of objects per
   *table*; as lists of ``ScoredItem`` it was 1.23 per recommendation,
   re-walked by every later full collection,
6. parity — batched results must equal the per-item reference
   item-for-item, and the two selections position-for-position, before
   any timing counts.

Results land in ``benchmarks/results/e22.txt`` and ``BENCH_inference.json``
(committed, so the perf trajectory has data points).  ``E22_FAST=1`` is
the CI smoke mode: a 250-item retailer on which batched must not be
slower, and a 2 000-item one that carries a real bar — at 250 items every
block's candidate union *is* the catalog, so that retailer alone cannot
tell a pairs-only kernel from one that scores the union.  At 2 000 items
block selection must also be ``FAST_SELECT_BAR`` times the one-row reads.  The smoke also
holds the publish section to zero live ``ScoredItem`` and
``PUBLISH_OBJECTS_PER_REC`` tracked objects per recommendation: tier-1
fleets are too small for collector time to show, so this is where CI
catches a table that went back to being objects.  It also counts calls
over a second inference run of that retailer, in both modes: no
``UserContext`` built, and per 128-item block two ``recommend_batch``
calls and two ``BPRModel.query_users`` user matrices (one per surface).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

import numpy as np

from benchmarks.bench_util import counting, emit, fmt_row, machine, machine_line
from repro import build_cluster
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.inference import DEFAULT_BLOCK_SIZE, InferencePipeline
from repro.core.registry import ModelRegistry, TrainedModel
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.evaluation.sampled import SampledRankEstimator
from repro.models.base import Recommender, ScoredItem, segmented_top_k, top_k_select
from repro.models.bpr import BPRHyperParams, BPRModel
from repro.models.trainer import BPRTrainer
from repro.serving.gate import PublishGate
from repro.serving.store import RecommendationStore

#: (n_items, n_users, n_events) per scale.  "medium" carries the
#: acceptance bar: the paper's mid-sized merchants have catalogs in the
#: thousands, which is where per-item Python overhead dominates.
SCALES = {
    "small": (1200, 400, 12_000),
    "medium": (5000, 1200, 50_000),
    "large": (8000, 1800, 80_000),
}
FAST_SCALES = {
    "fast": (250, 120, 3_000),
    "fast2k": (2000, 600, 20_000),
}
#: Smoke bars on ``inference_speedup``.  fast2k: measured 2.2-2.6x (median
#: 2.4x, twelve runs) on the 2-core reference VM, asserted with 2x headroom.
FAST_BARS = {"fast": 1.0, "fast2k": 1.2}
#: Smoke bar on ``select_speedup`` at fast2k: block selection against
#: one-row reads of the same pools (both surfaces per item).
FAST_SELECT_BAR = 3.0
#: The publish section's retailer, in the smoke and in the full run.
PUBLISH_SCALE = FAST_SCALES["fast2k"]
#: Smoke bar on tracked objects left alive per published recommendation.
#: Measured 0.0016 (56 objects: two tables, two stores, the gate); the
#: parent commit's tables of ``ScoredItem`` lists measured 1.23 with all
#: 34 688 ``ScoredItem`` alive, through this same function.
PUBLISH_OBJECTS_PER_REC = 0.05
#: Full-run bar on the medium retailer, between the two kernels as the
#: same box measures them: the pair kernel 3.8-4.3x (seven runs), the
#: union GEMM it replaced 3.0-3.5x (six runs, the same hour), so a revert
#: fails it.  The per-item path shares the faster top-k, so the ratio
#: understates the batched path's own gain (3.4-4.3k -> 4.3-5.8k items/s
#: in those runs).
MEDIUM_BAR = 3.6
BLOCK = 128
TOP_K = 10
#: Timed laps per path; the fastest counts (standard best-of-N to keep
#: scheduler noise out of the committed numbers).
LAPS = 3
#: ... and the laps go on until a comparison has run this long.  The first
#: burst of multi-threaded GEMMs in a process can find the BLAS worker
#: thread on the caller's CPU, where every call waits out a scheduler
#: slice (16 ms against 1.5 on the 2-vCPU reference VM) until the kernel
#: separates the two — 0.85-1.1 s in every case timed there.  A 10 ms
#: evaluator lap timed four times reports that transient, not the
#: evaluator, in about one process in ten.
MIN_SECONDS = 2.0


def _best_laps(*paths):
    """Fastest lap of each path.  The paths take turns, so a box whose
    speed drifts over seconds (the reference VM's does, by a quarter) shows
    every path the same stretches of time and their ratio keeps its meaning."""
    for path in paths:
        path()  # warm lap: selector memos, numpy buffers
    best = [float("inf")] * len(paths)
    begun = time.perf_counter()
    rounds = 0
    while rounds < LAPS or time.perf_counter() - begun < MIN_SECONDS:
        for index, path in enumerate(paths):
            start = time.perf_counter()
            path()
            best[index] = min(best[index], time.perf_counter() - start)
        rounds += 1
    return best


RESULTS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_inference.json"
#: What a reader comparing this file across commits must know.
NOTE = (
    "Re-measured when candidate selection became one block function: a "
    "block's pools are built as runs of the taxonomy index and handed to "
    "recommend_batch as flat arrays (ItemRows), and view_based / "
    "purchase_based are one-row reads of that block function.  So "
    "per_item_items_per_s, which reads its pools one row at a time, fell "
    "and inference_speedup rose against earlier commits for a reason "
    "outside ranking; the select_* columns isolate selection (one-row "
    "reads vs 128-item blocks, both surfaces per item).  recommend_batch "
    "returns the kernel's arrays (RankedRows) and builds no ScoredItem "
    "unless a row is indexed.  Compare ratios, not rates, across commits: "
    "the parent commit, same box, same hour, measured per_item_items_per_s "
    "5 200 / 2 973 / 2 060, batched_items_per_s 8 953 / 3 966 / 2 920 and "
    "inference_speedup 1.72 / 1.33 / 1.42 (small / medium / large; medium "
    "below MEDIUM_BAR on that box that hour).  'publish' is one 2 000-item "
    "retailer through InferencePipeline.run_cell -> PublishGate.validate -> "
    "RecommendationStore.load_batch on both surfaces; gc_s is gc.callbacks "
    "time over that stretch, tracked_objects_per_rec what gc.get_objects() "
    "grew by, per published recommendation, once both stores serve (the "
    "parent's dict-of-lists tables: 106 collections, 1.23 objects per rec, "
    "all 34 688 ScoredItem alive).  The whole-catalog section "
    "(catalog_* columns, recommend_batch with candidates=None) left with "
    "that path, and the one-row reads became one-row blocks: recommend_batch "
    "ranks item ids against their own pools only."
)


def _build(n_items, n_users, n_events):
    dataset = dataset_from_synthetic(
        generate_retailer(
            RetailerSpec(
                retailer_id=f"bench_e22_{n_items}",
                n_items=n_items,
                n_users=n_users,
                n_events=n_events,
                seed=13,
            )
        )
    )
    model = BPRModel(
        dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=16, seed=3)
    )
    BPRTrainer(model, dataset, max_epochs=2, batch_size=64, seed=7).train()
    model.effective_item_matrix()  # prime the gemm cache outside timing
    counts = CoOccurrenceCounts.from_interactions(dataset.n_items, dataset.train)
    selector = CandidateSelector(
        dataset.taxonomy,
        counts,
        repurchase=RepurchaseDetector(dataset.taxonomy, dataset.train),
    )
    return dataset, model, selector


def _check_parity(model, selector, contexts, items):
    """Batched output must equal the per-item reference before timing."""
    view_lists = selector.batch_view_based(items)
    batched = model.recommend_batch(items, view_lists, k=TOP_K)
    stride = max(1, len(items) // 50)
    for i in items[::stride]:
        reference = model.recommend(
            contexts[i], k=TOP_K, candidates=selector.batch_view_based([i])[0]
        )
        assert [s.item_index for s in batched[i]] == [
            s.item_index for s in reference
        ]
        assert np.allclose(
            [s.score for s in batched[i]], [s.score for s in reference]
        )


def _inference_rates(model, selector, n_items):
    items = list(range(n_items))
    contexts = [UserContext((i,), (EventType.VIEW,)) for i in items]
    _check_parity(model, selector, contexts, items)

    def per_item():
        for i in items:
            (view,) = selector.batch_view_based([i])
            model.recommend(contexts[i], k=TOP_K, candidates=view)
            (buy,) = selector.batch_purchase_based([i])
            model.recommend(contexts[i], k=TOP_K, candidates=buy)

    def batched():
        for start in range(0, n_items, BLOCK):
            block = items[start : start + BLOCK]
            model.recommend_batch(block, selector.batch_view_based(block), k=TOP_K)
            model.recommend_batch(block, selector.batch_purchase_based(block), k=TOP_K)

    item_s, batch_s = _best_laps(per_item, batched)
    return n_items / item_s, n_items / batch_s


def _select_rates(selector, n_items):
    """Candidate selection alone: one-row blocks vs 128-item blocks."""
    items = list(range(n_items))
    blocks = [items[start : start + BLOCK] for start in range(0, n_items, BLOCK)]
    for block in blocks:
        views, buys = selector.batch_view_based(block), selector.batch_purchase_based(block)
        for item, view, buy in zip(block, views, buys):
            (alone,) = selector.batch_view_based([item])
            assert np.array_equal(view, alone), "selection parity broke"
            (alone,) = selector.batch_purchase_based([item])
            assert np.array_equal(buy, alone), "selection parity broke"

    def one_row():
        for item in items:
            selector.batch_view_based([item])
            selector.batch_purchase_based([item])

    def in_blocks():
        for block in blocks:
            selector.batch_view_based(block)
            selector.batch_purchase_based(block)

    row_s, block_s = _best_laps(one_row, in_blocks)
    return n_items / row_s, n_items / block_s


def _top_k_rates(model, selector, n_items):
    """The selection stage alone, on blocks scored outside the timing."""
    blocks = []
    for start in range(0, n_items, BLOCK):
        block = list(range(start, min(start + BLOCK, n_items)))
        pools = selector.batch_view_based(block)
        items, sizes = pools.items, pools.sizes
        owners = np.repeat(np.arange(sizes.size), sizes)
        scores = model._score_queries(np.array(block), EventType.VIEW, items, owners, sizes)
        blocks.append((scores, items, owners, sizes))

    def per_row():
        tops = []
        for scores, items, _, sizes in blocks:
            rows, lo = [], 0
            for size in sizes.tolist():
                row = slice(lo, lo + size)
                rows.append(lo + top_k_select(scores[row], TOP_K, tiebreak=items[row]))
                lo += size
            tops.append(np.concatenate(rows))
        return tops

    def segmented():
        return [segmented_top_k(*block, TOP_K)[0] for block in blocks]

    for expected, got in zip(per_row(), segmented()):
        assert np.array_equal(expected, got), "segmented top-k parity broke"
    row_s, segmented_s = _best_laps(per_row, segmented)
    return n_items / row_s, n_items / segmented_s


def _publish_row():
    """One retailer through rank -> reduce -> gate -> load, collector timed."""
    dataset, model = _build(*PUBLISH_SCALE)[:2]
    rid = dataset.retailer_id
    registry = ModelRegistry()
    registry.publish(
        TrainedModel(
            model=model,
            output=OutputConfigRecord(
                config=ConfigRecord(rid, 0, model.params), metrics={"map@10": 0.5}
            ),
        )
    )
    collector = {"collections": 0, "seconds": 0.0, "began": 0.0}

    def on_collection(phase, info):
        if phase == "start":
            collector["began"] = time.perf_counter()
        else:
            collector["collections"] += 1
            collector["seconds"] += time.perf_counter() - collector["began"]

    gc.collect()
    tracked_before = len(gc.get_objects())
    pipeline = InferencePipeline(
        build_cluster(n_cells=1, machines_per_cell=4), registry, top_n=TOP_K
    )
    gate = PublishGate()
    stores = (
        RecommendationStore(name="substitutes"),
        RecommendationStore(name="accessories"),
    )
    gc.callbacks.append(on_collection)
    try:
        start = time.perf_counter()
        results, _, _, failed = pipeline.run_cell("cell", {rid: dataset}, 0)
        assert not failed, failed
        result = results[rid]
        tables = (result.view_recs, result.purchase_recs)
        for table, store, allow_empty in zip(tables, stores, (False, True)):
            decision = gate.validate(
                rid, table, 1, store, dataset.n_items, allow_empty=allow_empty
            )
            assert decision.accepted, decision.reason
        for table, store in zip(tables, stores):
            store.load_batch(rid, table, version=1)
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(on_collection)
    # What an inference run builds per block, counted over a second run
    # (the timed one above pays no wrappers): no per-item ``UserContext``,
    # one ranking call and one user matrix per surface.
    with counting(
        (UserContext, "__init__"),
        (BPRModel, "query_users"),
        (Recommender, "recommend_batch"),
    ) as calls:
        pipeline.run_cell("cell", {rid: dataset}, 1)
    # The pipeline (selector memos, cost ledger) is the day's, not the
    # publication's: what stays is the gate, the tables and the two stores.
    del pipeline, results, result, failed
    gc.collect()
    alive = gc.get_objects()
    n_recs = sum(len(recs) for table in tables for recs in table.values())
    assert stores[0].items_covered(rid) == dataset.n_items
    return {
        "n_items": dataset.n_items,
        "recs_published": n_recs,
        "wall_s": round(wall, 3),
        "gc_collections": collector["collections"],
        "gc_s": round(collector["seconds"], 4),
        "tracked_objects_per_rec": round((len(alive) - tracked_before) / n_recs, 4),
        "live_scored_items": sum(type(obj) is ScoredItem for obj in alive),
        "blocks": -(-dataset.n_items // DEFAULT_BLOCK_SIZE),
        "recommend_batch_calls": calls["recommend_batch"],
        "user_matrices": calls["query_users"],
        "contexts_built": calls["__init__"],
    }


def _loop_ranks(evaluator, model, sampled):
    """The per-example baseline: one public single-example call per holdout row."""
    holdout = evaluator.dataset.holdout
    if not sampled:
        return [
            float(model.rank_of(example.context, example.held_out_item))
            for example in holdout
        ]
    estimator = SampledRankEstimator(
        evaluator.dataset.n_items,
        sample_fraction=evaluator.sample_fraction,
        seed=evaluator.seed,
    )
    sample = estimator.draw_sample()
    return [
        estimator.estimate_rank(
            model, example.context, example.held_out_item, sample=sample
        )
        for example in holdout
    ]


def _evaluation_rates(dataset, model):
    evaluator = HoldoutEvaluator(dataset)
    result = evaluator.evaluate(model)
    assert result.ranks == _loop_ranks(evaluator, model, result.sampled), (
        "evaluator parity broke"
    )
    examples = len(result.ranks)
    loop_s, batch_s = _best_laps(
        lambda: _loop_ranks(evaluator, model, result.sampled),
        lambda: evaluator.evaluate(model),
    )
    return (
        examples / loop_s,
        examples / batch_s,
        "sampled" if result.sampled else "exact",
    )


def _measure(name, spec):
    n_items, n_users, n_events = spec
    dataset, model, selector = _build(n_items, n_users, n_events)
    item_rate, batch_rate = _inference_rates(model, selector, n_items)
    eval_loop, eval_batch, eval_mode = _evaluation_rates(dataset, model)
    top_k_row_rate, top_k_segmented_rate = _top_k_rates(model, selector, n_items)
    select_row_rate, select_block_rate = _select_rates(selector, n_items)
    return {
        "scale": name,
        "n_items": n_items,
        "per_item_items_per_s": round(item_rate, 1),
        "batched_items_per_s": round(batch_rate, 1),
        "inference_speedup": round(batch_rate / item_rate, 2),
        "eval_mode": eval_mode,
        "loop_examples_per_s": round(eval_loop, 1),
        "batched_examples_per_s": round(eval_batch, 1),
        "eval_speedup": round(eval_batch / eval_loop, 2),
        "top_k_per_row_rows_per_s": round(top_k_row_rate, 1),
        "top_k_segmented_rows_per_s": round(top_k_segmented_rate, 1),
        "top_k_speedup": round(top_k_segmented_rate / top_k_row_rate, 2),
        "select_one_row_items_per_s": round(select_row_rate, 1),
        "select_items_per_s": round(select_block_rate, 1),
        "select_speedup": round(select_block_rate / select_row_rate, 2),
    }


def test_inference_throughput(capsys):
    fast = bool(os.environ.get("E22_FAST"))
    scales = FAST_SCALES if fast else SCALES
    # First, on a heap that holds nothing else: a full collection walks
    # every tracked object alive, whoever made it.
    publish = _publish_row()
    rows = [_measure(name, spec) for name, spec in scales.items()]

    widths = [8, 7, 11, 11, 9, 8, 10, 10, 9]
    lines = [
        machine_line(),
        "items/s: two surfaces (view + purchase) per item, k=10",
        "",
        fmt_row(
            "scale", "items", "item/s", "batch/s", "speedup",
            "eval", "loop ex/s", "batch ex/s", "speedup",
            widths=widths,
        ),
    ]
    for row in rows:
        lines.append(
            fmt_row(
                row["scale"],
                row["n_items"],
                f"{row['per_item_items_per_s']:,.0f}",
                f"{row['batched_items_per_s']:,.0f}",
                f"{row['inference_speedup']:.2f}x",
                row["eval_mode"],
                f"{row['loop_examples_per_s']:,.0f}",
                f"{row['batched_examples_per_s']:,.0f}",
                f"{row['eval_speedup']:.2f}x",
                widths=widths,
            )
        )
    lines += [
        "",
        f"top-k stage alone: view-surface blocks of {BLOCK} scored beforehand, k=10",
        "",
        fmt_row("scale", "items", "per-row/s", "segment/s", "speedup", widths=widths),
    ]
    for row in rows:
        lines.append(
            fmt_row(
                row["scale"],
                row["n_items"],
                f"{row['top_k_per_row_rows_per_s']:,.0f}",
                f"{row['top_k_segmented_rows_per_s']:,.0f}",
                f"{row['top_k_speedup']:.2f}x",
                widths=widths,
            )
        )
    lines += [
        "",
        f"selection alone: both surfaces per item, one-row blocks vs blocks of {BLOCK}",
        "",
        fmt_row("scale", "items", "one-row/s", "block/s", "speedup", widths=widths),
    ]
    for row in rows:
        lines.append(
            fmt_row(
                row["scale"],
                row["n_items"],
                f"{row['select_one_row_items_per_s']:,.0f}",
                f"{row['select_items_per_s']:,.0f}",
                f"{row['select_speedup']:.2f}x",
                widths=widths,
            )
        )
    publish_widths = [7, 9, 8, 12, 8, 12, 11]
    lines += [
        "",
        "publish: both surfaces through rank -> reduce -> gate -> load, k=10",
        "",
        fmt_row(
            "items", "recs", "wall s", "collections", "gc s",
            "tracked/rec", "ScoredItem",
            widths=publish_widths,
        ),
        fmt_row(
            publish["n_items"],
            f"{publish['recs_published']:,}",
            f"{publish['wall_s']:.3f}",
            publish["gc_collections"],
            f"{publish['gc_s']:.4f}",
            f"{publish['tracked_objects_per_rec']:.4f}",
            publish["live_scored_items"],
            widths=publish_widths,
        ),
    ]
    lines.append(
        f"inference run: {publish['blocks']} blocks, {publish['recommend_batch_calls']} "
        f"recommend_batch calls, {publish['user_matrices']} user matrices, "
        f"{publish['contexts_built']} UserContext built"
    )
    emit("E22", "batched inference & evaluation throughput", lines, capsys)

    # A published table is arrays: nothing it holds is a tracked object.
    assert publish["live_scored_items"] == 0, publish
    assert publish["tracked_objects_per_rec"] < PUBLISH_OBJECTS_PER_REC, publish
    # A block ranks its item ids: no context object per item, and one
    # ranking call and one user matrix per surface.
    assert publish["contexts_built"] == 0, publish
    assert publish["recommend_batch_calls"] == 2 * publish["blocks"], publish
    assert publish["user_matrices"] == 2 * publish["blocks"], publish

    if fast:
        # CI smoke: batched must never be slower than per-item, even on a
        # retailer small enough that there is little to amortize.
        for row in rows:
            assert row["inference_speedup"] >= FAST_BARS[row["scale"]], row
            assert row["eval_speedup"] >= 1.0, row
        fast2k = next(row for row in rows if row["scale"] == "fast2k")
        assert fast2k["select_speedup"] >= FAST_SELECT_BAR, fast2k
        return

    by_scale = {row["scale"]: row for row in rows}
    assert by_scale["medium"]["inference_speedup"] >= MEDIUM_BAR, by_scale["medium"]
    for row in rows:
        assert row["eval_speedup"] >= 1.0, row

    RESULTS_JSON.write_text(
        json.dumps(
            {
                "experiment": "E22",
                "source": "benchmarks/bench_inference_throughput.py",
                "machine": machine(),
                "block_size": BLOCK,
                "k": TOP_K,
                "note": NOTE,
                "scales": rows,
                "publish": publish,
            },
            indent=2,
        )
        + "\n"
    )
