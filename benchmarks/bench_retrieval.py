"""E26: ANN retrieval — recall vs nprobe, and the exact-GEMM crossover.

Sweeps catalog size and measures, per ``nprobe``:

* recall@10 and recall@100 of the IVF index against the exact baseline,
* per-query latency for ANN vs the exact chunked GEMM,
* index build cost.

Full mode writes ``BENCH_retrieval.json`` at the repo root with the
measured crossover (``crossover_items``: the smallest catalog where ANN
at the chosen default ``nprobe`` beats exact search).  That file is the
evidence for the service's exact-vs-ANN switch, the constant
:data:`repro.retrieval.harness.DEFAULT_ANN_THRESHOLD`; nothing reads it
at run time.  ``E26_FAST=1`` runs one small catalog as a CI smoke:
asserts recall@10 >= 0.9 and an ANN speedup, writes nothing.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.bench_util import emit, fmt_row, machine
from repro.retrieval import (
    ExactRetrieval,
    IVFConfig,
    IVFIndex,
    recall_at_k,
    synthetic_embeddings,
    synthetic_queries,
)

RESULTS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_retrieval.json"

SIZES_FULL = [10_000, 50_000, 200_000, 1_000_000]
SIZES_FAST = [20_000]
NPROBES = [1, 2, 4, 8, 16, 32, 64]
N_FACTORS = 16
N_QUERIES = 256
#: The publish gate's bar: the chosen default nprobe must clear it.
RECALL_TARGET = 0.95


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_size(n_items: int, seed: int) -> dict:
    """One catalog size: build, time exact vs ANN, sweep nprobe recall."""
    vectors, bias = synthetic_embeddings(n_items, N_FACTORS, seed=seed)
    queries = synthetic_queries(vectors, N_QUERIES, seed=seed + 1)
    exact = ExactRetrieval(vectors, bias)
    build_start = time.perf_counter()
    index = IVFIndex.build(vectors, bias, IVFConfig(seed=seed))
    build_seconds = time.perf_counter() - build_start
    exact_ms = (
        _best_of(lambda: exact.search(queries, 100)) * 1000.0 / N_QUERIES
    )
    rows = []
    for nprobe in NPROBES:
        if nprobe > index.n_clusters:
            continue
        ann_ms = (
            _best_of(lambda: index.search(queries, 100, nprobe=nprobe))
            * 1000.0
            / N_QUERIES
        )
        rows.append(
            {
                "nprobe": nprobe,
                "recall_at_10": recall_at_k(index, exact, queries, 10, nprobe),
                "recall_at_100": recall_at_k(index, exact, queries, 100, nprobe),
                "ann_ms_per_query": ann_ms,
                "speedup": exact_ms / max(ann_ms, 1e-9),
            }
        )
    return {
        "n_items": n_items,
        "n_clusters": index.n_clusters,
        "build_seconds": build_seconds,
        "exact_ms_per_query": exact_ms,
        "nprobe_rows": rows,
    }


def _default_nprobe(per_size: list) -> int:
    """Smallest nprobe whose recall@100 clears the target at every size."""
    for nprobe in NPROBES:
        ok = True
        for size in per_size:
            row = next(
                (r for r in size["nprobe_rows"] if r["nprobe"] == nprobe),
                None,
            )
            # A size whose index has fewer clusters than nprobe probes
            # everything — full recall — so a missing row passes.
            if row is not None and row["recall_at_100"] < RECALL_TARGET:
                ok = False
                break
        if ok:
            return nprobe
    return NPROBES[-1]


def test_retrieval_crossover(capsys):
    fast = bool(os.environ.get("E26_FAST"))
    sizes = SIZES_FAST if fast else SIZES_FULL
    per_size = [_measure_size(n, seed=17) for n in sizes]
    default_nprobe = _default_nprobe(per_size)

    lines = [
        fmt_row("items", "clusters", "build_s", "exact_ms",
                widths=[10, 9, 8, 9]),
    ]
    for size in per_size:
        lines.append(
            fmt_row(
                f"{size['n_items']:,}",
                size["n_clusters"],
                f"{size['build_seconds']:.2f}",
                f"{size['exact_ms_per_query']:.3f}",
                widths=[10, 9, 8, 9],
            )
        )
    lines.append("")
    lines.append(
        fmt_row("items", "nprobe", "recall@10", "recall@100", "ann_ms",
                "speedup", widths=[10, 7, 10, 11, 8, 8])
    )
    for size in per_size:
        for row in size["nprobe_rows"]:
            lines.append(
                fmt_row(
                    f"{size['n_items']:,}",
                    row["nprobe"],
                    f"{row['recall_at_10']:.4f}",
                    f"{row['recall_at_100']:.4f}",
                    f"{row['ann_ms_per_query']:.3f}",
                    f"{row['speedup']:.1f}x",
                    widths=[10, 7, 10, 11, 8, 8],
                )
            )

    # Crossover: the smallest catalog where ANN at the default nprobe is
    # faster than the exact GEMM.
    crossover = None
    for size in per_size:
        row = next(
            (r for r in size["nprobe_rows"] if r["nprobe"] == default_nprobe),
            None,
        )
        if row is not None and row["speedup"] > 1.0:
            crossover = size["n_items"]
            break
    lines.append("")
    lines.append(f"default nprobe (recall@100 >= {RECALL_TARGET}): "
                 f"{default_nprobe}")
    lines.append(f"ANN-vs-exact crossover: "
                 f"{crossover:,} items" if crossover else
                 "ANN-vs-exact crossover: not reached")
    emit("E26", "ANN retrieval: recall vs nprobe and the GEMM crossover",
         lines, capsys)

    # Invariants that hold in fast and full mode alike.
    for size in per_size:
        recalls = [r["recall_at_100"] for r in size["nprobe_rows"]]
        assert all(
            later >= earlier - 1e-9
            for earlier, later in zip(recalls, recalls[1:])
        ), f"recall not monotone in nprobe at {size['n_items']} items"

    if fast:
        smoke = per_size[-1]
        default_row = next(
            r for r in smoke["nprobe_rows"] if r["nprobe"] == default_nprobe
        )
        assert default_row["recall_at_10"] >= 0.9
        assert default_row["speedup"] > 1.0, (
            "ANN slower than exact at the smoke size"
        )
        return

    assert crossover is not None and crossover <= 1_000_000
    largest_row = next(
        r for r in per_size[-1]["nprobe_rows"] if r["nprobe"] == default_nprobe
    )
    assert largest_row["recall_at_100"] >= RECALL_TARGET
    RESULTS_JSON.write_text(
        json.dumps(
            {
                "experiment": "E26",
                "machine": machine(),
                "default_nprobe": default_nprobe,
                "recall_target": RECALL_TARGET,
                "crossover_items": crossover,
                "sizes": per_size,
            },
            indent=2,
        )
        + "\n"
    )
