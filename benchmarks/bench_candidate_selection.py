"""E9 — candidate selection: the LCA-k trade-off (paper section III-D1).

"Using a small value of k keeps the recommendations precise, but will
decrease coverage for tail items.  On the other hand, using a large value
of k provides a larger coverage at the risk of quality.  Empirically we
found that setting k = 2 provides a good trade-off" (view-based), and
"expanding with lca1 provides the best recommendations" (purchase-based,
after removing substitutes).

Measured: for each holdout example we treat the context's most recent
item as the query, and check (a) whether the actually-next item is inside
the candidate set (candidate recall), (b) the candidate set size (cost),
and (c) recall per thousand candidates (precision-of-effort) across k.
"""

from __future__ import annotations

import numpy as np

from benchmarks.bench_util import emit, fmt_row
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector, RepurchaseDetector


def build_selector(dataset, view_lca_k=2, max_candidates=1000):
    counts = CoOccurrenceCounts.from_interactions(dataset.n_items, dataset.train)
    return CandidateSelector(
        taxonomy=dataset.taxonomy,
        counts=counts,
        catalog=dataset.catalog,
        repurchase=RepurchaseDetector(dataset.taxonomy, dataset.train),
        view_lca_k=view_lca_k,
        max_candidates=max_candidates,
    )


def recall_and_size(dataset, selector):
    """One block of every holdout example's query item, read at the
    selector's ``view_lca_k``."""
    examples = [example for example in dataset.holdout if len(example.context)]
    pools = selector.batch_view_based(
        [example.context.most_recent_item for example in examples]
    )
    hits = sum(
        bool((pool == example.held_out_item).any())
        for example, pool in zip(examples, pools)
    )
    total = len(dataset.holdout)
    return hits / total, float(np.mean(pools.sizes))


def test_lca_k_tradeoff(fleet, benchmark, capsys):
    lines = [
        "view-based candidates: recall of the actually-next item vs pool",
        "size, fleet-averaged per expansion depth k:",
        fmt_row("k", "recall", "mean pool", "recall/1k cands",
                widths=[4, 8, 10, 16]),
    ]
    by_k = {}
    for k in (1, 2, 3):
        recalls, sizes = [], []
        for dataset in fleet:
            selector = build_selector(dataset, view_lca_k=k)
            recall, size = recall_and_size(dataset, selector)
            recalls.append(recall)
            sizes.append(size)
        mean_recall = float(np.mean(recalls))
        mean_size = float(np.mean(sizes))
        by_k[k] = (mean_recall, mean_size)
        lines.append(
            fmt_row(k, mean_recall, f"{mean_size:.0f}",
                    mean_recall / max(mean_size, 1) * 1000,
                    widths=[4, 8, 10, 16])
        )

    lines.append("")
    lines.append(
        "k=1 is precise but misses next items; k=3 scores nearly the whole"
    )
    lines.append(
        "catalog; k=2 keeps most of k=3's recall at a fraction of the pool"
    )

    # Shape assertions: recall grows with k; pool size grows with k;
    # k=2 retains most of k=3's recall with a meaningfully smaller pool.
    assert by_k[1][0] <= by_k[2][0] <= by_k[3][0]
    assert by_k[1][1] <= by_k[2][1] <= by_k[3][1]
    assert by_k[2][0] >= 0.8 * by_k[3][0]
    assert by_k[2][1] <= 0.9 * by_k[3][1]
    emit("E9", "LCA-k candidate selection trade-off (k=2 sweet spot)",
         lines, capsys)

    dataset = fleet[0]
    selector = build_selector(dataset)
    benchmark(lambda: selector.batch_view_based([0]))
