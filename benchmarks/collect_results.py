#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the recorded benchmark results.

Each benchmark writes its measured rows to ``benchmarks/results/eN.txt``
(via :func:`benchmarks.bench_util.emit`).  This script stitches those
snapshots together with the paper-side claims into the repository's
EXPERIMENTS.md, so the document always quotes real measured numbers.

Run after a full benchmark pass:

    pytest benchmarks/ --benchmark-only
    python benchmarks/collect_results.py
"""

from __future__ import annotations

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

#: Experiment id -> (paper reference, the paper's claim in one breath).
PAPER_CLAIMS = {
    "E1": ("Fig. 6", "Sigmund's recommendations see significantly higher "
           "engagement (CTR) for less popular items while having virtually "
           "no effect on highly popular items, vs a co-occurrence baseline."),
    "E2": ("§III-C", "A model with randomly chosen hyper-parameters can be "
           "a hundred times worse on hold-out metrics than the best model."),
    "E3": ("§III-C3", "Incremental (warm-started) runs require much fewer "
           "iterations to converge; only the top-3 configs are retrained "
           "daily instead of the ~100-config grid."),
    "E4": ("§III-C2", "Estimating MAP on a 10% item sample does not hurt "
           "the model selection criterion."),
    "E5": ("§II-B", "Pre-emptible VMs cost nearly 70% less than regular "
           "VMs, provided fault-tolerance keeps restart overhead small."),
    "E6": ("§IV-B3", "Checkpointing on a fixed time interval (not per "
           "iteration) bounds the work lost to a pre-emption regardless of "
           "retailer size."),
    "E7": ("§IV-B1", "Randomly permuting config records before splitting "
           "balances training work across MapReduce workers."),
    "E8": ("§IV-C1", "Greedy first-fit bin packing (weight = inventory "
           "size) minimizes inference makespan; candidate capping keeps "
           "inference cost linear, not quadratic, in items."),
    "E9": ("§III-D1", "LCA expansion k=2 is the right precision/coverage "
           "trade-off for view-based candidates (lca1 for purchase-based)."),
    "E10": ("§III-E, §VII", "Co-occurrence works well where data is "
            "plentiful and is rarely outperformed there; factorization's "
            "value concentrates in the long tail; the hybrid covers far "
            "more of the inventory."),
    "E11": ("§III-C2", "AUC differences between good and mediocre models "
            "land in the fourth or fifth significant digit on large "
            "catalogs; MAP@10 separates them clearly."),
    "E12": ("§III-C1", "Adagrad converges faster and is more reliable than "
            "basic SGD, even for non-convex problems."),
    "E13": ("§IV-B2", "Training one retailer per machine with Hogwild "
            "threads uses the allocated memory efficiently and avoids the "
            "memory blow-ups of packing multiple models per machine "
            "(the threads are a cost model, thread_speedup(), not run)."),
    "E14": ("§III-B4, §III-C", "Side features combat sparsity and cold "
            "start; a brand feature below ~10% coverage is detrimental, so "
            "feature selection is per retailer."),
    "E15": ("§IV-A", "Full sweeps train every combination for every "
            "retailer; daily incremental sweeps cost a small fraction of "
            "that; periodic full restarts keep models on recent history."),
    "E16": ("§III-C1 (extension)", "Vizier-style adaptive search (random / "
            "successive halving) can beat grid search at a matched budget."),
    "E17": ("§V (extension)", "Online A/B experiments with significance "
            "testing drive ship decisions — offline metrics alone do not."),
    "E18": ("§I, §III-C3 (extension)", "Without daily refresh, model "
            "quality decays as the catalog churns; warm-started daily "
            "retraining tracks it."),
    "E19": ("§VI (extension)", "BPR 'can easily be substituted with the "
            "least-squares approach' — WALS runs through the same sweep/"
            "registry/inference pipeline as a config-record field."),
}

HEADER = """\
# EXPERIMENTS — paper vs measured

Every experiment from DESIGN.md's index, with the paper's claim and the
rows measured by this repository's benchmark suite.  Regenerate with:

```bash
pytest benchmarks/ --benchmark-only     # runs all experiments
python benchmarks/collect_results.py    # rebuilds this file
```

Absolute numbers are not expected to match the paper (our substrate is a
simulator and the data synthetic); the *shape* of each result — who
wins, by roughly what factor, where the crossovers fall — is the
reproduction target, and each benchmark asserts that shape so the suite
fails if a change breaks it.

A note on scale: the paper operates on tens of thousands of retailers
with catalogs up to tens of millions of items.  The benchmarks run the
same code paths on fleets of ~6 retailers with 10²-10³-item catalogs so
the whole suite reproduces in minutes on one machine.
"""


def main() -> int:
    if not RESULTS_DIR.exists():
        print("no results directory; run the benchmarks first",
              file=sys.stderr)
        return 1
    sections = [HEADER]
    for experiment_id, (ref, claim) in PAPER_CLAIMS.items():
        result_file = RESULTS_DIR / f"{experiment_id.lower()}.txt"
        sections.append(f"\n## {experiment_id} — paper {ref}\n")
        sections.append(f"**Paper claim.** {claim}\n")
        if result_file.exists():
            body = result_file.read_text().strip()
            sections.append("**Measured.**\n")
            sections.append("```text")
            sections.append(body)
            sections.append("```")
        else:
            sections.append(
                "_No recorded result — run `pytest benchmarks/ "
                "--benchmark-only` first._"
            )
    OUTPUT.write_text("\n".join(sections) + "\n")
    recorded = sum(
        1 for experiment_id in PAPER_CLAIMS
        if (RESULTS_DIR / f"{experiment_id.lower()}.txt").exists()
    )
    print(f"wrote {OUTPUT} ({recorded}/{len(PAPER_CLAIMS)} experiments recorded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
