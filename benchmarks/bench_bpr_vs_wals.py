"""E19 (extension) — BPR vs the least-squares substitute (paper §VI).

"Although we chose BPR for its simplicity and extensibility with feature
engineering, we can easily substitute it with the least-squares
approach."

We sweep a mixed grid (both model kinds, same factor counts) through the
real training pipeline on several retailers (one run per retailer, as the
daily service trains them) and report per-kind quality
and simulated cost — demonstrating the substitution is a config change,
not an engineering project.
"""

from __future__ import annotations

import numpy as np

from benchmarks.bench_util import emit, fmt_row
from repro import build_cluster
from repro.core.grid import GridSpec
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import TrainerSettings, TrainingPipeline

SETTINGS = TrainerSettings(
    max_epochs_full=6, max_epochs_incremental=3,
    convergence_tol=0.0, sampler="uniform",
)

MIXED_GRID = GridSpec(
    n_factors=(8, 16),
    learning_rates=(0.08,),
    reg_items=(0.01, 0.1),
    reg_contexts=(0.01,),
    use_taxonomy=(True,),
    use_brand=(True,),
    use_price=(True,),
    model_kinds=("bpr", "wals"),
    max_configs=16,
)


def test_bpr_vs_wals_substitution(fleet, benchmark, capsys):
    datasets = {d.retailer_id: d for d in fleet[:3]}
    cluster = build_cluster(n_cells=1, machines_per_cell=8)
    registry = ModelRegistry()
    pipeline = TrainingPipeline(cluster, registry, settings=SETTINGS, seed=5)
    plan = SweepPlanner(MIXED_GRID).full_sweep(list(datasets.values()))
    outputs = []
    for rid in sorted(datasets):
        own = [config for config in plan.configs if config.retailer_id == rid]
        outputs.extend(pipeline.run(datasets[rid], own)[0])

    by_kind = {"bpr": [], "wals": []}
    seconds = {"bpr": [], "wals": []}
    for output in outputs:
        by_kind[output.config.model_kind].append(output.map_at_10)
        seconds[output.config.model_kind].append(output.train_seconds)

    winners = {"bpr": 0, "wals": 0}
    for rid in datasets:
        best = registry.best(rid)
        winners[best.output.config.model_kind] += 1

    lines = [
        f"mixed grid over {len(datasets)} retailers "
        f"({len(outputs)} models trained through one pipeline):",
        fmt_row("kind", "best map", "mean map", "mean train(s)",
                widths=[6, 9, 9, 14]),
    ]
    for kind in ("bpr", "wals"):
        lines.append(
            fmt_row(kind, max(by_kind[kind]), float(np.mean(by_kind[kind])),
                    float(np.mean(seconds[kind])), widths=[6, 9, 9, 14])
        )
    lines.append("")
    lines.append(
        f"per-retailer grid winners: bpr {winners['bpr']}, "
        f"wals {winners['wals']}"
    )
    lines.append(
        "both kinds flow through the same sweep/registry/inference path —"
    )
    lines.append("the substitution is one field on the config record")

    assert by_kind["bpr"] and by_kind["wals"], "both kinds must train"
    # Substitutability claim: the alternative is competitive, not broken.
    assert max(by_kind["wals"]) >= 0.5 * max(by_kind["bpr"])
    assert sum(winners.values()) == len(datasets)
    emit("E19", "BPR vs WALS through one pipeline (extension)", lines, capsys)

    one = next(iter(datasets.values()))
    from repro.core.config import ConfigRecord
    from repro.core.training import train_config
    from repro.models.bpr import BPRHyperParams

    config = ConfigRecord(
        one.retailer_id, 99, BPRHyperParams(n_factors=8, seed=0),
        model_kind="wals",
    )
    fast = TrainerSettings(max_epochs_full=2, sampler="uniform")
    benchmark(lambda: train_config(config, one, fast))
