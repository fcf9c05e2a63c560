"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    — one-retailer train/evaluate/recommend walk-through.
* ``train``   — train a model on CSV data (catalog + events files) and
  print holdout metrics.
* ``inspect`` — summarize a CSV dataset (sizes, coverage, event mix).
* ``metrics`` — run a synthetic fleet with observability enabled and
  print the fleet snapshot as JSON.
* ``chaos`` — run a scripted chaos drill (flash sale, bot flood, cell
  outage, ...) against the overload-protected serving stack and print
  the machine-checkable verdict.
* ``run-day`` — run the daily loop under the declarative DAG
  orchestrator (or ``--serial`` for the serial walk over the same blocks),
  optionally rerunning only ``--blocks`` of the last day's graph, and
  print per-block schedules and the sealed day record.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from itertools import product
from typing import Callable, Iterator, List, Optional

from repro import (
    BPRHyperParams,
    BPRModel,
    BPRTrainer,
    GridSpec,
    HoldoutEvaluator,
    MarketplaceSpec,
    RetailerSpec,
    SigmundService,
    TrainerSettings,
    build_cluster,
    dataset_from_synthetic,
    generate_marketplace,
    generate_retailer,
)
from repro.data.loaders import dataset_from_files
from repro.models.popularity import PopularityModel


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sigmund reproduction: recommendations as a service",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="single-retailer walk-through")
    demo.add_argument("--items", type=int, default=300)
    demo.add_argument("--users", type=int, default=250)
    demo.add_argument("--events", type=int, default=4000)
    demo.add_argument("--factors", type=int, default=16)
    demo.add_argument("--epochs", type=int, default=8)
    demo.add_argument("--seed", type=int, default=7)

    train = commands.add_parser("train", help="train on CSV data")
    train.add_argument("catalog", help="catalog CSV path")
    train.add_argument("events", help="interactions CSV path")
    train.add_argument("--retailer-id", default="csv_retailer")
    train.add_argument("--factors", type=int, default=16)
    train.add_argument("--epochs", type=int, default=8)

    inspect = commands.add_parser("inspect", help="summarize CSV data")
    inspect.add_argument("catalog", help="catalog CSV path")
    inspect.add_argument("events", help="interactions CSV path")
    inspect.add_argument("--retailer-id", default="csv_retailer")

    metrics = commands.add_parser(
        "metrics", help="run a synthetic fleet and print the fleet snapshot"
    )
    metrics.add_argument("--retailers", type=int, default=3)
    metrics.add_argument("--days", type=int, default=1)
    metrics.add_argument("--median-items", type=int, default=80)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--indent", type=int, default=2)

    chaos = commands.add_parser(
        "chaos",
        help="run a scripted chaos drill and print the sealed verdict",
    )
    chaos.add_argument(
        "--scenario", required=True,
        help="drill name (see --scenario list), or 'list' to enumerate",
    )
    chaos.add_argument(
        "--unprotected", action="store_true",
        help="disable admission control, breakers, and deadline budgets "
             "(demonstrates why they exist)",
    )
    chaos.add_argument(
        "--out", default=None,
        help="also write the canonical verdict JSON to this path",
    )

    run_day = commands.add_parser(
        "run-day",
        help="daily loop under the declarative DAG orchestrator",
    )
    run_day.add_argument("--retailers", type=int, default=3)
    run_day.add_argument("--days", type=int, default=2)
    run_day.add_argument("--median-items", type=int, default=80)
    run_day.add_argument("--seed", type=int, default=0)
    run_day.add_argument(
        "--serial", action="store_true",
        help="walk the day's blocks one after another instead of "
             "scheduling them with the DAG runner (outputs are identical "
             "either way)",
    )
    run_day.add_argument(
        "--max-parallelism", type=int, default=1,
        help="DAG scheduler lanes; independent retailers' blocks "
             "overlap on the simulated clock when > 1",
    )
    run_day.add_argument(
        "--blocks", default=None,
        help="comma-separated block names or families (e.g. "
             "'train/r0,retrieval/r0' or 'train') — the LAST day runs "
             "only the closure of this selection, then recovery "
             "completes and commits it; requires the DAG path",
    )
    run_day.add_argument(
        "--schedule", action="store_true",
        help="print each day's per-block (start, finish, lane) schedule",
    )
    run_day.add_argument(
        "--seal-out", default=None,
        help="write the final day's sealed metrics record to this path "
             "as canonical sorted-keys JSON",
    )
    return parser


def cmd_demo(args: argparse.Namespace) -> int:
    retailer = generate_retailer(
        RetailerSpec(
            retailer_id="demo",
            n_items=args.items,
            n_users=args.users,
            n_events=args.events,
            seed=args.seed,
        )
    )
    dataset = dataset_from_synthetic(retailer)
    print(f"retailer: {dataset.n_items} items, "
          f"{dataset.n_train_interactions} interactions")
    model = BPRModel(
        dataset.catalog, dataset.taxonomy,
        BPRHyperParams(n_factors=args.factors, learning_rate=0.08,
                       seed=args.seed),
    )
    report = BPRTrainer(model, dataset, max_epochs=args.epochs).train()
    print(f"trained {report.epochs_run} epochs; "
          f"loss {report.epoch_losses[0]:.3f} -> {report.final_loss:.3f}")
    evaluator = HoldoutEvaluator(dataset)
    bpr_map = evaluator.evaluate(model).map_at_10
    pop_map = evaluator.evaluate(
        PopularityModel(dataset.n_items, dataset.train)
    ).map_at_10
    print(f"MAP@10: bpr={bpr_map:.4f} popularity={pop_map:.4f}")
    example = dataset.holdout[0]
    print("top-5 for one holdout context:")
    for rec in model.recommend(example.context, k=5):
        print(f"  {dataset.catalog[rec.item_index].item_id}  "
              f"score={rec.score:.3f}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = dataset_from_files(args.catalog, args.events, args.retailer_id)
    print(f"loaded: {dataset.n_items} items, "
          f"{dataset.n_train_interactions} interactions, "
          f"{len(dataset.holdout)} holdout examples")
    model = BPRModel(
        dataset.catalog, dataset.taxonomy,
        BPRHyperParams(n_factors=args.factors, learning_rate=0.08),
    )
    report = BPRTrainer(model, dataset, max_epochs=args.epochs).train()
    result = HoldoutEvaluator(dataset).evaluate(model)
    print(f"epochs={report.epochs_run} map@10={result.map_at_10:.4f} "
          f"mean_rank={result.metric('mean_rank'):.1f}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    dataset = dataset_from_files(args.catalog, args.events, args.retailer_id)
    for key, value in dataset.describe().items():
        print(f"{key}: {value}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, fleet_snapshot_json

    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=6),
        grid=GridSpec.small(),
        settings=TrainerSettings(
            max_epochs_full=3, max_epochs_incremental=2, sampler="uniform"
        ),
        seed=args.seed,
        metrics=MetricsRegistry(),
    )
    fleet = generate_marketplace(
        MarketplaceSpec(
            n_retailers=args.retailers,
            median_items=args.median_items,
            seed=args.seed,
        )
    )
    for retailer in fleet:
        service.onboard(dataset_from_synthetic(retailer))
    for _ in range(args.days):
        service.run_day()
    print(fleet_snapshot_json(service, indent=args.indent))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.scenarios import get_scenario, run_scenario, scenario_names

    if args.scenario == "list":
        for name in scenario_names():
            print(f"{name:>16}: {get_scenario(name).description}")
        return 0
    scenario = get_scenario(args.scenario)
    protected = not args.unprotected
    mode = "protected" if protected else "UNPROTECTED"
    print(f"scenario {scenario.name} ({mode}): {scenario.description}")
    result = run_scenario(scenario, protected=protected)
    for stats in result.day_stats:
        degraded = {
            k: v for k, v in stats.buckets.items()
            if k in ("stale", "fallback", "shed", "empty") and v
        }
        print(
            f"day {stats.day}: p50={stats.p50_ms:.2f}ms "
            f"p99={stats.p99_ms:.2f}ms "
            f"availability={stats.availability:.4f}"
            + (f" degraded={degraded}" if degraded else "")
        )
    verdict = result.verdict()
    for check in verdict["checks"]:
        flag = "PASS" if check["passed"] else "FAIL"
        print(f"  [{flag}] {check['name']}: {check['detail']}")
    print("verdict:", "PASS" if verdict["passed"] else "FAIL")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.verdict_json())
        print(f"wrote {args.out}")
    return 0 if verdict["passed"] else 1


def cmd_run_day(args: argparse.Namespace) -> int:
    import json

    from repro.obs import MetricsRegistry

    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=6),
        grid=GridSpec.small(),
        settings=TrainerSettings(
            max_epochs_full=3, max_epochs_incremental=2, sampler="uniform"
        ),
        seed=args.seed,
        metrics=MetricsRegistry(),
        orchestration="serial" if args.serial else "dag",
        max_parallelism=args.max_parallelism,
    )
    fleet = generate_marketplace(
        MarketplaceSpec(
            n_retailers=args.retailers,
            median_items=args.median_items,
            seed=args.seed,
        )
    )
    for retailer in fleet:
        service.onboard(dataset_from_synthetic(retailer))
        print(f"onboarded {retailer.retailer_id} ({retailer.n_items} items)")
    blocks = (
        [token.strip() for token in args.blocks.split(",") if token.strip()]
        if args.blocks
        else None
    )
    for day_index in range(args.days):
        if blocks and day_index == args.days - 1:
            service.run_day(blocks=blocks)
            partial = service.last_dag_run
            counts = ", ".join(
                f"{status}={n}"
                for status, n in sorted(partial.status_counts().items())
            )
            print(f"day {day_index} partial ({args.blocks}): {counts}")
            report = service.recover()
        else:
            report = service.run_day()
        print(
            f"day {report.day}: sweep={report.sweep_kind} "
            f"models={report.configs_trained} "
            f"served={report.retailers_served} "
            f"cost={report.total_cost:.4f}"
        )
        if args.schedule and service.last_dag_run is not None:
            result = service.last_dag_run
            for run in result.schedule():
                lane = "-" if run.lane is None else run.lane
                print(
                    f"  [{run.start:8.2f} -> {run.finish:8.2f}] "
                    f"lane={lane} {run.name} ({run.status})"
                )
            print(f"  makespan={result.makespan:.2f}s")
    if args.seal_out:
        last_day = service.journal.committed_days()[-1]
        seal = service.journal.day_seal(last_day)
        with open(args.seal_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(seal, sort_keys=True, indent=2))
        print(f"wrote day {last_day} seal to {args.seal_out}")
    return 0


COMMANDS = {
    "demo": cmd_demo,
    "train": cmd_train,
    "inspect": cmd_inspect,
    "metrics": cmd_metrics,
    "chaos": cmd_chaos,
    "run-day": cmd_run_day,
}


def _openblas(function: str, *argtypes, restype=None) -> Iterator[Callable]:
    """``openblas_<function>`` of every OpenBLAS loaded into this process,
    read off ``/proc/self/maps`` (numpy lists its libraries only through
    ``threadpoolctl``); nothing where there is no ``/proc`` or no OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return
    for path in paths:
        library = ctypes.CDLL(path)
        # Plain builds, and the decorated names numpy's wheels ship.
        for prefix, suffix in product(("", "scipy_"), ("", "64_", "_64")):
            symbol = getattr(library, f"{prefix}openblas_{function}{suffix}", None)
            if symbol is not None:
                symbol.argtypes, symbol.restype = list(argtypes), restype
                yield symbol
                break


def _cap_blas_threads() -> None:
    """One BLAS thread for this process, unless the environment chose.

    Our GEMMs have inner dimension 5-200: a second thread buys nothing and,
    landing on the caller's CPU, costs the batched evaluator 3-4x for about
    a second.  numpy is imported by now, so the library is told directly.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    for set_num_threads in _openblas("set_num_threads", ctypes.c_int):
        set_num_threads(1)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        # ``python -m repro`` / the ``repro`` script: the process is ours.
        # A caller passing ``argv`` (tests, embedders) keeps its threads.
        _cap_blas_threads()
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
