#!/usr/bin/env python
"""Multi-tenant service: thousands-of-problems-daily in miniature.

Reproduces the paper's operating loop on a small heterogeneous fleet:

* day 0 — full sweep: the whole hyper-parameter grid for every retailer,
* day 1+ — incremental sweeps: only each retailer's top-3 configs,
  warm-started from yesterday's parameters,
* a new retailer signs up mid-stream and gets its full grid inside the
  incremental sweep (paper section IV-A),
* offline inference materializes substitutes and accessories, batch-loads
  the serving stores, and live contexts are served from precomputed data.

Run:  python examples/marketplace_service.py
"""

from __future__ import annotations

from repro import (
    GridSpec,
    MarketplaceSpec,
    RecommendationServer,
    RetailerSpec,
    SigmundService,
    TrainerSettings,
    build_cluster,
    dataset_from_synthetic,
    generate_marketplace,
    generate_retailer,
)


def print_report(report) -> None:
    print(
        f"  day {report.day}: sweep={report.sweep_kind:<11} "
        f"configs={report.configs_trained:<4} served={report.retailers_served} "
        f"cost={report.total_cost:.4f} "
        f"preemptions={report.preemptions} alerts={report.alerts}"
    )


def main() -> None:
    service = SigmundService(
        build_cluster(n_cells=3, machines_per_cell=8),
        grid=GridSpec.small(),
        settings=TrainerSettings(
            max_epochs_full=4, max_epochs_incremental=2, sampler="uniform"
        ),
        top_k_incremental=3,
    )

    print("Onboarding a heterogeneous fleet (sizes vary by ~an order of magnitude):")
    fleet = generate_marketplace(
        MarketplaceSpec(
            n_retailers=5, median_items=80, sigma_items=0.9,
            users_per_item=0.6, events_per_user=10.0, seed=3,
        )
    )
    for retailer in fleet:
        service.onboard(dataset_from_synthetic(retailer))
        print(f"  {retailer.retailer_id}: {retailer.n_items} items")

    print("\nDaily runs:")
    print_report(service.run_day())  # day 0: full sweep
    print_report(service.run_day())  # day 1: incremental

    print("\nA new retailer signs up (gets its full grid inside day 2):")
    newcomer = generate_retailer(
        RetailerSpec(
            retailer_id="new_signup", n_items=60, n_users=40,
            n_events=500, taxonomy_depth=2, seed=55,
        )
    )
    service.onboard(dataset_from_synthetic(newcomer))
    print_report(service.run_day())  # day 2

    print("\nPer-retailer model quality (MAP@10 of the selected model):")
    for retailer_id in service.retailers:
        print(f"  {retailer_id:<16} {service.best_map(retailer_id):.4f}")

    summary = service.monitor.fleet_summary(day=2)
    print(
        f"\nFleet summary day 2: {summary['retailers']:.0f} retailers, "
        f"mean MAP {summary['mean_map']:.4f} "
        f"(p10 {summary['p10_map']:.4f}, p90 {summary['p90_map']:.4f})"
    )

    # Serve a live request for one retailer from the batch-loaded store.
    rid = service.retailers[0]
    dataset = service._datasets[rid]
    example = dataset.holdout[0]
    print(f"\nServing substitutes for a {rid} user from the precomputed store:")
    server = RecommendationServer(service.substitutes_store)
    for rec in server.recommend(rid, example.context, k=5):
        entry = dataset.catalog[rec.item_index]
        print(f"  {entry.item_id:<28} blended_score={rec.score:7.3f}")

    print(f"\nTotal simulated compute cost so far: {service.total_cost():.4f}")


if __name__ == "__main__":
    main()
