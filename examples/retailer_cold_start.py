#!/usr/bin/env python
"""Cold start: new users, cold items, and what the side features buy you.

The paper's hardest setting is sparsity: "a retailer may only know about
a small number of purchases for a given user".  This example demonstrates
the three mitigations Sigmund stacks:

1. **Context users** — a brand-new user (never seen in training) gets
   recommendations immediately from their first few actions, with no
   retraining (section III-B2).
2. **Taxonomy features** — a model with the hierarchical-additive
   taxonomy feature beats one without it on a sparse retailer
   (section III-B4).
3. **Taxonomy candidate fallback** — a cold item with zero interactions
   still receives candidates from its category neighbourhood
   (section III-D1).

Run:  python examples/retailer_cold_start.py
"""

from __future__ import annotations


from repro import (
    BPRHyperParams,
    BPRModel,
    BPRTrainer,
    HoldoutEvaluator,
    RetailerSpec,
    dataset_from_synthetic,
    generate_retailer,
)
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector
from repro.data.events import EventType
from repro.data.sessions import UserContext


def train(dataset, use_taxonomy: bool):
    params = BPRHyperParams(
        n_factors=12,
        learning_rate=0.08,
        use_taxonomy=use_taxonomy,
        seed=11,
    )
    model = BPRModel(dataset.catalog, dataset.taxonomy, params)
    BPRTrainer(model, dataset, max_epochs=8, seed=5).train()
    return model


def main() -> None:
    # A sparse retailer: many items, few interactions.
    retailer = generate_retailer(
        RetailerSpec(
            retailer_id="sparse_shop",
            n_items=500,
            n_users=150,
            n_events=1600,
            seed=19,
        )
    )
    dataset = dataset_from_synthetic(retailer)
    events_per_item = dataset.n_train_interactions / dataset.n_items
    print(
        f"Sparse retailer: {dataset.n_items} items, "
        f"{dataset.n_train_interactions} interactions "
        f"({events_per_item:.1f} per item)"
    )

    # --- 2. taxonomy feature ablation on sparse data -------------------
    evaluator = HoldoutEvaluator(dataset)
    with_tax = evaluator.evaluate(train(dataset, use_taxonomy=True))
    without_tax = evaluator.evaluate(train(dataset, use_taxonomy=False))
    print("\nTaxonomy feature on sparse data:")
    print(f"  MAP@10 with taxonomy:    {with_tax.map_at_10:.4f}")
    print(f"  MAP@10 without taxonomy: {without_tax.map_at_10:.4f}")

    # --- 1. brand-new user, no retraining -------------------------------
    model = train(dataset, use_taxonomy=True)
    fresh_context = UserContext.empty()
    # The new user views two items from the best-observed category (a
    # realistic entry point: popular categories get the traffic).
    from collections import Counter

    category_hits = Counter(
        dataset.taxonomy.category_of(it.item_index) for it in dataset.train
    )
    category = category_hits.most_common(1)[0][0]
    peers = dataset.taxonomy.items_in(category)[:2]
    for item in peers:
        fresh_context = fresh_context.extended(item, EventType.VIEW, 25)
    print(f"\nBrand-new user views {len(peers)} items in {category!r}; top 5 recs:")
    in_category = 0
    for scored in model.recommend(fresh_context, k=5):
        rec_category = dataset.taxonomy.category_of(scored.item_index)
        nearby = dataset.taxonomy.lca_distance(scored.item_index, peers[0]) <= 2
        in_category += nearby
        print(
            f"  {dataset.catalog[scored.item_index].item_id:<26} "
            f"category={rec_category} (taxonomy-near: {nearby})"
        )
    print(f"  -> {in_category}/5 recommendations taxonomy-near the context")

    # --- 3. cold item candidates ----------------------------------------
    interacted = set(dataset.interacted_items())
    cold_items = [i for i in range(dataset.n_items) if i not in interacted]
    print(f"\nCold items (zero training interactions): {len(cold_items)}")
    counts = CoOccurrenceCounts.from_interactions(dataset.n_items, dataset.train)
    selector = CandidateSelector(
        taxonomy=dataset.taxonomy, counts=counts
    )
    if cold_items:
        cold = cold_items[0]
        candidates = selector.batch_view_based([cold])[0]
        print(
            f"  cold item {dataset.catalog[cold].item_id} still gets "
            f"{len(candidates)} candidates via its taxonomy neighbourhood"
        )


if __name__ == "__main__":
    main()
