"""Golden digest of everything a seeded two-day fleet publishes.

Every ``lookup`` of both serving stores — each item of each retailer, one
past the catalog included — after a three-retailer, two-day
:class:`SigmundService` run, hashed with the scores' exact bits.  The
digest was recorded while a published table was still a ``dict`` of
``ScoredItem`` lists (before ISSUE 19 made it arrays from the top-k
kernel to the store); a change to ranking, inference, the gate or the
store that moves it has changed what some retailer serves.

The fleet covers the three shapes a table takes: ``ann`` is over the
retrieval threshold (its candidates come from the ANN index), ``plain``
walks the taxonomy, and ``flat`` has a one-category catalog, so every
purchase candidate is a substitute and its accessories table is
published empty.
"""

from __future__ import annotations

import hashlib

from repro import build_cluster
from repro.core.grid import GridSpec
from repro.core.service import SigmundService
from repro.core.training import TrainerSettings
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.retrieval.ivf import IVFConfig

GOLDEN_SHA256 = "0c4f8871476778f4155edcc4e70aec2a22a3e7f8c6f4cce1fb05121373b1a5c1"

GRID = GridSpec(
    n_factors=(4,),
    learning_rates=(0.05,),
    reg_items=(0.01,),
    reg_contexts=(0.01,),
    use_taxonomy=(True,),
    use_brand=(False,),
    use_price=(False,),
    max_configs=2,
)
SETTINGS = TrainerSettings(
    max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
)
SPECS = (
    RetailerSpec(
        "ann", n_items=150, n_users=60, n_events=900,
        taxonomy_depth=3, taxonomy_fanout=3, seed=201,
    ),
    RetailerSpec(
        "plain", n_items=40, n_users=25, n_events=260,
        taxonomy_depth=2, taxonomy_fanout=3, seed=202,
    ),
    RetailerSpec(
        "flat", n_items=30, n_users=20, n_events=200,
        taxonomy_depth=1, taxonomy_fanout=1, seed=203,
    ),
)
N_DAYS = 2


def run_fleet() -> SigmundService:
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=GRID,
        settings=SETTINGS,
        seed=5,
        retrieval_threshold=100,
        retrieval_config=IVFConfig(n_clusters=4),
    )
    for spec in SPECS:
        service.onboard(dataset_from_synthetic(generate_retailer(spec)))
    for _ in range(N_DAYS):
        report = service.run_day()
        assert report.failed_retailers == []
        assert report.indexes_built == 1 and report.indexes_rejected == 0
    return service


def published_digest(service: SigmundService) -> str:
    digest = hashlib.sha256()
    for store in (service.substitutes_store, service.accessories_store):
        for spec in SPECS:
            rid = spec.retailer_id
            digest.update(f"{store.name}|{rid}|{store.version_of(rid)}\n".encode())
            for item in range(spec.n_items + 1):
                row = [
                    (rec.item_index, rec.score.hex())
                    for rec in store.lookup(rid, item)
                ]
                digest.update(f"{item}|{row}\n".encode())
    return digest.hexdigest()


def test_published_tables_match_the_recorded_digest():
    service = run_fleet()
    # The three shapes are really there, or the digest guards less than
    # it says.
    assert service.retrieval_store.retailers() == ["ann"]
    assert service.accessories_store.items_covered("flat") == 0
    assert service.accessories_store.items_covered("plain") > 0
    for spec in SPECS:
        assert (
            service.substitutes_store.items_covered(spec.retailer_id)
            == spec.n_items
        )
    assert published_digest(service) == GOLDEN_SHA256
