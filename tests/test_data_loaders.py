"""Tests for CSV dataset loading (the public-data path)."""

from __future__ import annotations

import pytest

from repro.data.events import EventType
from repro.data.loaders import (
    dataset_from_files,
    load_catalog_csv,
    load_interactions_csv,
    ratings_to_events,
)
from repro.exceptions import DataError
from tests.reference_taxonomy_walk import lca_distance

CATALOG_CSV = """item_id,category,brand,price
sku1,electronics/phones/android,googel,499.00
sku2,electronics/phones/android,,
sku3,electronics/phones/apple,apple,999.00
sku4,home/kitchen,acme,19.99
"""

EVENTS_CSV = """user_id,item_id,event,timestamp
u1,sku1,view,1.0
u1,sku2,view,2.0
u1,sku2,add_to_cart,3.0
u2,sku3,search,1.5
u2,sku4,purchase,2.5
u2,ghost,view,3.5
u2,sku1,view,4.5
"""


@pytest.fixture()
def csv_files(tmp_path):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(CATALOG_CSV)
    events = tmp_path / "events.csv"
    events.write_text(EVENTS_CSV)
    return catalog, events


class TestCatalogCsv:
    def test_loads_items_and_taxonomy(self, csv_files):
        catalog_path, _ = csv_files
        catalog, taxonomy, index = load_catalog_csv(catalog_path, "shop")
        assert len(catalog) == 4
        assert index == {"sku1": 0, "sku2": 1, "sku3": 2, "sku4": 3}
        assert catalog[0].brand == "googel"
        assert catalog[1].brand is None
        assert catalog[1].price is None
        assert taxonomy.category_of(0) == "electronics/phones/android"
        # Prefixes become internal categories.
        assert taxonomy.parent_of("electronics/phones") == "electronics"
        assert lca_distance(taxonomy, 0, 2) == 2  # android vs apple phones

    def test_item_ids_namespaced(self, csv_files):
        catalog_path, _ = csv_files
        catalog, _, _ = load_catalog_csv(catalog_path, "shop")
        assert catalog[0].item_id == "shop:sku1"

    def test_duplicate_item_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("item_id,category\nx,a\nx,a\n")
        with pytest.raises(DataError):
            load_catalog_csv(path, "shop")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sku,cat\nx,a\n")
        with pytest.raises(DataError):
            load_catalog_csv(path, "shop")

    def test_bad_price_rejected(self, tmp_path):
        path = tmp_path / "badprice.csv"
        path.write_text("item_id,category,brand,price\nx,a,b,notanumber\n")
        with pytest.raises(DataError):
            load_catalog_csv(path, "shop")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_catalog_csv(tmp_path / "nope.csv", "shop")


class TestInteractionsCsv:
    def test_loads_and_maps_events(self, csv_files):
        catalog_path, events_path = csv_files
        _, _, index = load_catalog_csv(catalog_path, "shop")
        interactions = load_interactions_csv(events_path, index)
        # ghost row skipped
        assert len(interactions) == 6
        events = {it.event for it in interactions}
        assert EventType.CART in events
        assert EventType.CONVERSION in events

    def test_users_densified_in_order(self, csv_files):
        catalog_path, events_path = csv_files
        _, _, index = load_catalog_csv(catalog_path, "shop")
        interactions = load_interactions_csv(events_path, index)
        assert {it.user_id for it in interactions} == {0, 1}

    def test_unknown_item_strict_mode(self, csv_files):
        catalog_path, events_path = csv_files
        _, _, index = load_catalog_csv(catalog_path, "shop")
        with pytest.raises(DataError):
            load_interactions_csv(events_path, index, skip_unknown_items=False)

    def test_unknown_event_rejected(self, tmp_path, csv_files):
        catalog_path, _ = csv_files
        _, _, index = load_catalog_csv(catalog_path, "shop")
        path = tmp_path / "weird.csv"
        path.write_text("user_id,item_id,event,timestamp\nu,sku1,teleport,1\n")
        with pytest.raises(DataError):
            load_interactions_csv(path, index)


class TestRatingsAdapter:
    def test_thresholds(self):
        rows = [(1, 0, 5.0, 1.0), (1, 1, 4.0, 2.0), (1, 2, 3.0, 3.0),
                (1, 3, 1.0, 4.0)]
        interactions = ratings_to_events(rows)
        assert [it.event for it in interactions] == [
            EventType.CONVERSION, EventType.CART,
            EventType.SEARCH, EventType.VIEW,
        ]

    def test_below_view_threshold_dropped(self):
        interactions = ratings_to_events(
            [(1, 0, 0.5, 1.0)], view_threshold=1.0
        )
        assert interactions == []


class TestDatasetFromFiles:
    def test_end_to_end(self, csv_files):
        catalog_path, events_path = csv_files
        dataset = dataset_from_files(catalog_path, events_path, "shop")
        assert dataset.retailer_id == "shop"
        assert dataset.n_items == 4
        # u1 has 3 events -> holds out the last; u2 has 3 valid events.
        assert dataset.n_train_interactions + len(dataset.holdout) == 6
        assert len(dataset.holdout) == 2

    def test_loaded_dataset_trains(self, csv_files):
        """The CSV path produces data the real training stack accepts."""
        from repro.models.bpr import BPRHyperParams, BPRModel
        from repro.models.trainer import BPRTrainer

        catalog_path, events_path = csv_files
        dataset = dataset_from_files(catalog_path, events_path, "shop")
        model = BPRModel(
            dataset.catalog, dataset.taxonomy, BPRHyperParams(n_factors=4)
        )
        report = BPRTrainer(model, dataset, max_epochs=2).train()
        assert report.epochs_run >= 1
