"""A catalog's feature columns, built once and read by every model.

``Catalog.columns`` walks the items once into a brand vocabulary, per-item
brand codes and a price array, all read-only; ``BPRModel`` builds its
feature table from them instead of walking the catalog per config.
Pinned here: over drawn catalogs (missing and NaN prices, missing and
empty brands, one item) and every feature switch, the model's
``_item_features``, ``_price_edges`` and ``_brand_vocab`` are byte-equal to
the per-item walk it replaced (frozen below), the public views and
coverages equal that walk's, and a cached column cannot be written.  The
price-bucket edges are the catalog's too (``Catalog.price_edges``): every
model with one bucket count reads the same read-only array, byte-equal to
the per-model quantile it replaced (frozen below).
"""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.catalog import Catalog, Item
from repro.data.taxonomy import Taxonomy
from repro.models.bpr import BPRHyperParams, BPRModel, _bucketize

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def walked_feature_maps(model: BPRModel, catalog: Catalog):
    """``_build_feature_maps``' brand and price columns as the per-item
    walk computed them (test-only oracle); the taxonomy columns it shares
    with the model are taken from it."""
    params = model.params
    brands = catalog_brand_vocabulary(catalog) if params.use_brand else []
    brand_row = {brand: row for row, brand in enumerate(brands)}
    item_brand = np.array(
        [
            brand_row.get(item.brand, -1) if item.brand is not None else -1
            for item in catalog
        ],
        dtype=np.int64,
    )
    prices = np.array(
        [np.nan if item.price is None else float(item.price) for item in catalog],
        dtype=np.float64,
    )
    edges = _price_bucket_edges(prices, params.n_price_buckets)
    if params.use_price and edges.size > 0:
        item_price = _bucketize(prices, edges)
    else:
        item_price = np.full(len(catalog), -1, dtype=np.int64)
    n_taxonomy = model._n_categories if params.use_taxonomy else 0
    ancestors = model._item_features[:, :-2]
    features = np.concatenate(
        [
            ancestors,
            np.where(item_brand >= 0, item_brand + n_taxonomy, -1)[:, None],
            np.where(item_price >= 0, item_price + n_taxonomy + len(brands), -1)[:, None],
        ],
        axis=1,
    )
    return features, edges, brands


def _price_bucket_edges(prices: np.ndarray, n_buckets: int) -> np.ndarray:
    """The price-bucket edges each ``BPRModel`` computed for itself before
    the catalog kept them (test-only oracle)."""
    known = prices[~np.isnan(prices)]
    if known.size < 2 or n_buckets < 1:
        return np.zeros(0)
    log_prices = np.log1p(known)
    edges = np.quantile(log_prices, np.linspace(0.0, 1.0, n_buckets + 1))
    return np.unique(edges)


def catalog_brand_vocabulary(catalog: Catalog):
    return sorted({item.brand for item in catalog if item.brand is not None})


prices = st.one_of(
    st.none(),
    st.just(math.nan),
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 9.99, 120.0]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
brands = st.one_of(st.none(), st.sampled_from(["", "acme", "bolt", "zeta", "Acme"]))
catalogs = st.lists(st.tuples(brands, prices, st.booleans()), min_size=1, max_size=25)
switches = st.tuples(st.booleans(), st.booleans(), st.booleans(), st.integers(1, 8))


def build(rows):
    taxonomy = Taxonomy()
    taxonomy.add_category("a")
    taxonomy.add_category("a1", "a")
    items = []
    for index, (brand, price, categorised) in enumerate(rows):
        category = "a1" if index % 2 else "a"
        items.append(Item(f"r:item{index}", index, category, brand=brand, price=price))
        if categorised:
            taxonomy.assign_item(index, category)
    return Catalog("r", items), taxonomy


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=catalogs, switch=switches)
def test_model_features_match_the_per_item_walk(rows, switch):
    catalog, taxonomy = build(rows)
    use_taxonomy, use_brand, use_price, buckets = switch
    params = BPRHyperParams(
        n_factors=2,
        use_taxonomy=use_taxonomy,
        use_brand=use_brand,
        use_price=use_price,
        n_price_buckets=buckets,
    )
    model = BPRModel(catalog, taxonomy, params)
    features, edges, vocabulary = walked_feature_maps(model, catalog)
    assert model._item_features.dtype == features.dtype
    assert model._item_features.tobytes() == features.tobytes()
    assert model._price_edges.dtype == edges.dtype
    assert model._price_edges.tobytes() == edges.tobytes()
    assert model._brand_vocab == vocabulary and type(model._brand_vocab) is list

    # The public views are the walk's, fresh on every call.
    assert catalog.brand_vocabulary() == catalog_brand_vocabulary(catalog)
    assert catalog.brand_vocabulary() is not catalog.brand_vocabulary()
    walked = np.array([np.nan if p is None else p for _, p, _ in rows], dtype=np.float64)
    assert catalog.prices().tobytes() == walked.tobytes()
    assert catalog.prices() is not catalog.prices()
    assert catalog.brand_coverage() == sum(b is not None for b, _, _ in rows) / len(rows)
    assert catalog.price_coverage() == sum(p is not None for _, p, _ in rows) / len(rows)


def test_cached_columns_are_read_only_and_built_once():
    catalog, _ = build([("acme", 2.0, True), (None, None, False), ("bolt", math.nan, True)])
    columns = catalog.columns
    assert catalog.columns is columns
    for column in (columns.brand_codes, columns.prices):
        with pytest.raises(ValueError):
            column[0] = 7
    # A public view is the caller's to write.
    mine = catalog.prices()
    mine[0] = 99.0
    assert columns.prices[0] == 2.0
    mine = catalog.brand_vocabulary()
    mine.append("zzz")
    assert columns.brand_vocabulary == ("acme", "bolt")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=catalogs, buckets=st.integers(0, 9))
def test_models_of_one_catalog_share_its_price_edges(rows, buckets):
    """Two models with one bucket count read one read-only array, byte-equal
    to the edges each model computed for itself."""
    catalog, taxonomy = build(rows)
    one, two = (
        BPRModel(catalog, taxonomy, BPRHyperParams(n_factors=2, n_price_buckets=buckets, seed=seed))
        for seed in (1, 2)
    )
    assert one._price_edges is two._price_edges is catalog.price_edges(buckets)
    expected = _price_bucket_edges(catalog.prices(), buckets)
    assert one._price_edges.dtype == expected.dtype
    assert one._price_edges.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        one._price_edges[...] = 0.0
    other = catalog.price_edges(buckets + 1)
    assert other is not one._price_edges
    assert other.tobytes() == _price_bucket_edges(catalog.prices(), buckets + 1).tobytes()


@pytest.mark.parametrize("route", ["pickle", "deepcopy"])
def test_a_copied_catalog_rebuilds_read_only_columns(route):
    catalog, _ = build([("acme", 2.0, True), (None, None, False)])
    catalog.columns
    edges = catalog.price_edges(4)
    copied = pickle.loads(pickle.dumps(catalog)) if route == "pickle" else copy.deepcopy(catalog)
    assert copied.columns.brand_codes.tolist() == [0, -1]
    with pytest.raises(ValueError):
        copied.columns.prices[0] = 1.0
    assert copied.price_edges(4) is not edges
    assert copied.price_edges(4).tobytes() == edges.tobytes()
    with pytest.raises(ValueError):
        copied.price_edges(4)[...] = 1.0
