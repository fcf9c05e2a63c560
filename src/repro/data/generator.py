"""Synthetic retailer and marketplace generation.

This is the substitute for the paper's proprietary data (see DESIGN.md).
Each synthetic retailer carries a *ground truth*: latent user and item
vectors, brand affinities, and price sensitivities that drive both the
generated interaction log and (later) the simulated click-through-rates
used to reproduce paper Fig. 6.

Key properties preserved from the paper's setting:

* **Heterogeneity** — marketplace retailers span orders of magnitude in
  catalog and user counts (lognormal sizes), like Sigmund's "few dozen
  items" to "tens of millions".
* **Sparsity and skew** — item popularity is Zipf-distributed, users see a
  tiny slice of the catalog, and strong events (cart/conversion) are
  orders of magnitude rarer than views.
* **Informative structure** — ground-truth item vectors are drawn
  hierarchically down the taxonomy and shifted by brand, so taxonomy and
  brand features genuinely help a model that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.catalog import Catalog, Item, make_item_id
from repro.data.events import EventType, Interaction
from repro.data.taxonomy import ROOT_CATEGORY, Taxonomy, random_taxonomy
from repro.exceptions import DataError
from repro.rng import derive_seed, make_rng

#: Multiplier applied to the funnel upgrade probability at each stage; keeps
#: carts/conversions orders of magnitude rarer than views (paper III-A).
_STAGE_DECAY = 0.35


@dataclass(frozen=True)
class RetailerSpec:
    """Parameters for one synthetic retailer.

    The defaults describe a mid-sized retailer; :func:`generate_marketplace`
    rescales them to produce the paper's heterogeneous population.
    """

    retailer_id: str
    n_items: int = 500
    n_users: int = 400
    n_events: int = 6000
    taxonomy_depth: int = 3
    taxonomy_fanout: int = 4
    n_brands: int = 12
    brand_coverage: float = 0.8
    price_coverage: float = 0.95
    latent_dim: int = 8
    popularity_alpha: float = 1.0
    #: Probability that a step upgrades view -> search -> cart -> conversion.
    funnel_upgrade_prob: float = 0.22
    #: How many popularity-sampled items one user ever considers.
    browse_pool_size: int = 64
    #: Softmax temperature when users choose among their pool.
    choice_temperature: float = 0.7
    #: Probability that a session step follows the previous item's
    #: companion graph (substitutes/accessories) instead of free browsing.
    #: This sequential structure is what co-occurrence models capture.
    transition_prob: float = 0.4
    #: Ground-truth companion links per item.
    companions_per_item: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 2:
            raise DataError("a retailer needs at least 2 items")
        if self.n_users < 1:
            raise DataError("a retailer needs at least 1 user")
        if not 0.0 <= self.brand_coverage <= 1.0:
            raise DataError("brand_coverage must be in [0, 1]")
        if not 0.0 <= self.price_coverage <= 1.0:
            raise DataError("price_coverage must be in [0, 1]")


@dataclass
class SyntheticRetailer:
    """A fully generated retailer: catalog, taxonomy, log, and ground truth."""

    spec: RetailerSpec
    catalog: Catalog
    taxonomy: Taxonomy
    interactions: List[Interaction]
    true_item_vectors: np.ndarray
    true_user_vectors: np.ndarray
    user_brand_affinity: Dict[int, Optional[str]]
    user_price_sensitivity: np.ndarray
    item_popularity: np.ndarray
    #: Ground-truth companion graph: items users genuinely move to next
    #: (substitutes and accessories).  Drives session transitions and the
    #: CTR simulator's companion bonus.
    companions: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def retailer_id(self) -> str:
        return self.spec.retailer_id

    @property
    def n_items(self) -> int:
        return len(self.catalog)

    @property
    def n_users(self) -> int:
        return self.true_user_vectors.shape[0]

    def affinity(self, user_id: int, item_index: int) -> float:
        """Ground-truth utility of ``item_index`` for ``user_id``.

        This is the hidden quantity the recommender tries to recover; the
        CTR simulator clicks recommendations with probability increasing in
        this affinity.
        """
        base = float(
            self.true_user_vectors[user_id] @ self.true_item_vectors[item_index]
        )
        item = self.catalog[item_index]
        brand = self.user_brand_affinity.get(user_id)
        if brand is not None and item.brand == brand:
            base += 1.0
        if item.price is not None:
            sensitivity = float(self.user_price_sensitivity[user_id])
            base -= sensitivity * float(np.log1p(item.price)) * 0.1
        return base

    def affinities(self, user_id: int, item_indices: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`affinity` over several items."""
        return np.array([self.affinity(user_id, i) for i in item_indices])

    def is_companion(self, source_item: int, candidate: int) -> bool:
        """Whether ``candidate`` is a ground-truth companion of ``source_item``."""
        return candidate in self.companions.get(source_item, ())


@dataclass(frozen=True)
class MarketplaceSpec:
    """Parameters for a whole population of retailers.

    Sizes are lognormal: ``median_items`` with multiplicative spread
    ``sigma_items`` (in natural-log units).  Users and events scale with
    catalog size, mirroring how traffic correlates with inventory.
    """

    n_retailers: int = 20
    median_items: int = 200
    sigma_items: float = 1.2
    min_items: int = 24
    max_items: int = 20000
    users_per_item: float = 0.8
    events_per_user: float = 14.0
    seed: int = 0


def generate_retailer(spec: RetailerSpec) -> SyntheticRetailer:
    """Generate one synthetic retailer from its spec (deterministic)."""
    rng = make_rng(spec.seed)
    taxonomy = random_taxonomy(
        spec.n_items,
        depth=spec.taxonomy_depth,
        fanout=spec.taxonomy_fanout,
        seed=derive_seed(spec.seed, "taxonomy"),
    )
    category_vectors = _hierarchical_category_vectors(taxonomy, spec.latent_dim, rng)
    brands = [f"brand_{b}" for b in range(max(1, spec.n_brands))]
    brand_vectors = {
        brand: rng.normal(0.0, 0.6, size=spec.latent_dim) for brand in brands
    }
    catalog, item_vectors = _build_catalog(
        spec, taxonomy, category_vectors, brands, brand_vectors, rng
    )

    user_vectors, user_brand, user_price_sens = _build_users(
        spec, taxonomy, category_vectors, brands, rng
    )
    popularity = _zipf_popularity(spec.n_items, spec.popularity_alpha, rng)
    companions = _build_companions(spec, taxonomy, popularity, rng)
    retailer = SyntheticRetailer(
        spec=spec,
        catalog=catalog,
        taxonomy=taxonomy,
        interactions=[],
        true_item_vectors=item_vectors,
        true_user_vectors=user_vectors,
        user_brand_affinity=user_brand,
        user_price_sensitivity=user_price_sens,
        item_popularity=popularity,
        companions=companions,
    )
    retailer.interactions = _simulate_log(retailer, rng)
    return retailer


def generate_marketplace(spec: MarketplaceSpec) -> List[SyntheticRetailer]:
    """Generate a heterogeneous population of retailers.

    Retailer ``k`` is fully determined by ``spec.seed`` and ``k``; adding
    retailers never changes existing ones.
    """
    rng = make_rng(spec.seed)
    retailers = []
    for k in range(spec.n_retailers):
        n_items = int(
            np.clip(
                round(spec.median_items * np.exp(rng.normal(0.0, spec.sigma_items))),
                spec.min_items,
                spec.max_items,
            )
        )
        n_users = max(4, int(round(n_items * spec.users_per_item)))
        n_events = max(40, int(round(n_users * spec.events_per_user)))
        # Depth/fanout grow gently with catalog size so LCA structure stays
        # meaningful for both tiny and large retailers.
        depth = 2 if n_items < 100 else 3 if n_items < 4000 else 4
        fanout = 3 if n_items < 100 else 4
        retailer_spec = RetailerSpec(
            retailer_id=f"retailer_{k:04d}",
            n_items=n_items,
            n_users=n_users,
            n_events=n_events,
            taxonomy_depth=depth,
            taxonomy_fanout=fanout,
            n_brands=max(2, n_items // 40),
            brand_coverage=float(rng.uniform(0.05, 0.95)),
            seed=derive_seed(spec.seed, "retailer", k),
        )
        retailers.append(generate_retailer(retailer_spec))
    return retailers


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _hierarchical_category_vectors(
    taxonomy: Taxonomy, dim: int, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Draw category vectors top-down: child = parent + noise.

    This is the generative mirror of the hierarchical-additive taxonomy
    feature (Kanagal et al. [4]): nearby categories have nearby vectors,
    so sharing statistical strength across the tree genuinely pays off.
    """
    vectors: Dict[str, np.ndarray] = {ROOT_CATEGORY: np.zeros(dim)}
    # Walk the tree breadth-first from the root.
    frontier = [ROOT_CATEGORY]
    while frontier:
        parent = frontier.pop()
        for child in taxonomy.children_of(parent):
            vectors[child] = vectors[parent] + rng.normal(0.0, 0.8, size=dim)
            frontier.append(child)
    return vectors


def _build_catalog(
    spec: RetailerSpec,
    taxonomy: Taxonomy,
    category_vectors: Dict[str, np.ndarray],
    brands: List[str],
    brand_vectors: Dict[str, np.ndarray],
    rng: np.random.Generator,
) -> tuple[Catalog, np.ndarray]:
    """Materialize items with brand/price/facets and their true vectors."""
    # Each leaf category prefers a couple of brands (brand correlates with
    # category, as in real catalogs) and has its own base price level.
    leaf_brands: Dict[str, List[str]] = {}
    leaf_price: Dict[str, float] = {}
    for leaf in taxonomy.leaves():
        count = min(len(brands), 3)
        chosen = rng.choice(len(brands), size=count, replace=False)
        leaf_brands[leaf] = [brands[int(c)] for c in chosen]
        leaf_price[leaf] = float(np.exp(rng.normal(3.2, 1.0)))

    colors = ("black", "white", "red", "blue", "green")
    items: List[Item] = []
    item_vectors = np.zeros((spec.n_items, spec.latent_dim))
    for index in range(spec.n_items):
        category = taxonomy.category_of(index)
        brand: Optional[str] = None
        if rng.random() < spec.brand_coverage:
            candidates = leaf_brands[category]
            brand = candidates[int(rng.integers(len(candidates)))]
        price: Optional[float] = None
        if rng.random() < spec.price_coverage:
            price = round(leaf_price[category] * float(np.exp(rng.normal(0.0, 0.5))), 2)
        vector = category_vectors[category] + rng.normal(
            0.0, 0.5, size=spec.latent_dim
        )
        if brand is not None:
            vector = vector + 0.5 * brand_vectors[brand]
        item_vectors[index] = vector
        items.append(
            Item(
                item_id=make_item_id(spec.retailer_id, index),
                index=index,
                category_id=category,
                brand=brand,
                price=price,
                facets={"color": colors[int(rng.integers(len(colors)))]},
            )
        )
    return Catalog(spec.retailer_id, items), item_vectors


def _build_users(
    spec: RetailerSpec,
    taxonomy: Taxonomy,
    category_vectors: Dict[str, np.ndarray],
    brands: List[str],
    rng: np.random.Generator,
) -> tuple[np.ndarray, Dict[int, Optional[str]], np.ndarray]:
    """Draw ground-truth user vectors, brand affinities, price sensitivity."""
    leaves = taxonomy.leaves()
    user_vectors = np.zeros((spec.n_users, spec.latent_dim))
    user_brand: Dict[int, Optional[str]] = {}
    for user_id in range(spec.n_users):
        n_interests = int(rng.integers(1, 4))
        chosen = rng.choice(len(leaves), size=min(n_interests, len(leaves)), replace=False)
        interest = np.mean([category_vectors[leaves[int(c)]] for c in chosen], axis=0)
        user_vectors[user_id] = interest + rng.normal(0.0, 0.4, size=spec.latent_dim)
        # Paper: "most online shoppers are either brand-aware ... or
        # price-conscious".  Half the users lock onto one brand.
        user_brand[user_id] = (
            brands[int(rng.integers(len(brands)))] if rng.random() < 0.5 else None
        )
    price_sensitivity = rng.gamma(2.0, 0.5, size=spec.n_users)
    return user_vectors, user_brand, price_sensitivity


def _build_companions(
    spec: RetailerSpec,
    taxonomy: Taxonomy,
    popularity: np.ndarray,
    rng: np.random.Generator,
) -> Dict[int, List[int]]:
    """Draw each item's ground-truth companion set.

    Companions are mostly taxonomy-near (substitutes: same category or a
    sibling) with one popularity-sampled accessory from anywhere — the
    mix that makes real "customers also viewed" lists.  The graph is what
    sequential behaviour follows, so co-occurrence statistics genuinely
    carry signal in the synthetic world.
    """
    companions: Dict[int, List[int]] = {}
    if spec.companions_per_item <= 0:
        return companions
    for item in range(spec.n_items):
        nearby = [c for c in taxonomy.lca_k(item, 2) if c != item]
        chosen: List[int] = []
        if nearby:
            count = min(len(nearby), max(1, spec.companions_per_item - 1))
            picks = rng.choice(len(nearby), size=count, replace=False)
            chosen.extend(nearby[int(p)] for p in picks)
        # One popular cross-category accessory.
        for _ in range(4):
            accessory = int(rng.choice(spec.n_items, p=popularity))
            if accessory != item and accessory not in chosen:
                chosen.append(accessory)
                break
        companions[item] = chosen
    return companions


def _zipf_popularity(
    n_items: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Zipf popularity weights over a random permutation of items."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    rng.shuffle(weights)
    return weights / weights.sum()


def _simulate_log(
    retailer: SyntheticRetailer, rng: np.random.Generator
) -> List[Interaction]:
    """Simulate the implicit-feedback log using the ground truth.

    Each user browses a popularity-sampled pool, picking by a softmax over
    their ground-truth affinities — except that with ``transition_prob``
    each step instead follows the previous item's companion graph (the
    sequential substitute/accessory behaviour real logs exhibit).  Each
    pick climbs the event funnel (view -> search -> cart -> conversion)
    with probability that rises with affinity, reproducing the
    orders-of-magnitude event-type imbalance the paper reports.
    """
    spec = retailer.spec
    n_items = retailer.n_items
    interactions: List[Interaction] = []
    events_per_user = max(2, spec.n_events // spec.n_users)
    clock = 0.0
    for user_id in range(spec.n_users):
        pool_size = min(spec.browse_pool_size, n_items)
        pool = rng.choice(
            n_items, size=pool_size, replace=False, p=retailer.item_popularity
        )
        scores = retailer.affinities(user_id, pool) / spec.choice_temperature
        scores -= scores.max()
        probs = np.exp(scores)
        probs /= probs.sum()
        session_len = max(2, int(rng.poisson(events_per_user)))
        previous: Optional[int] = None
        for _ in range(session_len):
            companions = (
                retailer.companions.get(previous, []) if previous is not None else []
            )
            if companions and rng.random() < spec.transition_prob:
                item_index = int(companions[int(rng.integers(len(companions)))])
            else:
                item_index = int(rng.choice(pool, p=probs))
            clock += float(rng.exponential(1.0))
            affinity = retailer.affinity(user_id, item_index)
            event = _funnel_event(affinity, spec.funnel_upgrade_prob, rng)
            interactions.append(
                Interaction(
                    timestamp=clock,
                    user_id=user_id,
                    item_index=item_index,
                    event=event,
                )
            )
            previous = item_index
    return interactions


def _funnel_event(
    affinity: float, base_upgrade_prob: float, rng: np.random.Generator
) -> EventType:
    """Climb the funnel; higher affinity means deeper funnel penetration.

    Each successive stage is markedly harder to reach (``_STAGE_DECAY``)
    so that, like the paper's logs, conversions and carts end up orders of
    magnitude rarer than views and searches.
    """
    upgrade_prob = float(np.clip(base_upgrade_prob * (1.0 + 0.15 * affinity), 0.02, 0.5))
    event = EventType.VIEW
    for stronger in (EventType.SEARCH, EventType.CART, EventType.CONVERSION):
        if rng.random() < upgrade_prob:
            event = stronger
            upgrade_prob *= _STAGE_DECAY
        else:
            break
    return event
