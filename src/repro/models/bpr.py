"""BPR matrix factorization with context users and side features.

This is Sigmund's per-retailer model (paper section III-B):

* **Pairwise ranking** — for a triple ``(u, i, j)`` the model learns
  ``x_ui > x_uj`` by ascending the log-likelihood of
  ``sigma(x_ui - x_uj)`` (Rendle et al. [6]).
* **Context users** (section III-B2, Eq. 1) — a user is not an id but the
  decayed linear combination of *context embeddings* of their last K
  actions, so brand-new users get embeddings without retraining.
* **Side features** (section III-B4) — the effective item vector is the
  item embedding plus hierarchically-additive taxonomy node embeddings
  (Kanagal et al. [4]) plus brand and price-bucket embeddings (Ahmed et
  al. [5]).  Feature switches are hyper-parameters so the grid search can
  do per-retailer feature selection.

The update rule for one triple, with ``z = x_ui - x_uj`` and
``e = sigma(-z)``:

* item side of ``i`` (own embedding + each active feature row):
  ``theta += lr * (e * u - reg * theta)``
* item side of ``j``: ``theta += lr * (-e * u - reg * theta)``
* context rows ``m``: ``vc_m += lr * (w_m * e * (phi_i - phi_j) - reg * vc_m)``
* biases: ``b_i += lr * (e - reg * b_i)``, ``b_j += lr * (-e - reg * b_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.catalog import Catalog
from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.data.taxonomy import Taxonomy
from repro.exceptions import ConfigError
from repro.models.base import Recommender, _as_item_array
from repro.models.optim import (
    Layout,
    Optimizer,
    carve,
    flat_row_index,
    make_optimizer,
    scatter_add_rows,
)
from repro.rng import make_rng

#: Context weights scale with event strength when event weighting is on —
#: a carted item says more about the user than a viewed one.
EVENT_CONTEXT_WEIGHT: Dict[EventType, float] = {
    EventType.VIEW: 1.0,
    EventType.SEARCH: 1.5,
    EventType.CART: 2.0,
    EventType.CONVERSION: 2.5,
}
#: :data:`EVENT_CONTEXT_WEIGHT` indexed by event code.
_EVENT_WEIGHTS = np.array([EVENT_CONTEXT_WEIGHT[event] for event in EventType])

#: Pairs scored per gather in :meth:`BPRModel._score_user_pairs`.  Both operands
#: of the dot are gathered (``2 x slice x F`` doubles live at once), so the
#: slice — not ``B x n`` — bounds the scratch memory of a batch of explicit
#: catalog-sized pools.  Sized on perfbench: at 8 192 pairs and above
#: ``dense_full_zipf_hot`` ``day_peak_rss_mb`` sat 0.5 MB (1 %) over the
#: union-GEMM kernel this replaced (52.9 vs 52.4-52.6), at 4 096 it is
#: 52.3-52.4, and a 5 000-item retailer's inference runs as fast at 4 096
#: as at 16 384 (0.41 s a pass; 0.44 s at 1 024, 0.70 s at 65 536).
_PAIR_SLICE = 4_096

#: Items per slice when :meth:`BPRModel.effective_item_matrix` adds feature
#: vectors.  One gather over all of ``wide00``'s 12 000 items (every
#: feature row's 16 doubles, plus their element index) put perfbench's
#: ``wide_incr_uniform_cold`` ``day_peak_rss_mb`` at 146.2-147.2 MB against
#: 140.4-141.8 in slices of 2 048 and 141.3-141.4 with one gather per
#: feature table (seeds 1-2, 2-core x86 box; the bound is 3 %).
_ASSEMBLY_SLICE = 2_048

#: Each parameter table's attribute, in :meth:`BPRModel._parameters` order,
#: which checkpoints and the optimizer's state keys follow.
_TABLES = {
    "item": "item_embeddings",
    "context": "context_embeddings",
    "bias": "item_bias",
    "taxonomy": "taxonomy_embeddings",
    "brand": "brand_embeddings",
    "price": "price_embeddings",
}


@dataclass(frozen=True)
class BPRHyperParams:
    """Everything the grid search sweeps over for one model (section III-C1)."""

    n_factors: int = 16
    learning_rate: float = 0.05
    reg_item: float = 0.01
    reg_context: float = 0.01
    reg_bias: float = 0.005
    reg_features: float = 0.01
    use_taxonomy: bool = True
    use_brand: bool = True
    use_price: bool = True
    n_price_buckets: int = 8
    context_decay: float = 0.85
    event_weighting: bool = True
    optimizer: str = "adagrad"
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_factors < 1:
            raise ConfigError("n_factors must be >= 1")
        if not 0.0 < self.context_decay <= 1.0:
            raise ConfigError("context_decay must be in (0, 1]")
        if self.optimizer not in ("sgd", "adagrad"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")

    def describe(self) -> Dict[str, object]:
        """Flat dict form used in config records and sweep logs."""
        return {
            "n_factors": self.n_factors,
            "learning_rate": self.learning_rate,
            "reg_item": self.reg_item,
            "reg_context": self.reg_context,
            "use_taxonomy": self.use_taxonomy,
            "use_brand": self.use_brand,
            "use_price": self.use_price,
            "context_decay": self.context_decay,
            "event_weighting": self.event_weighting,
            "optimizer": self.optimizer,
            "seed": self.seed,
        }


class BPRModel(Recommender):
    """Per-retailer BPR factorization model (one instance per retailer)."""

    def __init__(
        self,
        catalog: Catalog,
        taxonomy: Taxonomy,
        params: BPRHyperParams,
    ):
        self.retailer_id = catalog.retailer_id
        self.params = params
        self.n_items = len(catalog)
        self._rng = make_rng(params.seed)

        self._build_feature_maps(catalog, taxonomy)
        self._init_parameters()
        self.optimizer: Optimizer = make_optimizer(params.optimizer, params.learning_rate)
        self.optimizer.register_flat(self._layout)
        #: Cached effective-item matrix; ``None`` whenever parameters have
        #: changed since the last assembly.  Every internal update path
        #: invalidates it; external code mutating parameter arrays directly
        #: must call :meth:`invalidate_cache` itself.
        self._phi_cache: Optional[np.ndarray] = None
        #: Pool sizes at or above this rebuild the full cache in
        #: ``score_items`` instead of stacking per item; smaller pools (the
        #: negative samplers' mid-training calls) stay on the cheap path.
        self._cache_pool_threshold = 32

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_feature_maps(self, catalog: Catalog, taxonomy: Taxonomy) -> None:
        """Precompute per-item feature rows (ancestors, brand, price bucket).

        They land in one table, ``_item_features``: per item, its rows of
        ``_features`` (the taxonomy, brand and price embeddings end to end)
        padded with -1 — ancestors nearest first, then brand, then price
        bucket, the order their vectors are added.  One gather and one
        ``np.nonzero`` list a batch's feature rows in that order.
        """
        params = self.params
        # Taxonomy: the root is excluded — it is shared by everything and
        # would only add a global constant vector.  A category's index
        # number is its ``taxonomy_embeddings`` row.
        index = taxonomy.index()
        self._n_categories = len(index.categories)
        item_cat = np.full(self.n_items, -1, dtype=np.int64)
        if params.use_taxonomy:
            known = index.item_cat[: self.n_items]
            item_cat[: known.size] = known
        # Kept beside the table so one item's rows are a slice, not a
        # filter over the padding.
        self._anc_counts = np.where(item_cat >= 0, index.cat_depth[item_cat], 0)
        # Column j of an item is its category's root-first row at depth - j.
        columns = self._anc_counts[:, None] - np.arange(self._anc_counts.max(initial=0))
        rows = index.cat_ancestors[item_cat[:, None], np.maximum(columns, 0)]

        # Brand: vocabulary row per item, -1 where missing or disabled.
        # The catalog's columns are built once and shared by every model.
        attributes = catalog.columns
        brands = list(attributes.brand_vocabulary) if params.use_brand else []
        self._brand_vocab: List[str] = brands
        if params.use_brand:
            item_brand = attributes.brand_codes
        else:
            item_brand = np.full(self.n_items, -1, dtype=np.int64)

        # Price: quantile buckets over log-price, -1 where missing/disabled.
        prices = attributes.prices
        self._price_edges = _price_bucket_edges(prices, params.n_price_buckets)
        if params.use_price and self._price_edges.size > 0:
            item_price = _bucketize(prices, self._price_edges)
        else:
            item_price = np.full(self.n_items, -1, dtype=np.int64)

        n_taxonomy = self._n_categories if params.use_taxonomy else 0
        n_brand = len(brands)
        self._item_features = np.concatenate(
            [
                np.where(columns > 0, rows, -1),
                np.where(item_brand >= 0, item_brand + n_taxonomy, -1)[:, None],
                np.where(item_price >= 0, item_price + n_taxonomy + n_brand, -1)[:, None],
            ],
            axis=1,
        )

    @property
    def _item_brand(self) -> np.ndarray:
        """``brand_embeddings`` row per item, -1 where it has none."""
        rows = self._item_features[:, -2]
        return np.where(rows >= 0, rows - self.taxonomy_embeddings.shape[0], -1)

    @property
    def _item_price_bucket(self) -> np.ndarray:
        """``price_embeddings`` row per item, -1 where it has none."""
        rows = self._item_features[:, -1]
        offset = self.taxonomy_embeddings.shape[0] + self.brand_embeddings.shape[0]
        return np.where(rows >= 0, rows - offset, -1)

    def _init_parameters(self) -> None:
        """Lay the tables out in one flat buffer and draw them into it.

        Buffer order is item, context, taxonomy, brand, price, bias, so the
        five ``F``-wide tables are one ``(rows, F)`` matrix, ``_rows``; the
        draws come off ``_rng`` in the order item, context, taxonomy,
        brand, price.
        """
        params = self.params
        dim = params.n_factors
        n_buckets = max(0, self._price_edges.size - 1)
        heights = {
            "item": self.n_items,
            "context": self.n_items,
            "taxonomy": self._n_categories if params.use_taxonomy else 0,
            "brand": len(self._brand_vocab),
            "price": n_buckets if params.use_price else 0,
        }
        layout: Layout = {}
        offset = 0
        for name, height in heights.items():
            layout[name] = (offset, (height, dim))
            offset += height * dim
        layout["bias"] = (offset, (self.n_items,))
        self._layout = {name: layout[name] for name in _TABLES}
        self._buffer = np.zeros(offset + self.n_items, dtype=np.float64)
        self._bind_views()
        tables = self._parameters()
        for name in heights:
            # ``normal(0, s)`` is ``0.0 + s * z`` per draw; drawn in place,
            # with no table-sized temporary beside the buffer.
            self._rng.standard_normal(out=tables[name])
            tables[name] *= params.init_scale
            tables[name] += 0.0

    def _bind_views(self) -> None:
        """Point every table attribute at its range of ``_buffer``."""
        for name, table in carve(self._buffer, self._layout).items():
            setattr(self, _TABLES[name], table)
        self._rows = self._buffer[: self._layout["bias"][0]].reshape(-1, self.params.n_factors)
        self._features = self._rows[2 * self.n_items :]
        self._item_ancestors = self._item_features[:, :-2]

    def __getstate__(self) -> Dict[str, object]:
        # A copy carries the buffer once; views copied one by one would
        # each become an array of their own, and training would stop
        # reaching them.
        state = self.__dict__.copy()
        for name in (*_TABLES.values(), "_rows", "_features", "_item_ancestors"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._bind_views()

    def _parameters(self) -> Dict[str, np.ndarray]:
        """The six tables, views of ``_buffer``, in :data:`_TABLES` order."""
        return {name: getattr(self, attribute) for name, attribute in _TABLES.items()}

    # ------------------------------------------------------------------
    # Embedding assembly
    # ------------------------------------------------------------------
    def item_ancestor_rows(self, item_index: int) -> np.ndarray:
        """Taxonomy embedding rows contributing to one item (may be empty)."""
        return self._item_ancestors[item_index, : self._anc_counts[item_index]]

    def invalidate_cache(self) -> None:
        """Drop the cached effective-item matrix (call after any update)."""
        self._phi_cache = None

    def effective_item_matrix(self) -> np.ndarray:
        """Effective vectors for all items at once (used by batch inference).

        The result is cached until the next parameter update; treat the
        returned array as read-only.  Feature vectors are added
        :data:`_ASSEMBLY_SLICE` items at a time; rows are independent, so
        the slicing changes no sum.
        """
        if self._phi_cache is not None:
            return self._phi_cache
        matrix = self.item_embeddings.copy()
        for start in range(0, self.n_items, _ASSEMBLY_SLICE):
            stop = min(start + _ASSEMBLY_SLICE, self.n_items)
            self._add_feature_vectors(matrix[start:stop], np.arange(start, stop))
        self._phi_cache = matrix
        return matrix

    def effective_item_vectors(self, items: np.ndarray) -> np.ndarray:
        """Effective vectors for a batch of item indices (``len(items) x F``).

        Item embedding plus every active feature embedding (taxonomy
        ancestors, brand, price bucket).
        """
        items = np.asarray(items, dtype=np.int64)
        vectors = self.item_embeddings.take(items, axis=0)
        self._add_feature_vectors(vectors, items)
        return vectors

    def _add_feature_vectors(self, vectors: np.ndarray, items: np.ndarray) -> None:
        """Add every feature vector of ``items[r]`` to ``vectors[r]``.

        One column of ``_item_features`` at a time (nearest ancestor first,
        then brand, then price), so each row receives its feature vectors
        in the order a per-item walk adds them; a row with no feature in a
        column is left as it is.  Its gathers are a column of rows, never
        every feature row of ``items`` at once.
        """
        if not self._features.shape[0]:
            return
        for column in self._item_features.take(items, axis=0).T:
            np.add(
                vectors,
                self._features.take(column, axis=0),
                out=vectors,
                where=(column >= 0)[:, None],
            )

    def context_weights(self, context: UserContext) -> np.ndarray:
        """Decayed (and optionally event-weighted) weights, normalized to 1."""
        size = len(context)
        if size == 0:
            return np.zeros(0)
        if size == 1:
            # decay**0 == 1 and w / w == 1 exactly: skip the arithmetic.
            # Single-item contexts are the whole offline-inference workload.
            return np.ones(1)
        ages = np.arange(size - 1, -1, -1, dtype=np.float64)
        weights = self.params.context_decay ** ages
        if self.params.event_weighting:
            weights = weights * np.array(
                [EVENT_CONTEXT_WEIGHT[event] for event in context.events]
            )
        total = weights.sum()
        return weights / total if total > 0 else weights

    def context_weights_csr(self, indptr: np.ndarray, events: np.ndarray) -> np.ndarray:
        """:meth:`context_weights` of many contexts, end to end.

        Context ``b`` is ``events[indptr[b]:indptr[b + 1]]`` (event codes).
        The contexts of one length ``L >= 2`` are weighted as one
        ``(contexts, L)`` block: the same products, a row sum that is
        numpy's pairwise sum along each row (the sum of the one-context
        call), and the same division, so every weight is bit for bit the
        one :meth:`context_weights` gives.  A total is never 0: the newest
        action weighs ``decay ** 0`` times an event weight >= 1.
        """
        weights = np.ones(events.size)
        lengths = np.diff(indptr)
        for length in np.unique(lengths[lengths >= 2]).tolist():
            at = indptr[:-1][lengths == length][:, None] + np.arange(length)
            ages = np.arange(length - 1, -1, -1, dtype=np.float64)
            block = self.params.context_decay ** ages
            if self.params.event_weighting:
                block = block * _EVENT_WEIGHTS[events[at]]
            weights[at] = block / block.sum(axis=-1, keepdims=True)
        return weights

    def user_embedding(self, context: UserContext) -> np.ndarray:
        """Eq. 1: decayed linear combination of context embeddings."""
        if len(context) == 0:
            return np.zeros(self.params.n_factors)
        rows = np.asarray(context.item_indices, dtype=np.int64)
        return self.context_weights(context) @ self.context_embeddings[rows]

    def user_embedding_batch(self, contexts: Sequence[UserContext]) -> np.ndarray:
        """Eq. 1 for a batch of contexts at once: a ``(B, d)`` matrix.

        Contexts are flattened into one CSR segment list and combined with
        a single scatter-add — the scoring-time analogue of the CSR
        contexts a :class:`PositivePlan` trains on.  Empty contexts produce
        zero rows, exactly like :meth:`user_embedding`.
        """
        batch = len(contexts)
        users = np.zeros((batch, self.params.n_factors))
        if batch == 0:
            return users
        row_chunks: List[np.ndarray] = []
        weight_chunks: List[np.ndarray] = []
        counts = np.zeros(batch, dtype=np.int64)
        for position, context in enumerate(contexts):
            if len(context) == 0:
                continue
            counts[position] = len(context)
            row_chunks.append(np.asarray(context.item_indices, dtype=np.int64))
            weight_chunks.append(self.context_weights(context))
        if not row_chunks:
            return users
        rows = np.concatenate(row_chunks)
        weights = np.concatenate(weight_chunks)
        owners = np.repeat(np.arange(batch), counts)
        scatter_add_rows(
            users, owners, weights[:, None] * self.context_embeddings[rows]
        )
        return users

    def query_users(self, query: np.ndarray) -> np.ndarray:
        """Eq. 1 for one action on each of the ``query`` items: a ``(B, d)``
        matrix, row ``r`` the context row of ``query[r]``.

        One action weighs 1.0 whatever its event (:meth:`context_weights`),
        so this is :meth:`user_embedding_batch`'s scatter of each row into
        zeros, ``0.0 + row`` (a ``-0.0`` comes out ``0.0``), as one gather.
        """
        users = self.context_embeddings.take(query, axis=0)
        users += 0.0
        return users

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    def score_items(
        self, context: UserContext, item_indices: Sequence[int]
    ) -> np.ndarray:
        # Any integer ndarray takes the fast path; float ndarrays raise
        # instead of being silently truncated to wrong item indices.
        items = _as_item_array(item_indices)
        if items.size == 0:
            return np.zeros(0, dtype=np.float64)
        user = self.user_embedding(context)
        if self._phi_cache is not None or items.size >= self._cache_pool_threshold:
            vectors = self.effective_item_matrix()[items]
        else:
            vectors = self.effective_item_vectors(items)
        return vectors @ user + self.item_bias[items]

    def score_all(self, context: UserContext) -> np.ndarray:
        user = self.user_embedding(context)
        return self.effective_item_matrix() @ user + self.item_bias

    def score_contexts(
        self,
        contexts: Sequence[UserContext],
        item_indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Dense batched scoring: one ``U @ V_eff.T`` GEMM for the batch.

        The evaluation hot path — ``B`` user rows against the (cached)
        effective-item matrix, or one shared column subset of it, in a
        single BLAS call instead of ``B`` Python-level ``score_all``
        round trips.
        """
        contexts = list(contexts)
        users = self.user_embedding_batch(contexts)
        phi = self.effective_item_matrix()
        if item_indices is None:
            return users @ phi.T + self.item_bias
        items = _as_item_array(item_indices)
        if items.size == 0:
            return np.zeros((len(contexts), 0), dtype=np.float64)
        return users @ phi[items].T + self.item_bias[items]

    def _score_queries(
        self,
        query: np.ndarray,
        event: EventType,
        items: np.ndarray,
        owners: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Ragged batched scoring: the flat pairs against
        :meth:`query_users` (the event of one action changes no weight).

        The offline-inference hot path — every ``(query, item)`` pair is
        one row of ``einsum("ij,ij->i", phi[items], users[owners])``, so
        the work is the number of pairs asked for.  Each pair's dot product
        reads only its own two rows, so a row's scores do not depend on
        what else is in the batch.
        """
        return self._score_user_pairs(self.query_users(query), items, owners)

    def _score_user_pairs(
        self, users: np.ndarray, items: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """``phi[items[i]] . users[owners[i]] + bias[items[i]]`` per pair,
        :data:`_PAIR_SLICE` pairs per gather."""
        scores = np.empty(items.size, dtype=np.float64)
        phi = self.effective_item_matrix()
        for start in range(0, items.size, _PAIR_SLICE):
            stop = start + _PAIR_SLICE
            chunk = items[start:stop]
            # take() gathers rows about twice as fast as phi[chunk].
            scores[start:stop] = np.einsum(
                "ij,ij->i",
                phi.take(chunk, axis=0),
                users.take(owners[start:stop], axis=0),
            ) + self.item_bias.take(chunk)
        return scores

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def step_planned(
        self, positive: "PositivePlan", k: int, negative: "NegativePlan", j: int
    ) -> np.ndarray:
        """The update of batch ``k`` of ``positive`` against batch ``j`` of
        ``negative``; returns the per-example log losses.

        Every index is read off the plans, so the step is gathers of
        parameter rows, the arithmetic, and two flat optimizer steps over
        ``_buffer``.  Gradients are scattered so that duplicate rows sum
        (standard mini-batch semantics):

        * **A** — item, bias and context rows, and the positive side's
          feature rows.  Their gradients read only pre-batch values.
        * **B** — the negative side's feature rows, whose regularizer
          reads what step A wrote to the feature tables.

        Tables are disjoint ranges of the buffer and each table's rows keep
        their order (in the item table the positives come before the
        negatives), so every element receives the same additions in the
        same sequence as one step per table and side (the frozen order of
        ``tests/reference_batched_sgd.py``).
        """
        params = self.params
        width = params.n_factors
        lo, hi = positive.bounds[k], positive.bounds[k + 1]
        r0, r1 = positive.row_bounds[k], positive.row_bounds[k + 1]
        c0, c1 = positive.context_bounds[k], positive.context_bounds[k + 1]
        f0, f1 = positive.feature_bounds[k], positive.feature_bounds[k + 1]
        n0, n1 = negative.bounds[j], negative.bounds[j + 1]
        g0, g1 = negative.feature_bounds[j], negative.feature_bounds[j + 1]
        batch = hi - lo
        items = 2 * batch  # step A's item rows; then context rows, feature rows
        features = items + c1 - c0

        # Every row step A touches, at its pre-batch value.
        rows = np.concatenate(
            (positive.items[lo:hi], negative.items[n0:n1], positive.rows[r0:r1])
        )
        taken = self._rows.take(rows, axis=0)
        bias_index = np.concatenate(
            (positive.bias_index[lo:hi], negative.bias_index[n0:n1])
        )
        biases = self._buffer.take(bias_index)

        # User embeddings (Eq. 1), one segment-sum per batch.
        users = np.zeros((batch, width))
        if c1 > c0:
            np.add.at(
                users.reshape(-1),
                _expand(positive.owners[c0:c1], positive.span),
                (positive.weights[c0:c1, None] * taken[items:features]).reshape(-1),
            )
        # Both item sides in one assembly: rows are independent.
        phi = taken[:items].copy()
        if f1 > f0 or g1 > g0:
            np.add.at(
                phi.reshape(-1),
                _expand(
                    np.concatenate(
                        (positive.feature_slots[f0:f1], negative.feature_slots[g0:g1])
                    ),
                    positive.span,
                ),
                np.concatenate(
                    (
                        taken[features:],
                        self._rows.take(negative.feature_rows[g0:g1], axis=0),
                    )
                ).reshape(-1),
            )
        difference = phi[:batch] - phi[batch:]
        z = np.einsum("bf,bf->b", users, difference) + (biases[:batch] - biases[batch:])
        z_clipped = np.clip(z, -35.0, 35.0)
        e = 1.0 / (1.0 + np.exp(z_clipped))  # sigma(-z), per example
        # ``e * u`` (rows ``:batch``) and ``e * (phi_i - phi_j)``: what a
        # planned row's ``sources`` entry points at.
        source = np.concatenate((e[:, None] * users, e[:, None] * difference))
        scaled_user = source[:batch]

        # Step A.  Item rows: positives ascend, negatives descend.  Context
        # rows: the gradient of u distributes over them.  Positive feature
        # rows: the positives' gradient, once per row.
        grads = np.concatenate(
            (scaled_user, -scaled_user, source.take(positive.sources[r0:r1], axis=0))
        )
        grads[items:features] *= positive.weights[c0:c1, None]
        grads[:items] -= params.reg_item * taken[:items]
        grads[items:features] -= params.reg_context * taken[items:features]
        grads[features:] -= params.reg_features * taken[features:]
        bias_grads = np.concatenate((e, -e)) - params.reg_bias * biases
        self.optimizer.step_flat(
            self._buffer,
            np.concatenate((flat_row_index(rows, width), bias_index)),
            np.concatenate((grads.reshape(-1), bias_grads)),
        )

        # Step B.  Negative feature rows: the negatives' gradient (``-1.0 *``
        # as the per-table step wrote it; ``-x`` would flip a NaN's sign).
        if g1 > g0:
            rows = negative.feature_rows[g0:g1]
            grads = (
                -1.0 * scaled_user.take(negative.feature_sources[g0:g1], axis=0)
                - params.reg_features * self._rows.take(rows, axis=0)
            )
            self.optimizer.step_flat(
                self._buffer, flat_row_index(rows, width), grads.reshape(-1)
            )

        self.invalidate_cache()
        return np.log1p(np.exp(-z_clipped))

    # ------------------------------------------------------------------
    # State management (checkpointing & incremental training)
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, np.ndarray]:
        """Deep copies of all learned parameters (checkpoint payload)."""
        return {name: param.copy() for name, param in self._parameters().items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`get_state` output.

        Validates every entry before assigning any, so a bad state dict
        (missing parameter, shape mismatch) leaves the model untouched
        instead of half-loaded — the property the checkpoint-restore
        path relies on to fall back to cold start cleanly.
        """
        parameters = self._parameters()
        for name, param in parameters.items():
            if name not in state:
                raise ConfigError(f"checkpoint missing parameter {name!r}")
            if state[name].shape != param.shape:
                raise ConfigError(
                    f"checkpoint parameter {name!r} has shape {state[name].shape}, "
                    f"model expects {param.shape}"
                )
        for name, param in parameters.items():
            param[...] = state[name]
        self.invalidate_cache()

    def warm_start_from(self, other: "BPRModel") -> int:
        """Copy overlapping parameter rows from a previous day's model.

        Item indices are append-only in Sigmund (new items get new ids),
        so copying row prefixes transfers every surviving item's embedding;
        rows beyond the old model's size keep their fresh random init.
        Returns the number of item rows copied.  Adagrad norms are *not*
        copied — the paper resets them before incremental runs.
        """
        state = other._parameters()
        copied = 0
        for name, param in self._parameters().items():
            source = state.get(name)
            if source is None or source.ndim != param.ndim:
                continue
            if param.ndim == 1:
                rows = min(param.shape[0], source.shape[0])
                param[:rows] = source[:rows]
            else:
                if param.shape[1] != source.shape[1]:
                    continue  # factor count changed; keep fresh init
                rows = min(param.shape[0], source.shape[0])
                param[:rows] = source[:rows]
            if name == "item":
                copied = rows
        self.optimizer.reset_norms()
        self.invalidate_cache()
        return copied

    def memory_bytes(self) -> int:
        """Approximate resident size of the model (cluster-sim scheduling)."""
        return (
            sum(param.nbytes for param in self._parameters().values())
            + self.optimizer.state_size_bytes()
        )


def _batches(size: int, batch_size: int) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """``(bounds, batch, slot)`` for ``size`` examples cut into batches of
    ``batch_size``: batch ``k`` is ``bounds[k]:bounds[k + 1]``, and example
    ``x`` is row ``slot[x]`` of batch ``batch[x]``."""
    batch, slot = np.divmod(np.arange(size, dtype=np.int64), batch_size)
    return [*range(0, size, batch_size), size], batch, slot


def _expand(bases: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Element indices of the rows starting at ``bases``: one broadcast add."""
    return (bases[:, None] + span).reshape(-1)


class PositivePlan:
    """The positive side of a window of batches, planned once.

    A window is a run of consecutive batches of one epoch.  This holds what
    their steps read that is no parameter: the positives (``items``) and
    their bias elements, each context row's weight and owner, the
    positives' feature rows and the phi row each one adds to, and the rest
    of step A's row list — per batch its context rows, then its feature
    rows (``_rows`` indices), each with the slot of its gradient source
    (``e * u`` or ``e * (phi_i - phi_j)``).  Batch ``k`` is
    ``items[bounds[k]:bounds[k + 1]]``.

    Indices are kept per row, not per element: :meth:`BPRModel.step_planned`
    expands a batch's rows to element indices with one broadcast add, so a
    window costs a few arrays of its rows and not ``n_factors`` times that.
    """

    def __init__(
        self,
        model: BPRModel,
        contexts_csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        positives: np.ndarray,
        batch_size: int,
    ):
        indptr, ctx_rows, ctx_weights = contexts_csr
        n, width = model.n_items, model.params.n_factors
        self.items = positives
        self.span = np.arange(width)
        bounds, batch, slot = _batches(positives.size, batch_size)
        self.bounds = bounds
        self.bias_index = model._layout["bias"][0] + positives

        # Contexts: each row's weight and the element base of its user row.
        owner = np.repeat(np.arange(positives.size), np.diff(indptr))
        self.weights = ctx_weights
        self.owners = slot[owner] * width
        self.context_bounds = indptr[bounds].tolist()

        # The positives' feature rows, and the element base of their phi row.
        table = model._item_features.take(positives, axis=0)
        found = table >= 0
        example = np.nonzero(found)[0]
        self.feature_slots = slot[example] * width
        self.feature_bounds = np.searchsorted(example, bounds).tolist()

        # Batch by batch, the context rows then the feature rows: a stable
        # sort on the batch number.  A context row's source is its owner's
        # ``e * (phi_i - phi_j)``, after the batch's ``e * u`` rows.
        order = np.argsort(np.concatenate((batch[owner], batch[example])), kind="stable")
        self.rows = np.concatenate((ctx_rows + n, table[found] + 2 * n))[order]
        self.sources = np.concatenate(
            (np.diff(bounds)[batch[owner]] + slot[owner], slot[example])
        )[order]
        self.row_bounds = [
            contexts + features
            for contexts, features in zip(self.context_bounds, self.feature_bounds)
        ]

    @property
    def n_batches(self) -> int:
        return len(self.bounds) - 1


class NegativePlan:
    """The negative side of one or more batches, planned where it is drawn.

    The negatives (``items``) and their bias elements, their feature rows
    (``_rows`` indices), and per feature row its slot in the batch and the
    element base of its phi row (after the batch's positives).  A sampler
    that reads no parameter draws a whole epoch up front and is planned a
    window at a time; one that scores with the live model is planned a
    batch at a time.  Batch ``j`` is ``items[bounds[j]:bounds[j + 1]]``.
    """

    def __init__(self, model: BPRModel, negatives: np.ndarray, batch_size: int):
        width = model.params.n_factors
        self.items = negatives
        bounds, batch, slot = _batches(negatives.size, batch_size)
        self.bounds = bounds
        self.bias_index = model._layout["bias"][0] + negatives
        table = model._item_features.take(negatives, axis=0)
        found = table >= 0
        example = np.nonzero(found)[0]
        self.feature_rows = table[found] + 2 * model.n_items
        self.feature_sources = slot[example]
        self.feature_slots = (np.diff(bounds)[batch[example]] + slot[example]) * width
        self.feature_bounds = np.searchsorted(example, bounds).tolist()


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each ``(s, c)`` pair, vectorized.

    The standard CSR multi-range gather: for starts ``[2, 7]`` and counts
    ``[3, 2]`` the result is ``[2, 3, 4, 7, 8]``.  Used to pull many
    examples' context slices in one shot.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    if ends.size == 0 or ends[-1] == 0:
        return np.zeros(0, dtype=np.int64)
    # Range r covers output slots [ends[r] - counts[r], ends[r]).
    shifts = np.asarray(starts, dtype=np.int64) - (ends - counts)
    return np.arange(ends[-1], dtype=np.int64) + np.repeat(shifts, counts)


def _price_bucket_edges(prices: np.ndarray, n_buckets: int) -> np.ndarray:
    """Quantile bucket edges over log-price; empty when no prices exist."""
    known = prices[~np.isnan(prices)]
    if known.size < 2 or n_buckets < 1:
        return np.zeros(0)
    log_prices = np.log1p(known)
    edges = np.quantile(log_prices, np.linspace(0.0, 1.0, n_buckets + 1))
    return np.unique(edges)


def _bucketize(prices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bucket index per item (-1 where the price is missing)."""
    buckets = np.full(prices.shape[0], -1, dtype=np.int64)
    known = ~np.isnan(prices)
    if edges.size < 2:
        return buckets
    positions = np.searchsorted(edges, np.log1p(prices[known]), side="right") - 1
    buckets[known] = np.clip(positions, 0, edges.size - 2)
    return buckets
