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

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.catalog import Catalog
from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.data.taxonomy import Taxonomy
from repro.exceptions import ConfigError
from repro.models.base import Recommender, _as_item_array
from repro.models.optim import Optimizer, make_optimizer, scatter_add_rows
from repro.rng import make_rng

#: Context weights scale with event strength when event weighting is on —
#: a carted item says more about the user than a viewed one.
EVENT_CONTEXT_WEIGHT: Dict[EventType, float] = {
    EventType.VIEW: 1.0,
    EventType.SEARCH: 1.5,
    EventType.CART: 2.0,
    EventType.CONVERSION: 2.5,
}

#: Pairs scored per gather in :meth:`BPRModel.score_pairs`.  Both operands
#: of the dot are gathered (``2 x slice x F`` doubles live at once), so the
#: slice — not ``B x n`` — bounds the scratch memory of a batch of explicit
#: catalog-sized pools.  Sized on perfbench: at 8 192 pairs and above
#: ``dense_full_zipf_hot`` ``day_peak_rss_mb`` sat 0.5 MB (1 %) over the
#: union-GEMM kernel this replaced (52.9 vs 52.4-52.6), at 4 096 it is
#: 52.3-52.4, and a 5 000-item retailer's inference runs as fast at 4 096
#: as at 16 384 (0.41 s a pass; 0.44 s at 1 024, 0.70 s at 65 536).
_PAIR_SLICE = 4_096


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

    def with_seed(self, seed: int) -> "BPRHyperParams":
        return replace(self, seed=seed)

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
        for name, param in self._parameters().items():
            self.optimizer.register(name, param)
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
        """Precompute per-item feature rows (ancestors, brand, price bucket)."""
        params = self.params
        # Taxonomy: per-item ancestor rows, nearest first, as one table
        # padded with -1 on the right so a batch of items is one gather.
        # The root is excluded — it is shared by everything and would only
        # add a global constant vector.  A category's index number is its
        # ``taxonomy_embeddings`` row.
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
        self._item_ancestors = np.where(columns > 0, rows, -1)

        # Brand: vocabulary row per item, -1 where missing or disabled.
        brands = catalog.brand_vocabulary() if params.use_brand else []
        self._brand_vocab: List[str] = brands
        brand_row = {brand: row for row, brand in enumerate(brands)}
        self._item_brand = np.array(
            [
                brand_row.get(item.brand, -1) if item.brand is not None else -1
                for item in catalog
            ],
            dtype=np.int64,
        )

        # Price: quantile buckets over log-price, -1 where missing/disabled.
        prices = catalog.prices()
        self._price_edges = _price_bucket_edges(prices, params.n_price_buckets)
        if params.use_price and self._price_edges.size > 0:
            self._item_price_bucket = _bucketize(prices, self._price_edges)
        else:
            self._item_price_bucket = np.full(self.n_items, -1, dtype=np.int64)

    def _init_parameters(self) -> None:
        params = self.params
        scale = params.init_scale
        dim = params.n_factors
        rng = self._rng

        def init(rows: int) -> np.ndarray:
            return rng.normal(0.0, scale, size=(rows, dim))

        self.item_embeddings = init(self.n_items)
        self.context_embeddings = init(self.n_items)
        self.item_bias = np.zeros(self.n_items, dtype=np.float64)
        self.taxonomy_embeddings = (
            init(self._n_categories) if params.use_taxonomy else np.zeros((0, dim))
        )
        self.brand_embeddings = (
            init(len(self._brand_vocab)) if self._brand_vocab else np.zeros((0, dim))
        )
        n_buckets = max(0, self._price_edges.size - 1)
        self.price_embeddings = (
            init(n_buckets) if params.use_price and n_buckets else np.zeros((0, dim))
        )

    def _parameters(self) -> Dict[str, np.ndarray]:
        return {
            "item": self.item_embeddings,
            "context": self.context_embeddings,
            "bias": self.item_bias,
            "taxonomy": self.taxonomy_embeddings,
            "brand": self.brand_embeddings,
            "price": self.price_embeddings,
        }

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
        returned array as read-only.
        """
        if self._phi_cache is not None:
            return self._phi_cache
        self._phi_cache = self.effective_item_vectors(np.arange(self.n_items))
        return self._phi_cache

    def _item_feature_rows(
        self, items: np.ndarray
    ) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        """``(table, positions, rows)`` per feature table ``items`` touch.

        ``table`` is a :meth:`_parameters` key, ``positions`` index into
        ``items`` in ascending order (an item repeats once per taxonomy
        ancestor, nearest first) and ``rows`` are the matching rows of
        that table.  Tables are listed in the order their vectors are
        added: taxonomy, brand, price.
        """
        found = []
        ancestors = self._item_ancestors[items]
        is_row = ancestors >= 0
        if is_row.any():
            found.append(("taxonomy", np.nonzero(is_row)[0], ancestors[is_row]))
        for table, item_rows in (
            ("brand", self._item_brand),
            ("price", self._item_price_bucket),
        ):
            rows = item_rows[items]
            positions = np.flatnonzero(rows >= 0)
            if positions.size:
                found.append((table, positions, rows[positions]))
        return found

    def effective_item_vectors(self, items: np.ndarray) -> np.ndarray:
        """Effective vectors for a batch of item indices (``len(items) x F``).

        Item embedding plus every active feature embedding (taxonomy
        ancestors, brand, price bucket): one gather per feature table.
        """
        items = np.asarray(items, dtype=np.int64)
        return self._assemble_item_vectors(items, self._item_feature_rows(items))

    def _assemble_item_vectors(
        self,
        items: np.ndarray,
        feature_rows: List[Tuple[str, np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Item embeddings plus the vectors of their ``feature_rows``."""
        tables = self._parameters()
        vectors = self.item_embeddings[items]
        for table, positions, rows in feature_rows:
            scatter_add_rows(vectors, positions, tables[table][rows])
        return vectors

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

    def user_embedding(self, context: UserContext) -> np.ndarray:
        """Eq. 1: decayed linear combination of context embeddings."""
        if len(context) == 0:
            return np.zeros(self.params.n_factors)
        rows = np.asarray(context.item_indices, dtype=np.int64)
        return self.context_weights(context) @ self.context_embeddings[rows]

    def user_embedding_batch(self, contexts: Sequence[UserContext]) -> np.ndarray:
        """Eq. 1 for a batch of contexts at once: a ``(B, d)`` matrix.

        Contexts are flattened into one CSR segment list and combined with
        a single scatter-add — the inference-time analogue of the CSR
        layout :meth:`sgd_step_batch` trains on.  Empty contexts produce
        zero rows, exactly like :meth:`user_embedding`.
        """
        batch = len(contexts)
        users = np.zeros((batch, self.params.n_factors))
        if batch == 0:
            return users
        if all(len(context) == 1 for context in contexts):
            # Offline inference: every weight is 1.0 (:meth:`context_weights`)
            # and the scatter-add below would be ``0.0 + row`` per context.
            rows = [context.item_indices[0] for context in contexts]
            return users + self.context_embeddings[np.array(rows, dtype=np.int64)]
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

    def score_pairs(
        self,
        contexts: Sequence[UserContext],
        items: np.ndarray,
        owners: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Ragged batched scoring: one gather-and-dot over the flat pairs.

        The offline-inference hot path — every ``(context, item)`` pair is
        one row of ``einsum("ij,ij->i", phi[items], users[owners])``, so
        the work is the number of pairs asked for.  Each pair's dot product
        reads only its own two rows, so a row's scores do not depend on
        what else is in the batch.
        """
        scores = np.empty(items.size, dtype=np.float64)
        if items.size:
            users = self.user_embedding_batch(contexts)
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
    def sgd_step_batch(
        self,
        contexts_csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> np.ndarray:
        """Mini-batch BPR update; returns the per-example log losses.

        ``contexts_csr`` is ``(indptr, rows, weights)``: example ``b``'s
        context occupies ``rows[indptr[b]:indptr[b+1]]`` with the matching
        (decayed, event-weighted, normalized) ``weights`` — exactly what
        :meth:`context_weights` produces per example.

        This is the model's only update.  All gradients are evaluated at
        the pre-batch parameters and scattered so that duplicate rows sum
        (standard mini-batch semantics); a batch of one non-colliding
        triple is the module docstring's per-triple rule, which
        ``tests/reference_scalar_sgd.py`` writes out row by row as the
        oracle.
        """
        indptr, ctx_rows, ctx_weights = contexts_csr
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        batch = positives.size
        if indptr.size != batch + 1 or negatives.size != batch:
            raise ValueError(
                f"batch shape mismatch: {batch} positives, {negatives.size} "
                f"negatives, indptr of size {indptr.size} (want batch + 1)"
            )
        if batch == 0:
            return np.zeros(0, dtype=np.float64)

        # User embeddings (Eq. 1), one segment-sum per batch.
        counts = np.diff(indptr)
        users = np.zeros((batch, self.params.n_factors))
        if ctx_rows.size:
            owners = np.repeat(np.arange(batch), counts)
            scatter_add_rows(
                users,
                owners,
                ctx_weights[:, None] * self.context_embeddings[ctx_rows],
            )

        # Both item sides in one assembly: rows are independent, and the
        # feature-row lookup is reused by the feature-table updates below.
        items = np.concatenate([positives, negatives])
        feature_rows = self._item_feature_rows(items)
        phi = self._assemble_item_vectors(items, feature_rows)
        phi_pos, phi_neg = phi[:batch], phi[batch:]
        z = np.einsum("bf,bf->b", users, phi_pos - phi_neg) + (
            self.item_bias[positives] - self.item_bias[negatives]
        )
        z_clipped = np.clip(z, -35.0, 35.0)
        e = 1.0 / (1.0 + np.exp(z_clipped))  # sigma(-z), per example

        params = self.params
        opt = self.optimizer
        scaled_user = e[:, None] * users  # (B, F)

        # Item embeddings: positive rows ascend, negative rows descend.
        item_grads = np.concatenate(
            [
                scaled_user - params.reg_item * self.item_embeddings[positives],
                -scaled_user - params.reg_item * self.item_embeddings[negatives],
            ]
        )
        opt.step_rows("item", self.item_embeddings, items, item_grads)

        # Feature tables: each item side distributes the same gradient over
        # its taxonomy/brand/price rows.  One step per side, positives
        # first: the negatives' regularizer reads what the positives wrote.
        positive_side, negative_side = [], []
        for table, positions, rows in feature_rows:
            cut = int(positions.searchsorted(batch))
            positive_side.append((table, positions[:cut], rows[:cut]))
            negative_side.append((table, positions[cut:] - batch, rows[cut:]))
        self._step_feature_rows(positive_side, scaled_user, +1.0)
        self._step_feature_rows(negative_side, scaled_user, -1.0)

        bias_grads = np.concatenate(
            [
                e - params.reg_bias * self.item_bias[positives],
                -e - params.reg_bias * self.item_bias[negatives],
            ]
        )
        opt.step_rows("bias", self.item_bias, items, bias_grads)

        # Context side: the gradient of u distributes over context rows.
        if ctx_rows.size:
            delta = e[:, None] * (phi_pos - phi_neg)  # (B, F)
            ctx_grads = (
                ctx_weights[:, None] * delta[owners]
                - params.reg_context * self.context_embeddings[ctx_rows]
            )
            opt.step_rows("context", self.context_embeddings, ctx_rows, ctx_grads)

        self.invalidate_cache()
        return np.log1p(np.exp(-z_clipped))

    def _step_feature_rows(
        self,
        feature_rows: List[Tuple[str, np.ndarray, np.ndarray]],
        scaled_user: np.ndarray,
        sign: float,
    ) -> None:
        """Feature-table updates for one item side of the triples.

        ``feature_rows`` is :meth:`_item_feature_rows` of that side's
        items, so positions index the examples of ``scaled_user``.
        """
        reg = self.params.reg_features
        tables = self._parameters()
        for table, owners, rows in feature_rows:
            if rows.size == 0:
                continue
            embeddings = tables[table]
            grads = sign * scaled_user[owners] - reg * embeddings[rows]
            self.optimizer.step_rows(table, embeddings, rows, grads)

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
        return self.warm_start_from_state(other._parameters())

    def warm_start_from_state(self, state: Dict[str, np.ndarray]) -> int:
        """:meth:`warm_start_from` against raw parameter arrays.

        Fleet workers receive yesterday's model as its :meth:`get_state`
        dict (the registry's live model object never crosses the process
        boundary), so the warm start must work from arrays alone.  Same
        row-prefix semantics and Adagrad norm reset as the model form.
        """
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
