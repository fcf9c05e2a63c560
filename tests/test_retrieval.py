"""ANN retrieval: IVF index invariants, recall harness, wiring.

The properties that make an *approximate* index admissible in a system
whose contract is determinism: rebuilds are byte-identical, full-probe
search degenerates to the exact baseline exactly (same ids, same order,
same tie-breaks), recall is monotone in ``nprobe``, and the recall gate
in the daily run keeps under-target indexes away from inference.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector
from repro.core.grid import GridSpec
from repro.core.recovery import KILL_STAGES, CrashPlan
from repro.core.service import SigmundService
from repro.core.training import TrainerSettings
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.exceptions import RetrievalError, SimulatedCrash
from repro.models.base import top_k_select
from repro.retrieval import (
    ExactRetrieval,
    IVFConfig,
    IVFIndex,
    ann_for_model,
    exact_for_model,
    recall_at_k,
)
from repro.retrieval.harness import (
    DEFAULT_ANN_THRESHOLD,
    measure_model_recall,
    synthetic_embeddings,
    synthetic_queries,
)
from repro.retrieval.ivf import default_n_clusters


def make_catalog(n_items=400, n_factors=8, seed=0):
    return synthetic_embeddings(n_items, n_factors, seed=seed)


# ----------------------------------------------------------------------
# top_k_select: the shared deterministic tie order
# ----------------------------------------------------------------------
class TestTopKSelectOrder:
    @given(
        scores=st.lists(
            st.sampled_from(
                [0.0, 1.0, 2.0, float("nan"), float("inf"), float("-inf")]
            ),
            min_size=0,
            max_size=40,
        ),
        k=st.integers(min_value=-2, max_value=45),
        tiebreak_seed=st.none() | st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_total_lexicographic_order(self, scores, k, tiebreak_seed):
        """Selection == prefix of the brute-force (score desc, tiebreak
        asc, NaN last) sort — ties, +-inf, NaN pivots, ``k >= n``,
        ``k <= 0`` and tiebreak keys in no particular order."""
        arr = np.asarray(scores, dtype=np.float64)
        if tiebreak_seed is None:
            tiebreak, keys = None, np.arange(arr.size)
        else:
            # Distinct, unsorted, and unrelated to position.
            keys = np.random.default_rng(tiebreak_seed).permutation(arr.size) * 3
            tiebreak = keys
        sel = top_k_select(arr, k, tiebreak=tiebreak)
        assert sel.dtype == np.int64
        assert sel.tolist() == np.lexsort((keys, -arr))[: max(k, 0)].tolist()

    def test_all_tied_returns_lowest_indices(self):
        sel = top_k_select(np.ones(10), 4)
        assert sel.tolist() == [0, 1, 2, 3]

    def test_custom_tiebreak_reorders_ties_only(self):
        scores = np.array([1.0, 1.0, 2.0, 1.0])
        tiebreak = np.array([30, 10, 99, 20])
        sel = top_k_select(scores, 4, tiebreak=tiebreak)
        assert sel.tolist() == [2, 1, 3, 0]

    def test_nan_ranks_strictly_worst(self):
        scores = np.array([np.nan, 0.5, np.nan, -4.0])
        assert top_k_select(scores, 4).tolist() == [1, 3, 0, 2]

    def test_pool_ties_break_by_item_index_not_pool_position(self):
        """Regression: ``_top_k`` used to break ties by argpartition's
        arbitrary pool position, so the same tied candidates could rank
        differently depending on how the pool happened to be ordered."""
        from repro.models.base import _top_k

        pool = np.array([9, 3, 7, 1])
        scores = np.ones(4)
        ranked = [s.item_index for s in _top_k(pool, scores, 2)]
        assert ranked == [1, 3]
        reordered = [
            s.item_index for s in _top_k(pool[::-1].copy(), scores, 2)
        ]
        assert reordered == ranked


# ----------------------------------------------------------------------
# IVF build invariants
# ----------------------------------------------------------------------
class TestIVFBuild:
    def test_rebuild_is_byte_identical(self):
        vectors, bias = make_catalog()
        first = IVFIndex.build(vectors, bias, IVFConfig(seed=5))
        second = IVFIndex.build(vectors, bias, IVFConfig(seed=5))
        assert first.state_digest() == second.state_digest()

    def test_inverted_lists_partition_the_catalog(self):
        vectors, bias = make_catalog()
        index = IVFIndex.build(vectors, bias)
        assert int(index.cluster_sizes().sum()) == index.n_items
        items = np.sort(index.state()["list_items"])
        assert items.tolist() == list(range(index.n_items))

    def test_zero_items_raise(self):
        with pytest.raises(RetrievalError):
            IVFIndex.build(np.empty((0, 4)))

    def test_single_item_catalog(self):
        index = IVFIndex.build(np.ones((1, 4)), np.array([0.5]))
        ids, scores = index.search(np.ones((1, 4)), k=3)
        assert ids.tolist() == [[0, -1, -1]]
        assert scores[0, 0] == pytest.approx(4.5)
        assert np.isnan(scores[0, 1:]).all()

    def test_duplicate_vectors_survive_empty_cluster_reseed(self):
        """More clusters than distinct points exercises the reseed path."""
        vectors = np.repeat(np.eye(3), 4, axis=0)  # 12 items, 3 distinct
        index = IVFIndex.build(vectors, config=IVFConfig(n_clusters=8))
        assert int(index.cluster_sizes().sum()) == 12
        ids, _ = index.search(np.eye(3), k=12, nprobe=index.n_clusters)
        assert (ids >= 0).all()

    def test_default_cluster_count_scales_with_sqrt(self):
        assert default_n_clusters(100) == 40
        assert default_n_clusters(1) == 4
        assert default_n_clusters(10**8) == 1024  # MAX_CLUSTERS cap


# ----------------------------------------------------------------------
# Search semantics
# ----------------------------------------------------------------------
class TestIVFSearch:
    @pytest.fixture(scope="class")
    def catalog(self):
        vectors, bias = make_catalog(n_items=300, seed=3)
        # Heavy quantization forces score ties, stressing the tie order.
        vectors = np.round(vectors * 2.0) / 2.0
        bias = np.round(bias, 1)
        index = IVFIndex.build(vectors, bias, IVFConfig(seed=3))
        exact = ExactRetrieval(vectors, bias)
        queries = synthetic_queries(vectors, 24, seed=4)
        return index, exact, queries

    def test_full_probe_equals_exact_byte_for_byte(self, catalog):
        index, exact, queries = catalog
        ann_ids, ann_scores = index.search(
            queries, k=20, nprobe=index.n_clusters
        )
        exact_ids, exact_scores = exact.search(queries, k=20)
        assert np.array_equal(ann_ids, exact_ids)
        np.testing.assert_allclose(ann_scores, exact_scores)

    def test_recall_monotone_in_nprobe(self, catalog):
        index, exact, queries = catalog
        recalls = [
            recall_at_k(index, exact, queries, 10, nprobe)
            for nprobe in (1, 2, 4, 8, index.n_clusters)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == pytest.approx(1.0)

    def test_k_zero_and_empty_batch(self, catalog):
        index, _, queries = catalog
        ids, scores = index.search(queries, k=0)
        assert ids.shape == (queries.shape[0], 0)
        ids, scores = index.search(np.empty((0, queries.shape[1])), k=5)
        assert ids.shape == (0, 5)

    @given(nprobe=st.integers(min_value=1, max_value=64), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_ids_always_valid_or_padding(self, nprobe, seed):
        vectors, bias = make_catalog(n_items=150, seed=seed)
        index = IVFIndex.build(vectors, bias, IVFConfig(seed=seed))
        ids, scores = index.search(vectors[:5], k=10, nprobe=nprobe)
        valid = ids >= 0
        assert ids[valid].max(initial=0) < index.n_items
        assert np.isnan(scores[~valid]).all()
        for row in ids:
            real = row[row >= 0]
            assert len(set(real.tolist())) == real.size  # no duplicates


# ----------------------------------------------------------------------
# Recall harness + the index threshold
# ----------------------------------------------------------------------
class TestHarness:
    def test_exact_vs_itself_is_perfect(self):
        vectors, bias = make_catalog(n_items=100)
        exact = ExactRetrieval(vectors, bias)
        queries = synthetic_queries(vectors, 8, seed=1)
        assert recall_at_k(exact, exact, queries, 10) == pytest.approx(1.0)

    def test_padding_never_counts_as_hit(self):
        class EmptyBackend:
            backend_name = "empty"
            n_items = 4

            def search(self, queries, k, nprobe=None):
                return (
                    np.full((queries.shape[0], k), -1, dtype=np.int64),
                    np.full((queries.shape[0], k), np.nan),
                )

        vectors, bias = make_catalog(n_items=4)
        exact = ExactRetrieval(vectors, bias)
        assert recall_at_k(EmptyBackend(), exact, vectors, 3) == 0.0

    def test_default_service_uses_the_constant_threshold(self):
        """The threshold is a constant; no bench artefact is read."""
        service = SigmundService(build_cluster(n_cells=1, machines_per_cell=1))
        assert service.retrieval_threshold == DEFAULT_ANN_THRESHOLD == 50_000


# ----------------------------------------------------------------------
# Model adapters (real trained BPR model)
# ----------------------------------------------------------------------
class TestModelAdapters:
    def test_exact_adapter_reproduces_score_items_ranking(
        self, trained_model
    ):
        """neighbours_items == exact single-item-context scoring's top
        ``k`` as a set, tie-exact."""
        from repro.data.events import EventType
        from repro.data.sessions import UserContext

        seed_item = 7
        adapter = exact_for_model(trained_model)
        ids = adapter.neighbours_items(np.array([seed_item]), k=15)
        context = UserContext((seed_item,), (EventType.VIEW,))
        all_scores = trained_model.score_all(context)
        expected = top_k_select(all_scores, 15)
        assert ids[0].tolist() == sorted(expected.tolist())

    def test_full_probe_ann_recall_is_perfect(self, trained_model):
        adapter = ann_for_model(trained_model, config=IVFConfig(seed=2))
        recall = measure_model_recall(
            trained_model,
            adapter,
            k=10,
            nprobe=adapter.backend.n_clusters,
        )
        assert recall == pytest.approx(1.0)

    def test_full_probe_ann_neighbours_equal_exact_neighbours(
        self, trained_model
    ):
        """The two backends the day builds answer ``neighbours_items``
        identically once IVF probes every list, ties included."""
        ann = ann_for_model(trained_model, config=IVFConfig(seed=2))
        exact = exact_for_model(trained_model)
        seeds = np.arange(trained_model.n_items)
        assert np.array_equal(
            ann.neighbours_items(seeds, k=10, nprobe=ann.backend.n_clusters),
            exact.neighbours_items(seeds, k=10),
        )

    def test_neighbours_past_the_catalog_pad_at_the_end(self, trained_model):
        n_items = trained_model.n_items
        rows = exact_for_model(trained_model).neighbours_items(
            np.array([0, 3]), k=n_items + 2
        )
        assert rows.shape == (2, n_items + 2)
        for row in rows:
            assert row[:n_items].tolist() == list(range(n_items))
            assert row[n_items:].tolist() == [-1, -1]

    def test_default_nprobe_recall_reasonable(self, trained_model):
        adapter = ann_for_model(trained_model, config=IVFConfig(seed=2))
        assert measure_model_recall(trained_model, adapter, k=10) >= 0.9

    def test_out_of_range_seed_item_raises(self, trained_model):
        adapter = exact_for_model(trained_model)
        with pytest.raises(RetrievalError):
            adapter.neighbours_items(
                np.array([trained_model.n_items]), k=5
            )
        with pytest.raises(RetrievalError):
            adapter.neighbours_items(np.array([-1]), k=5)

    def test_model_without_embedding_surface_raises(self):
        with pytest.raises(RetrievalError):
            exact_for_model(object())

    def test_score_items_accepts_any_integer_dtype(self, trained_model):
        """Regression: int32 arrays from index structures used to fall
        through to the element-wise list() path (or worse, float arrays
        silently truncated to wrong item ids)."""
        from repro.data.events import EventType
        from repro.data.sessions import UserContext

        context = UserContext((3,), (EventType.VIEW,))
        items64 = np.array([5, 9, 11], dtype=np.int64)
        items32 = items64.astype(np.int32)
        np.testing.assert_allclose(
            trained_model.score_items(context, items32),
            trained_model.score_items(context, items64),
        )
        np.testing.assert_allclose(
            trained_model.score_contexts([context], items32),
            trained_model.score_contexts([context], items64),
        )
        assert trained_model.rank_of(
            context, 9, candidates=items32
        ) == trained_model.rank_of(context, 9, candidates=items64)
        floats = np.array([5.7, 9.1], dtype=np.float64)
        with pytest.raises(TypeError):
            trained_model.score_items(context, floats)
        with pytest.raises(TypeError):
            trained_model.score_contexts([context], floats)
        with pytest.raises(TypeError):
            trained_model.rank_of(context, 5, candidates=floats)


# ----------------------------------------------------------------------
# Candidate-selector integration
# ----------------------------------------------------------------------
class TestSelectorIntegration:
    @pytest.fixture()
    def selector(self, small_dataset, trained_model):
        counts = CoOccurrenceCounts.from_interactions(
            small_dataset.n_items, small_dataset.train
        )
        return CandidateSelector(
            taxonomy=small_dataset.taxonomy,
            counts=counts,
            retrieval=exact_for_model(trained_model),
            retrieval_k=20,
        )

    def test_retrieval_sources_view_candidates(self, selector, small_dataset):
        items = list(range(0, small_dataset.n_items, 11))
        pools = selector.batch_view_based(items)
        assert len(pools) == len(items)
        for item, pool in zip(items, pools):
            assert item not in pool
            assert all(0 <= c < small_dataset.n_items for c in pool)
            assert 0 < len(pool) <= selector.max_candidates

    def test_retrieval_pools_differ_from_taxonomy_pools(
        self, selector, small_dataset
    ):
        items = list(range(0, small_dataset.n_items, 11))
        with_retrieval = selector.batch_view_based(items)
        selector.retrieval = None
        without = selector.batch_view_based(items)
        assert any(
            list(a) != list(b) for a, b in zip(with_retrieval, without)
        )

    def test_purchase_candidates_strip_substitutes(
        self, selector, small_dataset
    ):
        items = list(range(0, small_dataset.n_items, 23))
        views = selector.batch_view_based(items)
        purchases = selector.batch_purchase_based(items)
        for item, view_pool, purchase_pool in zip(items, views, purchases):
            assert item not in purchase_pool
            assert set(purchase_pool) <= set(view_pool)


# ----------------------------------------------------------------------
# Daily-run lifecycle: build, gate, publish, rollback, recovery
# ----------------------------------------------------------------------
FAST_SETTINGS = TrainerSettings(
    max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
)

TINY_GRID = GridSpec(
    n_factors=(4,),
    learning_rates=(0.05,),
    reg_items=(0.01,),
    reg_contexts=(0.01,),
    use_taxonomy=(False,),
    use_brand=(False,),
    use_price=(False,),
    max_configs=2,
)


#: Few enough clusters that the default ``nprobe`` covers them all —
#: on the 40-item test catalogs the recall gate then measures exactly
#: 1.0 instead of punishing partial probing of a tiny index.
FULL_PROBE_CONFIG = IVFConfig(n_clusters=4)


def make_service(n_retailers=2, **kwargs) -> SigmundService:
    kwargs.setdefault("retrieval_config", FULL_PROBE_CONFIG)
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=TINY_GRID,
        settings=FAST_SETTINGS,
        **kwargs,
    )
    for i in range(n_retailers):
        service.onboard(
            dataset_from_synthetic(
                generate_retailer(
                    RetailerSpec(
                        retailer_id=f"r{i}",
                        n_items=40,
                        n_users=25,
                        n_events=260,
                        taxonomy_depth=2,
                        taxonomy_fanout=3,
                        seed=100 + i,
                    )
                )
            )
        )
    return service


class TestServiceRetrievalLifecycle:
    def test_small_catalogs_skip_index_builds(self):
        service = make_service()
        report = service.run_day()
        assert report.indexes_built == 0
        assert report.indexes_rejected == 0
        # The skip is still journaled, so recovery can replay it.
        for rid in ("r0", "r1"):
            payload = service.journal.task_payload(0, "retrieval", rid)
            assert payload["built"] is False
            assert "below threshold" in payload["reason"]

    @pytest.mark.parametrize("threshold, built", [(39, 1), (40, 1), (41, 0)])
    def test_threshold_is_the_least_indexed_catalog(self, threshold, built):
        """A 40-item catalog is indexed at a threshold of 40, not at 41."""
        service = make_service(n_retailers=1, retrieval_threshold=threshold)
        report = service.run_day()
        assert report.indexes_built == built
        payload = service.journal.task_payload(0, "retrieval", "r0")
        assert payload["built"] is bool(built)

    def test_accepted_indexes_are_journaled(self):
        service = make_service(retrieval_threshold=1)
        report = service.run_day()
        assert report.indexes_built == 2
        assert report.indexes_rejected == 0
        payload = service.journal.task_payload(0, "retrieval", "r0")
        assert payload["accepted"] is True
        assert payload["index"].backend_name == "ivf"
        assert payload["model_number"] == service.registry.best("r0").model_number

    def test_recall_gate_rejects_under_target_indexes(self):
        service = make_service(
            retrieval_threshold=1, retrieval_recall_target=2.0
        )
        report = service.run_day()
        assert report.indexes_built == 2
        assert report.indexes_rejected == 2
        payload = service.journal.task_payload(0, "retrieval", "r0")
        assert payload["accepted"] is False
        assert "recall" in payload["reason"]

    @pytest.mark.parametrize(
        "stage", ["retrieval_build", "retrieval_logged"]
    )
    def test_crash_at_retrieval_stage_recovers_identically(self, stage):
        baseline = make_service(n_retailers=1, retrieval_threshold=1)
        baseline.run_day()

        crashed = make_service(
            n_retailers=1,
            retrieval_threshold=1,
            crash_plan=CrashPlan().crash_at(stage, label="r0"),
        )
        with pytest.raises(SimulatedCrash):
            crashed.run_day()
        crashed.recover()

        crashed_payload, baseline_payload = (
            service.journal.task_payload(0, "retrieval", "r0")
            for service in (crashed, baseline)
        )
        assert crashed_payload["accepted"] and baseline_payload["accepted"]
        assert (
            crashed_payload["index"].backend.state_digest()
            == baseline_payload["index"].backend.state_digest()
        )
        assert json.dumps(
            crashed.journal.day_seal(0), sort_keys=True
        ) == json.dumps(baseline.journal.day_seal(0), sort_keys=True)

    def test_new_kill_stages_registered(self):
        assert "retrieval_build" in KILL_STAGES
        assert "retrieval_logged" in KILL_STAGES
