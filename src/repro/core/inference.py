"""The offline inference pipeline (paper section IV-C).

For each retailer the pipeline takes the best model from the registry,
walks every item in the inventory, selects candidates (section III-D1),
scores them, and materializes the top-N view-based (substitutes) and
purchase-based (complements) recommendations per item.

Systems properties reproduced:

* the input is the union of all retailers' items, **organized so one
  retailer's records are contiguous** — the mapper reloads a model only
  at retailer boundaries (model loads are counted and reported),
* each MapReduce record is a contiguous **block of one retailer's
  items** (``(retailer_id, (item, item, ...))``), so a record amortizes
  one batched candidate-selection + scoring call (one ``U @ V_eff.T``
  GEMM) instead of paying Python overhead per item; a dead-lettered
  block degrades its retailer exactly as a dead-lettered item used to,
* retailers are partitioned across map workers by **greedy first-fit bin
  packing weighted by inventory size** (cost is linear in items thanks to
  candidate capping),
* work is split across cells by free capacity, like training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cell import Cluster
from repro.cluster.cost import CostLedger, ResourcePricing
from repro.cluster.machine import Priority, VMRequest
from repro.cluster.preemption import PreemptionModel
from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.binpack import first_fit_decreasing
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.core.recovery import CrashPlan
from repro.core.registry import ModelRegistry
from repro.data.datasets import RetailerDataset
from repro.data.events import EventType
from repro.data.taxonomy import Taxonomy
from repro.exceptions import ModelNotTrainedError, SigmundError
from repro.mapreduce.runtime import (
    FaultPlan,
    JobStats,
    MapReduceJob,
    MapReduceRuntime,
    record_job_metrics,
)
from repro.mapreduce.splits import InputSplit
from repro.models.base import ItemRows, RankedRows, Recommender
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracing import NULL_TRACER
from repro.retrieval.backend import ModelRetrieval
from repro.serving.store import RecommendationTable

#: Top-N recommendations materialized per item per surface.
DEFAULT_TOP_N = 10

#: Simulated seconds to score one candidate for one item.
PER_CANDIDATE_SECONDS = 2e-5

#: Simulated start-up seconds of an inference map task (loading its models).
MODEL_LOAD_SECONDS = 5.0

#: Items per inference block (one MapReduce record): large enough to
#: amortize one batched scoring call, small enough that a poisoned block
#: dead-letters without dragging the whole retailer through the mapper.
DEFAULT_BLOCK_SIZE = 128


def _item_blocks(
    taxonomy: Taxonomy, n_items: int, block_size: int
) -> List[Tuple[int, ...]]:
    """Blocks of ``block_size`` items covering ``range(n_items)``, cut in
    taxonomy order: by the pre-order number of each item's category, then
    by id, uncategorised items last.

    A subtree's items are one stretch of that order, so the rows whose
    ``lca_k`` pool is the same run of the taxonomy index meet in one block,
    where the block ranks that pool once.  Only the order differs from
    cutting by id: the blocks keep the same sizes in the same sequence.
    """
    index = taxonomy.index()
    items = np.arange(n_items)
    category = index.pre_order_of(items)
    # Past every pre-order number: uncategorised items go last.
    category[category < 0] = len(index.categories)
    order = np.lexsort((items, category)).tolist()
    return [tuple(order[start : start + block_size]) for start in range(0, n_items, block_size)]


@dataclass
class InferenceResult:
    """Materialized recommendations for one retailer.

    One read-only :class:`RecommendationTable` per surface — the object
    the journal keeps, the gate vets and the stores serve from.
    """

    retailer_id: str
    model_number: int
    view_recs: RecommendationTable
    purchase_recs: RecommendationTable

    @property
    def items_covered(self) -> int:
        """Items with at least one view-based recommendation."""
        return self.view_recs.items_covered

    def coverage(self, n_items: int) -> float:
        return self.items_covered / n_items if n_items else 0.0


class InferencePipeline:
    """Materializes item-item recommendations for every retailer daily."""

    def __init__(
        self,
        cluster: Cluster,
        registry: ModelRegistry,
        top_n: int = DEFAULT_TOP_N,
        pricing: ResourcePricing = ResourcePricing(),
        preemption_model: PreemptionModel = PreemptionModel(),
        ledger: Optional[CostLedger] = None,
        workers_per_cell: int = 8,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        crash_plan: Optional["CrashPlan"] = None,
    ):
        self.cluster = cluster
        self.registry = registry
        self.top_n = top_n
        self.ledger = ledger or CostLedger(pricing)
        self.runtime = MapReduceRuntime(
            pricing=pricing,
            preemption_model=preemption_model,
            ledger=self.ledger,
            seed=seed,
            fault_plan=fault_plan,
        )
        self.workers_per_cell = workers_per_cell
        if block_size < 1:
            raise SigmundError("inference block_size must be >= 1")
        self.block_size = block_size
        self.crash_plan = crash_plan
        #: Process-level registry (selector-cache hits/misses).  Distinct
        #: from the per-run ``metrics`` argument of :meth:`run_cell`:
        #: cache behaviour depends on what already ran in this process,
        #: so these counters are *not* part of the crash-parity contract.
        self.process_metrics = NULL_METRICS
        #: Candidate selectors reused across days: ``CoOccurrenceCounts``
        #: and ``RepurchaseDetector`` are deterministic functions of the
        #: training log, so as long as a retailer's dataset object is
        #: unchanged there is no reason to re-count every ``run()``.
        #: Keyed by retailer; entries pin the dataset they were built
        #: from and are invalidated when a different (or grown) dataset
        #: shows up.  The one owner of a dataset's derived state: the
        #: service reads its re-purchase surface off :meth:`selector_of`
        #: and a departing retailer leaves through :meth:`drop_retailer`.
        self._selector_cache: Dict[str, Tuple[RetailerDataset, int, CandidateSelector]] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def plan(
        self, datasets: Dict[str, RetailerDataset]
    ) -> List[Tuple[str, List[str]]]:
        """Cell -> retailer-bin assignment for one day's inference.

        Split retailers across cells proportionally to free capacity,
        then bin-pack within each cell.  Cells are ordered by their
        capacity share and bins by total weight before pairing, so the
        heaviest retailer group lands on the cell with the most spare
        capacity instead of whatever dict insertion order yields.

        Exposed separately from :meth:`run_cell` so the service layer can
        journal the assignment as *intent* before executing any cell: a
        recovery then re-runs only the incomplete cells with the
        original bins, rather than re-planning against a cluster whose
        free capacity has since changed.
        """
        ready = {
            retailer_id: dataset
            for retailer_id, dataset in datasets.items()
            if self.registry.has_models(retailer_id)
        }
        if not ready:
            return []
        weights = {rid: float(ds.n_items) for rid, ds in ready.items()}
        cell_shares = self.cluster.split_by_capacity(len(ready))
        cells = sorted(
            (name for name, share in cell_shares.items() if share > 0),
            key=lambda name: (-cell_shares[name], name),
        )
        cell_bins = first_fit_decreasing(weights, max(1, len(cells)))
        cell_bins.sort(key=lambda group: -sum(weights[rid] for rid in group))
        return [
            (cell_name, list(group))
            for cell_name, group in zip(cells, cell_bins)
            if group
        ]

    # ------------------------------------------------------------------
    # Per-cell job
    # ------------------------------------------------------------------
    def run_cell(
        self,
        cell_name: str,
        datasets: Dict[str, RetailerDataset],
        day: int,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
        retrieval: Optional[Dict[str, ModelRetrieval]] = None,
    ) -> Tuple[Dict[str, InferenceResult], JobStats, Dict[str, str]]:
        """Run one cell's inference job; the journaled-recovery unit.

        Returns ``(results, job_stats, failed)``.  Raising
        :class:`SigmundError` means the whole cell job died.

        Everything recorded on ``metrics`` here is a deterministic
        function of this cell's inputs (models, selectors, block layout),
        so the service can journal the snapshot with the cell payload and
        replay it bit-identically on recovery.
        """
        # Per-retailer preload isolation: a retailer whose selector or
        # model cannot be prepared (stale model after a catalog grew,
        # missing registry entry) is excluded from the job and reported,
        # instead of sinking every retailer sharing its cell.
        failed: Dict[str, str] = {}
        selectors: Dict[str, CandidateSelector] = {}
        models: Dict[str, Tuple[int, Recommender]] = {}
        for rid, dataset in datasets.items():
            try:
                best = self.registry.best(rid)
                if best.model.n_items < dataset.n_items:
                    raise ModelNotTrainedError(
                        f"best model for {rid!r} covers {best.model.n_items} "
                        f"items but the catalog has {dataset.n_items}; retrain "
                        f"before running inference on the new catalog"
                    )
                selectors[rid] = self._build_selector(dataset)
                # Candidate-selection counters land in this run's registry
                # (the selector object itself is cached across days).
                selectors[rid].metrics = metrics
                models[rid] = (best.model_number, best.model)
                # ANN candidate source: the day's accepted index for this
                # retailer, if any.  Re-bound every run, like
                # ``metrics`` — selectors are cached across days.
                adapter = retrieval.get(rid) if retrieval is not None else None
                selectors[rid].retrieval = adapter
                if adapter is not None:
                    adapter.metrics = metrics
                # Prime the effective-item matrix once per loaded model: no
                # updates happen during inference, so every candidate scoring
                # call below gathers from the cache instead of re-stacking
                # per-item feature vectors.  It is dropped when the job ends.
                prime = getattr(best.model, "effective_item_matrix", None)
                if prime is not None:
                    prime()
            except SigmundError as exc:
                failed[rid] = str(exc)
        datasets = {
            rid: dataset
            for rid, dataset in datasets.items()
            if rid not in failed
        }
        if not datasets:
            return {}, JobStats(job_name=f"inference/day{day}/{cell_name}"), failed

        # The mapper keeps "the model for the current retailer in memory";
        # a load is counted whenever consecutive records change retailer.
        loader_state = {"current": None, "loads": 0}

        def mapper(record: object):
            retailer_id, items = record  # type: ignore[misc]
            if loader_state["current"] != retailer_id:
                loader_state["current"] = retailer_id
                loader_state["loads"] += 1
            model_number, model = models[retailer_id]
            selector = selectors[retailer_id]
            if self.crash_plan is not None and items:
                # Mid-mapper coordinator kill: mappers run before any
                # billing or scheduling-RNG draws, so an abort here costs
                # nothing and leaves the runtime's random stream aligned
                # for the recovery re-run.
                self.crash_plan.check(
                    "infer_block", f"{retailer_id}@{items[0]}"
                )
            # The block's item ids, once: every reader below takes them as
            # they are, and no per-item context is built.
            query = np.array(items, dtype=np.int64)
            # One neighbour pass for both surfaces, drawn by the first
            # reader that needs it.
            neighbours = selector.neighbour_pass(query)
            view_recs = self._rank_block(
                model,
                query,
                selector.batch_view_based(query, neighbours=neighbours),
                EventType.VIEW,
            )
            purchase_recs = self._rank_block(
                model,
                query,
                selector.batch_purchase_based(query, neighbours=neighbours),
                EventType.CONVERSION,
            )
            metrics.counter(
                "inference_blocks_total", retailer=retailer_id
            ).inc()
            metrics.counter(
                "inference_items_total", retailer=retailer_id
            ).inc(query.size)
            # One value per block: the kernel's arrays, not a pair of
            # lists per item.
            yield retailer_id, (query, model_number, view_recs, purchase_recs)

        def reducer(key: object, values: List[object]):
            ids, model_numbers, views, purchases = zip(*values)
            # Blocks run in taxonomy order and a table's rows are by id:
            # each entry is laid in its sorted slot straight from its block.
            item_ids = np.concatenate(ids)
            order = np.argsort(item_ids, kind="stable")
            item_ids = item_ids[order]
            yield InferenceResult(
                retailer_id=str(key),
                model_number=model_numbers[-1],
                view_recs=RecommendationTable(item_ids, RankedRows.concat(views, order)),
                purchase_recs=RecommendationTable(
                    item_ids, RankedRows.concat(purchases, order)
                ),
            )

        def record_cost(record: object) -> float:
            retailer_id, items = record  # type: ignore[misc]
            dataset = datasets[retailer_id]
            candidates = min(dataset.n_items, selectors[retailer_id].max_candidates)
            return len(items) * candidates * PER_CANDIDATE_SECONDS

        records = [
            (rid, block)
            for rid in sorted(datasets)
            for block in _item_blocks(
                datasets[rid].taxonomy, datasets[rid].n_items, self.block_size
            )
        ]
        n_workers = min(self.workers_per_cell, max(1, len(datasets)))
        splits = self._binpacked_splits(records, datasets, n_workers)
        job = MapReduceJob(
            name=f"inference/day{day}/{cell_name}",
            mapper=mapper,
            reducer=reducer,
            n_workers=n_workers,
            vm_request=VMRequest(cpus=4, memory_gb=16.0, priority=Priority.PREEMPTIBLE),
            record_cost_fn=record_cost,
            task_startup_seconds=MODEL_LOAD_SECONDS,
        )
        try:
            outputs, job_stats = self.runtime.run(
                job, splits, metrics=metrics, tracer=tracer
            )
        finally:
            # The matrices primed above live as long as this job.
            for _, model in models.values():
                drop = getattr(model, "invalidate_cache", None)
                if drop is not None:
                    drop()
        record_job_metrics(metrics, "inference", cell_name, job_stats)
        metrics.counter("inference_cost_total", cell=cell_name).inc(
            job_stats.cost
        )
        metrics.counter(
            "inference_model_loads_total", cell=cell_name
        ).inc(loader_state["loads"])
        results = {
            result.retailer_id: result
            for result in outputs
            if isinstance(result, InferenceResult)
        }
        # An item record that dead-lettered means the retailer's table
        # would be incomplete; serving a partial table is worse than
        # serving yesterday's complete one, so the whole retailer
        # degrades (versioned stores make that safe).
        for letter in job_stats.dead_letters:
            rid = letter.record[0] if isinstance(letter.record, tuple) else None
            if rid is not None and rid not in failed:
                failed[rid] = str(letter.exception)
        for rid in failed:
            results.pop(rid, None)
        # Charge-back attribution (section V): split the job bill across
        # retailers in proportion to their inference work (≈ item count
        # times capped candidates).
        work = {
            rid: dataset.n_items
            * min(dataset.n_items, selectors[rid].max_candidates)
            for rid, dataset in datasets.items()
        }
        total_work = sum(work.values())
        if total_work > 0 and job_stats.cost > 0:
            for rid, units in work.items():
                share = job_stats.cost * units / total_work
                self.ledger.attribute(f"chargeback/{rid}", share)
                metrics.counter(
                    "inference_cost_attributed_total", retailer=rid
                ).inc(share)
        return results, job_stats, failed

    def _binpacked_splits(
        self,
        records: List[Tuple[str, Tuple[int, ...]]],
        datasets: Dict[str, RetailerDataset],
        n_workers: int,
    ) -> List[InputSplit]:
        """One split per bin; retailers stay contiguous inside each split."""
        weights = {rid: float(ds.n_items) for rid, ds in datasets.items()}
        bins = first_fit_decreasing(weights, n_workers)
        by_retailer: Dict[str, List[Tuple[str, Tuple[int, ...]]]] = {}
        for record in records:
            by_retailer.setdefault(record[0], []).append(record)
        splits = []
        for split_id, group in enumerate(bins):
            chunk: List[Tuple[str, int]] = []
            for rid in group:
                chunk.extend(by_retailer.get(rid, []))
            splits.append(InputSplit(split_id, chunk))
        return [split for split in splits if split.records] or [InputSplit(0, [])]

    def selector_of(self, retailer_id: str) -> Optional[CandidateSelector]:
        """The selector the retailer's last inference ran with, if any."""
        cached = self._selector_cache.get(retailer_id)
        return None if cached is None else cached[2]

    def drop_retailer(self, retailer_id: str) -> None:
        """Forget a departed retailer's dataset, counts and detector."""
        self._selector_cache.pop(retailer_id, None)

    def _build_selector(self, dataset: RetailerDataset) -> CandidateSelector:
        """Selector for one retailer, cached across days.

        The cache entry pins the exact dataset object it was built from
        (so the identity check can never alias a recycled ``id()``) plus
        the training-log length, catching both a *replaced* dataset (the
        usual day-over-day evolution) and one mutated in place.
        """
        cached = self._selector_cache.get(dataset.retailer_id)
        if (
            cached is not None
            and cached[0] is dataset
            and cached[1] == len(dataset.train)
        ):
            self.process_metrics.counter("selector_cache_hits_total").inc()
            return cached[2]
        self.process_metrics.counter("selector_cache_misses_total").inc()
        counts = CoOccurrenceCounts.from_interactions(dataset.n_items, dataset.train)
        detector = RepurchaseDetector(dataset.taxonomy, dataset.train)
        selector = CandidateSelector(
            taxonomy=dataset.taxonomy,
            counts=counts,
            repurchase=detector,
        )
        self._selector_cache[dataset.retailer_id] = (
            dataset,
            len(dataset.train),
            selector,
        )
        return selector

    def _rank_block(
        self,
        model: Recommender,
        query: np.ndarray,
        pools: ItemRows,
        event: EventType,
    ) -> RankedRows:
        """Top-N of one surface's pools for a block, in one batched call:
        ``query`` is the block's item ids and ``event`` what each row's
        user did on its item (a view, or a purchase)."""
        return model.recommend_batch(query, pools, k=self.top_n, event=event)
