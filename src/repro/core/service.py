"""The Sigmund service: onboarding, daily runs, periodic full restarts.

This ties every subsystem together into the loop the paper describes:

1. retailers sign up (their datasets enter the fleet),
2. every day: plan a sweep (full on day 0 or on the periodic restart,
   incremental otherwise), train on pre-emptible capacity, publish to the
   registry, run offline inference, and batch-load the serving stores,
3. record quality metrics and raise regression alerts,
4. every ``full_restart_every`` days, discard history and re-run the full
   grid — the terms-of-service constraint that models reflect only recent
   history, which also re-finds hyper-parameters after data drift.

Crash recovery: every daily run is journaled (intent first, completions
after their side effects), so a coordinator death mid-run — simulated by
a :class:`~repro.core.recovery.CrashPlan` — is resumed by
:meth:`SigmundService.recover`, which re-executes the open day through
the same code path, skipping journaled work.  Completed retailers are
not retrained, completed cells are not re-inferred, billed cost is never
double-billed, and the final report matches an uninterrupted run.

Publish safety: before a retailer's tables reach the stores they pass a
:class:`~repro.serving.gate.PublishGate`; a rejected table keeps the
last-good one serving and surfaces through the quality monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cell import Cluster
from repro.cluster.cost import CostLedger, ResourcePricing
from repro.cluster.preemption import PreemptionModel
from repro.core.checkpoint import CheckpointFaultPlan, CheckpointStorage
from repro.core.config import ConfigRecord
from repro.core.grid import GridSpec
from repro.core.inference import InferencePipeline, InferenceResult
from repro.core.journal import RunJournal
from repro.core.monitoring import QualityMonitor
from repro.core.recovery import CrashPlan
from repro.core.registry import ModelRegistry
from repro.core.sweep import SweepPlanner
from repro.core.training import PipelineStats, TrainerSettings, TrainingPipeline
from repro.dag.dayplan import (
    BLOCK_SPANS,
    SERIAL_PHASES,
    DayState,
    build_day_graph,
    build_selection,
)
from repro.dag.graph import DayGraph
from repro.dag.runner import EXECUTED_STATUSES, GraphRunner, GraphRunResult, run_block
from repro.data.datasets import RetailerDataset
from repro.exceptions import DataError, SigmundError
from repro.mapreduce.runtime import FaultPlan
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.snapshot import build_day_seal
from repro.obs.tracing import NULL_TRACER
from repro.retrieval.backend import ann_for_model
from repro.retrieval.harness import DEFAULT_ANN_THRESHOLD, measure_model_recall
from repro.retrieval.ivf import IVFConfig
from repro.serving.gate import PublishGate
from repro.serving.store import RecommendationStore

#: Paper: "periodically we restart the full model selection".
DEFAULT_FULL_RESTART_EVERY = 30


@dataclass
class DailyRunReport:
    """Everything one daily run did, for logs and benchmarks."""

    day: int
    sweep_kind: str = "incremental"
    configs_trained: int = 0
    configs_failed: int = 0
    retailers_served: int = 0
    #: Retailers kept on yesterday's table after today's pipeline failed.
    retailers_stale: int = 0
    #: Failed retailers with no previous table to fall back on (day-0
    #: failures) — the only case a retailer is not served at all.
    retailers_unserved: int = 0
    training_cost: float = 0.0
    inference_cost: float = 0.0
    training_makespan: float = 0.0
    inference_makespan: float = 0.0
    preemptions: int = 0
    alerts: int = 0
    #: Tables the publish gate refused (the retailer degrades to its
    #: last-good table instead of serving a broken one).
    publishes_rejected: int = 0
    #: ANN retrieval indexes built (catalogs over the size threshold).
    indexes_built: int = 0
    #: Indexes whose measured recall missed the target (inference falls
    #: back to the taxonomy walk).
    indexes_rejected: int = 0
    #: Retailers whose training, inference, or publish failed today.
    failed_retailers: List[str] = field(default_factory=list)
    failure_reasons: Dict[str, str] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.training_cost + self.inference_cost

    @property
    def availability(self) -> float:
        """Fraction of retailers served at all (fresh or stale) today."""
        fleet = self.retailers_served + self.retailers_stale + self.retailers_unserved
        if fleet == 0:
            return 1.0
        return 1.0 - self.retailers_unserved / fleet


class SigmundService:
    """Recommendations-as-a-service for a fleet of retailers."""

    def __init__(
        self,
        cluster: Cluster,
        grid: GridSpec = GridSpec.small(),
        settings: TrainerSettings = TrainerSettings(),
        pricing: ResourcePricing = ResourcePricing(),
        preemption_model: PreemptionModel = PreemptionModel(),
        top_k_incremental: int = 3,
        full_restart_every: int = DEFAULT_FULL_RESTART_EVERY,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        crash_plan: Optional[CrashPlan] = None,
        publish_gate: Optional[PublishGate] = None,
        checkpoint_storage: Optional[CheckpointStorage] = None,
        checkpoint_fault_plan: Optional[CheckpointFaultPlan] = None,
        metrics=None,
        tracer=None,
        retrieval_threshold: Optional[int] = None,
        retrieval_config: Optional[IVFConfig] = None,
        retrieval_recall_target: float = 0.95,
        orchestration: str = "serial",
        max_parallelism: int = 1,
    ):
        if orchestration not in ("serial", "dag"):
            raise SigmundError(
                f"orchestration must be 'serial' or 'dag', got {orchestration!r}"
            )
        if max_parallelism < 1:
            raise SigmundError(
                f"max_parallelism must be >= 1, got {max_parallelism}"
            )
        #: How the daily run's blocks (repro.dag.dayplan) are driven:
        #: "serial" walks them one after another, phase by phase; "dag"
        #: schedules them through :class:`~repro.dag.runner.GraphRunner`
        #: with up to ``max_parallelism`` lanes (and enables ``--blocks``
        #: partial reruns).  Both execute each block through the one
        #: step, ``run_block``, and seal the same day byte for byte.
        self.orchestration = orchestration
        self.max_parallelism = max_parallelism
        #: The block-level outcome of the most recent DAG-driven day (or
        #: backfill); None before the first and under serial orchestration.
        self.last_dag_run: Optional[GraphRunResult] = None
        self.cluster = cluster
        #: Process-level observability (None -> the zero-overhead nulls).
        #: Day-scoped metrics live in per-day registries built inside
        #: :meth:`_execute_day`; this registry accumulates cross-day
        #: process state (ledger, stores, caches, gate).
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = ModelRegistry()
        self.monitor = QualityMonitor()
        self.ledger = CostLedger(pricing, metrics=self.metrics)
        self.planner = SweepPlanner(grid, top_k=top_k_incremental, base_seed=seed)
        self.journal = RunJournal()
        self.crash_plan = crash_plan
        self.gate = publish_gate or PublishGate(metrics=self.metrics)
        self.training = TrainingPipeline(
            cluster,
            self.registry,
            settings=settings,
            pricing=pricing,
            preemption_model=preemption_model,
            ledger=self.ledger,
            seed=seed,
            fault_plan=fault_plan,
            checkpoint_storage=checkpoint_storage,
            checkpoint_fault_plan=checkpoint_fault_plan,
            crash_plan=crash_plan,
        )
        #: Catalog size at which the ANN index replaces the taxonomy
        #: walk; defaults to :data:`~repro.retrieval.harness.DEFAULT_ANN_THRESHOLD`.
        self.retrieval_threshold = (
            DEFAULT_ANN_THRESHOLD
            if retrieval_threshold is None
            else retrieval_threshold
        )
        self.retrieval_config = retrieval_config or IVFConfig()
        #: An index whose measured recall@k misses this is not used; its
        #: retailer keeps the exact taxonomy candidate path.
        self.retrieval_recall_target = retrieval_recall_target
        self.inference = InferencePipeline(
            cluster,
            self.registry,
            pricing=pricing,
            preemption_model=preemption_model,
            ledger=self.ledger,
            seed=seed + 1,
            fault_plan=fault_plan,
            crash_plan=crash_plan,
        )
        self.inference.process_metrics = self.metrics
        self.substitutes_store = RecommendationStore(
            metrics=self.metrics, name="substitutes"
        )
        self.accessories_store = RecommendationStore(
            metrics=self.metrics, name="accessories"
        )
        self.full_restart_every = full_restart_every
        self._datasets: Dict[str, RetailerDataset] = {}
        self._next_day = 0
        self.reports: List[DailyRunReport] = []

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------
    def onboard(self, dataset: RetailerDataset) -> None:
        """Sign a retailer up; first training happens on the next run."""
        if dataset.retailer_id in self._datasets:
            raise DataError(f"retailer {dataset.retailer_id!r} already onboarded")
        self._datasets[dataset.retailer_id] = dataset

    def update_dataset(self, dataset: RetailerDataset) -> None:
        """Replace a retailer's data (new day's interactions arrived)."""
        if dataset.retailer_id not in self._datasets:
            raise DataError(f"retailer {dataset.retailer_id!r} not onboarded")
        self._datasets[dataset.retailer_id] = dataset

    def offboard(self, retailer_id: str) -> None:
        """Remove a retailer and every artifact derived from its data.

        Besides the dataset and registry entries, this purges the serving
        tables and the inference pipeline's selector (co-occurrence counts,
        re-purchase detector, the dataset itself) — all of them are derived
        from the tenant's interaction data, and the store's privacy framing
        forbids keeping any of it alive after departure.  The open day's
        journal records and the retailer's checkpoints are purged too:
        without that, a retailer offboarded mid-crash was resurrected by
        :meth:`recover` (its journaled train/publish payloads replayed
        into the report, and its model state lingered in the checkpoint
        store).
        """
        self._datasets.pop(retailer_id, None)
        self.registry.drop_retailer(retailer_id)
        self.substitutes_store.drop_retailer(retailer_id)
        self.accessories_store.drop_retailer(retailer_id)
        self.inference.drop_retailer(retailer_id)
        self._purge_journal(retailer_id)
        self.training.checkpoints.discard_matching(
            lambda key: retailer_id in key.split("/")[1:2]
        )

    def _purge_journal(self, retailer_id: str) -> None:
        """Scrub a departing retailer from the open day's journal.

        Four places reference it: the pinned sweep intent, the
        per-retailer task records (train/retrieval/publish), the
        journaled inference cell assignment, and completed cell payloads
        (whose result tables are derived from the tenant's data).  All
        are mutated in place so a later :meth:`recover` of the open day
        neither retrains, re-infers, nor reports the departed tenant.
        """
        day = self.journal.open_day()
        if day is None:
            return
        intent = self.journal.day_intent(day)
        configs = intent.get("configs")
        if configs is not None:
            intent["configs"] = [
                c for c in configs if c.retailer_id != retailer_id  # type: ignore[union-attr]
            ]
        self.journal.purge_tasks(
            day, lambda phase, task_id: task_id == retailer_id
        )
        if self.journal.is_done(day, "infer_plan", "assignment"):
            payload = self.journal.task_payload(day, "infer_plan", "assignment")
            payload["assignment"] = [
                (cell, [rid for rid in group if rid != retailer_id])
                for cell, group in payload["assignment"]  # type: ignore[union-attr]
            ]
        for cell_payload in self.journal.completed(day, "infer").values():
            for field_name in ("results", "failed"):
                table = cell_payload.get(field_name)
                if isinstance(table, dict):
                    table.pop(retailer_id, None)

    @property
    def retailers(self) -> List[str]:
        return sorted(self._datasets)

    # ------------------------------------------------------------------
    # The daily loop
    # ------------------------------------------------------------------
    def run_day(
        self,
        force_full_sweep: bool = False,
        blocks: Optional[List[str]] = None,
    ) -> DailyRunReport:
        """One full daily cycle: sweep -> train -> infer -> serve -> monitor.

        The day's intent (sweep kind plus the exact configs planned) is
        journaled before any work; each unit of work is journaled after
        its side effects land.  If the coordinator dies mid-run (a
        :class:`SimulatedCrash` from the armed :class:`CrashPlan`), call
        :meth:`recover` to resume the open day where it stopped.

        ``blocks`` (DAG orchestration only) restricts the run to a
        selection of graph blocks — e.g. ``["train/r3"]`` — leaving the
        day open; a later :meth:`recover` (with or without its own
        ``blocks``) finishes and commits it.  While a day is open,
        ``run_day`` refuses to begin another one.
        """
        open_day = self.journal.open_day()
        if open_day is not None:
            raise SigmundError(
                f"day {open_day} is still open; call recover() to finish it "
                "before running another day"
            )
        day = self._next_day
        self._next_day += 1
        datasets = list(self._datasets.values())
        if not datasets:
            report = DailyRunReport(day=day)
            self.reports.append(report)
            return report

        full = (
            force_full_sweep
            or day == 0
            or (self.full_restart_every > 0 and day % self.full_restart_every == 0)
        )
        if full:
            plan = self.planner.full_sweep(datasets, day=day)
            sweep_kind = "full"
        else:
            plan = self.planner.incremental_sweep(datasets, self.registry, day=day)
            sweep_kind = "incremental"
        # WAL step 1: intent before work.  The exact configs are pinned
        # so recovery never replans (an incremental sweep depends on
        # registry state that the crashed run may already have mutated).
        self.journal.begin_day(
            day, {"sweep_kind": sweep_kind, "configs": list(plan.configs)}
        )
        return self._execute_day(day, blocks=blocks)

    def recover(self, blocks: Optional[List[str]] = None) -> Optional[DailyRunReport]:
        """Resume the begun-but-uncommitted day, if any.

        Re-executes the open day through the same code path as
        :meth:`run_day`, consulting the journal at every step: completed
        retailers are not retrained, completed inference cells are not
        re-run (their results are replayed from the journal), published
        tables are not re-validated or re-loaded, and no billed cost is
        billed again.  Returns ``None`` when there is nothing to recover.

        ``blocks`` (DAG orchestration only) resumes just a selection of
        the open day's graph, leaving the day open for further recovery.
        """
        day = self.journal.open_day()
        if day is None:
            return None
        return self._execute_day(day, blocks=blocks)

    def _check(self, stage: str, label: str = "") -> None:
        if self.crash_plan is not None:
            self.crash_plan.check(stage, label)

    def _execute_day(
        self, day: int, blocks: Optional[List[str]] = None
    ) -> DailyRunReport:
        """Run (or resume) one journaled day; shared by run_day/recover.

        Both orchestrations execute the blocks
        :func:`~repro.dag.dayplan.build_day_graph` declares.  ``dag``
        schedules them through :class:`~repro.dag.runner.GraphRunner`
        with up to ``max_parallelism`` lanes; a ``blocks``-restricted run
        leaves the day open (and out of :attr:`reports`) until a later
        :meth:`recover` completes it.  ``serial`` walks them in the order
        ``GraphRunner`` picks on one lane (:meth:`_walk_serial`).  Either
        way the wrapup block commits the day.
        """
        if blocks and self.orchestration != "dag":
            raise SigmundError(
                "partial --blocks runs require orchestration='dag'"
            )
        intent = self.journal.day_intent(day)
        report = DailyRunReport(day=day, sweep_kind=str(intent["sweep_kind"]))
        self._check("day_begin")
        # The day registry folds *only* journaled task payloads (plus
        # values derived from them), and a fresh one is built per
        # execution — the two facts that make a crashed-and-recovered
        # day seal metrics byte-identical to an uninterrupted run's.
        day_metrics = MetricsRegistry() if self.metrics.enabled else NULL_METRICS
        state = DayState(report=report, day_metrics=day_metrics)
        graph = build_day_graph(self, day, intent, state)
        if self.orchestration == "dag":
            select = build_selection(graph, list(blocks)) if blocks else None
            runner = GraphRunner(
                journal=self.journal,
                day=day,
                crash_check=self._check,
                max_parallelism=self.max_parallelism,
            )
            result = runner.run(graph, select=select)
            self.last_dag_run = result
            if self.tracer.enabled:
                # One span per scheduled block at its simulated lane
                # times; the day seal (the equivalence contract) carries
                # no traces.
                start = self.tracer.clock.now
                for block_run in result.schedule():
                    self.tracer.record_span(
                        "block",
                        start + block_run.start,
                        start + block_run.finish,
                        block=block_run.name,
                    )
                self.tracer.clock.advance(result.makespan)
        else:
            with self.tracer.span(
                "run_day", day=day, sweep_kind=report.sweep_kind
            ):
                self._walk_serial(graph, day)
        if self.journal.is_committed(day):
            self.reports.append(report)
        return report

    def _walk_serial(self, graph: DayGraph, day: int) -> None:
        """Run the day's blocks one after another, phase by phase.

        Each phase of :data:`~repro.dag.dayplan.SERIAL_PHASES` is a trace
        span that runs its families' blocks in declaration order; what a
        block expands into joins the graph before its family's turn.  A
        timed block records a :data:`~repro.dag.dayplan.BLOCK_SPANS` span
        from the phase's start — retailers and cells run "in parallel" —
        and the clock then advances by the phase's longest one.
        """
        tracer = self.tracer
        for phase, families in SERIAL_PHASES:
            with tracer.span(phase):
                start = tracer.clock.now if tracer.enabled else 0.0
                longest = 0.0
                for family in families:
                    for block in [b for b in graph if b.family == family]:
                        block_run = run_block(
                            block, self.journal, day, self._check
                        )
                        if block_run.status not in EXECUTED_STATUSES:
                            continue
                        if block.expand is not None:
                            for spawned in block.expand(block_run.payload):
                                graph.add(spawned)
                        span = BLOCK_SPANS.get(family)
                        if tracer.enabled and span is not None:
                            duration = block.duration_of(block_run.payload)
                            tracer.record_span(
                                span, start, start + duration, **block.labels
                            )
                            longest = max(longest, duration)
                if tracer.enabled:
                    tracer.clock.advance(longest)

    def backfill_retailer(
        self, retailer_id: str, day: Optional[int] = None
    ) -> Dict[str, object]:
        """Re-run one retailer's failed subgraph of a *committed* day.

        The daily run degrades a failed retailer to stale tables and
        moves on; this repairs it after the fact by running the day's
        own blocks for that retailer alone
        (:func:`~repro.dag.dayplan.build_day_graph` with ``retailer``):
        train from the day's pinned intent configs, rebuild the ANN
        index, infer, and publish at the day's version — without
        touching any other retailer's tables, versions, or billed costs,
        and without reopening the day's sealed record.  Journaled under
        ``backfill_*`` phases keyed by the retailer, so repeating a
        backfill replays instead of re-billing.
        """
        if retailer_id not in self._datasets:
            raise DataError(f"retailer {retailer_id!r} not onboarded")
        if day is None:
            committed = self.journal.committed_days()
            if not committed:
                raise SigmundError("no committed day to backfill")
            day = committed[-1]
        if not self.journal.is_committed(day):
            raise SigmundError(
                f"day {day} is not committed; recover() resumes open days, "
                "backfill_retailer() repairs committed ones"
            )
        version = day + 1
        if (self.substitutes_store.version_of(retailer_id) or -1) >= version:
            raise SigmundError(
                f"nothing to backfill: {retailer_id!r} already serves "
                f"version {version}"
            )
        intent = self.journal.day_intent(day)
        configs = [
            c
            for c in intent["configs"]  # type: ignore[union-attr]
            if c.retailer_id == retailer_id
        ]
        if not configs:
            raise SigmundError(
                f"day {day} planned no configs for {retailer_id!r}"
            )
        report = DailyRunReport(day=day, sweep_kind=str(intent["sweep_kind"]))
        state = DayState(report=report)
        graph = build_day_graph(
            self, day, {"configs": configs}, state, retailer=retailer_id
        )
        self.last_dag_run = GraphRunner(journal=self.journal, day=day).run(graph)
        published = retailer_id in state.served
        return {
            "retailer_id": retailer_id,
            "day": day,
            "version": version if published else None,
            "trained": report.configs_trained,
            "cost": report.total_cost,
            "published": published,
            "failure": state.failure_reasons.get(retailer_id),
        }

    def _train_retailer(
        self, day: int, retailer_id: str, configs: List[ConfigRecord]
    ) -> Dict[str, object]:
        """Train one retailer's configs; the journaled unit of work."""
        failure: Optional[str] = None
        # Per-task registry: its snapshot travels in the journal payload,
        # so a recovered day folds the exact snapshot the crashed run
        # recorded instead of re-deriving (and double-counting) it.
        task_metrics = (
            MetricsRegistry() if self.metrics.enabled else NULL_METRICS
        )
        try:
            _, train_stats = self.training.run(
                configs,
                self._datasets,
                day=day,
                metrics=task_metrics,
                tracer=self.tracer,
            )
        except SigmundError as exc:
            # This retailer's sweep died outright (e.g. no free capacity
            # for its job); it degrades to yesterday's models while the
            # rest of the fleet trains on.
            train_stats = PipelineStats()
            train_stats.configs_failed = len(configs)
            failure = f"training: {exc}"
        else:
            if retailer_id in train_stats.failed_retailers:
                reason = next(
                    (
                        str(f.error)
                        for f in train_stats.failures
                        if f.retailer_id == retailer_id
                    ),
                    "failed",
                )
                failure = f"training: {reason}"
        return {
            "trained": train_stats.configs_trained,
            "failed": train_stats.configs_failed,
            "cost": train_stats.total_cost,
            "makespan": train_stats.makespan_seconds,
            "preemptions": train_stats.preemptions,
            "failure": failure,
            "metrics": task_metrics.snapshot(),
        }

    def _build_retrieval_index(
        self, day: int, retailer_id: str
    ) -> Dict[str, object]:
        """Build + recall-gate one retailer's index; the journaled unit.

        Below the size threshold no index is built, but the task is still
        journaled — the decision is part of the day's record, and the
        kill points above must exist for every retailer regardless of
        catalog size.
        """
        task_metrics = (
            MetricsRegistry() if self.metrics.enabled else NULL_METRICS
        )
        dataset = self._datasets[retailer_id]
        if dataset.n_items < self.retrieval_threshold:
            return {
                "built": False,
                "accepted": False,
                "reason": f"catalog below threshold {self.retrieval_threshold}",
                "index": None,
                "recall": None,
                "model_number": None,
                "metrics": task_metrics.snapshot(),
            }
        best = self.registry.best(retailer_id)
        try:
            adapter = ann_for_model(
                best.model,
                config=self.retrieval_config,
                metrics=task_metrics,
            )
        except SigmundError as exc:
            task_metrics.counter(
                "retrieval_indexes_built_total", outcome="failed"
            ).inc()
            return {
                "built": False,
                "accepted": False,
                "reason": f"retrieval: {exc}",
                "index": None,
                "recall": None,
                "model_number": best.model_number,
                "metrics": task_metrics.snapshot(),
            }
        recall = measure_model_recall(
            best.model,
            adapter,
            k=min(100, adapter.n_items),
            seed=self.retrieval_config.seed + day,
        )
        task_metrics.gauge(
            "retrieval_recall", retailer=retailer_id
        ).set(recall)
        ok = recall >= self.retrieval_recall_target
        task_metrics.counter(
            "retrieval_indexes_built_total",
            outcome="accepted" if ok else "rejected",
        ).inc()
        return {
            "built": True,
            "accepted": ok,
            "reason": "" if ok else (
                f"recall {recall:.4f} below target "
                f"{self.retrieval_recall_target}"
            ),
            "index": adapter,
            "recall": recall,
            "model_number": best.model_number,
            "metrics": task_metrics.snapshot(),
        }

    def _publish_retailer(
        self,
        day: int,
        retailer_id: str,
        result: InferenceResult,
        version: int,
    ) -> Tuple[bool, str]:
        """Gate both surfaces, then load them; returns (accepted, reason).

        A crash between the two loads leaves the substitutes store ahead
        of the accessories store; recovery detects that (the substitutes
        table is already at today's version, which can only mean both
        surfaces passed validation before the first load) and completes
        the pair without re-validating — re-validation would wrongly
        reject today's version as "not newer" than itself.
        """
        view_done = (self.substitutes_store.version_of(retailer_id) or -1) >= version
        if not view_done:
            n_items = (
                self._datasets[retailer_id].n_items
                if retailer_id in self._datasets
                else 0
            )
            current_map = (
                self.registry.best(retailer_id).map_at_10
                if self.registry.has_models(retailer_id)
                else None
            )
            previous_map = self.monitor.last_map(retailer_id, day)
            view_decision = self.gate.validate(
                retailer_id,
                result.view_recs,
                version,
                self.substitutes_store,
                n_items,
                current_map=current_map,
                previous_map=previous_map,
            )
            # An empty complements table is a legitimate state for a
            # retailer with no conversion co-occurrence yet; the gate
            # still vets scores and version.
            purchase_decision = self.gate.validate(
                retailer_id,
                result.purchase_recs,
                version,
                self.accessories_store,
                n_items,
                current_map=current_map,
                previous_map=previous_map,
                allow_empty=True,
            )
            if not (view_decision.accepted and purchase_decision.accepted):
                # Neither surface loads: the retailer keeps serving its
                # complete last-good tables on both, never a mixed pair.
                reasons = view_decision.reasons + purchase_decision.reasons
                return False, "publish: " + "; ".join(reasons)
            self.substitutes_store.load_batch(
                retailer_id, result.view_recs, version=version
            )
        self._check("publish_mid", retailer_id)
        if (self.accessories_store.version_of(retailer_id) or -1) < version:
            self.accessories_store.load_batch(
                retailer_id, result.purchase_recs, version=version
            )
        return True, ""

    def rollback_retailer(self, retailer_id: str) -> int:
        """Roll both recommendation tables back to their last-good version.

        Returns the version now being served.
        """
        version = self.substitutes_store.rollback(retailer_id)
        self.accessories_store.rollback(retailer_id)
        return version

    # -- the wrapup block: monitoring, detectors, commit ---------------
    def _wrapup_phase(
        self,
        day: int,
        served: List[str],
        failure_reasons: Dict[str, str],
        report: DailyRunReport,
        day_metrics=NULL_METRICS,
    ) -> None:
        # The kill point sits *before* any monitor mutation: recording is
        # not idempotent, so a wrap-up crash must happen before all of it
        # and recovery then performs the whole pass exactly once.
        self._check("wrapup")
        report.failed_retailers = sorted(failure_reasons)
        report.failure_reasons = dict(failure_reasons)
        for retailer_id in report.failed_retailers:
            # Graceful degradation: the store still holds the last good
            # table (versioned batch loads never partially apply), so the
            # retailer keeps serving — just stale.  Only a retailer that
            # never had a table (day-0 failure) goes unserved.
            if self.substitutes_store.has_retailer(retailer_id):
                report.retailers_stale += 1
            else:
                report.retailers_unserved += 1
            self.monitor.record_failure(
                retailer_id,
                day,
                stage=failure_reasons[retailer_id].split(":", 1)[0],
                detail=failure_reasons[retailer_id],
            )
            report.alerts += 1
            day_metrics.counter("alerts_total", kind="failure").inc()

        for retailer_id in self._datasets:
            # Failed retailers already got an availability alert; their
            # registry entry is yesterday's, so recording it as today's
            # metric would just mask the failure.
            if retailer_id in failure_reasons:
                continue
            if self.registry.has_models(retailer_id):
                best = self.registry.best(retailer_id)
                alert = self.monitor.record(retailer_id, day, best.map_at_10)
                if alert is not None:
                    report.alerts += 1
                    day_metrics.counter(
                        "alerts_total", kind="regression"
                    ).inc()

        day_metrics.counter("retailers_total", status="served").inc(
            report.retailers_served
        )
        day_metrics.counter("retailers_total", status="stale").inc(
            report.retailers_stale
        )
        day_metrics.counter("retailers_total", status="unserved").inc(
            report.retailers_unserved
        )

        # The seal is written atomically with the commit record; it is
        # the artifact the crash-recovery parity suite compares byte for
        # byte between recovered and uninterrupted runs.
        seal = build_day_seal(
            day,
            report.sweep_kind,
            report,
            day_metrics.snapshot(),
            self.retailers,
        )
        self.journal.commit_day(day, seal=seal)
        self.monitor.record_day_snapshot(day, seal)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def best_map(self, retailer_id: str) -> float:
        return self.registry.best(retailer_id).map_at_10

    def total_cost(self) -> float:
        """Total billed compute (job accounts only, not attribution views)."""
        return sum(
            amount
            for account, amount in self.ledger.accounts().items()
            if not account.startswith("chargeback/")
        )

    def repurchase_recommendations(
        self, retailer_id: str, user_id: int, now: Optional[float] = None
    ) -> List[int]:
        """Items this user is due to buy again (periodic surface, §III-D1).

        The detector is the one the retailer's last inference selected
        candidates with, so it takes a day that reached inference.
        ``now`` defaults to just past the user's last event.
        """
        selector = self.inference.selector_of(retailer_id)
        dataset = self._datasets.get(retailer_id)
        if selector is None or dataset is None:
            raise DataError(
                f"no re-purchase surface for {retailer_id!r}; run a day first"
            )
        history = dataset.train_histories().get(user_id, [])
        if not history:
            return []
        if now is None:
            now = history[-1].timestamp + 1.0
        return selector.repurchase.due_for_repurchase(history, now)

    def retailer_costs(self) -> Dict[str, float]:
        """Per-retailer charge-back attribution of all compute so far.

        Sigmund deliberately does not *bill* retailers (section V), but
        the attribution answers capacity-planning questions; the values
        sum to :meth:`total_cost` up to estimation error.
        """
        return {
            account.split("/", 1)[1]: amount
            for account, amount in self.ledger.accounts_with_prefix(
                "chargeback/"
            ).items()
        }
