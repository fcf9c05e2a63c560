"""The training pipeline: Train(), the Hogwild cost model, cluster execution.

Paper section IV-B: training is a MapReduce whose map phase calls a
``Train()`` function per config record.  The design points reproduced:

* **Train()** reads the config, trains, evaluates on the holdout, and
  emits an output config record with goodness metrics.
* **Random permutation** of config records balances worker load
  (handled by the sweep; the pipeline preserves input order).
* **One retailer per machine, many threads** — instead of packing
  multiple map tasks (and models) per machine, each task trains a single
  model with Hogwild-style lock-free threads, so memory is bounded by one
  model and the already-allocated memory is kept busy.  Here that is
  modelled, not run: a *cost model* (``TrainerSettings.thread_speedup``)
  the simulator bills by, while the real compute is one serial loop.
* **Time-interval checkpointing** against the simulated clock.
* **Per-cell job splitting** sized by free capacity.

The fan-out across machines is modelled the same way: a cell job's
map tasks are list-scheduled over its workers on the simulated clock,
and every Train() call runs in this process, one config after another
(:class:`~repro.mapreduce.runtime.MapReduceRuntime`).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cell import Cluster
from repro.cluster.cost import CostLedger, ResourcePricing
from repro.cluster.machine import Priority, VMRequest
from repro.cluster.preemption import PreemptionModel
from repro.core.checkpoint import (
    CheckpointFaultPlan,
    CheckpointManager,
    CheckpointStorage,
)
from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.recovery import CrashPlan
from repro.core.registry import ModelRegistry, TrainedModel
from repro.data.datasets import RetailerDataset
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.exceptions import ConfigError, DataError, SigmundError
from repro.mapreduce.runtime import (
    FaultPlan,
    JobStats,
    MapReduceJob,
    MapReduceRuntime,
    record_job_metrics,
)
from repro.mapreduce.splits import uniform_splits
from repro.models.bpr import BPRModel
from repro.models.negatives import (
    CompositeNegativeSampler,
    NegativeSampler,
    UniformNegativeSampler,
)
from repro.models.trainer import (
    DEFAULT_BATCH_SIZE,
    BPRTrainer,
    ExampleSet,
    TrainingReport,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracing import NULL_TRACER
from repro.rng import derive_seed

#: Buckets for per-config simulated training seconds (FAST test configs
#: land in the first cells, paper-scale retailers in the hour-range ones).
TRAIN_SECONDS_BUCKETS = (1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0)


@dataclass(frozen=True)
class TrainerSettings:
    """Knobs shared by every Train() invocation in one pipeline run."""

    max_epochs_full: int = 12
    max_epochs_incremental: int = 4
    convergence_tol: float = 1e-3
    patience: int = 2
    #: Simulated seconds of single-thread compute per SGD step.
    seconds_per_sgd_step: float = 2e-4
    checkpoint_interval_seconds: float = 300.0
    #: "taxonomy" enables the composite sampler; "uniform" is cheapest.
    sampler: str = "taxonomy"
    n_threads: int = 4
    #: Per-extra-thread efficiency of Hogwild scaling (1.0 = perfectly linear).
    thread_efficiency: float = 0.85
    #: Triples per BPRModel.step_planned in every daily run's training
    #: (a size: 1 is batches of one through the same loop).
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ConfigError("n_threads must be >= 1")
        if self.sampler not in ("taxonomy", "uniform"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def thread_speedup(self) -> float:
        """Effective speedup of ``n_threads`` Hogwild threads.

        Hogwild scaling is sub-linear (cache coherence, collision
        retries); a constant per-thread efficiency is the standard model.
        """
        if self.n_threads == 1:
            return 1.0
        return 1.0 + (self.n_threads - 1) * self.thread_efficiency


def estimate_model_memory_gb(config: ConfigRecord, dataset: RetailerDataset) -> float:
    """Approximate resident size of one training task, in GB.

    The *training* footprint: two float64 embedding tables (item +
    context) of ``n_items x F``, the feature tables (bounded by the item
    tables), Adagrad state of equal size, plus the in-memory training
    examples.  A published model keeps its parameters only (DESIGN.md,
    "What a model holds, when").  The paper's "dynamically sized virtual
    machine" uses exactly this kind of estimate: small retailers get
    small VMs, the largest get most of a machine.
    """
    factors = config.params.n_factors
    embedding_bytes = 2 * dataset.n_items * factors * 8
    feature_bytes = embedding_bytes  # taxonomy/brand/price + bias, bounded
    optimizer_bytes = embedding_bytes + feature_bytes
    example_bytes = dataset.n_train_interactions * 400  # contexts + events
    total = embedding_bytes + feature_bytes + optimizer_bytes + example_bytes
    overhead_gb = 0.5  # interpreter + buffers
    return overhead_gb + total / (1024.0 ** 3)


def checkpoint_key(config: ConfigRecord) -> str:
    """Checkpoint namespace for one Train() invocation:
    ``day<d>/<retailer id>/m<model number>``.

    Includes the day: config keys are re-issued daily, and a leftover
    checkpoint from an earlier day (e.g. a config that dead-lettered
    mid-training) must never be mistaken for this run's resume point.
    """
    return f"day{config.day}/{config.key}"


#: :func:`checkpoint_key`'s format; the retailer id is everything between
#: the day and the model number, ``/`` included.
_CHECKPOINT_KEY = re.compile(r"day\d+/(?P<retailer>.+)/m\d+")


def checkpoint_belongs_to(key: str, retailer_id: str) -> bool:
    """Whether ``key`` is a :func:`checkpoint_key` of ``retailer_id``'s."""
    match = _CHECKPOINT_KEY.fullmatch(key)
    return match is not None and match["retailer"] == retailer_id


def _make_sampler(
    settings: TrainerSettings, model: BPRModel, dataset: RetailerDataset
) -> NegativeSampler:
    if settings.sampler == "uniform":
        return UniformNegativeSampler(model.n_items)
    return CompositeNegativeSampler(
        model.n_items, taxonomy=dataset.taxonomy, model=model
    )


def _record_train_metrics(metrics, output: OutputConfigRecord) -> None:
    """Fold one Train() invocation into a metrics registry.

    Recorded from the output record's *absolute* totals (restored epochs
    included), so a run resumed from a checkpoint reports the same
    numbers an uninterrupted run would — the invariant the crash-parity
    suite asserts.
    """
    retailer = output.retailer_id
    metrics.counter("train_epochs_total", retailer=retailer).inc(
        output.epochs_run
    )
    metrics.counter("train_sgd_steps_total", retailer=retailer).inc(
        output.sgd_steps
    )
    metrics.counter("train_seconds_total", retailer=retailer).inc(
        output.train_seconds
    )
    metrics.counter(
        "train_configs_total", retailer=retailer, outcome="trained"
    ).inc()
    metrics.histogram(
        "train_config_seconds", TRAIN_SECONDS_BUCKETS, retailer=retailer
    ).observe(output.train_seconds)


def train_config(
    config: ConfigRecord,
    dataset: RetailerDataset,
    settings: TrainerSettings = TrainerSettings(),
    warm_model: Optional[BPRModel] = None,
    checkpoints: Optional[CheckpointManager] = None,
    start_time: float = 0.0,
    crash_plan: Optional["CrashPlan"] = None,
    metrics=NULL_METRICS,
    examples: Optional[ExampleSet] = None,
) -> Tuple[BPRModel, OutputConfigRecord]:
    """The paper's Train(): config record in, model + output record out.

    Warm-started (incremental) runs copy yesterday's parameters, reset
    Adagrad norms, and run fewer epochs — "incremental runs require much
    fewer iterations to converge" (section III-C3).  Checkpoints are
    written on the configured simulated-time interval as epochs complete.

    **Crash recovery**: if a valid checkpoint already exists under this
    config's key, a previous attempt was killed mid-training — the model
    restores from it and trains only the remaining epochs, so lost work
    is bounded by the checkpoint interval.  Checkpoints carry parameters
    only (paper IV-B3 checkpoints "the model learned"), so Adagrad norms
    are explicitly reset on restore, the same semantics as a warm start.
    A corrupt or missing checkpoint degrades to a clean cold start.

    ``config.model_kind == "wals"`` dispatches to the least-squares
    learner instead (paper section VI's drop-in substitute); WALS trains
    in one monolithic fit, so checkpointing does not apply to it.

    ``examples`` is the retailer's :class:`ExampleSet` when the caller
    trains several configs on one dataset; without it the trainer builds
    its own.

    The returned model holds its parameters and nothing else: the Adagrad
    norms are released once the epochs are done (nothing reads them
    again — a later warm start or resume resets them), and the
    effective-item matrix the holdout evaluation assembled is dropped
    with it.
    """
    if dataset.retailer_id != config.retailer_id:
        raise DataError(
            f"config {config.key} cannot train on {dataset.retailer_id!r} data"
        )
    if config.model_kind == "wals":
        return _train_wals_config(
            config, dataset, settings, warm_model, start_time, metrics
        )
    model = BPRModel(dataset.catalog, dataset.taxonomy, config.params)
    warmed = isinstance(warm_model, BPRModel)
    if warmed:
        model.warm_start_from(warm_model)
    max_epochs = (
        settings.max_epochs_incremental
        if config.warm_start and warmed
        else settings.max_epochs_full
    )
    ckpt_key = checkpoint_key(config)
    start_epoch = 0
    if checkpoints is not None:
        resumed = checkpoints.try_restore(ckpt_key, model)
        if resumed is not None:
            model.optimizer.reset_norms()  # norms are not checkpointed
            start_epoch = resumed + 1
    trainer = BPRTrainer(
        model,
        dataset,
        sampler=_make_sampler(settings, model, dataset),
        max_epochs=max(0, max_epochs - start_epoch),
        convergence_tol=settings.convergence_tol,
        patience=settings.patience,
        batch_size=settings.batch_size,
        seed=derive_seed(config.params.seed, "trainer"),
        examples=examples,
    )
    report = TrainingReport()
    epoch_seconds = (
        trainer.n_examples
        * settings.seconds_per_sgd_step
        / settings.thread_speedup()
    )
    # Totals are *absolute*: epochs restored from a checkpoint count as
    # run (they were, before the crash), so a resumed Train() reports the
    # same epochs/steps/seconds as the uninterrupted run it replaces.
    report.epochs_run = start_epoch
    report.sgd_steps = start_epoch * trainer.n_examples
    simulated_now = start_time + start_epoch * epoch_seconds
    for epoch, loss in trainer.iter_epochs():
        absolute_epoch = start_epoch + epoch
        report.epochs_run = absolute_epoch + 1
        report.sgd_steps += trainer.n_examples
        report.epoch_losses.append(loss)
        simulated_now += epoch_seconds
        if checkpoints is not None:
            checkpoints.maybe_checkpoint(
                ckpt_key, model, simulated_now, absolute_epoch
            )
        if crash_plan is not None:
            crash_plan.check("train_epoch", f"{config.key}@e{absolute_epoch}")
    report.converged = trainer.converged
    if checkpoints is not None:
        checkpoints.discard(ckpt_key)
    model.optimizer.release_norms()

    evaluator = HoldoutEvaluator(dataset, seed=derive_seed(config.params.seed, "eval"))
    result = evaluator.evaluate(model)
    model.invalidate_cache()
    output = OutputConfigRecord(
        config=config,
        metrics=dict(result.metrics),
        epochs_run=report.epochs_run,
        sgd_steps=report.sgd_steps,
        train_seconds=simulated_now - start_time,
    )
    _record_train_metrics(metrics, output)
    return model, output


def _train_wals_config(
    config: ConfigRecord,
    dataset: RetailerDataset,
    settings: TrainerSettings,
    warm_model,
    start_time: float,
    metrics=NULL_METRICS,
):
    """Train() for the least-squares substitute (paper section VI).

    Reuses the config's factor count, item regularization, and seed;
    iteration count maps from the epoch budget.
    """
    from repro.models.wals import WALSHyperParams, WALSModel

    params = config.params
    warmed = isinstance(warm_model, WALSModel)
    iterations = (
        settings.max_epochs_incremental
        if config.warm_start and warmed
        else settings.max_epochs_full
    )
    model = WALSModel(
        dataset.n_items,
        WALSHyperParams(
            n_factors=params.n_factors,
            regularization=max(params.reg_item, 1e-4),
            n_iterations=max(1, iterations),
            seed=params.seed,
        ),
        retailer_id=dataset.retailer_id,
    )
    if warmed:
        model.warm_start_from(warm_model)
    model.fit(dataset.train)
    # One ALS iteration visits every observation once on each side.
    steps = 2 * dataset.n_train_interactions * model.params.n_iterations
    simulated_seconds = (
        steps * settings.seconds_per_sgd_step / settings.thread_speedup()
    )
    evaluator = HoldoutEvaluator(dataset, seed=derive_seed(params.seed, "eval"))
    result = evaluator.evaluate(model)
    output = OutputConfigRecord(
        config=config,
        metrics=dict(result.metrics),
        epochs_run=model.params.n_iterations,
        sgd_steps=steps,
        train_seconds=simulated_seconds,
    )
    _record_train_metrics(metrics, output)
    return model, output


@dataclass(frozen=True)
class ConfigFailure:
    """One config record the sweep gave up on (dead-lettered or crashed)."""

    config: ConfigRecord
    error: str
    attempts: int = 1

    @property
    def retailer_id(self) -> str:
        return self.config.retailer_id


@dataclass
class PipelineStats:
    """Aggregated execution statistics of one training pipeline run."""

    configs_trained: int = 0
    configs_failed: int = 0
    total_cost: float = 0.0
    makespan_seconds: float = 0.0
    preemptions: int = 0
    per_cell: Dict[str, JobStats] = field(default_factory=dict)
    #: Every config that failed, with the error that killed it.
    failures: List[ConfigFailure] = field(default_factory=list)
    #: Retailers for which *no* config trained successfully this run —
    #: the ones the service must degrade to yesterday's models for.
    failed_retailers: List[str] = field(default_factory=list)


class _ExampleSets:
    """One training run's :class:`ExampleSet` per retailer: built by the
    retailer's first BPR config, shared by the rest, and let go when the
    last of them takes it.  A retried config past that count builds a set
    of its own."""

    def __init__(self, configs: Sequence[ConfigRecord]) -> None:
        self._left = Counter(
            config.retailer_id for config in configs if config.model_kind != "wals"
        )
        self._sets: Dict[str, ExampleSet] = {}

    def take(self, dataset: RetailerDataset) -> ExampleSet:
        retailer_id = dataset.retailer_id
        examples = self._sets.pop(retailer_id, None)
        if examples is None:
            examples = ExampleSet.build(dataset)
        self._left[retailer_id] -= 1
        if self._left[retailer_id] > 0:
            self._sets[retailer_id] = examples
        return examples


class TrainingPipeline:
    """Runs a sweep's config records as per-cell MapReduce jobs.

    The pipeline (1) splits records across cells proportionally to free
    capacity, (2) runs one MapReduce per cell whose mapper is
    :func:`train_config`, (3) publishes every *successfully* trained
    model to the registry, and (4) charges all simulated compute to the
    ledger.

    Failure isolation: a MapReduce job dead-letters, so one config's
    crash (bad data, injected fault, task out of attempts) dead-letters
    that config instead of aborting the sweep —
    the failure lands in :attr:`PipelineStats.failures`, and retailers
    with no surviving config in :attr:`PipelineStats.failed_retailers`.
    """

    def __init__(
        self,
        cluster: Cluster,
        registry: ModelRegistry,
        settings: TrainerSettings = TrainerSettings(),
        pricing: ResourcePricing = ResourcePricing(),
        preemption_model: PreemptionModel = PreemptionModel(),
        ledger: Optional[CostLedger] = None,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_storage: Optional["CheckpointStorage"] = None,
        checkpoint_fault_plan: Optional["CheckpointFaultPlan"] = None,
        crash_plan: Optional["CrashPlan"] = None,
    ):
        self.cluster = cluster
        self.registry = registry
        self.settings = settings
        self.ledger = ledger or CostLedger(pricing)
        self.runtime = MapReduceRuntime(
            pricing=pricing,
            preemption_model=preemption_model,
            ledger=self.ledger,
            seed=seed,
            fault_plan=fault_plan,
        )
        self.checkpoints = CheckpointManager(
            settings.checkpoint_interval_seconds,
            storage=checkpoint_storage,
            fault_plan=checkpoint_fault_plan,
        )
        self.crash_plan = crash_plan
        self._seed = seed

    def run(
        self,
        configs: Sequence[ConfigRecord],
        datasets: Dict[str, RetailerDataset],
        day: int = 0,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ) -> Tuple[List[OutputConfigRecord], PipelineStats]:
        """Train every config record; returns outputs + execution stats.

        A failed config (or a whole failed cell job) is reported on the
        stats instead of aborting the sweep: the remaining cells and
        configs still train and publish.

        ``metrics`` collects this run's throughput/cost series (per
        retailer via Train(), per cell via the job stats); everything
        recorded here derives deterministically from the run's inputs,
        which is what lets the service seal a crashed-and-recovered
        day's metrics bit-identical to an uninterrupted one.

        Each retailer's training examples are built once per run, by its
        first BPR config, and shared by the rest (:class:`ExampleSet`); a
        set is dropped once its retailer's last BPR config has trained,
        and nothing is kept for the next run.  Once every job is over, a
        retailer that trained keeps only its newest day's models in the
        registry (:meth:`ModelRegistry.keep_latest_day`).
        """
        stats = PipelineStats()
        if not configs:
            return [], stats
        example_sets = _ExampleSets(configs)
        shares = self.cluster.split_by_capacity(len(configs))
        outputs: List[OutputConfigRecord] = []
        cursor = 0
        ordered_cells = sorted(shares, key=lambda name: -shares[name])
        for cell_name in ordered_cells:
            share = shares[cell_name]
            if share <= 0:
                continue
            chunk = list(configs[cursor : cursor + share])
            cursor += share
            if not chunk:
                continue
            try:
                job_outputs, job_stats = self._run_cell_job(
                    cell_name, chunk, datasets, day, example_sets, metrics, tracer
                )
            except SigmundError as exc:
                # The whole cell job died outside its map tasks (which
                # dead-letter instead): every config it held fails, but
                # the other cells' sweeps continue.
                stats.failures.extend(
                    ConfigFailure(config, f"cell {cell_name!r}: {exc}")
                    for config in chunk
                )
                continue
            outputs.extend(job_outputs)
            stats.failures.extend(
                ConfigFailure(
                    letter.record, str(letter.exception), letter.attempts
                )
                for letter in job_stats.dead_letters
                if isinstance(letter.record, ConfigRecord)
            )
            stats.per_cell[cell_name] = job_stats
            stats.total_cost += job_stats.cost
            stats.preemptions += job_stats.preemptions
            stats.makespan_seconds = max(
                stats.makespan_seconds, job_stats.makespan_seconds
            )
        stats.configs_trained = len(outputs)
        stats.configs_failed = len(stats.failures)
        succeeded = {output.retailer_id for output in outputs}
        for retailer_id in sorted(succeeded):
            self.registry.keep_latest_day(retailer_id)
        stats.failed_retailers = sorted(
            {failure.retailer_id for failure in stats.failures} - succeeded
        )
        for failure in stats.failures:
            metrics.counter(
                "train_configs_total",
                retailer=failure.retailer_id,
                outcome="failed",
            ).inc()
        return outputs, stats

    def _run_cell_job(
        self,
        cell_name: str,
        configs: List[ConfigRecord],
        datasets: Dict[str, RetailerDataset],
        day: int,
        example_sets: _ExampleSets,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ) -> Tuple[List[OutputConfigRecord], JobStats]:
        """One cell's Train() job; ``example_sets`` hands out the run's
        retailer example sets."""
        settings = self.settings
        registry = self.registry

        def mapper(record: object):
            config: ConfigRecord = record  # type: ignore[assignment]
            dataset = datasets[config.retailer_id]
            registry.assert_isolated(config.retailer_id, dataset.retailer_id)
            warm_model = self._warm_model(config)
            examples = None
            if config.model_kind != "wals":
                examples = example_sets.take(dataset)
            model, output = train_config(
                config,
                dataset,
                settings=settings,
                warm_model=warm_model,
                checkpoints=self.checkpoints,
                crash_plan=self.crash_plan,
                metrics=metrics,
                examples=examples,
            )
            # Publication happens after the job, from surviving outputs
            # only — a config on a task that later fails permanently must
            # not leave a half-published model in the registry.
            yield config.retailer_id, TrainedModel(model=model, output=output)

        def record_cost(record: object) -> float:
            config: ConfigRecord = record  # type: ignore[assignment]
            dataset = datasets[config.retailer_id]
            epochs = (
                settings.max_epochs_incremental
                if config.warm_start
                else settings.max_epochs_full
            )
            # Examples scale with interactions; cost is per-thread-divided.
            steps = dataset.n_train_interactions * epochs
            return steps * settings.seconds_per_sgd_step / settings.thread_speedup()

        cell = self.cluster.cell(cell_name)
        workers = max(1, cell.free_cpus // settings.n_threads)
        # Dynamically sized VMs (section IV-B2): the job's memory ask is
        # driven by the largest model it will train, rounded up to the
        # next power-of-two tier like real machine shapes.
        peak_gb = max(
            estimate_model_memory_gb(config, datasets[config.retailer_id])
            for config in configs
        )
        memory_gb = float(
            max(2.0, 2.0 ** float(np.ceil(np.log2(max(peak_gb, 1e-9)))))
        )
        job = MapReduceJob(
            name=f"train/day{day}/{cell_name}",
            mapper=mapper,
            n_workers=min(workers, len(configs)),
            vm_request=VMRequest(
                cpus=settings.n_threads,
                memory_gb=memory_gb,
                priority=Priority.PREEMPTIBLE,
            ),
            record_cost_fn=record_cost,
        )
        # One config record per split: a map task trains exactly one model,
        # so no machine ever holds two retailers' models at once.
        splits = uniform_splits(configs, len(configs))
        raw_outputs, job_stats = self.runtime.run(
            job, splits, metrics=metrics, tracer=tracer
        )
        record_job_metrics(metrics, "train", cell_name, job_stats)
        self._attribute_chargebacks(
            configs, record_cost, job_stats.cost, metrics
        )
        outputs: List[OutputConfigRecord] = []
        for entry in _trained_models(raw_outputs):
            registry.publish(entry)
            outputs.append(entry.output)
        return outputs, job_stats

    def _attribute_chargebacks(
        self,
        configs: List[ConfigRecord],
        record_cost,
        job_cost: float,
        metrics=NULL_METRICS,
    ) -> None:
        """Split one job's bill across retailers ∝ estimated work (§V).

        Sigmund chose not to *bill* retailers, but the attribution view is
        cheap to keep and answers "who consumes the fleet" questions.
        """
        estimates = {
            config.key: float(record_cost(config)) for config in configs
        }
        total = sum(estimates.values())
        if total <= 0 or job_cost <= 0:
            return
        for config in configs:
            share = estimates[config.key] / total
            self.ledger.attribute(
                f"chargeback/{config.retailer_id}", job_cost * share
            )
            metrics.counter(
                "train_cost_total", retailer=config.retailer_id
            ).inc(job_cost * share)

    def _warm_model(self, config: ConfigRecord) -> Optional[BPRModel]:
        if not config.warm_start or not self.registry.has_models(config.retailer_id):
            return None
        try:
            return self.registry.get(config.retailer_id, config.model_number).model
        except Exception:
            return None


def _trained_models(outputs: List[object]) -> List[TrainedModel]:
    entries = []
    for item in outputs:
        if isinstance(item, TrainedModel):
            entries.append(item)
        else:  # (retailer_id, entry) pairs from a non-identity reducer
            entries.append(item[1])
    return entries
