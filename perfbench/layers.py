"""Which public callable of which ``src/repro`` module is traced as what.

Span names are the per-layer metric stems (README has the table of which
end-to-end metric each should move, on which workload).  Nothing under
``src/`` is edited: :func:`install` swaps attributes for the traced run
and the :class:`~perfbench.trace.Patcher` puts them back.
"""

from __future__ import annotations

from repro.cooccurrence.counts import CoOccurrenceCounts
from repro.core.candidates import CandidateSelector
from repro.core.checkpoint import CheckpointManager
from repro.core.inference import InferencePipeline
from repro.core.journal import RunJournal
from repro.core.service import SigmundService
from repro.core.sweep import SweepPlanner
from repro.core.training import TrainingPipeline, train_config
from repro.dag.runner import GraphRunner
from repro.evaluation.evaluator import HoldoutEvaluator
from repro.mapreduce.runtime import MapReduceRuntime
from repro.models import negatives
from repro.models.base import Recommender
from repro.models.trainer import BPRTrainer
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import build_day_seal
from repro.retrieval.backend import ann_for_model
from repro.retrieval.harness import measure_model_recall
from repro.retrieval.ivf import IVFIndex
from repro.serving.cluster import ServingCluster
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.gate import PublishGate
from repro.serving.overload import AdmissionController
from repro.serving.server import blend_context_lookups
from repro.serving.store import RecommendationStore

from perfbench.trace import Patcher, Tracer

SAMPLERS = (
    negatives.UniformNegativeSampler,
    negatives.TaxonomyAwareSampler,
    negatives.CoOccurrenceExcludingSampler,
    negatives.AffinityNegativeSampler,
    negatives.CompositeNegativeSampler,
)


def _candidates(args, result):
    return {
        "core.candidates.lists": len(result),
        "core.candidates.candidates": sum(len(pool) for pool in result),
    }


def install(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every traced callable; ``patcher.restore()`` undoes it."""

    def span(name, count=None):
        return lambda fn: tracer.wrap_span(name, fn, count)

    def hot(name):
        return lambda fn: tracer.wrap_hot(name, fn)

    # -- day phase ------------------------------------------------------
    patcher.method(SigmundService, "run_day", span("core.service.run_day"))
    plan = span("core.sweep.plan", lambda a, plan: {"core.sweep.configs": plan.n_configs})
    patcher.method(SweepPlanner, "full_sweep", plan)
    patcher.method(SweepPlanner, "incremental_sweep", plan)
    patcher.method(GraphRunner, "run", span("dag.runner"))
    patcher.method(TrainingPipeline, "run", span("core.training.run"))
    patcher.method(MapReduceRuntime, "run", span("mapreduce.run"))
    patcher.function(train_config, span("core.training.train_config"))
    patcher.method(BPRTrainer, "__init__", span("models.trainer.compile"))
    patcher.method(
        BPRTrainer,
        "run_epoch",
        span("models.trainer.sgd", lambda a, r: {"models.trainer.sgd_steps": len(a[0].examples)}),
    )
    for sampler in SAMPLERS:
        patcher.method(sampler, "sample", hot("models.negatives.sample"))
    patcher.method(HoldoutEvaluator, "evaluate", span("evaluation.evaluate"))
    patcher.method(CheckpointManager, "maybe_checkpoint", span("core.checkpoint.write"))
    patcher.method(CheckpointManager, "discard", span("core.checkpoint.write"))
    for method in ("begin_day", "log_task", "commit_day"):
        patcher.method(RunJournal, method, span("core.journal.log"))
    patcher.method(CoOccurrenceCounts, "from_interactions", span("cooccurrence.build"))
    patcher.method(CandidateSelector, "batch_view_based", span("core.candidates.select", _candidates))
    patcher.method(CandidateSelector, "batch_purchase_based", span("core.candidates.select", _candidates))
    patcher.method(
        Recommender,
        "recommend_batch",
        span(
            "models.recommend_batch",
            lambda a, r: {"models.items_scored": sum(len(pool) for pool in a[2])},
        ),
    )
    patcher.method(InferencePipeline, "run_cell", span("core.inference.run"))
    patcher.function(ann_for_model, span("retrieval.build"))
    patcher.method(IVFIndex, "search", span("retrieval.search"))
    patcher.function(
        measure_model_recall,
        span(
            "retrieval.search",
            lambda a, recall: {"retrieval.recall_sum": recall, "retrieval.recall_n": 1},
        ),
    )
    patcher.method(
        PublishGate,
        "validate",
        span(
            "serving.gate.validate",
            lambda a, decision: {"serving.gate.rejected": 0 if decision.accepted else 1},
        ),
    )
    patcher.method(RecommendationStore, "load_batch", span("serving.store.load_batch"))
    patcher.function(build_day_seal, span("obs.seal"))
    patcher.method(MetricsRegistry, "snapshot", span("obs.seal"))
    patcher.method(MetricsRegistry, "fold", span("obs.seal"))

    # -- serve phase ----------------------------------------------------
    patcher.method(ServingCluster, "load_batch", span("serving.cluster.load_batch"))
    patcher.method(ServingFrontend, "invalidate_retailer", span("serving.frontend.invalidate"))
    patcher.method(ServingFrontend, "request", hot("serving.frontend.request"))
    patcher.method(ServingFrontend, "cache_key", hot("serving.frontend.cache_key"))
    patcher.method(ServingCluster, "lookup", hot("serving.cluster.lookup"))
    patcher.function(blend_context_lookups, hot("serving.server.blend"))
    patcher.method(PopularityFallback, "recommend", hot("serving.frontend.fallback"))
    patcher.method(AdmissionController, "admit", hot("serving.overload.admit"))
