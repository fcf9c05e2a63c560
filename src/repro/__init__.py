"""repro — a reproduction of Sigmund (ICDE 2018).

"Recommendations for All: Solving Thousands of Recommendation Problems
Daily" (Kanagal & Tata) describes Sigmund, Google's multi-tenant product
recommendation service.  This library rebuilds the whole system in
Python: the per-retailer BPR models with context users and side
features, the grid-search/incremental-training model-selection machinery,
candidate selection and offline inference, the head/tail hybrid, and the
simulated Borg/MapReduce substrate its cost story depends on.

Quickstart::

    from repro import (
        MarketplaceSpec, SigmundService, build_cluster,
        dataset_from_synthetic, generate_marketplace,
    )

    service = SigmundService(build_cluster())
    for retailer in generate_marketplace(MarketplaceSpec(n_retailers=5)):
        service.onboard(dataset_from_synthetic(retailer))
    report = service.run_day()            # full sweep on day 0
    print(report.configs_trained, service.total_cost())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from typing import Optional

from repro.cluster.cell import Cell, Cluster
from repro.cluster.clock import SimClock
from repro.cluster.machine import MachineSpec
from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.grid import GridSpec, generate_configs
from repro.core.hybrid import HybridRecommender
from repro.core.inference import InferencePipeline, InferenceResult
from repro.core.registry import ModelRegistry, TrainedModel
from repro.core.service import DailyRunReport, SigmundService
from repro.core.sweep import SweepPlanner
from repro.core.training import TrainerSettings, TrainingPipeline, train_config
from repro.cooccurrence import CoOccurrenceCounts, CoOccurrenceModel
from repro.data import (
    MarketplaceSpec,
    RetailerDataset,
    RetailerSpec,
    dataset_from_synthetic,
    generate_marketplace,
    generate_retailer,
)
from repro.evaluation import HoldoutEvaluator
from repro.mapreduce import DeadLetter, FaultPlan
from repro.models import (
    BPRHyperParams,
    BPRModel,
    BPRTrainer,
    PopularityModel,
    WALSHyperParams,
    WALSModel,
)
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    build_fleet_snapshot,
    fleet_snapshot_json,
)
from repro.retrieval import (
    ExactRetrieval,
    IVFConfig,
    IVFIndex,
    ModelRetrieval,
    ann_for_model,
    exact_for_model,
    recall_at_k,
)
from repro.serving import (
    PopularityFallback,
    RecommendationServer,
    RecommendationStore,
    ServingCluster,
    ServingFrontend,
    TrafficGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "SigmundService",
    "DailyRunReport",
    "build_cluster",
    "RetailerSpec",
    "MarketplaceSpec",
    "generate_retailer",
    "generate_marketplace",
    "RetailerDataset",
    "dataset_from_synthetic",
    "BPRModel",
    "BPRHyperParams",
    "BPRTrainer",
    "WALSModel",
    "WALSHyperParams",
    "PopularityModel",
    "CoOccurrenceCounts",
    "CoOccurrenceModel",
    "HybridRecommender",
    "HoldoutEvaluator",
    "GridSpec",
    "generate_configs",
    "ConfigRecord",
    "OutputConfigRecord",
    "SweepPlanner",
    "TrainerSettings",
    "TrainingPipeline",
    "train_config",
    "InferencePipeline",
    "InferenceResult",
    "ModelRegistry",
    "TrainedModel",
    "IVFConfig",
    "IVFIndex",
    "ExactRetrieval",
    "ModelRetrieval",
    "ann_for_model",
    "exact_for_model",
    "recall_at_k",
    "RecommendationStore",
    "RecommendationServer",
    "ServingCluster",
    "ServingFrontend",
    "PopularityFallback",
    "TrafficGenerator",
    "Cell",
    "Cluster",
    "MachineSpec",
    "SimClock",
    "DeadLetter",
    "FaultPlan",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "MetricsSnapshot",
    "Tracer",
    "NullTracer",
    "build_fleet_snapshot",
    "fleet_snapshot_json",
]


def build_cluster(
    n_cells: int = 2,
    machines_per_cell: int = 16,
    machine_spec: Optional[MachineSpec] = None,
) -> Cluster:
    """A ready-to-use simulated cluster (convenience for examples/tests)."""
    spec = machine_spec or MachineSpec(cpus=16, memory_gb=128.0)
    cells = [
        Cell(f"cell-{index}", machines_per_cell, spec)
        for index in range(n_cells)
    ]
    return Cluster(cells)
