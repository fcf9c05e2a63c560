"""Sigmund's core: the multi-tenant recommendation pipeline.

This package is the paper's primary contribution — everything that turns
"one BPR model" into "thousands of recommendation problems solved daily":

* config records and per-retailer grid search with feature selection
  (:mod:`~repro.core.config`, :mod:`~repro.core.grid`),
* full and incremental sweeps (:mod:`~repro.core.sweep`),
* the model registry with strict retailer isolation
  (:mod:`~repro.core.registry`),
* the training pipeline — Hogwild threads, time-interval checkpointing,
  pre-emptible execution (:mod:`~repro.core.training`,
  :mod:`~repro.core.checkpoint`),
* candidate selection and the offline inference pipeline with bin-packed
  parallelization (:mod:`~repro.core.candidates`,
  :mod:`~repro.core.inference`, :mod:`~repro.core.binpack`),
* the head/tail hybrid (:mod:`~repro.core.hybrid`),
* and the daily service loop plus quality monitoring
  (:mod:`~repro.core.service`, :mod:`~repro.core.monitoring`).
"""

from repro.core.binpack import first_fit_decreasing, makespan
from repro.core.candidates import CandidateSelector, RepurchaseDetector
from repro.core.checkpoint import (
    CheckpointFaultPlan,
    CheckpointManager,
    CheckpointStats,
    CheckpointStorage,
    FilesystemCheckpointStorage,
    InMemoryCheckpointStorage,
)
from repro.core.config import ConfigRecord, OutputConfigRecord
from repro.core.grid import GridSpec, generate_configs
from repro.core.hybrid import HybridRecommender
from repro.core.inference import InferencePipeline, InferenceResult
from repro.core.journal import JournalError, RunJournal
from repro.core.monitoring import QualityMonitor
from repro.core.recovery import KILL_STAGES, CrashPlan
from repro.core.registry import ModelRegistry, TrainedModel
from repro.core.service import DailyRunReport, SigmundService
from repro.core.sweep import SweepPlan, SweepPlanner
from repro.core.training import TrainingPipeline, train_config

__all__ = [
    "ConfigRecord",
    "OutputConfigRecord",
    "GridSpec",
    "generate_configs",
    "ModelRegistry",
    "TrainedModel",
    "SweepPlan",
    "SweepPlanner",
    "train_config",
    "TrainingPipeline",
    "CheckpointManager",
    "CheckpointStorage",
    "CheckpointStats",
    "CheckpointFaultPlan",
    "InMemoryCheckpointStorage",
    "FilesystemCheckpointStorage",
    "RunJournal",
    "JournalError",
    "CrashPlan",
    "KILL_STAGES",
    "CandidateSelector",
    "RepurchaseDetector",
    "InferencePipeline",
    "InferenceResult",
    "first_fit_decreasing",
    "makespan",
    "HybridRecommender",
    "SigmundService",
    "DailyRunReport",
    "QualityMonitor",
]
