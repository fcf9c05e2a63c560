"""Settings that selected paths no day, request or command ran are gone.

Every MapReduce job dead-letters (there is no per-job failure policy)
and races no backup copy against a straggling task, nothing places VMs
on a cell (so no cell or cluster takes a clock), and
the serving frontend answers from published tables and the popularity
fallback alone (it loads no ANN index).  Passing a removed setting is a
``TypeError``, not a value silently ignored.
"""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.cluster.cell import Cell
from repro.cluster.clock import SimClock
from repro.core.inference import InferencePipeline
from repro.core.registry import ModelRegistry
from repro.core.training import TrainingPipeline
from repro.mapreduce.runtime import MapReduceJob
from repro.serving.frontend import ServingFrontend


def test_removed_settings_are_refused():
    cluster = build_cluster(n_cells=1, machines_per_cell=1)
    registry = ModelRegistry()
    refused = (
        lambda: MapReduceJob(
            name="job", mapper=lambda record: [], failure_policy="fail_job"
        ),
        lambda: MapReduceJob(
            name="job", mapper=lambda record: [], speculative_execution=True
        ),
        lambda: MapReduceJob(
            name="job", mapper=lambda record: [], speculation_factor=2.0
        ),
        lambda: TrainingPipeline(cluster, registry, failure_policy="fail_job"),
        lambda: InferencePipeline(cluster, registry, failure_policy="fail_job"),
        lambda: Cell("c", 1, clock=SimClock()),
        lambda: build_cluster(clock=SimClock()),
    )
    for make in refused:
        with pytest.raises(TypeError):
            make()
    assert not hasattr(ServingFrontend, "load_retrieval_index")
