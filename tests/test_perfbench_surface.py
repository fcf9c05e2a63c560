"""The callables perfbench traces are where perfbench patches them.

``perfbench.layers.install`` wraps methods by class and attribute name
and module functions by identity.  A method renamed or moved off its
class fails the 40 s benchmark; this fails tier-1 in a second instead.
"""

from __future__ import annotations

import pytest

from perfbench.layers import install
from perfbench.trace import HOT, Patcher, Tracer

from repro.dag.runner import GraphRunner
from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.serving.cluster import ServingCluster
from repro.serving.frontend import PopularityFallback, ServingFrontend
from repro.serving.overload import OverloadProtection
from tests.test_crash_recovery import make_service


def traced_layers(protection) -> set:
    """Hot layer names one uncached request reaches under the tracer."""
    cluster = ServingCluster(n_nodes=2, n_shards=4, replication=2)
    cluster.load_batch("shop", {0: [ScoredItem(1, 1.0)]}, version=1)
    fallback = PopularityFallback()
    fallback.load_view_counts("shop", {item: 1.0 for item in range(20)})
    frontend = ServingFrontend(cluster, fallback=fallback, protection=protection)
    tracer = Tracer()
    with Patcher() as patcher:
        install(patcher, tracer)
        with tracer.span("serve"):
            frontend.request("shop", UserContext((0,), (0,)), k=5)
    return set(tracer.spans[0][HOT])


def test_every_traced_callable_is_still_patchable():
    with Patcher() as patcher:
        install(patcher, Tracer())


def test_request_reaches_the_traced_stages_through_patchable_names():
    stages = {
        "serving.frontend.request",
        "serving.frontend.cache_key",
        "serving.cluster.lookup",
        "serving.server.blend",
        "serving.frontend.fallback",  # the tail top-up
    }
    # ``admit_us > 0`` on the protected workload alone is a perfbench
    # assertion: the null policy must not go through the controller.
    assert traced_layers(None) == stages
    assert traced_layers(OverloadProtection()) == stages | {"serving.overload.admit"}


@pytest.mark.parametrize("orchestration,runs", [("serial", 0), ("dag", 1)])
def test_only_a_dag_day_enters_the_graph_runner(monkeypatch, orchestration, runs):
    """perfbench reads ``dag.runner.self_s > 0`` on churn (dag) alone."""
    calls = []
    run = GraphRunner.run

    def counted(self, *args, **kwargs):
        calls.append(orchestration)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(GraphRunner, "run", counted)
    make_service(orchestration=orchestration).run_day()
    assert len(calls) == runs


def test_a_traced_cell_counts_every_candidate_once():
    """perfbench sums ``len(pool)`` over what the block selectors return
    and over the pools ``recommend_batch`` is handed: a block's ragged
    pools must iterate as their rows, so both counters read the pools'
    total length."""
    service = make_service()
    service.run_day()  # trains and publishes both retailers
    datasets = dict(service._datasets)
    tracer = Tracer()
    with Patcher() as patcher:
        install(patcher, tracer)
        with tracer.span("day"):
            results, _, failed = service.inference.run_cell("cell", datasets, day=1)
    assert not failed and set(results) == set(datasets)
    total = 0
    for rid, dataset in datasets.items():
        selector = service.inference.selector_of(rid)
        items = list(range(dataset.n_items))
        for pools in (selector.batch_view_based(items), selector.batch_purchase_based(items)):
            total += pools.items.size
    assert total > 0
    assert tracer.counters["core.candidates.candidates"] == total
    assert tracer.counters["models.items_scored"] == total
