"""Fault isolation: failure policies, dead letters, graceful degradation.

Covers the failure semantics end to end: the runtime's ``skip_record``
policy and :class:`FaultPlan` injection, per-retailer isolation in the
training and inference pipelines, and the service-level guarantee that
one retailer's bad day degrades that retailer to yesterday's tables
without taking down the fleet.
"""

from __future__ import annotations

import dataclasses
import gc
from types import FunctionType, ModuleType, SimpleNamespace

import pytest

from repro import build_cluster
from repro.cluster.cell import Cell, Cluster
from repro.cluster.machine import MachineSpec
from repro.cluster.preemption import PreemptionModel
from repro.core.grid import GridSpec, generate_configs
from repro.core.inference import InferencePipeline
from repro.core.registry import ModelRegistry
from repro.core.service import SigmundService
from repro.core.training import TrainerSettings, TrainingPipeline
from repro.data.datasets import dataset_from_synthetic
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.taxonomy import Taxonomy
from repro.exceptions import FaultInjectedError, MapReduceError
from repro.mapreduce.runtime import (
    FAIL_JOB,
    MAX_TASK_ATTEMPTS,
    SKIP_RECORD,
    FaultPlan,
    MapReduceJob,
    MapReduceRuntime,
)
from repro.mapreduce.splits import uniform_splits

#: Effectively disables pre-emption so scheduling is deterministic.
STABLE_VMS = PreemptionModel(preemptible_mean_uptime_hours=1e9)

FAST_SETTINGS = TrainerSettings(
    max_epochs_full=2, max_epochs_incremental=1, sampler="uniform"
)

#: One-config grid so pipeline tests stay fast.
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


def passthrough_job(**overrides) -> MapReduceJob:
    defaults = dict(
        name="pass",
        mapper=lambda record: [(record, record)],
        n_workers=2,
        reduce_record_seconds=0.0,
    )
    defaults.update(overrides)
    return MapReduceJob(**defaults)


def make_dataset(retailer_id: str, seed: int):
    return dataset_from_synthetic(
        generate_retailer(
            RetailerSpec(
                retailer_id=retailer_id,
                n_items=40,
                n_users=25,
                n_events=260,
                taxonomy_depth=2,
                taxonomy_fanout=3,
                seed=seed,
            )
        )
    )


class TestRuntimeFailurePolicies:
    def run_poison(self, policy):
        def mapper(record):
            if record == 3:
                raise ValueError("poison record")
            yield record, record

        job = passthrough_job(mapper=mapper, failure_policy=policy)
        runtime = MapReduceRuntime(preemption_model=STABLE_VMS)
        return runtime.run(job, uniform_splits(list(range(6)), 3))

    def test_fail_job_aborts_on_poison_record(self):
        with pytest.raises(MapReduceError, match="poison"):
            self.run_poison(FAIL_JOB)

    def test_skip_record_dead_letters_poison_record(self):
        outputs, stats = self.run_poison(SKIP_RECORD)
        assert sorted(outputs) == [0, 1, 2, 4, 5]
        assert stats.records_skipped == 1
        assert len(stats.dead_letters) == 1
        letter = stats.dead_letters[0]
        assert letter.record == 3
        assert isinstance(letter.exception, ValueError)
        assert letter.attempts == 1
        # The rest of the task's records still made it through.
        assert stats.tasks_failed == 0

    def test_unknown_failure_policy_rejected(self):
        with pytest.raises(MapReduceError, match="failure policy"):
            passthrough_job(failure_policy="retry_forever")

    def test_fault_plan_mapper_times_limits_faults(self):
        plan = FaultPlan().fail_mapper(lambda r: r % 2 == 0, times=1)
        job = passthrough_job(failure_policy=SKIP_RECORD)
        runtime = MapReduceRuntime(preemption_model=STABLE_VMS, fault_plan=plan)
        outputs, stats = runtime.run(job, uniform_splits(list(range(6)), 2))
        # Only the first even record (0) faults; 2 and 4 pass.
        assert sorted(outputs) == [1, 2, 3, 4, 5]
        assert [letter.record for letter in stats.dead_letters] == [0]
        assert isinstance(stats.dead_letters[0].exception, FaultInjectedError)

    def test_attempt_faults_retry_then_complete(self):
        plan = FaultPlan().fail_attempts(lambda r: r == 0, failures=3)
        job = passthrough_job()
        runtime = MapReduceRuntime(preemption_model=STABLE_VMS, fault_plan=plan)
        outputs, stats = runtime.run(job, uniform_splits([0, 1], 2))
        assert sorted(outputs) == [0, 1]
        assert stats.tasks_failed == 0
        assert stats.dead_letters == []
        # Task 0 burned three doomed attempts plus the one that succeeded.
        assert stats.map_attempts == 4 + 1

    def test_permanent_attempt_fault_dead_letters_whole_task(self):
        plan = FaultPlan().fail_attempts(lambda r: r == 4)
        job = passthrough_job(failure_policy=SKIP_RECORD)
        runtime = MapReduceRuntime(preemption_model=STABLE_VMS, fault_plan=plan)
        outputs, stats = runtime.run(job, uniform_splits(list(range(6)), 3))
        # Records 4 and 5 share the doomed split; neither reaches output.
        assert sorted(outputs) == [0, 1, 2, 3]
        assert stats.tasks_failed == 1
        assert sorted(letter.record for letter in stats.dead_letters) == [4, 5]
        assert all(
            letter.attempts == MAX_TASK_ATTEMPTS for letter in stats.dead_letters
        )
        assert stats.records_skipped == 2

    def test_permanent_attempt_fault_aborts_under_fail_job(self):
        plan = FaultPlan().fail_attempts(lambda r: r == 0)
        job = passthrough_job(failure_policy=FAIL_JOB)
        runtime = MapReduceRuntime(preemption_model=STABLE_VMS, fault_plan=plan)
        with pytest.raises(MapReduceError, match="attempts"):
            runtime.run(job, uniform_splits([0, 1], 2))


class TestTrainingPipelineIsolation:
    def build(self, fault_plan=None, failure_policy=SKIP_RECORD):
        cluster = build_cluster(n_cells=2, machines_per_cell=4)
        registry = ModelRegistry()
        pipeline = TrainingPipeline(
            cluster,
            registry,
            settings=FAST_SETTINGS,
            fault_plan=fault_plan,
            failure_policy=failure_policy,
        )
        datasets = {
            "iso_a": make_dataset("iso_a", seed=11),
            "iso_b": make_dataset("iso_b", seed=12),
        }
        configs = [
            config
            for dataset in datasets.values()
            for config in generate_configs(dataset, TINY_GRID)
        ]
        return pipeline, registry, datasets, configs

    def test_failed_retailer_is_isolated(self):
        plan = FaultPlan().fail_mapper(
            lambda r: getattr(r, "retailer_id", None) == "iso_a"
        )
        pipeline, registry, datasets, configs = self.build(fault_plan=plan)
        outputs, stats = pipeline.run(configs, datasets)
        assert {output.retailer_id for output in outputs} == {"iso_b"}
        assert stats.failed_retailers == ["iso_a"]
        assert stats.configs_failed == sum(
            1 for c in configs if c.retailer_id == "iso_a"
        )
        assert all(f.retailer_id == "iso_a" for f in stats.failures)
        # A failed config must never leave a half-published model behind.
        assert not registry.has_models("iso_a")
        assert registry.has_models("iso_b")

    def test_fail_job_policy_sinks_the_cell_not_the_sweep(self):
        plan = FaultPlan().fail_mapper(
            lambda r: getattr(r, "retailer_id", None) == "iso_a"
        )
        pipeline, registry, datasets, configs = self.build(
            fault_plan=plan, failure_policy=FAIL_JOB
        )
        # Order configs so the retailers land in different cell chunks.
        configs.sort(key=lambda c: c.retailer_id)
        outputs, stats = pipeline.run(configs, datasets)
        assert {output.retailer_id for output in outputs} == {"iso_b"}
        assert stats.failed_retailers == ["iso_a"]
        assert any("cell" in failure.error for failure in stats.failures)

    def test_no_faults_means_no_failures(self):
        pipeline, registry, datasets, configs = self.build()
        outputs, stats = pipeline.run(configs, datasets)
        assert stats.configs_failed == 0
        assert stats.failed_retailers == []
        assert len(outputs) == len(configs)


class TestInferenceCellPairing:
    def test_heaviest_group_lands_on_most_free_cell(self):
        # Free cpus 48/16/8: shares come out a=2, b=1, c=1 for 4 retailers.
        cluster = Cluster(
            [
                Cell("cell_a", 6, MachineSpec(cpus=8, memory_gb=64)),
                Cell("cell_b", 2, MachineSpec(cpus=8, memory_gb=64)),
                Cell("cell_c", 1, MachineSpec(cpus=8, memory_gb=64)),
            ]
        )
        registry = SimpleNamespace(has_models=lambda rid: True)
        pipeline = InferencePipeline(cluster, registry)
        datasets = {
            "w": SimpleNamespace(n_items=5),
            "x": SimpleNamespace(n_items=4),
            "y": SimpleNamespace(n_items=3),
            "z": SimpleNamespace(n_items=3),
        }

        assignments = {
            cell_name: frozenset(group)
            for cell_name, group in pipeline.plan(datasets)
        }
        # FFD bins are {w}=5, {x}=4, {y,z}=6: the heaviest bin must pair
        # with the most-free cell, not with whatever order FFD emitted.
        assert assignments["cell_a"] == frozenset({"y", "z"})
        assert assignments["cell_b"] == frozenset({"w"})
        assert assignments["cell_c"] == frozenset({"x"})


def fault_service(fault_plan, n_retailers=2):
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=TINY_GRID,
        settings=FAST_SETTINGS,
        fault_plan=fault_plan,
    )
    for index in range(n_retailers):
        service.onboard(make_dataset(f"svc_{index}", seed=100 + index))
    return service


class TestServiceGracefulDegradation:
    def test_day_n_failure_serves_stale_tables(self):
        # Day 0 trains clean; from day 1 on, svc_0's training always fails.
        plan = FaultPlan().fail_mapper(
            lambda r: getattr(r, "retailer_id", None) == "svc_0"
            and getattr(r, "day", 0) >= 1
        )
        service = fault_service(plan)

        report0 = service.run_day()
        assert report0.failed_retailers == []
        assert report0.retailers_served == 2
        assert service.substitutes_store.versions() == {"svc_0": 1, "svc_1": 1}

        report1 = service.run_day()
        assert report1.failed_retailers == ["svc_0"]
        assert report1.failure_reasons["svc_0"].startswith("training:")
        assert report1.configs_failed >= 1
        assert report1.retailers_served == 1
        assert report1.retailers_stale == 1
        assert report1.retailers_unserved == 0
        # Everyone is still served => full availability, just staleness.
        assert report1.availability == 1.0
        # The failed retailer keeps yesterday's complete table...
        assert service.substitutes_store.freshness(["svc_0", "svc_1"], 2) == {
            "svc_0": "stale",
            "svc_1": "fresh",
        }
        assert service.substitutes_store.lookup("svc_0", 0) is not None
        # ...and the failure is on the monitor, not swallowed.
        failures = service.monitor.failures_for_day(1)
        assert [(a.retailer_id, a.metric) for a in failures] == [
            ("svc_0", "training_availability")
        ]
        assert report1.alerts >= 1
        # Its re-purchase surface is yesterday's too, not gone.
        assert service.repurchase_recommendations("svc_0", user_id=10 ** 9) == []

    def test_a_taxonomy_that_holds_no_items_is_served(self):
        """The sweep plans for it and the default sampler trains it; the
        selector used to refuse it ("inference: item 38 has no category")."""
        service = SigmundService(
            build_cluster(n_cells=2, machines_per_cell=4),
            grid=TINY_GRID,
            settings=TrainerSettings(max_epochs_full=2, max_epochs_incremental=1),
        )
        bare = make_dataset("bare", seed=100)
        service.onboard(dataclasses.replace(bare, taxonomy=Taxonomy()))
        service.onboard(make_dataset("svc_1", seed=101))
        report = service.run_day()
        assert report.failure_reasons == {}
        assert report.retailers_served == 2 and report.retailers_unserved == 0
        # Nothing to expand with: a pool is the co-viewed items themselves.
        tables = service.substitutes_store
        assert any(tables.lookup("bare", item) for item in range(bare.n_items))

    def test_one_uncategorised_item_does_not_unserve_its_retailer(self):
        service = fault_service(FaultPlan())
        dataset = make_dataset("svc_0", seed=100)
        orphan = dataset.train[0].item_index  # somebody's co-viewed neighbour
        taxonomy = Taxonomy()
        for leaf in ("even", "odd"):
            taxonomy.add_category(leaf)
        for item in range(dataset.n_items):
            if item != orphan:
                taxonomy.assign_item(item, ("even", "odd")[item % 2])
        service.update_dataset(dataclasses.replace(dataset, taxonomy=taxonomy))
        report = service.run_day()
        assert report.failure_reasons == {}
        assert report.retailers_served == 2

    def test_day_zero_failure_is_unserved_but_day_completes(self):
        plan = FaultPlan().fail_mapper(
            lambda r: getattr(r, "retailer_id", None) == "svc_0"
        )
        service = fault_service(plan)
        report = service.run_day()
        assert report.failed_retailers == ["svc_0"]
        assert report.retailers_served == 1
        assert report.retailers_unserved == 1
        assert report.availability == pytest.approx(0.5)
        assert not service.substitutes_store.has_retailer("svc_0")
        assert service.substitutes_store.has_retailer("svc_1")
        # The next clean day heals the retailer.
        healed = FaultPlan()  # no rules
        service.training.runtime.fault_plan = healed
        report1 = service.run_day()
        assert report1.failed_retailers == []
        assert service.substitutes_store.has_retailer("svc_0")

    def test_inference_failure_degrades_without_training_loss(self):
        # Poison only inference records, which are (retailer_id, item) tuples.
        plan = FaultPlan().fail_mapper(
            lambda r: isinstance(r, tuple) and r[0] == "svc_0"
        )
        service = fault_service(plan)
        report = service.run_day()
        assert report.failed_retailers == ["svc_0"]
        assert report.failure_reasons["svc_0"].startswith("inference:")
        # Training itself succeeded and published.
        assert service.registry.has_models("svc_0")
        assert report.retailers_served == 1

    def test_a_dead_inference_cell_degrades_only_its_retailers(self, monkeypatch):
        """A cell job that raises takes its own retailers' inference down
        with it (the ``infer/<cell>`` block catches it); the day's other
        cell still publishes fresh tables."""
        service = fault_service(FaultPlan())
        service.run_day()
        run_cell = service.inference.run_cell
        groups = []

        def dying(cell_name, datasets, *args, **kwargs):
            groups.append(sorted(datasets))
            if "svc_0" in datasets:
                raise MapReduceError("cell lost")
            return run_cell(cell_name, datasets, *args, **kwargs)

        monkeypatch.setattr(service.inference, "run_cell", dying)
        report = service.run_day()
        assert sorted(groups) == [["svc_0"], ["svc_1"]]  # one retailer a cell
        assert report.failed_retailers == ["svc_0"]
        assert report.failure_reasons["svc_0"].startswith("inference: cell ")
        assert report.failure_reasons["svc_0"].endswith(": cell lost")
        assert report.retailers_served == 1 and report.retailers_stale == 1
        assert service.substitutes_store.freshness(["svc_0", "svc_1"], 2) == {
            "svc_0": "stale",
            "svc_1": "fresh",
        }
        # Training itself succeeded and published.
        assert service.registry.has_models("svc_0")

    def test_run_day_with_fewer_configs_than_cells(self):
        # 2 configs over 4 cells used to crash split_by_capacity outright.
        service = SigmundService(
            build_cluster(n_cells=4, machines_per_cell=2),
            grid=TINY_GRID,
            settings=FAST_SETTINGS,
        )
        service.onboard(make_dataset("lonely", seed=5))
        report = service.run_day()
        assert report.failed_retailers == []
        assert report.configs_trained >= 1
        assert report.retailers_served == 1
        assert service.substitutes_store.has_retailer("lonely")


def reachable_from(root) -> dict:
    """Every object reachable from ``root`` through instance state, by id:
    classes, modules and a function's globals are not followed, its
    closure and defaults are."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return seen


class TestOffboardedTenantIsForgotten:
    def test_nothing_reachable_from_inference_references_the_departed(self):
        """The pipeline's selector cache pinned a departed retailer's
        dataset, log and co-view counts until the next day's ``plan()`` —
        for ever if no day followed."""
        service = fault_service(FaultPlan())
        service.run_day()
        departed = service._datasets["svc_0"]
        assert id(departed.train) in reachable_from(service.inference)
        service.offboard("svc_0")
        seen = reachable_from(service.inference)
        for part in (
            departed,
            departed.train,
            departed.train[0],
            departed.catalog,
            departed.taxonomy,
        ):
            assert id(part) not in seen, type(part).__name__
        assert not [
            text for text in seen.values() if isinstance(text, str) and "svc_0" in text
        ]
        assert service.inference.selector_of("svc_0") is None
        # The co-tenant's selector is where it was.
        kept = service._datasets["svc_1"]
        assert id(kept.train) in seen
        assert service.inference.selector_of("svc_1").catalog is kept.catalog

