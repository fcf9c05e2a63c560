"""Tests for input splits and the MapReduce runtime."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.preemption import PreemptionModel
from repro.exceptions import MapReduceError
from repro.mapreduce.runtime import (
    FaultPlan,
    MapReduceJob,
    MapReduceRuntime,
    _TaskRun,
)
from repro.mapreduce.splits import (
    contiguous_splits_by_key,
    random_permutation_splits,
    uniform_splits,
)
from repro.obs.tracing import Tracer


class TestSplits:
    def test_uniform_preserves_all_records(self):
        splits = uniform_splits(list(range(10)), 3)
        assert [len(s) for s in splits] == [4, 3, 3]
        assert [r for s in splits for r in s.records] == list(range(10))

    def test_more_splits_than_records(self):
        splits = uniform_splits([1, 2], 5)
        assert len(splits) == 2

    def test_zero_splits_rejected(self):
        with pytest.raises(MapReduceError):
            uniform_splits([1], 0)

    def test_random_permutation_conserves_records(self):
        records = list(range(50))
        splits = random_permutation_splits(records, 5, seed=1)
        flattened = sorted(r for s in splits for r in s.records)
        assert flattened == records

    def test_random_permutation_deterministic(self):
        a = random_permutation_splits(list(range(20)), 4, seed=3)
        b = random_permutation_splits(list(range(20)), 4, seed=3)
        assert [s.records for s in a] == [s.records for s in b]

    def test_contiguous_by_key_groups_keys(self):
        records = [("b", 1), ("a", 1), ("b", 2), ("a", 2), ("c", 1)]
        splits = contiguous_splits_by_key(records, lambda r: r[0], 2)
        ordered = [r for s in splits for r in s.records]
        keys = [k for k, _ in ordered]
        # each key appears in one contiguous run
        runs = [keys[0]]
        for key in keys[1:]:
            if key != runs[-1]:
                runs.append(key)
        assert len(runs) == len(set(keys))


class TestRuntime:
    def word_count_job(self, **kwargs):
        return MapReduceJob(
            name="wc",
            mapper=lambda record: [(record, 1)],
            reducer=lambda key, values: [(key, sum(values))],
            **kwargs,
        )

    def test_outputs_correct(self):
        runtime = MapReduceRuntime(seed=0)
        records = ["a", "b", "a", "c", "a"]
        outputs, _ = runtime.run(self.word_count_job(), uniform_splits(records, 2))
        assert sorted(outputs) == [("a", 3), ("b", 1), ("c", 1)]

    def test_outputs_independent_of_split_strategy(self):
        runtime = MapReduceRuntime(seed=0)
        records = [f"k{i % 7}" for i in range(40)]
        out_a, _ = runtime.run(self.word_count_job(), uniform_splits(records, 4))
        out_b, _ = runtime.run(
            self.word_count_job(), random_permutation_splits(records, 4, seed=9)
        )
        assert sorted(out_a) == sorted(out_b)

    def test_default_reducer_is_identity(self):
        job = MapReduceJob(name="ident", mapper=lambda r: [(0, r)])
        outputs, _ = MapReduceRuntime(seed=0).run(job, uniform_splits([1, 2, 3], 1))
        assert sorted(outputs) == [1, 2, 3]

    def test_stats_accounting(self):
        runtime = MapReduceRuntime(seed=1)
        job = self.word_count_job(n_workers=2, record_cost_fn=lambda r: 10.0)
        outputs, stats = runtime.run(job, uniform_splits(["a"] * 8, 4))
        assert stats.map_tasks == 4
        assert stats.map_attempts >= 4
        assert stats.makespan_seconds > 0
        assert stats.cost > 0
        assert len(stats.worker_busy_seconds) == 2

    def test_preemptions_retry_and_still_complete(self):
        hostile = PreemptionModel(preemptible_mean_uptime_hours=0.05)
        runtime = MapReduceRuntime(preemption_model=hostile, seed=2)
        job = self.word_count_job(record_cost_fn=lambda r: 30.0)
        outputs, stats = runtime.run(job, uniform_splits(["a"] * 6, 3))
        assert sorted(outputs) == [("a", 6)]
        assert stats.preemptions > 0
        assert stats.map_attempts > stats.map_tasks

    def test_load_imbalance_metric(self):
        runtime = MapReduceRuntime(seed=3)
        # one giant record in one split, three trivial splits
        job = MapReduceJob(
            name="skew",
            mapper=lambda r: [(0, r)],
            n_workers=4,
            record_cost_fn=lambda r: float(r),
        )
        splits = uniform_splits([1000, 1, 1, 1], 4)
        _, stats = runtime.run(job, splits)
        assert stats.load_imbalance > 2.0

    def test_charges_go_to_shared_ledger(self):
        from repro.cluster.cost import CostLedger

        ledger = CostLedger()
        runtime = MapReduceRuntime(ledger=ledger, seed=4)
        runtime.run(self.word_count_job(), uniform_splits(["a"], 1))
        assert ledger.total("wc") > 0

    def test_zero_workers_rejected(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(name="bad", mapper=lambda r: [], n_workers=0)


@settings(max_examples=15, deadline=None)
@given(
    n_records=st.integers(min_value=1, max_value=60),
    n_splits=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_runtime_output_is_split_invariant(n_records, n_splits, seed):
    """Real outputs never depend on how scheduling/splitting happened."""
    records = [i % 5 for i in range(n_records)]
    job = MapReduceJob(
        name="sum",
        mapper=lambda r: [(r % 2, r)],
        reducer=lambda key, values: [(key, sum(values))],
    )
    runtime = MapReduceRuntime(seed=seed)
    outputs, _ = runtime.run(job, random_permutation_splits(records, n_splits, seed))
    expected_even = sum(r for r in records if r % 2 == 0)
    expected_odd = sum(r for r in records if r % 2 == 1)
    as_dict = dict(outputs)
    assert as_dict.get(0, 0) == expected_even
    assert as_dict.get(1, 0) == expected_odd


class TestSpeculativeExecution:
    def stats_for(self, speculative: bool, seed: int = 8):
        hostile = PreemptionModel(preemptible_mean_uptime_hours=0.05)
        runtime = MapReduceRuntime(preemption_model=hostile, seed=seed)
        job = MapReduceJob(
            name="spec",
            mapper=lambda r: [(0, r)],
            n_workers=4,
            record_cost_fn=lambda r: 60.0,
            speculative_execution=speculative,
        )
        _, stats = runtime.run(job, uniform_splits([1] * 8, 8))
        return stats

    def test_backups_fire_under_heavy_preemption(self):
        stats = self.stats_for(speculative=True)
        assert stats.speculative_copies > 0

    def test_no_backups_when_disabled(self):
        stats = self.stats_for(speculative=False)
        assert stats.speculative_copies == 0

    def test_speculation_cuts_straggler_makespan_on_average(self):
        """Averaged over seeds, racing a backup copy against a straggler
        shortens the job (at some extra billed cost)."""
        base_makespans, spec_makespans = [], []
        for seed in range(10):
            base_makespans.append(self.stats_for(False, seed).makespan_seconds)
            spec_makespans.append(self.stats_for(True, seed).makespan_seconds)
        assert sum(spec_makespans) < sum(base_makespans)

    def test_outputs_unaffected(self):
        hostile = PreemptionModel(preemptible_mean_uptime_hours=0.05)
        runtime = MapReduceRuntime(preemption_model=hostile, seed=3)
        job = MapReduceJob(
            name="spec-out",
            mapper=lambda r: [(0, 1)],
            reducer=lambda key, values: [sum(values)],
            record_cost_fn=lambda r: 30.0,
            speculative_execution=True,
        )
        outputs, _ = runtime.run(job, uniform_splits([0] * 6, 3))
        assert outputs == [6]

    def test_backup_copies_not_double_billed(self):
        """Regression: each racing copy is billed its own time truncated
        at the winner's wall-clock.  The old formula added the winner's
        full wall time on top of the original's bill, double-charging
        whenever billed time diverges from wall time."""

        class ScriptedRuntime(MapReduceRuntime):
            def __init__(self, runs):
                super().__init__()
                self._script = list(runs)

            def _simulate_attempts(self, duration, priority, records=()):
                return self._script.pop(0)

        runtime = ScriptedRuntime(
            [
                # Straggling original: 100s wall but only 40s billed
                # (most attempts died at launch without accruing bill).
                _TaskRun(
                    wall=100.0, billed=40.0, attempts=3, preemptions=2,
                    completed=True,
                ),
                # The backup wins the race at 30s wall, 12s billed.
                _TaskRun(
                    wall=30.0, billed=12.0, attempts=1, preemptions=0,
                    completed=True,
                ),
            ]
        )
        job = MapReduceJob(
            name="spec-bill",
            mapper=lambda r: [(r, r)],
            n_workers=1,
            record_cost_fn=lambda r: 10.0,
            task_startup_seconds=0.0,
            reduce_record_seconds=0.0,
            speculative_execution=True,
            speculation_factor=2.0,
        )
        outputs, stats = runtime.run(job, uniform_splits([1], 1))
        assert outputs == [1]
        assert stats.speculative_copies == 1
        # Winner defines wall time; bills: min(40, 30) + min(12, 30).
        assert stats.makespan_seconds == pytest.approx(30.0)
        assert stats.billed_vm_seconds == pytest.approx(42.0)


class TestSimulatedWorkers:
    """The job's ``n_workers`` slots exist only on the simulated clock:
    they shape makespan and placement, never what the mappers compute."""

    #: Uptimes so long no task is ever pre-empted: durations are exact.
    CALM = PreemptionModel(preemptible_mean_uptime_hours=1e9)

    def job(self, n_workers: int, seen=None) -> MapReduceJob:
        def mapper(record):
            if seen is not None:
                seen.append(record)
            return [(record % 3, record)]

        return MapReduceJob(
            name="slots",
            mapper=mapper,
            reducer=lambda key, values: [(key, sorted(values))],
            n_workers=n_workers,
            record_cost_fn=lambda record: float(record),
            task_startup_seconds=2.0,
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_outputs_independent_of_worker_count(self, n_workers):
        splits = uniform_splits(list(range(20)), 6)
        expected, _ = MapReduceRuntime(seed=5).run(self.job(1), splits)
        outputs, stats = MapReduceRuntime(seed=5).run(self.job(n_workers), splits)
        assert outputs == expected
        assert len(stats.worker_busy_seconds) == n_workers

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
    def test_busy_time_is_the_tasks_time_however_it_is_spread(self, n_workers):
        """Without pre-emption each task costs its startup plus its
        records; spreading tasks over more slots divides the makespan,
        never the work."""
        records = list(range(20))
        splits = uniform_splits(records, 6)
        runtime = MapReduceRuntime(preemption_model=self.CALM, seed=0)
        _, stats = runtime.run(self.job(n_workers), splits)
        work = 2.0 * len(splits) + float(sum(records))
        assert stats.preemptions == 0
        assert sum(stats.worker_busy_seconds) == pytest.approx(work)
        map_makespan = stats.makespan_seconds - stats.reduce_seconds
        assert map_makespan == pytest.approx(max(stats.worker_busy_seconds))
        assert map_makespan >= work / n_workers - 1e-9
        assert stats.billed_vm_seconds == pytest.approx(work + stats.reduce_seconds)

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_mapper_sees_each_record_once_in_split_order(self, n_workers):
        records = [7, 3, 11, 0, 5, 9, 2]
        seen: list = []
        splits = random_permutation_splits(records, 3, seed=4)
        MapReduceRuntime(seed=0).run(self.job(n_workers, seen), splits)
        assert seen == [record for split in splits for record in split.records]

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_dead_letters_do_not_depend_on_the_worker_count(self, n_workers):
        """A mapper fault is met while the records run, before any task
        is placed on a slot: the same records are skipped either way."""
        job = self.job(n_workers)
        splits = uniform_splits(list(range(12)), 4)
        plan = FaultPlan().fail_mapper(lambda record: record in (4, 9))
        outputs, stats = MapReduceRuntime(seed=0, fault_plan=plan).run(job, splits)
        assert [letter.record for letter in stats.dead_letters] == [4, 9]
        assert stats.records_skipped == 2
        assert outputs == [
            (0, [0, 3, 6]),
            (1, [1, 7, 10]),
            (2, [2, 5, 8, 11]),
        ]

    def test_each_task_goes_to_the_earliest_free_slot(self):
        """List scheduling: equal tasks alternate over two slots, and a
        long task keeps its slot busy while the other takes the rest."""
        tracer = Tracer()
        runtime = MapReduceRuntime(preemption_model=self.CALM, seed=0)
        runtime.run(self.job(2), uniform_splits([40, 1, 1, 1, 1], 5), tracer=tracer)
        spans = sorted(tracer.find("map_task"), key=lambda span: span.attrs["task"])
        assert [span.attrs["worker"] for span in spans] == [0, 1, 1, 1, 1]
        assert [span.start for span in spans] == [0.0, 0.0, 3.0, 6.0, 9.0]
