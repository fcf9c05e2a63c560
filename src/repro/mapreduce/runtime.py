"""The MapReduce runtime: real computation, simulated scheduling.

Design: user mapper/reducer code is executed exactly once per record in
process (so jobs produce real outputs), while scheduling is *simulated*
against the cluster — per-task durations come from a caller-supplied cost
model, tasks run on pre-emptible VMs whose uptimes are sampled from the
pre-emption model, pre-empted attempts are re-queued and re-billed, and
the ledger collects the money.  This separation lets experiments measure
makespan/cost effects (pre-emption rates, split strategies, threading)
without re-running expensive user code per attempt.

Scheduling model: the job holds ``n_workers`` single-task VM slots; each
map task goes to the earliest-free worker (list scheduling), which is how
a MapReduce master assigns splits to a fixed worker pool.  The workers
exist only on the simulated clock: every map task's real compute runs in
this one process, in split order.

Failure semantics: every job dead-letters.  A record whose mapper
raises, and every record of a task that exhausts
:data:`MAX_TASK_ATTEMPTS`, is diverted to a dead-letter list on
:class:`JobStats` and the rest of the job completes — so one retailer's
bad day cannot take down Sigmund's multi-tenant daily loop.
:class:`FaultPlan` injects deterministic failures (mapper exceptions or
doomed task attempts) so the dead-letter path is testable without
relying on luck.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cost import CostLedger, ResourcePricing
from repro.cluster.machine import Priority, VMRequest
from repro.cluster.preemption import PreemptionModel
from repro.exceptions import FaultInjectedError, MapReduceError
from repro.mapreduce.splits import InputSplit
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracing import NULL_TRACER
from repro.rng import SeedLike, make_rng

#: A mapper takes one record and yields (key, value) pairs.
MapperFn = Callable[[object], Iterable[Tuple[object, object]]]
#: A reducer takes (key, values) and yields output records.
ReducerFn = Callable[[object, List[object]], Iterable[object]]
#: Returns simulated seconds of compute for one record.
RecordCostFn = Callable[[object], float]

#: Attempts per task before it fails permanently (MapReduce semantics).
MAX_TASK_ATTEMPTS = 50

def _identity_reducer(key: object, values: List[object]) -> Iterable[object]:
    """Default reducer: pass every value through."""
    del key
    return values


@dataclass(frozen=True)
class DeadLetter:
    """One record the job gave up on, with why and after how many tries."""

    record: object
    exception: BaseException
    attempts: int


class FaultPlan:
    """Deterministic fault injection for robustness tests and benchmarks.

    Two kinds of faults, both keyed by a record predicate:

    * :meth:`fail_mapper` — the mapper raises for matching records (a
      poison record / bad tenant data), optionally only the first
      ``times`` matches.
    * :meth:`fail_attempts` — the first ``failures`` scheduling attempts
      of any task containing a matching record die at launch
      (``failures=None`` dooms the task permanently, e.g. a config whose
      memory ask no machine survives).

    Rules are consulted in registration order; plans are reusable across
    jobs (mapper-fault counters persist, attempt counters are per task).
    """

    def __init__(self) -> None:
        self._mapper_rules: List[dict] = []
        self._attempt_rules: List[dict] = []

    # ------------------------------------------------------------------
    # Declaring faults
    # ------------------------------------------------------------------
    def fail_mapper(
        self,
        match: Callable[[object], bool],
        exception: Optional[BaseException] = None,
        times: Optional[int] = None,
    ) -> "FaultPlan":
        """Raise ``exception`` from the mapper for matching records."""
        self._mapper_rules.append(
            {"match": match, "exception": exception, "times": times, "fired": 0}
        )
        return self

    def fail_attempts(
        self,
        match: Callable[[object], bool],
        failures: Optional[int] = None,
    ) -> "FaultPlan":
        """Kill the first ``failures`` attempts of matching tasks (None = all)."""
        self._attempt_rules.append({"match": match, "failures": failures})
        return self

    # ------------------------------------------------------------------
    # Runtime-facing queries
    # ------------------------------------------------------------------
    def mapper_fault(self, record: object) -> Optional[BaseException]:
        """The exception to raise for ``record``, or None."""
        for rule in self._mapper_rules:
            if rule["times"] is not None and rule["fired"] >= rule["times"]:
                continue
            if rule["match"](record):
                rule["fired"] += 1
                if rule["exception"] is not None:
                    return rule["exception"]
                return FaultInjectedError(f"injected mapper fault for {record!r}")
        return None

    def attempt_fails(self, records: Sequence[object], attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) of a task dies."""
        for rule in self._attempt_rules:
            if any(rule["match"](record) for record in records):
                if rule["failures"] is None or attempt <= rule["failures"]:
                    return True
        return False


@dataclass
class MapReduceJob:
    """Specification of one job (what Sigmund's config files declare)."""

    name: str
    mapper: MapperFn
    reducer: ReducerFn = _identity_reducer
    n_workers: int = 4
    vm_request: VMRequest = field(
        default_factory=lambda: VMRequest(cpus=4, memory_gb=32, priority=Priority.PREEMPTIBLE)
    )
    #: Simulated seconds of map compute per record (default: 1s each).
    record_cost_fn: RecordCostFn = lambda record: 1.0
    #: Fixed simulated seconds per task attempt (scheduling + data fetch).
    task_startup_seconds: float = 5.0
    #: Simulated seconds per reduce output record (writes are cheap).
    reduce_record_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise MapReduceError("a job needs at least one worker")


@dataclass
class JobStats:
    """Simulated execution statistics of one job run."""

    job_name: str
    makespan_seconds: float = 0.0
    billed_vm_seconds: float = 0.0
    cost: float = 0.0
    map_tasks: int = 0
    map_attempts: int = 0
    preemptions: int = 0
    reduce_seconds: float = 0.0
    #: Map tasks that exhausted their attempts.
    tasks_failed: int = 0
    #: Records dead-lettered (mapper faults plus records on permanently
    #: failed tasks); mirrors ``dead_letters``.
    records_skipped: int = 0
    #: The records the job gave up on, with exceptions and attempt counts.
    dead_letters: List[DeadLetter] = field(default_factory=list)
    #: Total simulated busy seconds per worker slot (skew diagnostics).
    worker_busy_seconds: List[float] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        """max/mean worker busy time; 1.0 means perfectly balanced."""
        busy = [b for b in self.worker_busy_seconds]
        if not busy or sum(busy) == 0:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0


def record_job_metrics(metrics, phase: str, cell: str, stats: JobStats) -> None:
    """One cell job's epilogue, shared by Train() and Infer(): its billed
    VM seconds, preemptions, dead letters and makespan, labelled by
    ``phase`` (``train`` / ``inference``) and ``cell``."""
    metrics.counter(f"{phase}_billed_vm_seconds_total", cell=cell).inc(
        stats.billed_vm_seconds
    )
    metrics.counter("preemptions_total", phase=phase, cell=cell).inc(stats.preemptions)
    metrics.counter("dead_letters_total", phase=phase, cell=cell).inc(
        len(stats.dead_letters)
    )
    metrics.gauge(f"{phase}_makespan_seconds", cell=cell).set(stats.makespan_seconds)


@dataclass
class _TaskRun:
    """Outcome of simulating one map task's scheduling attempts."""

    wall: float
    billed: float
    attempts: int
    preemptions: int
    completed: bool
    failure: Optional[MapReduceError] = None


class MapReduceRuntime:
    """Runs jobs: executes user code once, simulates the cluster around it."""

    def __init__(
        self,
        pricing: ResourcePricing = ResourcePricing(),
        preemption_model: PreemptionModel = PreemptionModel(),
        ledger: Optional[CostLedger] = None,
        seed: SeedLike = 0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.pricing = pricing
        self.preemption_model = preemption_model
        self.ledger = ledger or CostLedger(pricing)
        self.fault_plan = fault_plan
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        job: MapReduceJob,
        splits: Sequence[InputSplit],
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ) -> Tuple[List[object], JobStats]:
        """Execute ``job`` over ``splits``; returns (outputs, stats).

        ``metrics`` receives job-level counters; ``tracer`` receives one
        span per map task (and one for the reduce phase) on the
        job-relative simulated timeline.  Both default to the shared
        no-op singletons, so uninstrumented callers pay nothing.
        """
        stats = JobStats(job_name=job.name, map_tasks=len(splits))
        intermediate = self._map_phase(job, splits, stats, tracer)
        outputs = self._reduce_phase(job, intermediate, stats, tracer)
        stats.cost = self.ledger.charge(
            job.name, job.vm_request, stats.billed_vm_seconds
        )
        metrics.counter("mapreduce_tasks_total", job=job.name).inc(
            stats.map_tasks
        )
        metrics.counter("mapreduce_attempts_total", job=job.name).inc(
            stats.map_attempts
        )
        metrics.counter("mapreduce_records_skipped_total", job=job.name).inc(
            stats.records_skipped
        )
        return outputs, stats

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def _map_phase(
        self,
        job: MapReduceJob,
        splits: Sequence[InputSplit],
        stats: JobStats,
        tracer=NULL_TRACER,
    ) -> Dict[object, List[object]]:
        tasks = self._execute_inline(job, splits, stats)

        # Simulated scheduling: list-schedule task durations over workers,
        # sampling VM uptime per attempt.
        intermediate: Dict[object, List[object]] = defaultdict(list)
        workers = [0.0] * job.n_workers
        for task_index, (split, duration, pairs) in enumerate(tasks):
            worker = min(range(job.n_workers), key=lambda w: workers[w])
            task_start = workers[worker]
            run = self._simulate_attempts(
                duration, job.vm_request.priority, split.records
            )
            tracer.record_span(
                "map_task",
                task_start,
                task_start + run.wall,
                job=job.name,
                task=task_index,
                worker=worker,
                attempts=run.attempts,
                preemptions=run.preemptions,
                completed=run.completed,
            )
            workers[worker] += run.wall
            stats.billed_vm_seconds += run.billed
            stats.map_attempts += run.attempts
            stats.preemptions += run.preemptions
            if run.completed:
                for key, value in pairs:
                    intermediate[key].append(value)
            else:
                # The task died for good: its records are dead-lettered
                # (the attempts' wall and billed time stay on the books —
                # the cluster really burned them).
                stats.tasks_failed += 1
                already_dead = {
                    id(letter.record) for letter in stats.dead_letters
                }
                for record in split.records:
                    if id(record) in already_dead:
                        continue
                    stats.dead_letters.append(
                        DeadLetter(record, run.failure, attempts=run.attempts)
                    )
                    stats.records_skipped += 1
        stats.worker_busy_seconds = workers
        stats.makespan_seconds = max(workers) if workers else 0.0
        return intermediate

    def _execute_inline(
        self,
        job: MapReduceJob,
        splits: Sequence[InputSplit],
        stats: JobStats,
    ) -> List[Tuple[InputSplit, float, List[Tuple[object, object]]]]:
        """Every record through the mapper, in order, in this process.

        Output pairs are buffered per task so a task that later fails its
        scheduling permanently can be dropped without side effects leaking
        into the shuffle.
        """
        tasks: List[Tuple[InputSplit, float, List[Tuple[object, object]]]] = []
        for split in splits:
            seconds = job.task_startup_seconds
            pairs: List[Tuple[object, object]] = []
            for record in split.records:
                try:
                    seconds += float(job.record_cost_fn(record))
                    fault = (
                        self.fault_plan.mapper_fault(record)
                        if self.fault_plan is not None
                        else None
                    )
                    if fault is not None:
                        raise fault
                    pairs.extend(job.mapper(record))
                except Exception as exc:
                    stats.dead_letters.append(DeadLetter(record, exc, attempts=1))
                    stats.records_skipped += 1
            tasks.append((split, seconds, pairs))
        return tasks

    def _simulate_attempts(
        self,
        duration: float,
        priority: Priority,
        records: Sequence[object] = (),
    ) -> _TaskRun:
        """Simulate scheduling attempts for one map task.

        Map tasks are idempotent and restart from scratch on pre-emption
        (training-internal checkpointing is layered above, in the record
        cost model — see :mod:`repro.core.training`).  Injected attempt
        faults (see :class:`FaultPlan`) kill an attempt at launch:
        they consume an attempt but no simulated time.
        """
        wall = billed = 0.0
        attempts = preemptions = 0
        while True:
            attempts += 1
            if attempts > MAX_TASK_ATTEMPTS:
                failure = MapReduceError(
                    f"map task exceeded {MAX_TASK_ATTEMPTS} attempts "
                    f"(duration {duration:.0f}s too long for pre-emptible VMs?)"
                )
                return _TaskRun(
                    wall, billed, attempts - 1, preemptions, False, failure
                )
            if self.fault_plan is not None and self.fault_plan.attempt_fails(
                records, attempts
            ):
                continue
            uptime = self.preemption_model.sample_time_to_preemption(
                priority, self._rng
            )
            if duration <= uptime:
                wall += duration
                billed += duration
                return _TaskRun(wall, billed, attempts, preemptions, True)
            wall += uptime
            billed += uptime
            preemptions += 1

    # ------------------------------------------------------------------
    # Reduce phase
    # ------------------------------------------------------------------
    def _reduce_phase(
        self,
        job: MapReduceJob,
        intermediate: Dict[object, List[object]],
        stats: JobStats,
        tracer=NULL_TRACER,
    ) -> List[object]:
        outputs: List[object] = []
        for key in sorted(intermediate, key=repr):
            outputs.extend(job.reducer(key, intermediate[key]))
        stats.reduce_seconds = len(outputs) * job.reduce_record_seconds
        map_makespan = stats.makespan_seconds
        stats.makespan_seconds += stats.reduce_seconds
        stats.billed_vm_seconds += stats.reduce_seconds
        if stats.reduce_seconds > 0:
            tracer.record_span(
                "reduce_phase",
                map_makespan,
                stats.makespan_seconds,
                job=job.name,
                outputs=len(outputs),
            )
        return outputs
