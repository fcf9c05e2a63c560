"""Crash-equivalence harness: the DAG orchestrator vs the serial path.

The contract this suite pins: a DAG-scheduled day — uninterrupted, run
with real lane parallelism, crashed at **any** of the 14 kill points and
recovered, or recovered across orchestration modes — produces
byte-identical sealed metrics JSON, identical reports, store versions,
and billed costs to the imperative serial reference run.

Reuses the fixtures of ``tests/test_crash_recovery.py`` (tiny grid,
two-retailer fleet, summarize/report_key) rather than duplicating them.
"""

import json

import pytest

from repro.core.recovery import KILL_STAGES, CrashPlan, SimulatedCrash
from repro.dag import DISABLED, RAN, REPLAYED, UNSELECTED, DagError
from repro.exceptions import RetrievalError, SigmundError
from repro.mapreduce.runtime import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.retrieval.ivf import IVFConfig
from repro.serving.gate import GateDecision, PublishGate
from tests.test_crash_recovery import make_dataset, make_service, report_key, summarize


def seal_bytes(service, day: int) -> str:
    return json.dumps(service.journal.day_seal(day), sort_keys=True)


@pytest.fixture(scope="module")
def serial_baseline():
    """Two uninterrupted serial days; every DAG run must reproduce them."""
    service = make_service(metrics=MetricsRegistry())
    reports = [service.run_day() for _ in range(2)]
    return {
        "seals": [seal_bytes(service, day) for day in (0, 1)],
        "summary_day0": None,  # summaries below are end-of-day-2 state
        "summary": summarize(service),
        "report_keys": [report_key(r) for r in reports],
    }


@pytest.fixture(scope="module")
def serial_day0():
    """One uninterrupted serial day-0 (the crash suite's comparison)."""
    service = make_service(metrics=MetricsRegistry())
    report = service.run_day()
    return {
        "seal": seal_bytes(service, 0),
        "summary": summarize(service),
        "report_key": report_key(report),
    }


# ----------------------------------------------------------------------
# clean-run equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("max_parallelism", [1, 4])
def test_clean_dag_days_match_serial(serial_baseline, max_parallelism):
    service = make_service(
        metrics=MetricsRegistry(),
        orchestration="dag",
        max_parallelism=max_parallelism,
    )
    reports = [service.run_day() for _ in range(2)]
    for day in (0, 1):
        assert seal_bytes(service, day) == serial_baseline["seals"][day]
    assert summarize(service) == serial_baseline["summary"]
    assert [report_key(r) for r in reports] == serial_baseline["report_keys"]


def test_parallel_schedule_actually_overlaps_independent_work():
    """train(retailer A) overlaps train/infer(retailer B) on real lanes."""
    service = make_service(
        metrics=MetricsRegistry(), orchestration="dag", max_parallelism=4
    )
    service.run_day()
    result = service.last_dag_run
    assert result is not None
    trains = [r for r in result.schedule() if r.name.startswith("train/")]
    assert len(trains) == 2
    # Both retailers' sweeps occupy different lanes over the same window.
    assert trains[0].lane != trains[1].lane
    assert trains[0].start == trains[1].start == 0.0
    serial = make_service(
        metrics=MetricsRegistry(), orchestration="dag", max_parallelism=1
    )
    serial.run_day()
    assert result.makespan < serial.last_dag_run.makespan


# ----------------------------------------------------------------------
# every kill point, crashed and recovered under the DAG runner
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stage", KILL_STAGES)
def test_dag_crash_at_every_kill_point_recovers_byte_identical(
    serial_day0, stage
):
    service = make_service(
        metrics=MetricsRegistry(),
        crash_plan=CrashPlan().crash_at(stage),
        orchestration="dag",
    )
    crashed = False
    try:
        report = service.run_day()
    except SimulatedCrash:
        crashed = True
        report = service.recover()
    assert crashed, f"kill point {stage!r} never fired under the DAG runner"
    assert seal_bytes(service, 0) == serial_day0["seal"]
    assert summarize(service) == serial_day0["summary"]
    assert report_key(report) == serial_day0["report_key"]
    # The recovery replayed at least one journaled block — except for
    # the stages that fire before the first block ever completes
    # (day_begin, and the first train task's pre-kill / mid-epoch kill).
    statuses = {r.status for r in service.last_dag_run.runs.values()}
    if stage not in ("day_begin", "train_task", "train_epoch"):
        assert REPLAYED in statuses


@pytest.mark.parametrize("stage", ["train_logged", "infer_cell", "publish_mid", "wrapup"])
@pytest.mark.parametrize(
    "crash_mode,recover_mode", [("serial", "dag"), ("dag", "serial")]
)
def test_recovery_crosses_orchestration_modes(
    serial_day0, stage, crash_mode, recover_mode
):
    """A day crashed under one orchestrator recovers under the other.

    The journal is the only interface between the two paths, so this
    pins that both write (and replay) the exact same records.
    """
    service = make_service(
        metrics=MetricsRegistry(),
        crash_plan=CrashPlan().crash_at(stage),
        orchestration=crash_mode,
    )
    with pytest.raises(SimulatedCrash):
        service.run_day()
    service.orchestration = recover_mode
    report = service.recover()
    assert seal_bytes(service, 0) == serial_day0["seal"]
    assert summarize(service) == serial_day0["summary"]
    assert report_key(report) == serial_day0["report_key"]


# ----------------------------------------------------------------------
# the day's accounting: payload numbers folded straight into the report
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "orchestration,crash", [("serial", None), ("dag", None), ("dag", "infer_logged")]
)
def test_the_report_folds_the_cell_payloads_numbers(orchestration, crash):
    """Each ``infer/<cell>`` fold adds its job's cost, preemptions and
    makespan to the report, in fold order — also when the day is
    recovered after a kill between a cell's journal record and its fold."""
    service = make_service(
        metrics=MetricsRegistry(),
        orchestration=orchestration,
        crash_plan=CrashPlan().crash_at(crash) if crash else None,
    )
    if crash:
        with pytest.raises(SimulatedCrash):
            service.run_day()
        report = service.recover()
    else:
        report = service.run_day()
    cells = list(service.journal.completed(0, "infer").values())
    trains = list(service.journal.completed(0, "train").values())
    assert len(cells) == 2
    assert report.inference_cost == sum(cell["cost"] for cell in cells) > 0
    assert report.inference_makespan == max(cell["makespan"] for cell in cells) > 0
    assert report.preemptions == sum(
        int(payload["preemptions"]) for payload in trains + cells
    )
    sealed = service.journal.day_seal(0)["report"]
    assert sealed["inference_cost"] == report.inference_cost
    assert sealed["inference_makespan"] == report.inference_makespan


def test_a_dead_cell_folds_zeros_and_fails_its_retailers(monkeypatch):
    """A cell job that raises journals zero cost and makespan; its
    retailers fail with the cell's reason and the other cell's numbers
    are the day's."""
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    run_cell = service.inference.run_cell

    def dying(cell_name, datasets, *args, **kwargs):
        if "r0" in datasets:
            raise SigmundError("cell lost")
        return run_cell(cell_name, datasets, *args, **kwargs)

    monkeypatch.setattr(service.inference, "run_cell", dying)
    report = service.run_day()
    cells = list(service.journal.completed(0, "infer").values())
    dead = [cell for cell in cells if "r0" in cell["failed"]]
    (live,) = [cell for cell in cells if "r1" in cell["results"]]
    assert [(cell["cost"], cell["preemptions"], cell["makespan"]) for cell in dead] == [
        (0.0, 0, 0.0)
    ]
    assert report.inference_cost == live["cost"] > 0
    assert report.inference_makespan == live["makespan"]
    assert report.failed_retailers == ["r0"]
    assert report.failure_reasons["r0"] == "inference: cell 'cell-0': cell lost"


def test_a_training_job_that_raises_fails_only_its_retailer(monkeypatch):
    """``train/<rid>`` turns a sweep that died outright into a failed
    payload: every config of the retailer failed, the others train."""
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    run = service.training.run

    def dying(configs, *args, **kwargs):
        if configs[0].retailer_id == "r0":
            raise SigmundError("no free capacity")
        return run(configs, *args, **kwargs)

    monkeypatch.setattr(service.training, "run", dying)
    report = service.run_day()
    planned = [c for c in service.journal.day_intent(0)["configs"] if c.retailer_id == "r0"]
    payload = service.journal.task_payload(0, "train", "r0")
    assert (payload["trained"], payload["failed"], payload["cost"]) == (0, len(planned), 0.0)
    assert report.failure_reasons == {"r0": "training: no free capacity"}
    assert report.retailers_served == 1


def test_an_index_that_fails_to_build_is_journaled_unbuilt(monkeypatch):
    """An ANN build that raises leaves the retailer on the taxonomy walk:
    the payload records the reason and the day serves both retailers."""
    service = make_service(metrics=MetricsRegistry(), orchestration="dag", **INDEXED)

    def failing(model, **kwargs):
        raise RetrievalError("no embedding surface")

    monkeypatch.setattr("repro.dag.dayplan.ann_for_model", failing)
    report = service.run_day()
    for rid in ("r0", "r1"):
        payload = service.journal.task_payload(0, "retrieval", rid)
        assert not payload["built"] and payload["index"] is None
        assert payload["reason"] == "retrieval: no embedding surface"
    assert report.indexes_built == 0 and report.retailers_served == 2
    counters = service.journal.day_seal(0)["metrics"]["counters"]
    assert counters["retrieval_indexes_built_total{outcome=failed}"] == 2


# ----------------------------------------------------------------------
# partial reruns (--blocks)
# ----------------------------------------------------------------------


def test_partial_run_leaves_day_open_then_recovery_completes(serial_day0):
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    service.run_day(blocks=["train/r0"])
    assert service.journal.open_day() == 0
    assert service.journal.task_count(0, "train") == 1
    assert service.reports == []  # an open day is not reported yet
    runs = service.last_dag_run.runs
    assert runs["train/r0"].status == RAN
    assert runs["train/r1"].status == UNSELECTED
    assert runs["wrapup"].status == "blocked"

    report = service.recover()
    assert service.journal.is_committed(0)
    assert service.last_dag_run.runs["train/r0"].status == REPLAYED
    assert seal_bytes(service, 0) == serial_day0["seal"]
    assert summarize(service) == serial_day0["summary"]
    assert report_key(report) == serial_day0["report_key"]


def test_selection_closes_over_upstream_dependencies():
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    service.run_day(blocks=["retrieval/r1"])
    runs = service.last_dag_run.runs
    # retrieval/r1 pulled its own train block in; nothing else ran.
    assert runs["train/r1"].status == RAN
    assert runs["retrieval/r1"].status in (RAN, DISABLED)
    assert runs["train/r0"].status == UNSELECTED
    assert service.journal.open_day() == 0
    service.recover()
    assert service.journal.is_committed(0)


def test_selection_of_tail_family_widens_to_the_full_day(serial_day0):
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    service.run_day(blocks=["publish"])
    assert service.journal.is_committed(0)
    assert seal_bytes(service, 0) == serial_day0["seal"]


def test_unknown_block_selection_raises():
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    with pytest.raises(DagError, match="unknown block"):
        service.run_day(blocks=["train/ghost"])
    with pytest.raises(DagError, match="families"):
        service.recover(blocks=["compress/r0"])


def test_serial_orchestration_rejects_blocks():
    service = make_service(metrics=MetricsRegistry())
    with pytest.raises(SigmundError, match="orchestration='dag'"):
        service.run_day(blocks=["train/r0"])


def test_constructor_validates_orchestration_params():
    with pytest.raises(SigmundError, match="orchestration"):
        make_service(orchestration="imperative")
    with pytest.raises(SigmundError, match="max_parallelism"):
        make_service(orchestration="dag", max_parallelism=0)


# ----------------------------------------------------------------------
# single-retailer backfill
# ----------------------------------------------------------------------


def test_backfill_repairs_one_retailer_without_touching_others():
    fault = FaultPlan().fail_mapper(
        lambda record: getattr(record, "retailer_id", None) == "r1", times=1
    )
    service = make_service(
        metrics=MetricsRegistry(), orchestration="dag", fault_plan=fault
    )
    report = service.run_day()
    assert "r1" in report.failed_retailers
    assert service.substitutes_store.version_of("r1") is None

    sealed = seal_bytes(service, 0)
    r0_versions = (
        service.substitutes_store.version_of("r0"),
        service.accessories_store.version_of("r0"),
    )
    r0_cost = service.retailer_costs()["r0"]
    r1_cost_before = service.retailer_costs().get("r1", 0.0)

    outcome = service.backfill_retailer("r1")
    assert outcome["published"] and outcome["version"] == 1
    assert service.substitutes_store.version_of("r1") == 1
    assert service.accessories_store.version_of("r1") == 1

    # No other retailer's tables, versions, or billed costs moved, and
    # the committed day's sealed record is untouched.
    assert (
        service.substitutes_store.version_of("r0"),
        service.accessories_store.version_of("r0"),
    ) == r0_versions
    assert service.retailer_costs()["r0"] == r0_cost
    assert service.retailer_costs()["r1"] > r1_cost_before
    assert seal_bytes(service, 0) == sealed

    # The rerun is billed to the backfilled retailer via the normal
    # chargeback accounts (no free work), and repeating it is refused.
    with pytest.raises(SigmundError, match="already serves"):
        service.backfill_retailer("r1")

    # The journal holds the backfill under its own phases, so the day's
    # original task record is intact.
    assert service.journal.task_count(0, "backfill_train") == 1
    assert service.journal.task_count(0, "train") == 2


def test_backfill_requires_a_committed_day_and_known_retailer():
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    with pytest.raises(SigmundError, match="no committed day"):
        service.backfill_retailer("r0")
    service.run_day()
    with pytest.raises(SigmundError):
        service.backfill_retailer("ghost")
    with pytest.raises(SigmundError, match="already serves"):
        service.backfill_retailer("r0")  # nothing failed; nothing to do


def test_backfill_refuses_a_day_before_the_retailer_was_onboarded():
    """A newcomer re-using a departed retailer's id was not onboarded for
    the predecessor's days: backfilling one would train it on the
    predecessor's pinned configs and publish it as that day's version."""
    service = make_service()
    service.run_day()
    service.offboard("r1")
    service.onboard(make_dataset("r1", seed=999))
    with pytest.raises(SigmundError, match="onboarded for day 1"):
        service.backfill_retailer("r1")
    with pytest.raises(SigmundError, match="onboarded for day 1"):
        service.backfill_retailer("r1", day=0)
    assert service.substitutes_store.version_of("r1") is None
    assert service.journal.task_count(0, "backfill_train") == 0
    # From its first day on it runs as any other.
    assert service.run_day().retailers_served == 2
    assert service.substitutes_store.version_of("r1") == 2


def test_backfill_next_day_continues_normally(serial_day0):
    """After a backfill, the next daily run treats the retailer as
    healthy (incremental sweep, fresh publish) — the repair leaves no
    poisoned state behind."""
    fault = FaultPlan().fail_mapper(
        lambda record: getattr(record, "retailer_id", None) == "r1", times=1
    )
    service = make_service(
        metrics=MetricsRegistry(), orchestration="dag", fault_plan=fault
    )
    service.run_day()
    service.backfill_retailer("r1")
    report = service.run_day()
    assert report.failed_retailers == []
    assert report.retailers_served == 2
    assert service.substitutes_store.version_of("r1") == 2


# ----------------------------------------------------------------------
# backfill against an unfaulted day
# ----------------------------------------------------------------------

#: An ANN index for every retailer, accepted whatever its recall.
INDEXED = dict(
    retrieval_threshold=1,
    retrieval_config=IVFConfig(n_clusters=2),
    retrieval_recall_target=0.0,
)


def fail_training_of(*retailers, times):
    """Fail the first ``times`` training mapper records of ``retailers``."""
    return FaultPlan().fail_mapper(
        lambda record: getattr(record, "retailer_id", None) in retailers,
        times=times,
    )


def table_bytes(store, rid):
    table = store.get(rid)
    return tuple(
        array.tobytes()
        for array in (
            table.item_ids,
            table.rows.items,
            table.rows.scores,
            table.rows.bounds,
        )
    )


@pytest.fixture(scope="module")
def unfaulted_day():
    """A clean day 0, with an index for every retailer."""
    service = make_service(metrics=MetricsRegistry(), **INDEXED)
    service.run_day()
    return service


@pytest.mark.parametrize("failed", [("r1",), ("r0", "r1")])
def test_backfill_publishes_the_unfaulted_days_tables_and_cost(
    unfaulted_day, failed
):
    """Backfilled retailers serve what a clean day would have served,
    billed what a clean day bills them.  Two backfills of one day keep
    apart: neither replays the other's inference plan or cell."""
    service = make_service(
        metrics=MetricsRegistry(),
        fault_plan=fail_training_of(*failed, times=len(failed)),
        **INDEXED,
    )
    report = service.run_day()
    assert report.failed_retailers == list(failed)
    for rid in failed:
        outcome = service.backfill_retailer(rid)
        assert outcome["published"] and outcome["failure"] is None
        assert outcome["cost"] == pytest.approx(
            unfaulted_day.retailer_costs()[rid], rel=1e-12
        )
        for store in ("substitutes_store", "accessories_store"):
            assert table_bytes(getattr(service, store), rid) == table_bytes(
                getattr(unfaulted_day, store), rid
            )
    for phase in ("train", "retrieval", "infer_plan", "infer", "publish"):
        assert set(service.journal.completed(0, f"backfill_{phase}")) == set(
            failed
        )
    assert service.substitutes_store.versions() == (
        unfaulted_day.substitutes_store.versions()
    )


def test_backfill_serves_the_index_it_built(unfaulted_day):
    """The day's retrieval block never ran for a retailer whose training
    failed; the backfill journals its own accepted index — the one an
    unfaulted day built — and infers from it."""
    service = make_service(
        metrics=MetricsRegistry(), fault_plan=fail_training_of("r1", times=1),
        **INDEXED,
    )
    service.run_day()
    assert "r1" not in service.journal.completed(0, "retrieval")
    service.backfill_retailer("r1")
    built = service.journal.task_payload(0, "backfill_retrieval", "r1")
    assert built["accepted"]
    assert service.inference.selector_of("r1").retrieval is built["index"]
    assert (
        built["index"].query_vectors.tobytes()
        == unfaulted_day.journal.task_payload(0, "retrieval", "r1")[
            "index"
        ].query_vectors.tobytes()
    )


def test_a_backfill_whose_training_fails_again_publishes_nothing():
    service = make_service(
        metrics=MetricsRegistry(), fault_plan=fail_training_of("r1", times=2)
    )
    service.run_day()
    outcome = service.backfill_retailer("r1")
    assert not outcome["published"] and outcome["version"] is None
    assert str(outcome["failure"]).startswith("training: ")
    assert outcome["trained"] == 0
    assert service.substitutes_store.version_of("r1") is None
    runs = service.last_dag_run.runs
    assert runs["retrieval/r1"].status == DISABLED
    assert not any(name.startswith("publish/") for name in runs)


class _RejectR1(PublishGate):
    def validate(self, retailer_id, *args, **kwargs):
        if retailer_id == "r1":
            return GateDecision(retailer_id, False, ["forced rejection"])
        return super().validate(retailer_id, *args, **kwargs)


def test_repeating_a_backfill_replays_instead_of_rebilling():
    service = make_service(metrics=MetricsRegistry(), publish_gate=_RejectR1())
    report = service.run_day()
    assert report.failed_retailers == ["r1"]
    first = service.backfill_retailer("r1")
    assert not first["published"] and first["version"] is None
    assert first["failure"] == "publish: forced rejection; forced rejection"
    assert first["cost"] > 0.0
    costs = (service.total_cost(), service.retailer_costs())
    second = service.backfill_retailer("r1")
    assert second == first
    assert (service.total_cost(), service.retailer_costs()) == costs

