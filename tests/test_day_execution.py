"""One day, two orchestrators: the serial walk and the DAG runner.

Both run the blocks ``repro.dag.dayplan.build_day_graph`` declares, each
through ``repro.dag.runner.run_block``.  At ``max_parallelism=1`` the
runner picks blocks in the order the serial walk visits them, so the two
must check the same kill points in the same order and execute the same
blocks in the same order.  Also here: a day left open (crashed, or cut
short by ``blocks=``) must be recovered before another one begins.
"""

import pytest

import repro.core.service as service_module
from repro.core.recovery import CrashPlan, SimulatedCrash
from repro.dag import DISABLED
from repro.exceptions import SigmundError
from repro.mapreduce.runtime import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from tests.test_crash_recovery import make_service


def r1_fails_training() -> FaultPlan:
    return FaultPlan().fail_mapper(
        lambda record: getattr(record, "retailer_id", None) == "r1", times=1
    )


def serial_walk(monkeypatch, **kwargs):
    """A serial day's checked kill points and executed block order."""
    executed = []
    step = service_module.run_block

    def spy(block, *args, **kw):
        block_run, payload = step(block, *args, **kw)
        if block_run.status in ("ran", "replayed"):
            executed.append(block.name)
        return block_run, payload

    monkeypatch.setattr(service_module, "run_block", spy)
    plan = CrashPlan()
    service = make_service(metrics=MetricsRegistry(), crash_plan=plan, **kwargs)
    service.run_day()
    monkeypatch.undo()
    return service, plan.checked, executed


@pytest.mark.parametrize("failing", [False, True], ids=["clean", "r1_fails_training"])
def test_serial_walk_and_one_lane_dag_run_the_same_sequence(monkeypatch, failing):
    serial, serial_checked, serial_order = serial_walk(
        monkeypatch, fault_plan=r1_fails_training() if failing else None
    )
    plan = CrashPlan()
    dag = make_service(
        metrics=MetricsRegistry(),
        crash_plan=plan,
        orchestration="dag",
        max_parallelism=1,
        fault_plan=r1_fails_training() if failing else None,
    )
    dag.run_day()

    assert serial_checked == plan.checked
    assert serial_order == dag.last_dag_run.order
    assert serial.journal.day_seal(0) == dag.journal.day_seal(0)
    if failing:
        assert dag.reports[0].failed_retailers == ["r1"]
        assert dag.last_dag_run["retrieval/r1"].status == DISABLED
        assert "retrieval/r1" not in serial_order
    else:
        assert "retrieval/r1" in serial_order


def test_run_day_refuses_while_a_crashed_day_is_open():
    service = make_service(
        metrics=MetricsRegistry(), crash_plan=CrashPlan().crash_at("publish")
    )
    with pytest.raises(SimulatedCrash):
        service.run_day()
    with pytest.raises(SigmundError, match=r"day 0 is still open.*recover\(\)"):
        service.run_day()
    # The refusal used up no day number: recovery commits day 0, and the
    # next run is day 1 with both retailers published fresh at version 2.
    assert service.recover().retailers_served == 2
    assert service.run_day().retailers_served == 2
    assert [report.day for report in service.reports] == [0, 1]
    assert service.journal.committed_days() == [0, 1]
    assert service.journal.open_day() is None
    assert service.substitutes_store.versions() == {"r0": 2, "r1": 2}


def test_run_day_refuses_while_a_partial_dag_day_is_open():
    service = make_service(metrics=MetricsRegistry(), orchestration="dag")
    service.run_day(blocks=["train"])
    with pytest.raises(SigmundError, match=r"day 0 is still open.*recover\(\)"):
        service.run_day(blocks=["retrieval"])
    # Day 0's training is not stranded: recovery replays it and commits.
    report = service.recover(blocks=["retrieval"])
    assert report.day == 0 and service.journal.open_day() == 0
    assert service.recover().day == 0
    assert service.journal.committed_days() == [0]
    assert service.run_day().day == 1


def test_a_traced_dag_day_records_one_span_per_executed_block():
    tracer = Tracer()
    service = make_service(
        metrics=MetricsRegistry(), tracer=tracer, orchestration="dag"
    )
    service.run_day()
    spans = [span for span in tracer.spans if span.name == "block"]
    assert sorted(span.attrs["block"] for span in spans) == sorted(
        service.last_dag_run.order
    )
    assert tracer.clock.now == service.last_dag_run.makespan
