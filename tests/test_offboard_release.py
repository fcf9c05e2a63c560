"""Offboarding releases a retailer from every holder of a day's record.

A day's record is held once: the journal keeps its intent, its task
payloads and its seal, the stores keep the published tables, the
registry keeps the models and the inference pipeline keeps the
selectors.  ``SigmundService.offboard`` must reach each of them, so that
after it (and a collection) nothing keeps the retailer's published table
or its retrieval index alive — on a committed day, on an open day that
is then recovered, and after a backfill, under both orchestrations.
"""

import gc
import json
import re
import weakref
from types import FunctionType, ModuleType

import pytest

from repro.core.config import ConfigRecord
from repro.core.recovery import CrashPlan, SimulatedCrash
from repro.core.training import checkpoint_key
from repro.mapreduce.runtime import FaultPlan
from repro.models.bpr import BPRHyperParams
from repro.obs.metrics import MetricsRegistry
from tests.test_crash_recovery import make_service
from tests.test_dag_recovery import INDEXED, fail_training_of

ORCHESTRATIONS = ["serial", "dag"]


def indexed_service(orchestration, **kwargs):
    return make_service(
        metrics=MetricsRegistry(), orchestration=orchestration, **INDEXED, **kwargs
    )


def weak_day_record(table, index):
    """Weak references to a table's item rows and an index's query vectors."""
    return weakref.ref(table.rows.items), weakref.ref(index._query_vectors)


def assert_released(refs):
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True]


def sealed(service, day=0):
    return json.dumps(service.journal.day_seal(day), sort_keys=True)


@pytest.mark.parametrize("orchestration", ORCHESTRATIONS)
def test_a_committed_day_releases_the_retailer(orchestration):
    service = indexed_service(orchestration)
    service.run_day()
    refs = weak_day_record(
        service.substitutes_store.get("r1"),
        service.journal.task_payload(0, "retrieval", "r1")["index"],
    )
    seal = sealed(service)

    service.offboard("r1")
    assert_released(refs)
    # The day's seal and intent are its immutable record; the co-tenant's
    # payloads stay.
    assert sealed(service) == seal
    assert {c.retailer_id for c in service.journal.day_intent(0)["configs"]} == {
        "r0", "r1"
    }
    for phase in ("train", "retrieval", "publish"):
        assert list(service.journal.completed(0, phase)) == ["r0"]
    for cell in service.journal.completed(0, "infer").values():
        assert "r1" not in cell["results"] and "r1" not in cell["failed"]
    (assignment,) = service.journal.completed(0, "infer_plan").values()
    assert all("r1" not in group for _, group in assignment["assignment"])
    assert service.run_day().retailers_served == 1


@pytest.mark.parametrize("orchestration", ORCHESTRATIONS)
def test_an_open_day_releases_the_retailer_through_recover(orchestration):
    service = indexed_service(
        orchestration, crash_plan=CrashPlan().crash_at("publish", label="r1")
    )
    with pytest.raises(SimulatedCrash):
        service.run_day()
    (result,) = [
        cell["results"]["r1"]
        for cell in service.journal.completed(0, "infer").values()
        if "r1" in cell["results"]
    ]
    refs = weak_day_record(
        result.view_recs, service.journal.task_payload(0, "retrieval", "r1")["index"]
    )
    del result

    service.offboard("r1")
    report = service.recover()
    assert report.retailers_served == 1
    assert_released(refs)
    assert '"r1"' not in sealed(service)


@pytest.mark.parametrize("orchestration", ORCHESTRATIONS)
def test_a_backfilled_retailer_is_released(orchestration):
    service = indexed_service(
        orchestration, fault_plan=fail_training_of("r1", times=1)
    )
    assert service.run_day().failed_retailers == ["r1"]
    assert service.backfill_retailer("r1")["published"]
    refs = weak_day_record(
        service.substitutes_store.get("r1"),
        service.journal.task_payload(0, "backfill_retrieval", "r1")["index"],
    )

    service.offboard("r1")
    assert_released(refs)
    for phase in ("train", "retrieval", "infer_plan", "infer", "publish"):
        assert service.journal.completed(0, f"backfill_{phase}") == {}
    assert service.journal.is_done(0, "train", "r0")


def held_by(root) -> list:
    """Every object reachable from ``root`` through containers and
    instance state, dict keys included (the collector does not visit a
    str-keyed dict's keys); an exception is listed but not followed (its
    traceback reaches whole frames)."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj)
        if not isinstance(obj, BaseException):
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


@pytest.mark.parametrize("orchestration", ORCHESTRATIONS)
def test_a_dead_lettered_retailer_leaves_nothing_in_the_cell_payloads(orchestration):
    """A cell's payload carries its job's numbers, not the job's stats:
    once the retailer whose blocks dead-lettered is offboarded, no cell
    payload holds its records or the exception they raised."""
    service = make_service(
        orchestration=orchestration,
        fault_plan=FaultPlan().fail_mapper(
            lambda record: isinstance(record, tuple) and record[0] == "r1"
        ),
    )
    assert service.run_day().failed_retailers == ["r1"]

    service.offboard("r1")
    for payload in service.journal.completed(0, "infer").values():
        held = held_by(payload)
        assert not [obj for obj in held if isinstance(obj, BaseException)]
        assert "r1" not in [obj for obj in held if isinstance(obj, str)]


@pytest.mark.parametrize("orchestration", ORCHESTRATIONS)
def test_no_task_payload_of_a_committed_day_names_the_retailer(orchestration):
    """A cell's payload carried its job's metrics snapshot, whose series
    are labelled ``retailer=r1``; the seal holds what the day folded from
    it, and the committed day keeps no snapshot of its own."""
    service = indexed_service(orchestration)
    service.run_day()
    seal = sealed(service)
    assert "retailer=r1" in seal

    service.offboard("r1")
    assert sealed(service) == seal
    for phase in ("train", "retrieval", "infer_plan", "infer", "publish"):
        for payload in service.journal.completed(0, phase).values():
            names = [obj for obj in held_by(payload) if isinstance(obj, str)]
            assert not [name for name in names if re.search(r"\br1\b", name)]


def test_offboard_removes_exactly_the_retailers_checkpoints():
    """Retailer ids may hold ``/``: ``a``'s checkpoints are not ``a/b``'s,
    and ``a/b``'s are its own."""
    service = make_service(n_retailers=0)
    checkpoints = service.training.checkpoints
    keys = {
        rid: checkpoint_key(ConfigRecord(rid, 1, BPRHyperParams()))
        for rid in ("a", "a/b", "ab")
    }
    for key in keys.values():
        checkpoints.storage.put(key, b"state")

    service.offboard("a")
    assert sorted(checkpoints.storage.keys()) == sorted([keys["a/b"], keys["ab"]])
    service.offboard("a/b")
    assert checkpoints.storage.keys() == [keys["ab"]]
