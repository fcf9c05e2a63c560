"""A published table is arrays: the two views, the store, the gate, the collector.

``RankedRows`` (what ``recommend_batch`` returns) and
``RecommendationTable`` (what inference publishes) hold recommendations
as read-only arrays and build ``ScoredItem`` lists only for whoever
indexes them.  Guards, in the order the file runs them:

* the views behave as the ``Sequence`` / ``Mapping`` of lists they
  replace, and nothing can write through them;
* ``RecommendationStore`` and ``PublishGate`` agree with the
  dict-of-lists store and the per-recommendation gate loop they replaced
  (``tests/reference_dict_store.py``) on every ragged table hypothesis
  can build;
* a fleet's days leave no ``ScoredItem`` alive, and what a day leaves
  behind does not grow with the catalog.
"""

from __future__ import annotations

import gc
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cluster
from repro.core.service import SigmundService
from repro.data.datasets import dataset_from_synthetic
from repro.data.events import EventType
from repro.data.generator import RetailerSpec, generate_retailer
from repro.data.sessions import UserContext
from repro.exceptions import ServingError
from repro.models.base import RankedRows, ScoredItem
from repro.serving.gate import PublishGate
from repro.serving.store import RecommendationStore, RecommendationTable, as_table
from tests import test_published_tables_golden as golden
from tests.reference_dict_store import DictStore, gate_reasons


def recs(*pairs):
    return [ScoredItem(item, score) for item, score in pairs]


#: Unsorted, sparse ids; an empty row; a row of one.
TABLE = {
    7: recs((1, 3.0), (2, 2.5), (9, 1.0)),
    2: [],
    40: recs((7, 0.5)),
    11: recs((2, 4.0), (40, -1.0)),
}


def _bits(row):
    """A looked-up row, exactly: native types and NaN-safe scores."""
    assert all(type(rec) is ScoredItem for rec in row)
    assert all(type(rec.item_index) is int for rec in row)
    assert all(type(rec.score) is float for rec in row)
    return [(rec.item_index, rec.score.hex()) for rec in row]


# ----------------------------------------------------------------------
# RankedRows: a Sequence of lists
# ----------------------------------------------------------------------
def _rows() -> RankedRows:
    return RankedRows.from_counts(
        np.array([5, 3, 8, 1, 4, 6]),
        np.array([0.9, 0.5, 0.1, 2.0, 0.7, 0.6]),
        np.array([3, 0, 1, 2]),
    )


ROWS_AS_LISTS = [
    recs((5, 0.9), (3, 0.5), (8, 0.1)),
    [],
    recs((1, 2.0)),
    recs((4, 0.7), (6, 0.6)),
]


class TestRankedRows:
    def test_reads_as_a_list_of_lists(self):
        rows = _rows()
        assert len(rows) == 4
        assert list(rows) == ROWS_AS_LISTS
        assert rows == ROWS_AS_LISTS
        assert ROWS_AS_LISTS == rows
        assert rows != ROWS_AS_LISTS[:3]
        assert rows != [[], [], [], []]
        assert rows == _rows()
        assert [_bits(row) for row in rows] == [_bits(row) for row in ROWS_AS_LISTS]

    def test_negative_index_slice_and_bounds(self):
        rows = _rows()
        assert rows[-1] == ROWS_AS_LISTS[-1]
        assert rows[-4] == ROWS_AS_LISTS[0]
        assert rows[np.int64(2)] == ROWS_AS_LISTS[2]
        assert rows[1:3] == ROWS_AS_LISTS[1:3]
        assert rows[::-2] == ROWS_AS_LISTS[::-2]
        assert rows[3:99] == ROWS_AS_LISTS[3:]
        for bad in (4, -5):
            with pytest.raises(IndexError):
                rows[bad]
        with pytest.raises(TypeError):
            rows[1.0]

    def test_membership_and_reversed(self):
        rows = _rows()
        assert recs((1, 2.0)) in rows
        assert [] in rows
        assert recs((1, 2.5)) not in rows
        assert list(reversed(rows)) == ROWS_AS_LISTS[::-1]
        assert rows.index([]) == 1

    def test_a_row_is_the_callers_to_mutate(self):
        rows = _rows()
        row = rows[0]
        row.append(ScoredItem(99, 9.9))
        row[0] = ScoredItem(0, 0.0)
        assert rows[0] == ROWS_AS_LISTS[0]

    def test_arrays_are_read_only(self):
        rows = _rows()
        for array in (rows.items, rows.scores, rows.bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_pickle_round_trip_stays_read_only(self):
        rows = pickle.loads(pickle.dumps(_rows()))
        assert rows == ROWS_AS_LISTS
        with pytest.raises(ValueError, match="read-only"):
            rows.scores[0] = 1.0

    def test_concat_and_take(self):
        rows = _rows()
        empty = RankedRows.concat([])
        assert len(empty) == 0 and list(empty) == []
        assert RankedRows.concat([rows]) is rows
        doubled = RankedRows.concat([rows, empty, rows])
        assert doubled == ROWS_AS_LISTS + ROWS_AS_LISTS
        order = [3, 3, 0, 1]
        assert rows.take(np.array(order)) == [ROWS_AS_LISTS[r] for r in order]
        # A permutation of the blocks' rows, laid straight into place.
        both = ROWS_AS_LISTS + ROWS_AS_LISTS
        shuffled = np.random.default_rng(0).permutation(len(both))
        placed = RankedRows.concat([rows, empty, rows], shuffled)
        assert placed == [both[r] for r in shuffled]
        assert not placed.items.flags.writeable
        assert len(rows.take(np.array([], dtype=np.int64))) == 0

    def test_rejects_bounds_that_do_not_partition_the_entries(self):
        items, scores = np.array([1, 2]), np.array([0.5, 0.25])
        for bounds in ([0, 1], [1, 2], [], [[0, 2]]):
            with pytest.raises(ValueError, match="partition"):
                RankedRows(items, scores, np.array(bounds, dtype=np.int64))
        with pytest.raises(ValueError, match="partition"):
            RankedRows(items, scores[:1], np.array([0, 2]))

    def test_recommend_batch_returns_the_kernels_arrays(self, trained_model):
        """Rows come back in query order, equal to ``recommend`` row for
        row, and no list exists until asked for."""
        query = [3, 8, 3, 20]
        contexts = [UserContext((item,), (EventType.VIEW,)) for item in query]
        pools = [[5, 9, 3, 40], list(range(30)), [], [20, 2, 7]]
        ranked = trained_model.recommend_batch(query, pools, k=4)
        assert isinstance(ranked, RankedRows) and len(ranked) == 4
        for context, pool, row in zip(contexts, pools, ranked):
            reference = trained_model.recommend(context, k=4, candidates=pool)
            assert [rec.item_index for rec in row] == [
                rec.item_index for rec in reference
            ]
            np.testing.assert_allclose(
                [rec.score for rec in row], [rec.score for rec in reference]
            )
        assert trained_model.recommend_batch([], []) == []


# ----------------------------------------------------------------------
# RecommendationTable: a Mapping of lists
# ----------------------------------------------------------------------
class TestRecommendationTable:
    def test_reads_as_the_dict_it_replaces(self):
        table = as_table(TABLE)
        assert len(table) == 4
        assert list(table) == sorted(TABLE)
        assert table == TABLE
        assert TABLE == table
        assert dict(table) == TABLE
        assert dict(table.items()) == TABLE
        assert list(table.values()) == [TABLE[item] for item in sorted(TABLE)]
        assert table.keys() == TABLE.keys()
        assert table != {**TABLE, 2: recs((1, 1.0))}
        assert table.items_covered == 3

    def test_in_get_and_missing_keys(self):
        table = as_table(TABLE)
        assert 7 in table and np.int64(40) in table
        assert 8 not in table and -1 not in table and 41 not in table
        assert "7" not in table and 7.0 not in table and None not in table
        assert table.get(11) == TABLE[11]
        assert table.get(12) is None
        assert table.get(12, []) == []
        with pytest.raises(KeyError):
            table[0]
        assert _bits(table[7]) == _bits(TABLE[7])

    def test_as_table_is_the_identity_on_a_table(self):
        table = as_table(TABLE)
        assert as_table(table) is table
        assert len(as_table({})) == 0 and as_table({}).items_covered == 0

    def test_columnar_input_is_sorted_by_item_id(self):
        rows = RankedRows.from_counts(
            np.array([1, 2, 9, 7, 2, 40]),
            np.array([3.0, 2.5, 1.0, 0.5, 4.0, -1.0]),
            np.array([3, 0, 1, 2]),
        )
        table = RecommendationTable(np.array([7, 2, 40, 11]), rows)
        assert table == TABLE
        assert table.item_ids.tolist() == [2, 7, 11, 40]

    def test_rejects_duplicate_ids_and_misaligned_rows(self):
        rows = as_table(TABLE).rows
        with pytest.raises(ValueError, match="two rows"):
            RecommendationTable(np.array([3, 1, 3, 2]), rows)
        with pytest.raises(ValueError, match="item ids"):
            RecommendationTable(np.array([1, 2, 3]), rows)

    def test_pickle_round_trip_stays_read_only(self):
        table = pickle.loads(pickle.dumps(as_table(TABLE)))
        assert table == TABLE
        for array in (table.item_ids, table.rows.items):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


# ----------------------------------------------------------------------
# Immutability instead of copying
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet() -> SigmundService:
    return golden.run_fleet()


def test_published_tables_cannot_be_written_through(fleet):
    last_day = fleet.journal.committed_days()[-1]
    published = [
        table
        for payload in fleet.journal.completed(last_day, "infer").values()
        for result in payload["results"].values()
        for table in (result.view_recs, result.purchase_recs)
    ]
    assert len(published) == 2 * len(golden.SPECS)
    for table in published:
        assert isinstance(table, RecommendationTable)
        rows = table.rows
        for array in (table.item_ids, rows.items, rows.scores, rows.bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_mutating_a_lookup_does_not_change_the_next(fleet):
    store = fleet.substitutes_store
    first = store.lookup("plain", 3)
    expected = _bits(first)
    assert expected
    first.reverse()
    first.append(ScoredItem(0, math.inf))
    first[0] = ScoredItem(1, -1.0)
    assert _bits(store.lookup("plain", 3)) == expected


def test_rollback_serves_the_table_a_later_load_replaced():
    """Current and last-good versions may share buffers with the caller:
    nothing the caller still holds can change what either serves."""
    table = as_table(TABLE)
    store = RecommendationStore()
    store.load_batch("r", table, version=1)
    store.load_batch("r", {7: recs((3, 1.0))}, version=2)
    assert store.lookup("r", 7) == recs((3, 1.0))
    assert store.rollback("r") == 1
    assert store.lookup("r", 7) == TABLE[7]
    with pytest.raises(ValueError, match="read-only"):
        table.rows.scores[0] = -1.0


# ----------------------------------------------------------------------
# Store and gate against the dict-of-lists oracle
# ----------------------------------------------------------------------
N_ITEMS = 12
item_ids = st.integers(min_value=0, max_value=N_ITEMS + 3)
#: Inside the catalog, just outside it on both sides, and far outside.
rec_items = st.one_of(
    st.integers(min_value=-2, max_value=N_ITEMS + 1), st.sampled_from([-(2**40), 2**40])
)
rec_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)
rows_strategy = st.lists(st.builds(ScoredItem, rec_items, rec_scores), max_size=4)
#: ``st.dictionaries`` keeps draw order: ids arrive unsorted and sparse.
tables_strategy = st.dictionaries(item_ids, rows_strategy, max_size=8)


def _columnar(table) -> RecommendationTable:
    """The same table built the way inference builds it: arrays in, in
    the dict's (unsorted) order, never a list of ``ScoredItem``."""
    flat = [rec for row in table.values() for rec in row]
    return RecommendationTable(
        np.array(list(table), dtype=np.int64),
        RankedRows.from_counts(
            np.array([rec.item_index for rec in flat], dtype=np.int64),
            np.array([rec.score for rec in flat], dtype=np.float64),
            np.array([len(row) for row in table.values()], dtype=np.int64),
        ),
    )


loads = st.tuples(
    st.just("load"),
    tables_strategy,
    st.integers(min_value=-1, max_value=2),  # version step: stale, same, newer
    st.booleans(),  # columnar input
    st.booleans(),  # allow_empty
    st.sampled_from(["a", "b"]),
)
others = st.tuples(st.sampled_from(["rollback", "drop"]), st.sampled_from(["a", "b"]))
#: Every run starts load -> load -> rollback -> drop on one retailer, then
#: whatever hypothesis adds.
_newer_load = st.tuples(
    st.just("load"), tables_strategy, st.just(1), st.booleans(), st.booleans(), st.just("a")
)
ops_strategy = st.tuples(
    _newer_load,
    _newer_load,
    st.just(("rollback", "a")),
    st.just(("drop", "a")),
    st.lists(st.one_of(loads, others), max_size=6),
).map(lambda parts: [*parts[:4], *parts[4]])


def _outcome(call):
    try:
        return call()
    except ServingError as exc:
        return ("ServingError", str(exc))


def _assert_same_state(store, oracle):
    for rid in ("a", "b"):
        assert store.version_of(rid) == oracle.version_of(rid)
        assert store.has_retailer(rid) == (oracle.version_of(rid) is not None)
        assert store.items_covered(rid) == oracle.items_covered(rid)
        for item in range(-1, N_ITEMS + 5):
            got = _outcome(lambda: _bits(store.lookup(rid, item)))
            want = _outcome(lambda: _bits(oracle.lookup(rid, item)))
            assert got == want


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy, min_coverage=st.sampled_from([0.0, 0.02, 0.5]))
def test_property_store_and_gate_match_the_dict_oracle(ops, min_coverage):
    store, oracle = RecommendationStore(), DictStore()
    gate = PublishGate(min_coverage=min_coverage)
    versions = {"a": 0, "b": 0}
    for op in ops:
        if op[0] == "load":
            _, table, step, columnar, allow_empty, rid = op
            version = versions[rid] + step
            given_table = _columnar(table) if columnar else table
            decision = gate.validate(
                rid, given_table, version, store, N_ITEMS, allow_empty=allow_empty
            )
            reasons = gate_reasons(
                table, version, oracle.version_of(rid), N_ITEMS,
                min_coverage, allow_empty=allow_empty,
            )
            assert decision.reasons == reasons
            assert decision.accepted == (not reasons)
            got = _outcome(lambda: store.load_batch(rid, given_table, version))
            want = _outcome(lambda: oracle.load_batch(rid, table, version))
            assert got == want
            if got is None:
                versions[rid] = version
        elif op[0] == "rollback":
            assert _outcome(lambda: store.rollback(op[1])) == _outcome(
                lambda: oracle.rollback(op[1])
            )
            versions[op[1]] = max(versions[op[1]], store.version_of(op[1]) or 0)
        else:
            store.drop_retailer(op[1])
            oracle.drop_retailer(op[1])
        _assert_same_state(store, oracle)


@settings(max_examples=100, deadline=None)
@given(table=tables_strategy)
def test_property_both_input_forms_read_as_the_dict(table):
    for view in (as_table(table), _columnar(table)):
        assert list(view) == sorted(table)
        assert {item: _bits(row) for item, row in view.items()} == {
            item: _bits(row) for item, row in table.items()
        }
        assert view.items_covered == sum(1 for row in table.values() if row)


# ----------------------------------------------------------------------
# The collector guard
# ----------------------------------------------------------------------
def _live_scored_items() -> int:
    gc.collect()
    return sum(type(obj) is ScoredItem for obj in gc.get_objects())


def _day_three_growth(n_items: int) -> int:
    """Tracked objects the third day of a one-retailer fleet leaves alive."""
    service = SigmundService(
        build_cluster(n_cells=2, machines_per_cell=4),
        grid=golden.GRID,
        settings=golden.SETTINGS,
        seed=5,
    )
    spec = RetailerSpec(
        f"n{n_items}", n_items=n_items, n_users=40, n_events=500,
        taxonomy_depth=2, taxonomy_fanout=3, seed=7,
    )
    service.onboard(dataset_from_synthetic(generate_retailer(spec)))
    tracked = []
    for _ in range(3):
        report = service.run_day()
        assert report.failed_retailers == []
        gc.collect()
        tracked.append(len(gc.get_objects()))
    assert service.substitutes_store.items_covered(spec.retailer_id) == n_items
    return tracked[2] - tracked[1]


def test_a_fleets_days_leave_no_scored_item_alive():
    before = _live_scored_items()
    service = golden.run_fleet()
    service.run_day()  # the third day
    assert _live_scored_items() == before
    # ... and the tables are there all the same.
    assert service.substitutes_store.lookup("ann", 0)


def test_what_a_day_leaves_alive_does_not_grow_with_the_catalog():
    """The journal keeps every day's tables; as lists of ``ScoredItem``
    that was ``n_items x surfaces x (k + 1)`` tracked objects a day.

    Measured at the parent commit (dict-of-lists tables), same fleets:
    day three left 1 917 objects for the 100-item retailer and 6 468 for
    the 400-item one — a ratio of 3.37, with 5 031 and 16 884
    ``ScoredItem`` alive.  As arrays a table is a handful of objects
    whatever its size.
    """
    small, large = _day_three_growth(100), _day_three_growth(400)
    assert 0 < small and large < 1.5 * small, (small, large)
