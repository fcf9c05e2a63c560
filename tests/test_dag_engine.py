"""Property and unit tests for the DAG engine itself.

The scheduler is the foundation the crash-equivalence suite stands on,
so its own invariants are pinned here independently of the service:
generated DAGs never run a block before its dependencies, cycle
detection raises, identical seeds give identical schedules, and
``max_parallelism=1`` reproduces the deterministic topological order,
and an exception that escapes a block halts the run unjournaled.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.journal import RunJournal
from repro.dag import (
    BLOCKED,
    DISABLED,
    RAN,
    REPLAYED,
    UNSELECTED,
    Block,
    CycleError,
    DagError,
    DayGraph,
    GraphRunner,
)
from repro.exceptions import SimulatedCrash

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def chain(*names, **block_kwargs):
    """A linear graph a -> b -> c ... (each depends on the previous)."""
    graph = DayGraph()
    prev = None
    for name in names:
        deps = (prev,) if prev else ()
        graph.add(Block(name=name, depends_on=deps, **block_kwargs))
        prev = name
    return graph


def build_graph(n, edges, durations=None, log=None, runs=None, journaled=False):
    """``n`` blocks b0..b{n-1} with dependency edges (i, j), i < j.

    ``journaled`` keys each block's payload as ``("phase", name)``.
    """
    graph = DayGraph()
    deps = {j: [] for j in range(n)}
    for i, j in edges:
        deps[j].append(f"b{i}")
    for j in range(n):
        name = f"b{j}"

        def run(name=name):
            if log is not None:
                log.append(name)
            return {}

        graph.add(
            Block(
                name=name,
                run=run if runs is None else runs.get(name),
                depends_on=tuple(deps[j]),
                duration=durations[j] if durations is not None else 0.0,
                journal=("phase", name) if journaled else None,
            )
        )
    return graph


def descendants(n, edges, root):
    """Transitive dependents of b{root} under edges (i, j)."""
    out = {j: [] for j in range(n)}
    for i, j in edges:
        out[i].append(j)
    seen = set()
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in out[node]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return {f"b{i}" for i in seen}


@st.composite
def random_dags(draw, max_blocks=8):
    n = draw(st.integers(min_value=1, max_value=max_blocks))
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((i, j))
    durations = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return n, edges, durations


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def test_duplicate_block_name_raises():
    graph = DayGraph([Block(name="a")])
    with pytest.raises(DagError, match="duplicate"):
        graph.add(Block(name="a"))


def test_unknown_dependency_raises():
    graph = DayGraph([Block(name="a", depends_on=("ghost",))])
    with pytest.raises(DagError, match="unknown block 'ghost'"):
        graph.validate()


@pytest.mark.parametrize("name", ["", "train r0"])
def test_blank_or_spaced_block_name_raises(name):
    with pytest.raises(DagError, match="no whitespace"):
        Block(name=name)


def test_self_dependency_raises():
    with pytest.raises(DagError, match="depends on itself"):
        Block(name="a", depends_on=("a",))


def test_cycle_detection_raises_with_cycle_named():
    graph = DayGraph(
        [
            Block(name="a", depends_on=("c",)),
            Block(name="b", depends_on=("a",)),
            Block(name="c", depends_on=("b",)),
        ]
    )
    with pytest.raises(CycleError, match="dependency cycle"):
        graph.validate()


def test_zero_parallelism_raises():
    with pytest.raises(DagError, match="max_parallelism"):
        GraphRunner(max_parallelism=0)


def test_topological_order_is_declaration_stable():
    graph = DayGraph(
        [
            Block(name="z"),
            Block(name="a"),
            Block(name="m", depends_on=("z", "a")),
            Block(name="b", depends_on=("z",)),
        ]
    )
    # Ties break by declaration order, not name: z before a, m before b
    # once both are ready.
    assert graph.topological_order() == ["z", "a", "m", "b"]


# ----------------------------------------------------------------------
# execution semantics
# ----------------------------------------------------------------------


def test_serial_execution_order_matches_topological_order():
    log = []
    graph = build_graph(5, [(0, 2), (1, 2), (2, 4), (3, 4)], log=log)
    result = GraphRunner(max_parallelism=1).run(graph)
    assert result.order == graph.topological_order()
    assert log == result.order


@pytest.mark.parametrize("error", [RuntimeError, SimulatedCrash])
@pytest.mark.parametrize("max_parallelism", [1, 4])
def test_an_escaping_exception_halts_the_run_unjournaled(error, max_parallelism):
    """No retry, no skip: the first raise propagates out of ``run``.

    The raising block runs once and is never journaled, its dependents
    never run, and what finished before it stays journaled.
    """
    journal = RunJournal()
    journal.begin_day(0, {})
    calls = []

    def boom():
        calls.append("boom")
        raise error("dead")

    graph = DayGraph(
        [
            Block(name="a", run=lambda: {"x": 1}, journal=("phase", "a")),
            Block(
                name="boom", run=boom, depends_on=("a",), journal=("phase", "boom")
            ),
            Block(
                name="after",
                run=lambda: calls.append("after") or {},
                depends_on=("boom",),
                journal=("phase", "after"),
            ),
        ]
    )
    runner = GraphRunner(journal=journal, day=0, max_parallelism=max_parallelism)
    with pytest.raises(error, match="dead"):
        runner.run(graph)
    assert calls == ["boom"]
    assert journal.completed(0, "phase") == {"a": {"x": 1}}


def test_pre_kill_checks_fire_through_crash_check():
    seen = []
    graph = chain("a", "b")
    graph.block("a").pre_kill = ("stage_a", "label_a")
    graph.block("b").post_kill = ("stage_b", "")
    GraphRunner(crash_check=lambda stage, label: seen.append((stage, label))).run(graph)
    assert seen == [("stage_a", "label_a"), ("stage_b", "")]


def test_disabled_block_is_transparent_to_dependents():
    ran = []
    graph = DayGraph(
        [
            Block(name="a", run=lambda: ran.append("a") or {}),
            Block(
                name="guarded",
                run=lambda: ran.append("guarded") or {},
                depends_on=("a",),
                enabled=lambda: False,
            ),
            Block(
                name="b",
                run=lambda: ran.append("b") or {},
                depends_on=("guarded",),
            ),
        ]
    )
    result = GraphRunner().run(graph)
    assert result["guarded"].status == DISABLED
    assert ran == ["a", "b"]


def test_journal_replay_skips_side_effects_but_folds():
    journal = RunJournal()
    journal.begin_day(0, {})
    ran, folded = [], []

    def make():
        return DayGraph(
            [
                Block(
                    name="a",
                    run=lambda: ran.append("a") or {"value": 7},
                    fold=lambda payload: folded.append(payload["value"]),
                    journal=("phase", "a"),
                )
            ]
        )

    first = GraphRunner(journal=journal, day=0).run(make())
    second = GraphRunner(journal=journal, day=0).run(make())
    assert first["a"].status == RAN
    assert second["a"].status == REPLAYED
    assert ran == ["a"]  # body executed exactly once
    assert folded == [7, 7]  # folded on both executions
    assert journal.task_count(0, "phase") == 1


def test_expansion_adds_blocks_and_dependents_wait_for_them():
    log = []

    def expand(payload):
        return [
            Block(
                name=f"child/{i}",
                run=lambda i=i: log.append(f"child/{i}") or {},
            )
            for i in range(int(payload["n"]))
        ]

    graph = DayGraph(
        [
            Block(name="parent", run=lambda: {"n": 3}, expand=expand),
            Block(
                name="fan_in",
                run=lambda: log.append("fan_in") or {},
                depends_on=("parent",),
            ),
        ]
    )
    result = GraphRunner().run(graph)
    assert sorted(graph.block("fan_in").depends_on) == [
        "child/0",
        "child/1",
        "child/2",
        "parent",
    ]
    assert log[-1] == "fan_in"
    assert {f"child/{i}" for i in range(3)} <= set(result.runs)


def test_unselected_block_blocks_its_dependents():
    graph = chain("a", "b", "c")
    result = GraphRunner().run(graph, select=lambda name: name != "a")
    assert result["a"].status == UNSELECTED
    assert result["b"].status == BLOCKED
    assert result["c"].status == BLOCKED


def test_selection_replays_journaled_blocks_outside_the_selection():
    journal = RunJournal()
    journal.begin_day(0, {})
    journal.log_task(0, "phase", "a", {"x": 1})
    graph = DayGraph(
        [
            Block(name="a", run=lambda: {"x": 1}, journal=("phase", "a")),
            Block(name="b", run=lambda: {}, depends_on=("a",)),
        ]
    )
    result = GraphRunner(journal=journal, day=0).run(
        graph, select=lambda name: name == "b"
    )
    assert result["a"].status == REPLAYED
    assert result["b"].status == RAN


def test_parallel_lanes_overlap_independent_blocks():
    graph = build_graph(2, [], durations=[5.0, 5.0])
    serial = GraphRunner(max_parallelism=1).run(build_graph(2, [], durations=[5.0, 5.0]))
    overlapped = GraphRunner(max_parallelism=2).run(graph)
    assert serial.makespan == 10.0
    assert overlapped.makespan == 5.0
    lanes = {r.lane for r in overlapped.schedule()}
    assert lanes == {0, 1}


# ----------------------------------------------------------------------
# properties over generated DAGs
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=4))
def test_blocks_never_run_before_dependencies(dag, parallelism):
    n, edges, durations = dag
    log = []
    graph = build_graph(n, edges, durations=durations, log=log)
    result = GraphRunner(max_parallelism=parallelism).run(graph)
    position = {name: i for i, name in enumerate(result.order)}
    for i, j in edges:
        dep, blk = f"b{i}", f"b{j}"
        # Body execution order respects the edge...
        assert position[dep] < position[blk]
        # ...and so does the simulated schedule.
        assert result[dep].finish <= result[blk].start
    assert len(result.order) == n
    assert log == result.order


@settings(max_examples=40, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=4), st.integers())
def test_identical_seeds_give_identical_schedules(dag, parallelism, seed):
    n, edges, durations = dag

    def run_once():
        graph = build_graph(n, edges, durations=durations)
        result = GraphRunner(max_parallelism=parallelism, seed=seed).run(graph)
        return [
            (r.name, r.lane, r.start, r.finish) for r in result.schedule()
        ], result.order

    assert run_once() == run_once()


@settings(max_examples=40, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=4))
def test_lanes_respect_max_parallelism(dag, parallelism):
    n, edges, durations = dag
    graph = build_graph(n, edges, durations=durations)
    result = GraphRunner(max_parallelism=parallelism).run(graph)
    by_lane = {}
    for run in result.schedule():
        assert run.lane is not None and 0 <= run.lane < parallelism
        by_lane.setdefault(run.lane, []).append(run)
    for runs in by_lane.values():
        runs.sort(key=lambda r: (r.start, r.finish))
        for prev, nxt in zip(runs, runs[1:]):
            assert prev.finish <= nxt.start


@settings(max_examples=40, deadline=None)
@given(random_dags())
def test_serial_parallelism_equals_topological_order(dag):
    n, edges, durations = dag
    graph = build_graph(n, edges, durations=durations)
    expected = graph.topological_order()
    result = GraphRunner(max_parallelism=1).run(graph)
    assert result.order == expected


@settings(max_examples=40, deadline=None)
@given(random_dags(), st.integers(min_value=1, max_value=4), st.data())
def test_a_raising_block_journals_neither_itself_nor_its_descendants(
    dag, parallelism, data
):
    n, edges, durations = dag
    failing = data.draw(st.integers(min_value=0, max_value=n - 1))

    def boom():
        raise RuntimeError("dead")

    journal = RunJournal()
    journal.begin_day(0, {})
    graph = build_graph(
        n, edges, durations=durations, runs={f"b{failing}": boom}, journaled=True
    )
    with pytest.raises(RuntimeError, match="dead"):
        GraphRunner(journal=journal, day=0, max_parallelism=parallelism).run(graph)
    journaled = set(journal.completed(0, "phase"))
    assert not journaled & (descendants(n, edges, failing) | {f"b{failing}"})
    # Whatever did run, ran after its dependencies.
    for i, j in edges:
        if f"b{j}" in journaled:
            assert f"b{i}" in journaled


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=5))
def test_generated_cycles_raise(n, offset):
    graph = DayGraph(
        [
            Block(name=f"b{i}", depends_on=(f"b{(i + 1) % n}",))
            for i in range(n)
        ]
    )
    with pytest.raises(CycleError):
        GraphRunner(max_parallelism=1 + offset % 4).run(graph)
