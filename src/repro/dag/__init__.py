"""Declarative DAG orchestration for the daily run.

``repro.dag`` is where a Sigmund day is declared and executed:
:class:`~repro.dag.block.Block` declares one unit of work (run body,
journal key, kill points, fold),
:class:`~repro.dag.graph.DayGraph` holds the wiring (cycle detection,
deterministic topological order), :func:`~repro.dag.runner.run_block`
is the one step that executes a block, and
:class:`~repro.dag.runner.GraphRunner` schedules blocks with bounded
parallelism over a simulated clock.  :mod:`repro.dag.dayplan` builds
the day graph, for the whole fleet or (a backfill) for one retailer.
There is no retry or skip policy: an exception that escapes a block
halts the run.

``SigmundService`` drives the day graph either through ``GraphRunner``
(``orchestration="dag"``) or as a serial walk over the same blocks;
``tests/test_dag_recovery.py`` pins both byte-identical on the sealed
day snapshot at every crash kill point.
"""

from repro.dag.block import Block, CycleError, DagError
from repro.dag.dayplan import DayState, build_day_graph, build_selection
from repro.dag.graph import DayGraph
from repro.dag.runner import (
    BLOCKED,
    DISABLED,
    RAN,
    REPLAYED,
    UNSELECTED,
    BlockRun,
    GraphRunner,
    GraphRunResult,
)

__all__ = [
    "Block",
    "BlockRun",
    "CycleError",
    "DagError",
    "DayGraph",
    "DayState",
    "GraphRunner",
    "GraphRunResult",
    "RAN",
    "REPLAYED",
    "DISABLED",
    "UNSELECTED",
    "BLOCKED",
    "build_day_graph",
    "build_selection",
]
