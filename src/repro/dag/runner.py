"""Executing a day graph: one block step, and the bounded-parallel runner.

:func:`run_block` is the one place a block is executed, and both
orchestrators call it — :class:`GraphRunner` below and
``SigmundService._walk_serial``:

* **Journaling** — a block with a ``journal`` key logs its payload to
  the WAL after its side effects land; on recovery the payload is read
  back and the block is *replayed* (fold only, no side effects).
* **Crash points** — ``pre_kill``/``post_kill`` stages are checked
  immediately around the journaled unit, so the fleet's kill-point
  matrix is a property of the declared blocks.
* **Failure** — there is no retry and no skip policy.  A day block
  catches its own ``SigmundError`` and reports it in its payload; any
  exception that escapes ``run`` (or a ``SimulatedCrash``) propagates
  out of the runner before the block is journaled, and halts the run
  like a coordinator death.
* **Bounded parallelism** — independent blocks overlap on up to
  ``max_parallelism`` lanes of a simulated clock.  Block bodies execute
  for real (sequentially, in deterministic pick order) at their
  simulated start time; ``duration`` shapes only the schedule and the
  makespan, never the results.  This mirrors how the cluster simulator
  treats machine time everywhere else in the repo.

Determinism: ready blocks are picked by declaration order (or by a
seeded tie-break when ``seed`` is given), so the same graph and seed
always produce the same execution order and the same schedule.  With
``max_parallelism=1`` the execution order *is*
``DayGraph.topological_order()``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dag.block import Block, DagError, Payload
from repro.dag.graph import DayGraph

# Terminal block statuses.
RAN = "ran"  # executed fresh this run; side effects + journal written
REPLAYED = "replayed"  # found in the journal; payload folded, no side effects
DISABLED = "disabled"  # enabled() returned False; dependents proceed
UNSELECTED = "unselected"  # outside the partial-run selection
BLOCKED = "blocked"  # a dependency was unselected/blocked, so it cannot run

EXECUTED_STATUSES = (RAN, REPLAYED)


@dataclass
class BlockRun:
    """The outcome of one block within a single graph run."""

    name: str
    status: str
    start: float = 0.0
    finish: float = 0.0
    lane: Optional[int] = None
    error: Optional[str] = None


@dataclass
class GraphRunResult:
    runs: Dict[str, BlockRun]
    #: Names in the order their bodies executed (fresh or replayed).
    order: List[str] = field(default_factory=list)
    makespan: float = 0.0

    def __getitem__(self, name: str) -> BlockRun:
        return self.runs[name]

    def __contains__(self, name: object) -> bool:
        return name in self.runs

    def schedule(self) -> List[BlockRun]:
        """Lane-occupying runs (fresh + replayed) sorted by start time."""
        rows = [r for r in self.runs.values() if r.status in EXECUTED_STATUSES]
        return sorted(rows, key=lambda r: (r.start, r.finish, r.name))

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for run in self.runs.values():
            counts[run.status] = counts.get(run.status, 0) + 1
        return counts


def run_block(
    block: Block,
    journal=None,
    day: int = 0,
    crash_check: Optional[Callable[[str, str], None]] = None,
    select: Optional[Callable[[str], bool]] = None,
    now: float = 0.0,
) -> Tuple[BlockRun, Optional[Payload]]:
    """Execute one block: the step both orchestrators share.

    ``enabled`` guard -> journal replay, or ``pre_kill`` -> run ->
    ``log_task`` -> ``post_kill``; then ``fold``.  A fresh run finishes
    at ``now`` plus the block's duration, a replay at ``now``.

    Returns the run and the block's payload (``None`` unless it ran or
    replayed).  The payload is handed over, not kept on the run: a
    journaled block's payload has the journal as its one holder.
    """
    block_run = BlockRun(name=block.name, status=RAN, start=now, finish=now)
    # The guard runs first, so a retailer knocked out upstream never
    # reaches the journal check.
    if block.enabled is not None and not block.enabled():
        block_run.status = DISABLED
        return block_run, None
    journaled = (
        journal is not None
        and block.journal is not None
        and journal.is_done(day, block.journal[0], block.journal[1])
    )
    if journaled:
        # Replays ignore the selection: a recovered day must fold the
        # complete journaled state even when only a slice reruns.
        payload = journal.task_payload(day, block.journal[0], block.journal[1])
        block_run.status = REPLAYED
    else:
        if select is not None and not select(block.name):
            block_run.status = UNSELECTED
            return block_run, None
        if block.pre_kill is not None and crash_check is not None:
            crash_check(*block.pre_kill)
        payload = block.run() if block.run is not None else None
        if payload is None:
            payload = {}
        if journal is not None and block.journal is not None:
            journal.log_task(day, block.journal[0], block.journal[1], payload)
        if block.post_kill is not None and crash_check is not None:
            crash_check(*block.post_kill)
        block_run.finish = now + block.duration_of(payload)
    if block.fold is not None:
        block.fold(payload)
    return block_run, payload


class GraphRunner:
    """Execute a :class:`DayGraph` under a simulated clock.

    ``journal``/``day`` wire block payloads into the WAL run journal;
    ``crash_check`` is called as ``crash_check(stage, label)`` at every
    declared kill point (the service passes ``SigmundService._check``).
    """

    def __init__(
        self,
        journal=None,
        day: int = 0,
        crash_check: Optional[Callable[[str, str], None]] = None,
        max_parallelism: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        if max_parallelism < 1:
            raise DagError(f"max_parallelism must be >= 1, got {max_parallelism}")
        self.journal = journal
        self.day = day
        self.crash_check = crash_check
        self.max_parallelism = max_parallelism
        self.seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        graph: DayGraph,
        select: Optional[Callable[[str], bool]] = None,
    ) -> GraphRunResult:
        graph.validate()
        rng = random.Random(self.seed) if self.seed is not None else None
        pri: Dict[str, float] = {}
        for name in graph.names():
            pri[name] = rng.random() if rng is not None else float(len(pri))

        runs: Dict[str, BlockRun] = {}
        order: List[str] = []
        pending: Set[str] = set(graph.names())
        finished: Set[str] = set()  # effects complete; dependents may run
        dead: Set[str] = set()  # produced no effects; dependents may not
        running: List[Tuple[float, float, str]] = []  # (finish, priority, name)
        free_lanes = list(range(self.max_parallelism))
        heapq.heapify(free_lanes)
        now = 0.0

        def pick_key(name: str) -> Tuple[float, str]:
            return (pri[name], name)

        while pending or running:
            self._propagate_dead(graph, pending, dead, runs, pick_key)
            # Start every ready block a free lane allows, in priority order.
            while len(running) < self.max_parallelism:
                ready = [
                    n
                    for n in pending
                    if all(d in finished for d in graph.block(n).depends_on)
                ]
                if not ready:
                    break
                name = min(ready, key=pick_key)
                pending.discard(name)
                block_run, payload = run_block(
                    graph.block(name), self.journal, self.day,
                    self.crash_check, select, now,
                )
                runs[name] = block_run
                if block_run.status in EXECUTED_STATUSES:
                    order.append(name)
                    self._expand(graph, name, payload, pri, pending, rng)
                if block_run.status == DISABLED:
                    finished.add(name)
                    continue
                if block_run.status == UNSELECTED:
                    dead.add(name)
                    self._propagate_dead(graph, pending, dead, runs, pick_key)
                    continue
                block_run.lane = heapq.heappop(free_lanes)
                heapq.heappush(running, (block_run.finish, pri[name], name))
            if running:
                now = max(now, running[0][0])
                while running and running[0][0] <= now:
                    _, _, name = heapq.heappop(running)
                    finished.add(name)
                    heapq.heappush(free_lanes, runs[name].lane)
            elif pending:
                # validate() rules out cycles, so this only happens when
                # every remaining block sits behind a dead subgraph that
                # _propagate_dead could not reach through finished deps.
                for name in sorted(pending, key=pick_key):
                    runs[name] = BlockRun(
                        name=name,
                        status=BLOCKED,
                        error="unreachable: dependencies never completed",
                    )
                    dead.add(name)
                pending.clear()
        return GraphRunResult(runs=runs, order=order, makespan=now)

    # ------------------------------------------------------------------
    def _propagate_dead(self, graph, pending, dead, runs, pick_key) -> None:
        changed = True
        while changed:
            changed = False
            for name in sorted(pending, key=pick_key):
                bad = next(
                    (d for d in graph.block(name).depends_on if d in dead), None
                )
                if bad is None:
                    continue
                runs[name] = BlockRun(
                    name=name,
                    status=BLOCKED,
                    error=f"dependency {bad!r} was {runs[bad].status}",
                )
                pending.discard(name)
                dead.add(name)
                changed = True

    def _expand(self, graph, name, payload, pri, pending, rng) -> None:
        block = graph.block(name)
        if block.expand is None:
            return
        new_blocks = list(block.expand(payload))
        if not new_blocks:
            return
        # Blocks that already depend on the expander must also wait for
        # everything it spawned (wrapup waits for every inference cell).
        dependents = [d for d in graph.dependents_of(name) if d in pending]
        names = []
        for new_block in new_blocks:
            graph.add(new_block)
            pri[new_block.name] = rng.random() if rng is not None else float(len(pri))
            pending.add(new_block.name)
            names.append(new_block.name)
        for dep_name in dependents:
            graph.add_dependencies(dep_name, names)
        graph.validate()
