"""Declarative blocks: the unit of work in the daily-run DAG.

The paper's daily pipeline — sweep, train, infer, publish, monitor — is
an unattended production run over thousands of retailers; its recovery
and gating behaviour must be *structural*, not hand-placed.  A
:class:`Block` declares everything the orchestrator needs to run one
unit of work safely:

* ``depends_on`` — names of blocks whose side effects must land first,
* ``journal`` — the ``(phase, task_id)`` under which the block's payload
  is write-ahead-logged; a journaled block is **replayed** (payload read
  back, side effects skipped) when the day is recovered after a crash,
* ``pre_kill`` / ``post_kill`` — the block's named coordinator kill
  points; :func:`~repro.dag.runner.run_block` checks them immediately
  before the block runs and immediately after its completion is
  journaled,
* ``fold`` — how the block's payload is absorbed into day-level state
  (report fields, the day metrics registry); folding happens on fresh
  runs *and* on journal replays, which is what makes a recovered day
  seal byte-identical metrics,
* ``expand`` — dynamic fan-out: a block whose payload determines more
  blocks (the inference cell assignment is only known once the plan
  block has run).

Blocks carry no scheduling state and no failure policy: every day
block catches its own ``SigmundError`` and reports the failure in its
payload, so an exception that escapes a block halts the run, like a
coordinator death.  :func:`~repro.dag.runner.run_block` executes one,
and :class:`~repro.dag.runner.GraphRunner` or the service's serial walk
decides the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from repro.exceptions import SigmundError

Payload = Dict[str, object]


class DagError(SigmundError):
    """The DAG was declared or used out of protocol."""


class CycleError(DagError):
    """The dependency graph contains a cycle (named in the message)."""


@dataclass
class Block:
    """One declarative unit of the daily run.

    ``run`` performs the side effects and returns the journal payload;
    ``None`` makes the block a pure synchronization point (it "runs"
    instantly with an empty payload).  ``duration`` is the simulated
    seconds the block occupies its lane — a constant or a callable on
    the payload (e.g. the training makespan recorded inside it) — and
    only shapes the schedule, never the results.
    """

    name: str
    run: Optional[Callable[[], Payload]] = None
    depends_on: Tuple[str, ...] = ()
    #: Absorb the payload into day-level state; called exactly once per
    #: execution, for fresh runs and journal replays alike.
    fold: Optional[Callable[[Payload], None]] = None
    #: ``(phase, task_id)`` in the run journal; None = never journaled
    #: (the block re-runs on recovery, e.g. the wrap-up).
    journal: Optional[Tuple[str, str]] = None
    #: ``(stage, label)`` crash-plan checks around the journaled unit.
    pre_kill: Optional[Tuple[str, str]] = None
    post_kill: Optional[Tuple[str, str]] = None
    #: Evaluated once its dependencies are done; False skips the block
    #: entirely (no run, no journal, no fold) while dependents proceed.
    enabled: Optional[Callable[[], bool]] = None
    #: Dynamic fan-out: blocks derived from this block's payload.  Runs
    #: on replays too, so a recovered day rebuilds the same sub-graph
    #: from the journaled payload.
    expand: Optional[Callable[[Payload], Iterable["Block"]]] = None
    duration: Union[float, Callable[[Payload], float]] = 0.0
    #: Free-form labels for introspection (retailer id, cell name, ...).
    labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise DagError(f"block name {self.name!r} must be non-empty, no whitespace")
        if self.name in self.depends_on:
            raise DagError(f"block {self.name!r} depends on itself")

    @property
    def family(self) -> str:
        """The block family: everything before the first ``/``.

        Names follow ``family/qualifier`` (``train/r3``, ``infer/cell_a``);
        partial-rerun selections and the progress display group by family.
        """
        return self.name.split("/", 1)[0]

    def duration_of(self, payload: Payload) -> float:
        if callable(self.duration):
            return max(0.0, float(self.duration(payload)))
        return max(0.0, float(self.duration))
