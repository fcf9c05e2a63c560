"""Coordinator-kill injection: parameterized kill points for daily runs.

The daily loop is instrumented with named **kill points** — the places a
pre-emptible coordinator can realistically die.  A :class:`CrashPlan`
arms rules against them; when a rule matches, :class:`SimulatedCrash`
(a ``BaseException``) unwinds the whole run, leaving the run journal
open for :meth:`~repro.core.service.SigmundService.recover`.

Kill points, in daily-run order:

========================  ====================================================
stage                     label / meaning
========================  ====================================================
``day_begin``             right after the day's intent is journaled
``train_task``            ``<retailer_id>`` — before its training job launches
``train_epoch``           ``<config_key>@e<n>`` — inside Train(), after epoch n
``train_logged``          ``<retailer_id>`` — after its completion is journaled
``retrieval_build``       ``<retailer_id>`` — before its ANN index is built
``retrieval_logged``      ``<retailer_id>`` — after its index is journaled
``inference_plan``        before the cell assignment is journaled
``infer_cell``            ``<cell_name>`` — before that cell's job launches
``infer_block``           ``<retailer_id>@<first_item>`` — inside the mapper;
                          blocks are cut in taxonomy order, so the first
                          item is the block's first in that order, not its
                          lowest id
``infer_logged``          ``<cell_name>`` — after its completion is journaled
``publish``               ``<retailer_id>`` — before its tables are validated
``publish_mid``           ``<retailer_id>`` — between the two store loads
``publish_logged``        ``<retailer_id>`` — after its publish is journaled
``wrapup``                before monitoring records and the day commit
========================  ====================================================

Rules fire a bounded number of times (default once) and then disarm —
recovery re-executes the same code path, and a persistent rule would
crash it forever.  Matching is by stage plus either an exact label, a
label predicate, or the n-th check of that stage (``nth``), which is
what lets a property test enumerate every expressible kill point.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.exceptions import SimulatedCrash

#: Every stage the daily loop checks, for tests that enumerate the space.
KILL_STAGES: Tuple[str, ...] = (
    "day_begin",
    "train_task",
    "train_epoch",
    "train_logged",
    "retrieval_build",
    "retrieval_logged",
    "inference_plan",
    "infer_cell",
    "infer_block",
    "infer_logged",
    "publish",
    "publish_mid",
    "publish_logged",
    "wrapup",
)


class CrashPlan:
    """Deterministic coordinator-kill injection for recovery tests."""

    def __init__(self) -> None:
        self._rules: List[dict] = []
        #: Every ``(stage, label)`` that actually crashed, in order.
        self.fired: List[Tuple[str, str]] = []
        #: Every ``(stage, label)`` checked, armed or not (introspection).
        self.checked: List[Tuple[str, str]] = []

    def crash_at(
        self,
        stage: str,
        label: Optional[str] = None,
        match: Optional[Callable[[str], bool]] = None,
        nth: Optional[int] = None,
        times: int = 1,
    ) -> "CrashPlan":
        """Arm a kill: at ``stage``, on an exact ``label``, a ``match``
        predicate over labels, or the ``nth`` (0-based) check of that
        stage; with none of those, the first check of the stage dies.
        Fires ``times`` times, then disarms.
        """
        if stage not in KILL_STAGES:
            raise ValueError(
                f"unknown kill stage {stage!r}; expected one of {KILL_STAGES}"
            )
        self._rules.append(
            {
                "stage": stage,
                "label": label,
                "match": match,
                "nth": nth,
                "times": times,
                "fired": 0,
                "seen": 0,
            }
        )
        return self

    def check(self, stage: str, label: str = "") -> None:
        """Raise :class:`SimulatedCrash` if an armed rule matches here."""
        self.checked.append((stage, label))
        for rule in self._rules:
            if rule["stage"] != stage:
                continue
            position = rule["seen"]
            rule["seen"] += 1
            if rule["fired"] >= rule["times"]:
                continue
            if rule["label"] is not None and rule["label"] != label:
                continue
            if rule["match"] is not None and not rule["match"](label):
                continue
            if rule["nth"] is not None and position != rule["nth"]:
                continue
            rule["fired"] += 1
            self.fired.append((stage, label))
            raise SimulatedCrash(stage, label)

    @property
    def crash_count(self) -> int:
        return len(self.fired)
