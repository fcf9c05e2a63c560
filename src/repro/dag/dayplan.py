"""The daily run, declared once as a graph of blocks.

:func:`build_day_graph` produces the block structure of one Sigmund day:

* ``train/<rid>`` — one per retailer in the journaled sweep intent,
* ``retrieval/<rid>`` — one per onboarded retailer, depending only on
  *its own* train block (the ANN build reads nothing cross-retailer),
* ``infer_plan`` — depends on every train block (the healthy set needs
  all training verdicts); its journaled assignment payload **expands**
  into one ``infer/<cell>`` block per cell,
* ``infer_finalize`` — fan-in of every cell; derives the run-wide
  inference stats and expands into one ``publish/<rid>`` block per
  retailer with results,
* ``wrapup`` — the fan-in of everything: monitoring, detectors, seal,
  commit.

``build_day_graph(..., retailer=rid)`` declares the same chain for one
retailer of a committed day — its backfill: no ``wrapup``, and every
journal key moved to a ``backfill_<phase>``/``rid`` record of its own.

Every block's ``run`` body, ``journal`` key, kill points, and ``fold``
are written here and nowhere else.  Both orchestrators execute these
blocks through :func:`repro.dag.runner.run_block`:
:class:`~repro.dag.runner.GraphRunner` schedules them on lanes, and the
serial orchestrator walks them family by family in the order
:data:`SERIAL_PHASES` gives — the order ``GraphRunner`` produces at
``max_parallelism=1``, because declaration order is its tie-break.

:func:`build_selection` turns a ``--blocks`` request (names or families)
into a selection predicate for partial reruns, closed over upstream
dependencies so a selected block never sits behind an unselected one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import ConfigRecord
from repro.core.inference import InferenceResult, InferenceStats
from repro.dag.block import Block, DagError
from repro.dag.graph import DayGraph
from repro.exceptions import SigmundError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry


@dataclass
class DayState:
    """Mutable cross-block state of one day execution.

    The blocks' fold closures write it and later blocks read it.
    Everything here is rebuilt per execution and populated *only* from
    journaled payloads (or values derived from them) — the invariant
    that makes a recovered day seal byte-identical.
    """

    report: object
    day_metrics: object = NULL_METRICS
    failure_reasons: Dict[str, str] = field(default_factory=dict)
    #: rid -> accepted ANN adapter (feeds inference candidate pools).
    retrieval: Dict[str, object] = field(default_factory=dict)
    stats: InferenceStats = field(default_factory=InferenceStats)
    results: Dict[str, InferenceResult] = field(default_factory=dict)
    infer_failed: Dict[str, str] = field(default_factory=dict)
    served: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# The day graph
# ----------------------------------------------------------------------
def build_day_graph(
    service,
    day: int,
    intent: Dict[str, object],
    state: DayState,
    retailer: Optional[str] = None,
):
    """Declare one day of ``service`` as a :class:`DayGraph`.

    Declaration order is the scheduler's tie-break and the serial walk's
    order within a family: sorted train blocks, then sorted retrieval
    blocks, then the plan, finalize, and wrap-up.

    With ``retailer`` the graph is that retailer's backfill: its chain
    alone, over the intent's configs, with no ``wrapup`` (the day stays
    committed, its seal untouched).  A backfill has one block per phase,
    so ``("backfill_<phase>", retailer)`` keys every record it journals
    apart from the day's and from any other retailer's backfill.
    """
    report = state.report
    day_metrics = state.day_metrics
    graph = DayGraph()
    fleet = sorted(service._datasets) if retailer is None else [retailer]

    def key(phase: str, task_id: str) -> Tuple[str, str]:
        if retailer is None:
            return (phase, task_id)
        return (f"backfill_{phase}", retailer)

    configs: List[ConfigRecord] = list(intent["configs"])  # type: ignore[arg-type]
    by_retailer: Dict[str, List[ConfigRecord]] = {}
    for config in configs:
        by_retailer.setdefault(config.retailer_id, []).append(config)

    # -- train/<rid> ----------------------------------------------------
    def make_train(rid: str) -> Block:
        def run():
            return service._train_retailer(day, rid, by_retailer[rid])

        def fold(payload):
            report.configs_trained += int(payload["trained"])
            report.configs_failed += int(payload["failed"])
            report.training_cost += float(payload["cost"])
            makespan = float(payload["makespan"])
            report.training_makespan = max(report.training_makespan, makespan)
            report.preemptions += int(payload["preemptions"])
            if payload.get("failure"):
                state.failure_reasons[rid] = str(payload["failure"])
            snapshot = payload.get("metrics")
            if snapshot is not None:
                day_metrics.fold(snapshot)
            day_metrics.gauge("train_makespan_seconds", retailer=rid).set(makespan)

        return Block(
            name=f"train/{rid}",
            run=run,
            fold=fold,
            journal=key("train", rid),
            pre_kill=("train_task", rid),
            post_kill=("train_logged", rid),
            duration=lambda payload: float(payload["makespan"]),
            labels={"retailer": rid},
        )

    train_names = []
    for rid in sorted(by_retailer):
        graph.add(make_train(rid))
        train_names.append(f"train/{rid}")

    # -- retrieval/<rid> ------------------------------------------------
    def make_retrieval(rid: str) -> Block:
        def enabled():
            return rid not in state.failure_reasons and service.registry.has_models(rid)

        def run():
            return service._build_retrieval_index(day, rid)

        def fold(payload):
            snapshot = payload.get("metrics")
            if snapshot is not None:
                day_metrics.fold(snapshot)
            if not payload["built"]:
                return
            report.indexes_built += 1
            if payload["accepted"]:
                state.retrieval[rid] = payload["index"]
            else:
                report.indexes_rejected += 1

        deps = (f"train/{rid}",) if f"train/{rid}" in graph else ()
        return Block(
            name=f"retrieval/{rid}",
            run=run,
            depends_on=deps,
            fold=fold,
            journal=key("retrieval", rid),
            pre_kill=("retrieval_build", rid),
            post_kill=("retrieval_logged", rid),
            enabled=enabled,
            labels={"retailer": rid},
        )

    retrieval_names = []
    for rid in fleet:
        graph.add(make_retrieval(rid))
        retrieval_names.append(f"retrieval/{rid}")

    # -- infer_plan (expands into one block per cell) -------------------
    def plan_run():
        # A retailer whose training failed outright is served from
        # yesterday's tables; inference on its stale registry entry
        # would hide the failure behind quietly old models.
        healthy = {
            rid: service._datasets[rid]
            for rid in fleet
            if rid not in state.failure_reasons
        }
        # Journaled as *intent*: free capacity changes as jobs run, so a
        # recovery that replanned would bin retailers differently and
        # re-run work that already billed.
        return {"assignment": service.inference.plan(healthy)}

    def make_cell(cell_name: str, retailer_group: List[str]) -> Block:
        def run():
            group = {
                rid: service._datasets[rid]
                for rid in retailer_group
                if rid in service._datasets
            }
            cell_metrics = (
                MetricsRegistry() if service.metrics.enabled else NULL_METRICS
            )
            try:
                cell_results, job_stats, loads, cell_failed = (
                    service.inference.run_cell(
                        cell_name,
                        group,
                        day,
                        metrics=cell_metrics,
                        tracer=service.tracer,
                        retrieval=state.retrieval,
                    )
                )
            except SigmundError as exc:
                cell_failed = {rid: f"cell {cell_name!r}: {exc}" for rid in group}
                return {
                    "results": {},
                    "failed": cell_failed,
                    "job_stats": None,
                    "loads": 0,
                    "metrics": cell_metrics.snapshot(),
                }
            return {
                "results": cell_results,
                "failed": cell_failed,
                "job_stats": job_stats,
                "loads": loads,
                "metrics": cell_metrics.snapshot(),
            }

        def fold(payload):
            state.results.update(payload["results"])  # type: ignore[arg-type]
            state.infer_failed.update(payload["failed"])  # type: ignore[arg-type]
            if payload["job_stats"] is not None:
                service.inference.fold_cell(
                    state.stats,
                    cell_name,
                    payload["job_stats"],  # type: ignore[arg-type]
                    int(payload["loads"]),  # type: ignore[arg-type]
                )
            snapshot = payload.get("metrics")
            if snapshot is not None:
                day_metrics.fold(snapshot)

        def duration(payload):
            job_stats = payload.get("job_stats")
            return job_stats.makespan_seconds if job_stats is not None else 0.0

        # The cell reads the accepted ANN indexes of its own retailers
        # only, so it waits on exactly their retrieval blocks.
        deps = ("infer_plan",) + tuple(
            f"retrieval/{rid}" for rid in retailer_group if f"retrieval/{rid}" in graph
        )
        return Block(
            name=f"infer/{cell_name}",
            run=run,
            depends_on=deps,
            fold=fold,
            journal=key("infer", cell_name),
            pre_kill=("infer_cell", cell_name),
            post_kill=("infer_logged", cell_name),
            expand=None,
            duration=duration,
            labels={"cell": cell_name},
        )

    def plan_expand(payload):
        assignment: List[Tuple[str, List[str]]] = list(payload["assignment"])  # type: ignore[arg-type]
        return [make_cell(cell_name, group) for cell_name, group in assignment]

    graph.add(
        Block(
            name="infer_plan",
            run=plan_run,
            depends_on=tuple(train_names),
            journal=key("infer_plan", "assignment"),
            pre_kill=("inference_plan", ""),
            expand=plan_expand,
        )
    )

    # -- infer_finalize (expands into one publish block per retailer) ---
    def make_publish(rid: str) -> Block:
        def run():
            accepted, reason = service._publish_retailer(
                day, rid, state.results[rid], day + 1
            )
            return {"accepted": accepted, "reason": reason}

        def fold(payload):
            accepted = bool(payload["accepted"])
            reason = str(payload["reason"])
            day_metrics.counter(
                "publish_total",
                retailer=rid,
                outcome="accepted" if accepted else "rejected",
            ).inc()
            if accepted:
                state.served.append(rid)
            else:
                report.publishes_rejected += 1
                state.failure_reasons[rid] = reason
            report.retailers_served = len(state.served)

        return Block(
            name=f"publish/{rid}",
            run=run,
            depends_on=("infer_finalize",),
            fold=fold,
            journal=key("publish", rid),
            pre_kill=("publish", rid),
            post_kill=("publish_logged", rid),
            labels={"retailer": rid},
        )

    def finalize_run():
        service.inference.finalize_stats(
            state.stats, state.results, state.infer_failed
        )
        for rid in state.stats.failed_retailers:
            state.failure_reasons.setdefault(
                rid,
                "inference: " + state.stats.failure_reasons.get(rid, "failed"),
            )
        report.inference_cost = state.stats.total_cost
        report.inference_makespan = state.stats.makespan_seconds
        report.preemptions += state.stats.preemptions
        return {"retailers": sorted(state.results)}

    def finalize_expand(payload):
        return [make_publish(rid) for rid in payload["retailers"]]  # type: ignore[union-attr]

    # Not journaled: its outputs are pure functions of the folded cell
    # payloads, so a recovered day re-derives them identically.  The
    # runner augments its dependencies with every expanded infer/<cell>.
    graph.add(
        Block(
            name="infer_finalize",
            run=finalize_run,
            depends_on=("infer_plan",),
            expand=finalize_expand,
        )
    )

    # -- wrapup ---------------------------------------------------------
    if retailer is not None:
        graph.validate()
        return graph

    def wrapup_run():
        # _wrapup_phase carries its own "wrapup" kill point, the seal
        # build, the commit, and the monitor snapshot.
        service._wrapup_phase(
            day, state.served, state.failure_reasons, report, day_metrics
        )
        return {}

    graph.add(
        Block(
            name="wrapup",
            run=wrapup_run,
            depends_on=tuple(train_names)
            + tuple(retrieval_names)
            + ("infer_plan", "infer_finalize"),
        )
    )
    graph.validate()
    return graph


# ----------------------------------------------------------------------
# The serial walk's phases
# ----------------------------------------------------------------------
#: Each trace span of a serial day and the block families it runs, in
#: dependency order.
SERIAL_PHASES = (
    ("train_phase", ("train",)),
    ("retrieval_phase", ("retrieval",)),
    ("inference_phase", ("infer_plan", "infer", "infer_finalize")),
    ("publish_phase", ("publish",)),
    ("wrapup", ("wrapup",)),
)
#: The span a timed block records in a serial day's trace, by family.
BLOCK_SPANS = {"train": "train_retailer", "infer": "infer_cell"}


# ----------------------------------------------------------------------
# Partial-run selection
# ----------------------------------------------------------------------
#: Families in dependency order.  Selecting anything from the day's tail
#: (the plan onward) requires the whole fleet's training verdicts, so it
#: widens to the full graph.
FAMILIES = tuple(family for _, families in SERIAL_PHASES for family in families)
_TAIL_FAMILIES = {"infer_plan", "infer", "infer_finalize", "publish", "wrapup"}


def build_selection(
    graph: DayGraph, blocks: List[str]
) -> Optional[Callable[[str], bool]]:
    """A selection predicate for ``--blocks`` partial reruns.

    Tokens are block names (``train/r3``) or whole families (``train``).
    The selection is closed upward over dependencies: ``retrieval/r3``
    pulls in ``train/r3``; any tail family (``infer_plan``, ``infer``,
    ``publish``, ``wrapup``, ``infer_finalize``) pulls in the entire
    graph, because the inference plan consumes every retailer's training
    verdict.  Returns ``None`` (run everything) for an empty request or
    one that widened to the full graph.
    """
    if not blocks:
        return None
    names: Set[str] = set()
    for token in blocks:
        token = token.strip()
        if not token:
            continue
        family = token.split("/", 1)[0]
        if family not in FAMILIES:
            raise DagError(
                f"unknown block {token!r}; families are {', '.join(FAMILIES)}"
            )
        if family in _TAIL_FAMILIES:
            return None  # widened to the whole day
        if "/" in token:
            if token not in graph:
                known = sorted(n for n in graph.names() if n.startswith(family + "/"))
                raise DagError(
                    f"unknown block {token!r}; {family} blocks are {known}"
                )
            names.add(token)
        else:
            matched = [n for n in graph.names() if graph.block(n).family == family]
            if not matched:
                raise DagError(f"no {family!r} blocks in this day's graph")
            names.update(matched)
    # Close upward: a selected block must never wait on an unselected one.
    changed = True
    while changed:
        changed = False
        for name in list(names):
            for dep in graph.block(name).depends_on:
                if dep not in names:
                    names.add(dep)
                    changed = True
    selected = frozenset(names)
    return lambda name: name in selected
