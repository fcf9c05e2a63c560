"""The fleet snapshot: one JSON document answering "how is the fleet?".

Two layers, deliberately separated by their determinism contract:

* **Day sections** are built from the day's sealed metrics — counters
  folded exclusively from journaled task payloads, so a crashed-and-
  recovered day seals the byte-identical document an uninterrupted run
  would have (asserted across every kill point in
  ``tests/test_crash_recovery.py``).
* The **process section** reads live operational state (checkpoint
  manager, selector cache, serving stores, cost ledger, publish gate).
  Those counters legitimately differ under a crash — a recovery restores
  a checkpoint the clean run never wrote — so they are reported but
  excluded from the parity guarantee.

The rollups follow the paper's section V/VII reporting: per-retailer and
fleet-wide throughput (training triples/s, inference items/s), grid
configs evaluated, epochs, dead letters, preemptions, billed vs wall
seconds, and publish-gate rejections.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsSnapshot

#: Bumped when the snapshot document shape changes; consumers pin it.
SCHEMA_VERSION = 1


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def retailer_rollup(
    metrics: MetricsSnapshot, retailer_id: str
) -> Dict[str, float]:
    """Per-retailer throughput/cost view of one day's sealed metrics."""
    epochs = metrics.counter("train_epochs_total", retailer=retailer_id)
    sgd_steps = metrics.counter("train_sgd_steps_total", retailer=retailer_id)
    train_seconds = metrics.counter(
        "train_seconds_total", retailer=retailer_id
    )
    items = metrics.counter("inference_items_total", retailer=retailer_id)
    infer_cost = metrics.counter(
        "inference_cost_attributed_total", retailer=retailer_id
    )
    return {
        "configs_trained": metrics.counter(
            "train_configs_total", outcome="trained", retailer=retailer_id
        ),
        "configs_failed": metrics.counter(
            "train_configs_total", outcome="failed", retailer=retailer_id
        ),
        "epochs": epochs,
        "sgd_steps": sgd_steps,
        "train_seconds": train_seconds,
        "triples_per_second": _rate(sgd_steps, train_seconds),
        "train_cost": metrics.counter(
            "train_cost_total", retailer=retailer_id
        ),
        "train_makespan_seconds": metrics.gauge(
            "train_makespan_seconds", retailer=retailer_id
        ),
        "inference_items": items,
        "inference_blocks": metrics.counter(
            "inference_blocks_total", retailer=retailer_id
        ),
        "inference_cost": infer_cost,
        "publishes_accepted": metrics.counter(
            "publish_total", outcome="accepted", retailer=retailer_id
        ),
        "publishes_rejected": metrics.counter(
            "publish_total", outcome="rejected", retailer=retailer_id
        ),
    }


def fleet_rollup(metrics: MetricsSnapshot) -> Dict[str, float]:
    """Fleet-wide rollup of one day's sealed metrics."""
    sgd_steps = metrics.counter_total("train_sgd_steps_total")
    train_billed = metrics.counter_total("train_billed_vm_seconds_total")
    items = metrics.counter_total("inference_items_total")
    infer_billed = metrics.counter_total("inference_billed_vm_seconds_total")
    def outcome_total(name: str, outcome: str) -> float:
        tag = f"outcome={outcome}"
        return sum(
            value
            for key, value in metrics.counters.items()
            if key.startswith(name + "{") and tag in key
        )

    return {
        "configs_trained": outcome_total("train_configs_total", "trained"),
        "configs_failed": outcome_total("train_configs_total", "failed"),
        "epochs": metrics.counter_total("train_epochs_total"),
        "sgd_steps": sgd_steps,
        "train_billed_vm_seconds": train_billed,
        "train_cost": metrics.counter_total("train_cost_total"),
        "triples_per_billed_second": _rate(sgd_steps, train_billed),
        "inference_items": items,
        "inference_billed_vm_seconds": infer_billed,
        "inference_cost": metrics.counter_total("inference_cost_total"),
        "items_per_billed_second": _rate(items, infer_billed),
        "model_loads": metrics.counter_total("inference_model_loads_total"),
        "preemptions": metrics.counter_total("preemptions_total"),
        "dead_letters": metrics.counter_total("dead_letters_total"),
        "publishes_accepted": outcome_total("publish_total", "accepted"),
        "publishes_rejected": outcome_total("publish_total", "rejected"),
        "alerts": metrics.counter_total("alerts_total"),
    }


def build_day_seal(
    day: int,
    sweep_kind: str,
    report,
    metrics: MetricsSnapshot,
    retailer_ids: List[str],
) -> Dict[str, object]:
    """The document sealed into the journal when a day commits.

    Everything here derives from journaled payloads (via ``report`` and
    the folded day registry), so a recovered day seals byte-identical
    JSON — the parity artifact the crash-recovery suite compares.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "day": day,
        "sweep_kind": sweep_kind,
        "report": {
            "configs_trained": report.configs_trained,
            "configs_failed": report.configs_failed,
            "retailers_served": report.retailers_served,
            "retailers_stale": report.retailers_stale,
            "retailers_unserved": report.retailers_unserved,
            "training_cost": report.training_cost,
            "inference_cost": report.inference_cost,
            "training_makespan": report.training_makespan,
            "inference_makespan": report.inference_makespan,
            "preemptions": report.preemptions,
            "alerts": report.alerts,
            "publishes_rejected": report.publishes_rejected,
            "failed_retailers": list(report.failed_retailers),
            "availability": report.availability,
        },
        "fleet": fleet_rollup(metrics),
        "retailers": {
            rid: retailer_rollup(metrics, rid) for rid in sorted(retailer_ids)
        },
        "metrics": metrics.to_dict(),
    }


def build_fleet_snapshot(
    service, day: Optional[int] = None
) -> Dict[str, object]:
    """The full exported document: latest day seal + live process state.

    ``day`` selects a specific sealed day; the default is the most
    recently committed one.  A service that never ran (or ran with
    metrics disabled) still exports the process section.
    """
    seals = getattr(service.journal, "seals", lambda: {})()
    if day is None:
        day = max(seals) if seals else None
    day_doc = seals.get(day, {}) if day is not None else {}
    return {
        "schema_version": SCHEMA_VERSION,
        "day": day,
        "sweep_kind": day_doc.get("sweep_kind"),
        "report": day_doc.get("report", {}),
        "fleet": day_doc.get("fleet", {}),
        "retailers": day_doc.get("retailers", {}),
        "metrics": day_doc.get("metrics", {}),
        "process": build_process_section(service),
    }


def build_process_section(service) -> Dict[str, object]:
    """Live operational state — reported, but outside the parity contract.

    Checkpoint writes, selector-cache hits, store lookups, and gate
    validations happen (or don't) depending on where a crash landed, so
    a recovered run legitimately differs here from an uninterrupted one.
    """
    ckpt = service.training.checkpoints.stats
    process_metrics = service.metrics.snapshot()
    stores = {}
    for surface, store in (
        ("substitutes", service.substitutes_store),
        ("accessories", service.accessories_store),
    ):
        stats = store.stats
        stores[surface] = {
            "batches_loaded": stats.batches_loaded,
            "lookups": stats.lookups,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
            "stale_batches_rejected": stats.stale_batches_rejected,
            "rollbacks": stats.rollbacks,
        }
    selector_hits = process_metrics.counter_total("selector_cache_hits_total")
    selector_misses = process_metrics.counter_total(
        "selector_cache_misses_total"
    )
    return {
        "checkpoints": {
            "writes": ckpt.writes,
            "bytes_written": ckpt.bytes_written,
            "restores": ckpt.restores,
            "garbage_collected": ckpt.garbage_collected,
            "corruptions_detected": ckpt.corruptions_detected,
            "cold_starts": ckpt.cold_starts,
        },
        "selector_cache": {
            "hits": selector_hits,
            "misses": selector_misses,
            "hit_rate": _rate(selector_hits, selector_hits + selector_misses),
        },
        "stores": stores,
        "publish_gate": {
            "rejections": len(service.gate.rejections),
        },
        "ledger": {
            "total_cost": service.total_cost(),
            "chargebacks": dict(sorted(service.retailer_costs().items())),
        },
        "metrics": process_metrics.to_dict(),
    }


def fleet_snapshot_json(
    service, day: Optional[int] = None, indent: Optional[int] = 2
) -> str:
    """Canonical JSON export (sorted keys) of :func:`build_fleet_snapshot`."""
    return json.dumps(
        build_fleet_snapshot(service, day=day), sort_keys=True, indent=indent
    )
