"""Versioned publication of retrieval indexes, alongside the tables.

An ANN index is a serving artifact with the same lifecycle as the
recommendation tables it rides with: rebuilt after each training day,
published under the day's version, rolled back together with the table
when production regresses, purged on offboarding.  So it is held under
the same policy, :class:`~repro.serving.store.VersionedSlots` — version
monotonicity, a single last-good predecessor, idempotent drops — with a
:class:`~repro.retrieval.backend.ModelRetrieval` adapter in each slot.
"""

from __future__ import annotations

from repro.obs.metrics import NULL_METRICS
from repro.retrieval.backend import ModelRetrieval
from repro.serving.store import VersionedSlots


class RetrievalIndexStore(VersionedSlots[ModelRetrieval]):
    """In-memory retailer -> published retrieval index, versioned.

    ``load(retailer_id, adapter, version)`` publishes, ``get`` reads.
    """

    _loaded = _held = "index"

    def __init__(self, metrics=NULL_METRICS, name: str = "retrieval") -> None:
        super().__init__(metrics, name)
