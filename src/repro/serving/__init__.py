"""Batch-updated serving of precomputed recommendations.

Sigmund materializes item-item recommendations offline and loads them
into "a distributed serving system that leverages main-memory ... to
serve low-latency requests" (section II-A), optimized for batch updates
after each inference run rather than real-time writes (section V).  The
store here reproduces those semantics: versioned per-retailer batch
swaps, strict retailer isolation, and a lightweight request path that
only does lookups and merges.  On top of the sharded cluster sits the
online tier: :class:`ServingFrontend` (response cache, coalescing,
fallback chain, simulated latency accounting) fed by the power-law
:class:`TrafficGenerator`.
"""

from repro.serving.cluster import LookupResult, ServingCluster, ServingNode
from repro.serving.frontend import (
    FrontendResponse,
    FrontendStats,
    PopularityFallback,
    ServingFrontend,
)
from repro.serving.gate import GateDecision, PublishGate
from repro.serving.overload import (
    AdmissionController,
    AdmissionDecision,
    BreakerBoard,
    CircuitBreaker,
    DeadlinePolicy,
    OverloadProtection,
    ServerQueue,
    TokenBucket,
)
from repro.serving.server import (
    RecommendationServer,
    ServedRecommendation,
    blend_context_lookups,
)
from repro.serving.store import RecommendationStore, StoreStats
from repro.serving.traffic import SimRequest, TrafficGenerator, zipf_weights

__all__ = [
    "RecommendationStore",
    "StoreStats",
    "PublishGate",
    "GateDecision",
    "RecommendationServer",
    "ServedRecommendation",
    "blend_context_lookups",
    "ServingCluster",
    "ServingNode",
    "LookupResult",
    "ServingFrontend",
    "FrontendResponse",
    "FrontendStats",
    "PopularityFallback",
    "SimRequest",
    "TrafficGenerator",
    "zipf_weights",
    "TokenBucket",
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "BreakerBoard",
    "ServerQueue",
    "DeadlinePolicy",
    "OverloadProtection",
]
