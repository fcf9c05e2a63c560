"""Overload protection for the online serving tier.

The fallback chain makes a *healthy* frontend unbreakable; this module
is what keeps it healthy when the workload itself turns hostile — flash
sales, bot floods, cell outages.  Four cooperating mechanisms, all
running on the frontend's simulated millisecond clock so every decision
is byte-deterministic:

* :class:`TokenBucket` / :class:`AdmissionController` — **admission
  control with priority-aware load shedding**.  Requests that would
  push the backend past its sustainable rate are shed *to the
  popularity fallback* (cheap, still a full page) before the queue can
  collapse.  Low-priority traffic sheds first (at a configurable
  watermark); clients exceeding a per-client rate are demoted to low
  priority, which is what de-fangs bot floods without a blocklist.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — **per-replica
  circuit breakers** (closed → open → half-open) on failure-rate
  windows.  An open breaker lets lookups skip a dead replica for free
  instead of paying the blind failover-penalty walk on every request —
  the difference between an outage costing one detection window and an
  outage taxing every lookup until a human intervenes.
* :class:`DeadlinePolicy` — **per-request deadline budgets** with
  bounded retry + exponential backoff.  Every retry and every backoff
  millisecond is charged to the request's simulated latency (no free
  retries), and the compute path reserves enough budget to finish with
  a fallback answer rather than blowing the deadline.
* :class:`ServerQueue` — the **finite-capacity queue model** that makes
  overload *mean* something: computed responses occupy one of
  ``n_servers`` simulated workers, so sustained arrival above capacity
  builds a backlog and latency grows without bound.  Protection exists
  to keep the system off that cliff; the E27 chaos bench measures both
  sides of it.

Protection is a *policy every frontend has*: one built without an
:class:`OverloadProtection` carries :data:`UNPROTECTED`, the null policy
at the bottom of this module, and runs the same request pipeline against
limits that never bind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ServingError

#: Request priorities, strongest-claim-to-service first.
PRIORITIES = ("high", "normal", "low")

#: Simulated cost of serving a shed request from the popularity
#: fallback path (no cluster walk, no queue slot).
SHED_LATENCY_MS = 0.2

#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class TokenBucket:
    """A deterministic token bucket on the simulated millisecond clock.

    Refill is computed lazily from elapsed simulated time, so replaying
    the same request stream always makes the same admit/shed decisions.
    """

    def __init__(self, rate_per_s: float, burst: float):
        if rate_per_s <= 0:
            raise ServingError("token bucket rate_per_s must be > 0")
        if burst <= 0:
            raise ServingError("token bucket burst must be > 0")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_ms = 0.0

    def _refill(self, now_ms: float) -> None:
        if now_ms > self._last_ms:
            self.tokens = min(
                self.burst,
                self.tokens + (now_ms - self._last_ms) * self.rate_per_s / 1000.0,
            )
            self._last_ms = now_ms

    def fill_fraction(self, now_ms: float) -> float:
        """Tokens available as a fraction of burst (after refill)."""
        self._refill(now_ms)
        return self.tokens / self.burst

    def try_acquire(self, now_ms: float, tokens: float = 1.0) -> bool:
        self._refill(now_ms)
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict: admitted, or shed with a reason."""

    admitted: bool
    #: "ok" | "shed_low" (low priority shed at the watermark) |
    #: "shed_overload" (bucket dry, everyone sheds) | "client_rate"
    #: (the client itself is over its per-client rate).
    reason: str = "ok"
    #: The priority actually applied (a rate-abusing client is demoted
    #: to "low" before the shedding rules run).
    effective_priority: str = "normal"


class AdmissionController:
    """Priority-aware token-bucket admission in front of the compute path.

    Two layers of defence:

    * a **global bucket** sized to the backend's sustainable compute
      rate.  Below ``shed_low_watermark`` of burst remaining, "low"
      priority requests shed early; once the bucket is dry, everything
      sheds regardless of priority (the backend simply has no capacity);
    * optional **per-client buckets**: a client exceeding its own rate
      sheds outright (reason ``"client_rate"``) unless it carries "high"
      priority — bots classify themselves, and they never get to drain
      the global bucket that organic traffic depends on.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        shed_low_watermark: float = 0.25,
        client_rate_per_s: float = 0.0,
        client_burst: float = 0.0,
    ):
        if not 0.0 <= shed_low_watermark < 1.0:
            raise ServingError("shed_low_watermark must be in [0, 1)")
        self.bucket = TokenBucket(rate_per_s, burst)
        self.shed_low_watermark = float(shed_low_watermark)
        self.client_rate_per_s = float(client_rate_per_s)
        self.client_burst = float(client_burst)
        self._client_buckets: Dict[object, TokenBucket] = {}

    def _client_over_rate(self, client_id: object, now_ms: float) -> bool:
        if client_id is None or self.client_rate_per_s <= 0:
            return False
        bucket = self._client_buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(
                self.client_rate_per_s, self.client_burst or self.client_rate_per_s
            )
            bucket._last_ms = now_ms
            self._client_buckets[client_id] = bucket
        return not bucket.try_acquire(now_ms)

    def admit(
        self,
        now_ms: float,
        client_id: object = None,
        priority: str = "normal",
    ) -> AdmissionDecision:
        if priority not in PRIORITIES:
            raise ServingError(f"unknown priority {priority!r}")
        demoted = self._client_over_rate(client_id, now_ms)
        if demoted and priority != "high":
            # A client past its own rate sheds outright — letting it
            # compete for the global bucket would hand a flood exactly
            # the capacity it is trying to steal.
            return AdmissionDecision(False, "client_rate", "low")
        if priority == "low" and (
            self.bucket.fill_fraction(now_ms) < self.shed_low_watermark
        ):
            return AdmissionDecision(False, "shed_low", priority)
        if not self.bucket.try_acquire(now_ms):
            return AdmissionDecision(False, "shed_overload", priority)
        return AdmissionDecision(True, "ok", priority)


class CircuitBreaker:
    """Closed / open / half-open breaker over a failure-rate window.

    Outcomes land in a fixed-size ring; once at least ``min_samples``
    outcomes are present and the failure fraction reaches
    ``failure_threshold``, the breaker opens for ``cooldown_ms``.  After
    the cooldown it half-opens: up to ``half_open_probes`` requests are
    let through as probes — one success closes it (window reset), one
    failure re-opens it for a fresh cooldown.
    """

    def __init__(
        self,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_samples: int = 8,
        cooldown_ms: float = 2_000.0,
        half_open_probes: int = 1,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        if window < 1:
            raise ServingError("breaker window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ServingError("failure_threshold must be in (0, 1]")
        if min_samples < 1 or min_samples > window:
            raise ServingError("min_samples must be in [1, window]")
        if cooldown_ms <= 0:
            raise ServingError("cooldown_ms must be > 0")
        if half_open_probes < 1:
            raise ServingError("half_open_probes must be >= 1")
        self.window = int(window)
        self.failure_threshold = float(failure_threshold)
        self.min_samples = int(min_samples)
        self.cooldown_ms = float(cooldown_ms)
        self.half_open_probes = int(half_open_probes)
        self.on_transition = on_transition
        self._state = CLOSED
        self._outcomes: List[bool] = []  # True == failure, ring of `window`
        self._opened_at_ms = 0.0
        self._probes_in_flight = 0
        self.transitions: List[Tuple[str, str]] = []

    def _transition(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        self.transitions.append((old, new_state))
        if self.on_transition is not None:
            self.on_transition(old, new_state)

    def state(self, now_ms: float) -> str:
        """Current state, applying a lazy open -> half-open transition."""
        if self._state == OPEN and now_ms >= self._opened_at_ms + self.cooldown_ms:
            self._probes_in_flight = 0
            self._transition(HALF_OPEN)
        return self._state

    def allow(self, now_ms: float) -> bool:
        state = self.state(now_ms)
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        if self._probes_in_flight < self.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    def _failure_fraction(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def record_success(self, now_ms: float) -> None:
        if self.state(now_ms) == HALF_OPEN:
            # The probe came back: the replica is healthy again.
            self._outcomes = []
            self._probes_in_flight = 0
            self._transition(CLOSED)
            return
        self._outcomes.append(False)
        del self._outcomes[: -self.window]

    def record_failure(self, now_ms: float) -> None:
        if self.state(now_ms) == HALF_OPEN:
            self._probes_in_flight = 0
            self._opened_at_ms = now_ms
            self._transition(OPEN)
            return
        self._outcomes.append(True)
        del self._outcomes[: -self.window]
        if (
            self._state == CLOSED
            and len(self._outcomes) >= self.min_samples
            and self._failure_fraction() >= self.failure_threshold
        ):
            self._opened_at_ms = now_ms
            self._transition(OPEN)


class BreakerBoard:
    """One :class:`CircuitBreaker` per serving replica (node).

    The board is what the cluster consults during a lookup walk:
    ``allow`` gates each replica probe, ``record_*`` feeds outcomes
    back.  Transitions fan into an optional callback so the frontend
    can meter them (``serving_breaker_transitions_total``).
    """

    def __init__(
        self,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_samples: int = 8,
        cooldown_ms: float = 2_000.0,
        half_open_probes: int = 1,
    ):
        self._kwargs = dict(
            window=window,
            failure_threshold=failure_threshold,
            min_samples=min_samples,
            cooldown_ms=cooldown_ms,
            half_open_probes=half_open_probes,
        )
        self._breakers: Dict[int, CircuitBreaker] = {}
        self.on_transition: Optional[Callable[[int, str, str], None]] = None

    def breaker_for(self, node_id: int) -> CircuitBreaker:
        breaker = self._breakers.get(node_id)
        if breaker is None:
            breaker = CircuitBreaker(
                on_transition=(
                    lambda old, new, _nid=node_id: self._notify(_nid, old, new)
                ),
                **self._kwargs,
            )
            self._breakers[node_id] = breaker
        return breaker

    def _notify(self, node_id: int, old: str, new: str) -> None:
        if self.on_transition is not None:
            self.on_transition(node_id, old, new)

    def allow(self, node_id: int, now_ms: float) -> bool:
        return self.breaker_for(node_id).allow(now_ms)

    def record_success(self, node_id: int, now_ms: float) -> None:
        self.breaker_for(node_id).record_success(now_ms)

    def record_failure(self, node_id: int, now_ms: float) -> None:
        self.breaker_for(node_id).record_failure(now_ms)

    def states(self, now_ms: float) -> Dict[int, str]:
        return {
            node_id: breaker.state(now_ms)
            for node_id, breaker in sorted(self._breakers.items())
        }

    def transition_count(self) -> int:
        return sum(len(b.transitions) for b in self._breakers.values())


class ServerQueue:
    """``n_servers`` simulated workers; computed responses occupy one.

    ``wait_time`` is what a request arriving *now* would wait for a free
    server; ``occupy`` commits a request to the earliest-free server and
    returns the wait actually charged.  Arrivals are processed in
    timestamp order, so the model is a deterministic M/G/n queue fed by
    the traffic generator's Poisson clock.
    """

    def __init__(self, n_servers: int = 8):
        if n_servers < 1:
            raise ServingError("queue needs at least one server")
        self.n_servers = int(n_servers)
        self._busy_until = [0.0] * self.n_servers
        #: High-watermark of the wait charged to any request.
        self.max_wait_ms = 0.0

    def wait_time(self, now_ms: float) -> float:
        return max(0.0, min(self._busy_until) - now_ms)

    def occupy(self, now_ms: float, service_ms: float) -> float:
        index = min(range(self.n_servers), key=lambda i: self._busy_until[i])
        start = max(now_ms, self._busy_until[index])
        self._busy_until[index] = start + max(0.0, service_ms)
        wait = start - now_ms
        if wait > self.max_wait_ms:
            self.max_wait_ms = wait
        return wait


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-request latency budget with bounded retry + backoff.

    ``deadline_ms`` caps the *total* simulated latency of a protected
    request (queue wait included).  ``max_retries`` bounds re-walks of a
    shard whose every replica failed, each charged
    ``retry_backoff_ms * 2**attempt`` before the retry — latency is
    charged honestly, so retries compete with the deadline.
    """

    deadline_ms: float = 25.0
    max_retries: int = 1
    retry_backoff_ms: float = 0.5

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ServingError("deadline_ms must be > 0")
        if self.max_retries < 0:
            raise ServingError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0:
            raise ServingError("retry_backoff_ms must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        return self.retry_backoff_ms * (2.0 ** attempt)


class OverloadProtection:
    """The bundle a protected :class:`ServingFrontend` carries.

    Construction wires an :class:`AdmissionController`, a
    :class:`BreakerBoard`, and a :class:`DeadlinePolicy` together;
    the frontend consults them on every request.  One instance guards
    one frontend (the breaker board holds per-replica state).
    """

    def __init__(
        self,
        admission_rate_qps: float = 2_000.0,
        admission_burst: float = 200.0,
        shed_low_watermark: float = 0.25,
        client_rate_qps: float = 0.0,
        client_burst: float = 0.0,
        breaker_window: int = 16,
        breaker_failure_threshold: float = 0.5,
        breaker_min_samples: int = 8,
        breaker_cooldown_ms: float = 2_000.0,
        breaker_half_open_probes: int = 1,
        deadline: DeadlinePolicy = DeadlinePolicy(),
    ):
        self.admission = AdmissionController(
            rate_per_s=admission_rate_qps,
            burst=admission_burst,
            shed_low_watermark=shed_low_watermark,
            client_rate_per_s=client_rate_qps,
            client_burst=client_burst,
        )
        self.breakers = BreakerBoard(
            window=breaker_window,
            failure_threshold=breaker_failure_threshold,
            min_samples=breaker_min_samples,
            cooldown_ms=breaker_cooldown_ms,
            half_open_probes=breaker_half_open_probes,
        )
        self.deadline = deadline

    def admit(
        self, now_ms: float, client_id: object = None, priority: str = "normal"
    ) -> AdmissionDecision:
        return self.admission.admit(now_ms, client_id, priority)

    def validate_for(self, cluster, fixed_floor_ms: float) -> None:
        """Reject deadlines too small to ever finish a fallback answer.

        The compute path reserves budget for one worst-case replica walk
        plus the blend and fallback constants; a deadline below that
        floor would force every request straight to the shed path, which
        is a configuration error, not protection.
        """
        if self.deadline.deadline_ms < fixed_floor_ms:
            raise ServingError(
                f"deadline_ms={self.deadline.deadline_ms} below the "
                f"minimum {fixed_floor_ms:.2f}ms needed to serve a "
                f"fallback answer on this cluster"
            )


class _Unprotected:
    """The null policy: what a frontend built without protection carries.

    The members the frontend reads off :class:`OverloadProtection`, with
    limits that cannot bind: its own ``admit`` lets everyone in (there is
    no bucket to consult), no breaker board (the cluster walks replicas
    blind), an infinite deadline, no retries.  ``inf - wait`` never
    reaches the deadline floor, so in front of a :class:`ServerQueue` it
    joins the backlog however long — the collapse E27 measures protection
    against.  Stateless, so every unprotected frontend shares the one.
    """

    breakers = None
    deadline = DeadlinePolicy(deadline_ms=float("inf"), max_retries=0)
    _ADMITTED = AdmissionDecision(True)

    def admit(
        self, now_ms: float, client_id: object = None, priority: str = "normal"
    ) -> AdmissionDecision:
        return self._ADMITTED

    def validate_for(self, cluster, fixed_floor_ms: float) -> None:
        """Any cluster can answer inside an infinite deadline."""


UNPROTECTED = _Unprotected()
