"""Cross-cutting hypothesis property tests on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cost import ResourcePricing
from repro.cluster.execution import run_with_preemptions
from repro.cluster.machine import Priority, VMRequest
from repro.cluster.preemption import PreemptionModel
from repro.core.binpack import first_fit_decreasing, makespan
from repro.data.events import EventType
from repro.data.sessions import UserContext
from repro.models.base import ScoredItem
from repro.serving.store import RecommendationStore

from tests.conftest import step_one


# ----------------------------------------------------------------------
# BPR model invariants
# ----------------------------------------------------------------------

contexts = st.lists(
    st.integers(min_value=0, max_value=119), min_size=0, max_size=6
).map(
    lambda items: UserContext(
        tuple(items), tuple(EventType.VIEW for _ in items)
    )
)


@settings(max_examples=20, deadline=None)
@given(context=contexts, seed=st.integers(min_value=0, max_value=100))
def test_property_bpr_scores_are_context_deterministic(context, seed):
    """Same context, same items -> identical scores (pure function)."""
    model = _property_model()
    items = [seed % 120, (seed * 7) % 120]
    a = model.score_items(context, items)
    b = model.score_items(context, items)
    assert np.array_equal(a, b)


_PROPERTY_MODEL = None


def _property_model():
    """A small shared model (hypothesis cannot take pytest fixtures)."""
    global _PROPERTY_MODEL
    if _PROPERTY_MODEL is None:
        from repro.data.generator import RetailerSpec, generate_retailer
        from repro.models.bpr import BPRHyperParams, BPRModel

        retailer = generate_retailer(
            RetailerSpec(retailer_id="prop", n_items=120, n_users=10,
                         n_events=60, seed=1)
        )
        _PROPERTY_MODEL = BPRModel(
            retailer.catalog, retailer.taxonomy,
            BPRHyperParams(n_factors=4, seed=2),
        )
    return _PROPERTY_MODEL


@settings(max_examples=15, deadline=None)
@given(
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=29),
            st.integers(min_value=0, max_value=29),
        ).filter(lambda pair: pair[0] != pair[1]),
        min_size=1,
        max_size=20,
    )
)
def test_property_bpr_state_roundtrip_after_updates(updates, tiny_dataset):
    """get_state/set_state is an exact snapshot at any training point."""
    from repro.models.bpr import BPRHyperParams, BPRModel

    model = BPRModel(
        tiny_dataset.catalog, tiny_dataset.taxonomy,
        BPRHyperParams(n_factors=4, seed=3),
    )
    context = UserContext((0,), (EventType.VIEW,))
    for positive, negative in updates:
        step_one(model, context, positive, negative)
    state = model.get_state()
    scores_before = model.score_all(context).copy()
    # More training mutates; restore must bring scores back exactly.
    for positive, negative in updates[:5]:
        step_one(model, context, positive, negative)
    model.set_state(state)
    assert np.allclose(model.score_all(context), scores_before)


# ----------------------------------------------------------------------
# Serving store invariants
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    versions=st.lists(
        st.integers(min_value=1, max_value=50), min_size=1, max_size=10
    )
)
def test_property_store_version_monotonicity(versions):
    """Whatever order loads arrive in, the visible version never goes
    backwards and equals the max accepted version."""
    from repro.exceptions import ServingError

    store = RecommendationStore()
    accepted = []
    for version in versions:
        try:
            store.load_batch("r", {0: [ScoredItem(1, 1.0)]}, version=version)
            accepted.append(version)
        except ServingError:
            pass
    assert store.version_of("r") == max(accepted)
    assert accepted == sorted(accepted)


# ----------------------------------------------------------------------
# Execution-trace invariants
# ----------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    work_minutes=st.integers(min_value=1, max_value=240),
    uptime_hours=st.floats(min_value=0.2, max_value=24.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_execution_traces_account_for_all_time(
    work_minutes, uptime_hours, seed
):
    """billed >= useful work; wall == billed (single VM at a time); the
    job always completes; lost work is non-negative."""
    trace = run_with_preemptions(
        work_minutes * 60.0,
        preemption_model=PreemptionModel(
            preemptible_mean_uptime_hours=uptime_hours
        ),
        checkpoint_interval=120.0,
        seed=seed,
    )
    assert trace.billed_seconds >= trace.work_seconds - 1e-9
    assert trace.wall_seconds == pytest.approx(trace.billed_seconds)
    assert trace.lost_work_seconds >= 0
    assert trace.attempts >= 1
    assert trace.preemptions <= trace.attempts


@settings(max_examples=20, deadline=None)
@given(
    cpus=st.integers(min_value=1, max_value=64),
    memory=st.floats(min_value=0.5, max_value=512.0),
    seconds=st.floats(min_value=0.0, max_value=86_400.0),
)
def test_property_preemptible_always_cheaper(cpus, memory, seconds):
    """At equal duration, pre-emptible is never pricier than regular."""
    pricing = ResourcePricing()
    cheap = pricing.cost(VMRequest(cpus, memory, Priority.PREEMPTIBLE), seconds)
    full = pricing.cost(VMRequest(cpus, memory, Priority.REGULAR), seconds)
    assert cheap <= full + 1e-12


# ----------------------------------------------------------------------
# Bin-packing conservation
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    weights=st.dictionaries(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.01, max_value=100.0),
        min_size=1,
        max_size=30,
    ),
    n_bins=st.integers(min_value=1, max_value=6),
)
def test_property_binpacking_conserves_and_bounds(weights, n_bins):
    bins = first_fit_decreasing(weights, n_bins)
    packed = sorted(key for group in bins for key in group)
    assert packed == sorted(weights)
    assert makespan(bins, weights) >= max(weights.values()) - 1e-9
    assert makespan(bins, weights) <= sum(weights.values()) + 1e-9
