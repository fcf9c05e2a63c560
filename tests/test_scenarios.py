"""Tests for the chaos scenario engine and the six catalog drills."""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.data.sessions import UserContext
from repro.exceptions import SigmundError
from repro.scenarios import (
    FAST_SCENARIOS,
    SCENARIOS,
    AvailabilityFloor,
    BucketCeiling,
    CTRInvariance,
    P99Bound,
    ScenarioEvent,
    event,
    get_scenario,
    run_scenario,
    scenario_names,
    strip_adversarial,
)
from repro.scenarios.engine import (
    DayStats,
    Scenario,
    ScenarioResult,
    _day_from_seal,
    _World,
)
from tests.test_serving_cluster import holders


@lru_cache(maxsize=None)
def protected_result(name: str) -> "ScenarioResult":
    """One shared protected run per scenario (tests only read it)."""
    return run_scenario(get_scenario(name), protected=True)


@lru_cache(maxsize=None)
def unprotected_result(name: str) -> "ScenarioResult":
    return run_scenario(get_scenario(name), protected=False)


def day(n, requests=100, p99=5.0, availability=1.0, **buckets):
    base = {
        "cache": 0, "coalesced": 0, "fresh": requests, "stale": 0,
        "fallback": 0, "shed": 0, "empty": 0,
    }
    base.update(buckets)
    base["fresh"] = requests - sum(
        v for k, v in base.items() if k != "fresh"
    )
    return DayStats(
        day=n, requests=requests, buckets=base, p50_ms=1.0, p99_ms=p99,
        availability=availability, organic_requests=requests,
        organic_clicks=10, max_queue_wait_ms=0.0, breaker_transitions=0,
        open_breakers=0, shed=base["shed"], deadline_truncated=0,
    )


def result_with(days):
    scenario = Scenario(
        name="synthetic", description="", seed=1, days=len(days),
        retailer_items=(10,),
    )
    return ScenarioResult(
        scenario=scenario, protected=True, day_stats=days, seals=[],
        monitor=None,
    )


class TestEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SigmundError):
            event(1, "meteor_strike")

    def test_day_must_be_positive(self):
        with pytest.raises(SigmundError):
            ScenarioEvent(day=0, kind="clear_boosts")

    def test_param_access(self):
        ev = event(2, "boost_retailer", retailer_id="r00", factor=10.0)
        assert ev.require("factor") == 10.0
        assert ev.get("missing", 7) == 7
        with pytest.raises(SigmundError):
            ev.require("absent")

    def test_strip_adversarial_removes_floods_only(self):
        events = (
            event(1, "set_qps", qps=10.0),
            event(2, "bot_flood", retailer_id="r00", n_bots=1, requests=10),
            event(3, "fail_node", node_id=0),
        )
        stripped = strip_adversarial(events)
        assert [e.kind for e in stripped] == ["set_qps", "fail_node"]


class TestChecks:
    def test_availability_floor_picks_worst_day(self):
        result = result_with([
            day(1, availability=1.0), day(2, availability=0.9),
        ])
        outcome = AvailabilityFloor(0.99).evaluate(result)
        assert not outcome.passed
        assert outcome.observed == 0.9

    def test_p99_bound_picks_worst_day(self):
        result = result_with([day(1, p99=3.0), day(2, p99=30.0)])
        outcome = P99Bound(25.0).evaluate(result)
        assert not outcome.passed and outcome.observed == 30.0
        assert P99Bound(25.0, days=(1,)).evaluate(result).passed

    def test_bucket_ceiling(self):
        result = result_with([day(1, requests=100, shed=60)])
        assert not BucketCeiling("shed", 0.5).evaluate(result).passed
        assert BucketCeiling("shed", 0.7).evaluate(result).passed

    def test_ctr_invariance_requires_control(self):
        result = result_with([day(1)])
        with pytest.raises(SigmundError):
            CTRInvariance(0.01).evaluate(result)

    def test_check_referencing_missing_day_raises(self):
        result = result_with([day(1)])
        with pytest.raises(SigmundError):
            P99Bound(25.0, days=(9,)).evaluate(result)


class TestScenarioValidation:
    def test_event_past_last_day_rejected(self):
        with pytest.raises(SigmundError):
            Scenario(
                name="bad", description="", seed=1, days=2,
                retailer_items=(10,),
                events=(event(3, "clear_boosts"),),
            )

    def test_unknown_scenario_name(self):
        with pytest.raises(SigmundError):
            get_scenario("does_not_exist")

    def test_catalog_lists_six(self):
        assert len(scenario_names()) == 6
        assert set(FAST_SCENARIOS) <= set(scenario_names())


class TestCatalogProtected:
    """Every drill passes protected, and reruns are byte-deterministic."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_passes_protected_and_rerun_identical(self, name):
        first = protected_result(name)
        verdict = first.verdict()
        assert verdict["passed"], [
            c for c in verdict["checks"] if not c["passed"]
        ]
        second = run_scenario(get_scenario(name), protected=True)
        assert first.verdict_json() == second.verdict_json()

    def test_conservation_enforced_every_day(self):
        result = protected_result("flash_sale")
        for stats in result.day_stats:
            assert sum(stats.buckets.values()) == stats.requests
            assert result.monitor.serving_window(stats.day) is not None


class TestCatalogUnprotected:
    """The point of the bench: protection off demonstrably fails."""

    @pytest.mark.parametrize(
        "name", ["flash_sale", "bot_flood", "cell_outage"]
    )
    def test_fails_unprotected(self, name):
        result = unprotected_result(name)
        verdict = result.verdict()
        assert not verdict["passed"]
        failed = {c["name"] for c in verdict["checks"] if not c["passed"]}
        assert any(n.startswith("p99") for n in failed) or any(
            n.startswith("ctr") for n in failed
        )

    def test_bot_flood_moves_ctr_unprotected(self):
        result = unprotected_result("bot_flood")
        assert result.control_ctr is not None
        assert abs(result.organic_ctr - result.control_ctr) > 0.015

    def test_bot_flood_ctr_invariant_protected(self):
        result = protected_result("bot_flood")
        assert abs(result.organic_ctr - result.control_ctr) <= 0.015


class TestSealedVerdicts:
    def test_checks_read_only_sealed_days(self):
        result = protected_result("seasonal_drift")
        assert len(result.seals) == result.scenario.days
        for seal, stats in zip(result.seals, result.day_stats):
            assert "counters" in seal and "gauges" in seal
            assert stats.requests == int(
                sum(
                    v for k, v in seal["counters"].items()
                    if k.startswith("frontend_requests_total")
                )
            )
        # The result's seals are the days' one record: each day's stats
        # are read back from its seal alone.
        for day, (seal, stats) in enumerate(
            zip(result.seals, result.day_stats), start=1
        ):
            assert stats == _day_from_seal(day, seal)

    def test_skipped_publish_surfaces_as_stale_then_clears(self):
        result = protected_result("seasonal_drift")
        by_day = {d.day: d for d in result.day_stats}
        assert by_day[3].buckets["stale"] > 0
        assert by_day[4].buckets["stale"] == 0

    def test_onboarding_serves_fallback_then_tables(self):
        result = protected_result("onboarding")
        by_day = {d.day: d for d in result.day_stats}
        assert by_day[2].buckets["fallback"] > 0
        assert by_day[4].buckets["fallback"] == 0
        assert by_day[4].buckets["empty"] == 0

    def test_cell_outage_breakers_trip_and_close(self):
        result = protected_result("cell_outage")
        assert sum(d.breaker_transitions for d in result.day_stats) >= 4
        assert result.day_stats[-1].open_breakers == 0

    def test_merged_away_retailer_leaves_the_serving_tier(self):
        """Regression: the merge dropped the source's popularity list and
        cached pages only; its tables, version and freshness expectation
        stayed servable in the cluster for the rest of the run."""
        scenario = get_scenario("catalog_merge")
        (merge,) = scenario.events
        source, target = merge.require("source"), merge.require("target")
        world = _World(scenario, protected=True)
        context = UserContext((0,), (0,))
        assert world.frontend.request(source, context).served_from == "fresh"
        world.apply(merge, merge.day)
        assert world.cluster.version_of(source) is None
        assert holders(world.cluster, source) == []
        assert not world.fallback.has_retailer(source)
        assert source not in world.frontend._expected_versions
        response = world.frontend.request(source, context)
        assert not response.cache_hit and response.recommendations == ()
        assert (response.served_from, response.fallback_stage) == ("empty", "unserved")
        assert world.frontend.request(target, context).served_from == "fresh"
