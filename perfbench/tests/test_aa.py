"""The A/A verdict: two-sided, spread-aware, and honest about the issue's hopes."""

from perfbench.aa import _stats, compare


def stats(*values):
    return _stats(list(values))


def test_a_faster_second_set_is_as_much_out_of_bound_as_a_slower_one():
    a, b = stats(10.0, 10.1, 9.9, 10.0), stats(7.0, 7.1, 6.9, 7.0)
    assert compare("day_norm_s", "lower", 0.20, a, b)["verdict"] == "OUT"
    assert compare("day_norm_s", "lower", 0.20, b, a)["verdict"] == "OUT"
    assert compare("day_norm_s", "lower", 0.20, a, b)["b_worse_by"] < 0


def test_a_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    a, b = stats(8.0, 10.0, 12.0, 10.0), stats(10.0, 10.1, 9.9, 10.0)
    assert compare("serve_p50_norm_us", "lower", 0.12, a, b)["verdict"] == "unresolved"
    # Only the medians of setup_s are compared.
    assert compare("setup_s", "lower", 0.12, a, b)["verdict"] == "ok"
    assert compare("serve_p50_norm_us", "lower", 0.35, a, b)["verdict"] == "ok"


def test_higher_is_better_flips_the_sign():
    a, b = stats(0.30, 0.30, 0.30, 0.30), stats(0.27, 0.27, 0.27, 0.27)
    row = compare("day_map_at_10", "higher", 0.03, a, b)
    assert row["b_worse_by"] > 0 and row["verdict"] == "OUT"


def test_the_issues_criteria_are_reported_beside_the_verdict():
    a, b = stats(10.0, 10.2, 10.9, 9.8), stats(10.3, 10.4, 10.5, 10.2)
    row = compare("day_norm_s", "lower", 0.20, a, b)
    assert row["verdict"] == "ok"
    assert row["issue_bound"] == 0.05 and row["issue_median_ok"]
    assert not row["issue_range_ok"]  # (10.9 - 9.8) / 10.1 > 0.10
    exact = stats(0.94, 0.94, 0.94, 0.94)
    assert compare("served_share", "higher", 0.01, exact, exact)["issue_median_ok"]
