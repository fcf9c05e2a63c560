"""``--aa N``: the same commit against itself, as the driver will judge it.

Every workload is run N times with N different seeds, twice over (set A
and set B use the same seeds).  The runs are interleaved - per seed every
workload runs once for A and once for B, and which set goes first
alternates - so that a drift of the machine falls on both sets alike.

Per end-to-end metric the report gives each set's median and quartiles,
the inter-quartile spread and ``(max - min) / median`` as shares of the
median, and the share by which set B's median is worse than set A's.
The verdict against the metric's bound is two-sided (the two sets are the
same commit: a difference in either direction is noise the bound has to
cover):

* ``OUT``         the medians differ by more than the bound;
* ``unresolved``  they do not, but one set's inter-quartile spread is wider
                  than the bound, so a change of that size could not be told
                  from noise (``setup_s`` is exempt: it is a median of
                  several set-ups already and only its medians are compared);
* ``ok``          otherwise.

The issue that defined this benchmark hoped for tighter numbers than the
box gives; its two criteria are reported beside the verdict and do not
decide the exit code: ``issue_median_ok`` (medians differ by less than the
issue's bound) and ``issue_range_ok`` (``(max - min) / median <= 0.10``
within each set).  Counts, MAP, the served share and both digests must
repeat exactly between the two sets.  Raw wall-clock and the kernel time
of every run are kept as well, as the evidence for what normalisation buys.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from perfbench.machine import ROOT, envelope
from perfbench.report import END_TO_END, ISSUE_BOUNDS
from perfbench.workloads import WORKLOADS

#: Metrics that are counts or arithmetic, not timings: same seed, same value.
EXACT = ("day_map_at_10", "served_share")
DIGESTS = ("day_seal_sha256", "serve_pages_sha256")
#: Printed by every run beside the metrics; no bound, kept as context.
RAW = ("day_raw_wall_s", "serve_raw_us_per_req", "probe_kernel_us_p50")
#: The issue's within-set criterion: (max - min) / median.
ISSUE_RANGE = 0.10
#: ``setup_s``: only its medians are compared (see the module docstring).
SPREAD_EXEMPT = ("setup_s",)


def _one_run(workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, object]:
    command = [
        sys.executable, "-m", "perfbench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        if key in DIGESTS or key == "pinned":
            run[key] = value
        elif key in RAW:
            run[key] = float(value.split()[0])
    return run


def _stats(values: List[float]) -> Dict[str, object]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "range_share": (max(values) - min(values)) / median,
    }


def compare(name: str, better: str, bound: float, a: Dict, b: Dict) -> Dict[str, object]:
    """Set B against set A for one metric: the verdict and the issue's criteria."""
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    spread = max(a["iqr_share"], b["iqr_share"])
    if abs(worse) > bound:
        verdict = "OUT"
    elif spread > bound and name not in SPREAD_EXEMPT:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "b_worse_by": worse,
        "verdict": verdict,
        "issue_bound": ISSUE_BOUNDS[name],
        "issue_median_ok": abs(worse) <= ISSUE_BOUNDS[name],
        "issue_range_ok": max(a["range_share"], b["range_share"]) <= ISSUE_RANGE,
    }


def run_aa(n: int, base_seed: int, seconds: float, smoke: bool, out: Optional[str]) -> int:
    if n < 2:
        raise SystemExit("--aa needs N >= 2 (quartiles)")
    seeds = [base_seed + index for index in range(n)]
    runs: Dict[str, Dict[str, List[Dict]]] = {w: {"A": [], "B": []} for w in WORKLOADS}
    for index, seed in enumerate(seeds):
        for workload in WORKLOADS:
            for label in ("AB", "BA")[index % 2]:
                runs[workload][label].append(_one_run(workload, seed, seconds, smoke))
                print(f"{workload} set {label} seed {seed} done", file=sys.stderr)

    report: Dict[str, object] = {"seeds": seeds, "smoke": smoke, "workloads": {}}
    failures: List[str] = []
    issue_misses: List[str] = []
    pinned = all(
        run["pinned"] == "True" for sets in runs.values() for label in "AB" for run in sets[label]
    )
    for workload, sets in runs.items():
        rows = {}
        for name, unit, better, bound in END_TO_END:
            a, b = (
                _stats([run["metrics"][name]["value"] for run in sets[label]]) for label in "AB"
            )
            verdict = compare(name, better, bound, a, b)
            rows[name] = {"unit": unit, "better": better, "bound": bound, "A": a, "B": b, **verdict}
            if verdict["verdict"] != "ok":
                failures.append(f"{workload} {name}: {verdict['verdict']}")
            if not (verdict["issue_median_ok"] and verdict["issue_range_ok"]):
                issue_misses.append(f"{workload} {name}")
            print(
                f"{workload:<26} {name:<22} A {a['median']:>10.4f} iqr {a['iqr_share']:6.2%} "
                f"range {a['range_share']:6.2%} | B {b['median']:>10.4f} iqr {b['iqr_share']:6.2%} "
                f"range {b['range_share']:6.2%} | B worse {verdict['b_worse_by']:+7.2%} "
                f"bound {bound:.0%} {verdict['verdict']:<10} | issue {ISSUE_BOUNDS[name]:.0%}: "
                f"median {'ok' if verdict['issue_median_ok'] else 'no'}, "
                f"range<=10% {'ok' if verdict['issue_range_ok'] else 'no'}"
            )
        raw = {}
        for name in RAW:
            raw[name] = {label: _stats([run[name] for run in sets[label]]) for label in "AB"}
            print(
                f"{workload:<26} {name:<22} "
                + " | ".join(
                    f"{label} {raw[name][label]['median']:>10.4f} iqr {raw[name][label]['iqr_share']:6.2%} "
                    f"range {raw[name][label]['range_share']:6.2%}"
                    for label in "AB"
                )
            )
        repeats = all(
            first[key] == second[key]
            for first, second in zip(sets["A"], sets["B"])
            for key in DIGESTS
        ) and all(
            first["metrics"][name]["value"] == second["metrics"][name]["value"]
            for first, second in zip(sets["A"], sets["B"])
            for name in EXACT
        )
        if not repeats:
            failures.append(f"{workload}: digests, MAP or served_share differ between the sets")
        print(f"{workload:<26} digests, MAP and served_share repeat exactly: {repeats}")
        report["workloads"][workload] = {
            "metrics": rows,
            "raw": raw,
            "exact_repeat": repeats,
            "day_seal_sha256": sorted({run["day_seal_sha256"] for run in sets["A"]}),
            "attempted": [run["attempted"] for run in sets["A"]],
            "failed": [run["failed"] for label in "AB" for run in sets[label]],
        }
    print(f"against the benchmark's bounds: {'; '.join(failures) if failures else 'all ok'}")
    print(
        "short of the issue's criteria (medians within its bound, range <= 10 %): "
        + ("; ".join(issue_misses) if issue_misses else "none")
    )
    report = {
        **envelope(pinned), "seconds": seconds, "order": "interleaved, AB/BA alternating",
        **report, "failures": failures, "short_of_issue_criteria": issue_misses,
    }
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failures else 0
