"""Compare two result files of ``perf/run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, both min–max
ranges, the bound, and a verdict for B against A —

* ``within-bound``: B is no worse (and no better) than A by more than the bound;
* ``worse`` / ``better``: it is, and the two ranges do not overlap or are
  narrower than the bound;
* ``unresolved``: the run-to-run spread is wider than the bound and the
  ranges overlap, so the runs cannot tell.

Bounds are the issue's, from ``metrics.py`` (``BENCHMARK.json`` carries the
driver's looser, all-workloads-and-seeds bounds).  Every ratio is printed
with its base.  Exit 1 on any ``worse`` row, which includes a higher
``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import metrics


def judge(a: dict, b: dict, rel: float, floor: float, better: str) -> tuple:
    """``(verdict, allowed)`` for summary ``b`` against baseline ``a``."""
    allowed = max(rel * abs(a["median"]), floor)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    spread = max(a["max"] - a["min"], b["max"] - b["min"])
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > allowed and overlap and (a["n"] > 1 or b["n"] > 1):
        return "unresolved", allowed
    if worse_by > allowed:
        return "worse", allowed
    if -worse_by > allowed:
        return "better", allowed
    return "within-bound", allowed


def compare(first: dict, second: dict) -> list:
    rows = []
    for name, a_record in first["workloads"].items():
        b_record = second["workloads"].get(name)
        if b_record is None:
            continue
        for metric, a in a_record["end_to_end"].items():
            b = b_record["end_to_end"].get(metric)
            if b is None:
                continue
            spec = metrics.E2E_BY_NAME[metric]
            verdict, allowed = judge(a, b, spec.rel, spec.floor, spec.better)
            rows.append({
                "workload": name, "metric": metric, "unit": a["unit"],
                "better": spec.better, "a": a, "b": b, "rel_bound": spec.rel,
                "allowed": allowed, "verdict": verdict,
            })
    return rows


def render(rows: list) -> str:
    lines = [
        f"{'workload':<16} {'metric':<21} {'A median [min..max] n':<34} "
        f"{'B median [min..max] n':<34} {'B/A (base A)':<24} {'allowed':<12} verdict"
    ]
    for row in rows:
        a, b = row["a"], row["b"]

        def cell(s):
            return f"{s['median']:.5g} [{s['min']:.5g}..{s['max']:.5g}] n={s['n']}"

        ratio = (
            f"{b['median'] / a['median']:.4f} (A={a['median']:.5g} {row['unit']})"
            if a["median"] else f"n/a (A=0 {row['unit']})"
        )
        lines.append(
            f"{row['workload']:<16} {row['metric']:<21} {cell(a):<34} {cell(b):<34} "
            f"{ratio:<24} ±{row['allowed']:<11.4g} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(first, second)
    print(render(rows))
    # failed_share has a zero bound, so any increase is a "worse" row too.
    bad = [r for r in rows if r["verdict"] == "worse"]
    for row in bad:
        print(f"REGRESSION: {row['workload']} {row['metric']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
