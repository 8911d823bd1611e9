"""The phase tree of a telemetry run directory: build, render, diff.

Every timer in the manifest's merged registry is keyed by its path: the
``/``-joined names of the timers that were open around it, then its own
name (:class:`repro.obs.hub.Telemetry` records the path at run time).  A
node's parent is its key without the last segment, so the tree here is
the nesting that actually ran; one timer that runs under four parents
(the solver inside each selection shard) is four nodes.  From that tree
this module computes **self time** (a phase's cumulative total minus its
direct children's totals: the time spent in the phase itself rather
than in measured sub-phases) and renders:

* a tree view with count / cumulative / self / mean / per-epoch columns
  (per-epoch attribution divides by the manifest's ``epoch.complete``
  count, so a 200-epoch sweep reads directly in ms/epoch);
* a flat "hot phases" ranking by self time, the list that answers
  "where did the time actually go";
* a diff of two profiles (``repro trace A --diff B``) with per-phase
  Δtotal/Δmean and regression highlighting.

Manifests written before timers recorded their path have flat keys and
render as a flat list of roots.  Everything here is a pure function of
its inputs, so rendering the same manifest twice is byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "build_profile",
    "profile_directory",
    "render_profile",
    "diff_profiles",
    "render_diff",
]

#: Phases the hot-phase ranking lists.
HOT_PHASES = 10


def build_profile(
    manifest: Mapping[str, Any],
    engines: Optional[Mapping[str, int]] = None,
) -> Dict[str, Any]:
    """Build the phase-tree profile document from a telemetry manifest."""
    timers = manifest.get("registry", {}).get("timers", {})
    phases: Dict[str, Dict[str, Any]] = {}
    for key in sorted(timers):
        stat = timers[key]
        parent = key.rpartition("/")[0]
        phases[key] = {
            "count": int(stat.get("count", 0)),
            "total_s": float(stat.get("total_s", 0.0)),
            "min_s": float(stat.get("min_s", 0.0)),
            "max_s": float(stat.get("max_s", 0.0)),
            "parent": parent if parent in timers else None,
            "children": [],
        }
    for key, node in phases.items():
        if node["parent"] is not None:
            phases[node["parent"]]["children"].append(key)
    for node in phases.values():
        child_total = sum(phases[c]["total_s"] for c in node["children"])
        node["self_s"] = max(0.0, node["total_s"] - child_total)
    roots = [k for k, node in phases.items() if node["parent"] is None]

    def _depth(key: str) -> int:
        d, cur = 0, phases[key]["parent"]
        while cur is not None:
            d, cur = d + 1, phases[cur]["parent"]
        return d

    for key, node in phases.items():
        node["depth"] = _depth(key)
    event_counts = manifest.get("event_counts", {})
    epochs = int(event_counts.get("epoch.complete", 0))
    return {
        "phases": phases,
        "roots": roots,
        "epochs": epochs,
        "runs": int(event_counts.get("run.complete", 0)),
        "engines": dict(engines) if engines else {},
    }


def profile_directory(directory: str | Path) -> Optional[Dict[str, Any]]:
    """Profile one trace directory; ``None`` when it has no manifest."""
    from repro.obs.trace_report import load_manifest

    manifest = load_manifest(directory)
    return None if manifest is None else build_profile(manifest)


# -- rendering -----------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _tree_order(profile: Mapping[str, Any]) -> List[str]:
    """Depth-first order, siblings by cumulative time (desc, then name)."""
    phases = profile["phases"]
    order: List[str] = []

    def visit(name: str) -> None:
        order.append(name)
        children = sorted(
            phases[name]["children"],
            key=lambda c: (-phases[c]["total_s"], c),
        )
        for child in children:
            visit(child)

    for root in sorted(profile["roots"], key=lambda r: (-phases[r]["total_s"], r)):
        visit(root)
    return order


def render_profile(profile: Mapping[str, Any]) -> str:
    """Render one profile: summary line, phase tree, hot-phase ranking."""
    phases = profile["phases"]
    engines = profile.get("engines") or {}
    engine_str = (
        "  ".join(f"{k}x{v}" for k, v in sorted(engines.items()))
        if engines
        else "unknown"
    )
    epochs = int(profile.get("epochs", 0))
    lines: List[str] = [
        f"phases: {len(phases)}   runs: {profile.get('runs', 0)}   "
        f"epochs: {epochs}   engines: {engine_str}"
    ]
    if not phases:
        lines.append("(no timers recorded)")
        return "\n".join(lines)
    from repro.experiments.reporting import format_table

    wall = sum(phases[r]["total_s"] for r in profile["roots"])
    rows = []
    for key in _tree_order(profile):
        node = phases[key]
        label = key if node["parent"] is None else key[len(node["parent"]) + 1 :]
        mean = node["total_s"] / node["count"] if node["count"] else 0.0
        pct = 100.0 * node["total_s"] / wall if wall > 0 else 0.0
        row = {
            "count": node["count"],
            "total": _fmt_s(node["total_s"]),
            "self": _fmt_s(node["self_s"]),
            "mean": _fmt_s(mean),
            "%root": f"{pct:.1f}%",
        }
        if epochs:
            row["per-epoch"] = _fmt_s(node["total_s"] / epochs)
        rows.append(("  " * node["depth"] + label, row))
    lines.append("")
    lines.append(format_table(rows, label="phase"))
    lines.append("")
    lines.append(f"hot phases (self time, top {HOT_PHASES}):")
    ranked = sorted(
        phases.items(), key=lambda kv: (-kv[1]["self_s"], kv[0])
    )[:HOT_PHASES]
    total_self = sum(node["self_s"] for node in phases.values())
    for rank, (key, node) in enumerate(ranked, 1):
        share = 100.0 * node["self_s"] / total_self if total_self > 0 else 0.0
        lines.append(
            f"  {rank:>2}. {_fmt_s(node['self_s']):>10}  {share:5.1f}% of "
            f"self time  {node['count']:>6} calls  {key}"
        )
    return "\n".join(lines)


# -- diffing -------------------------------------------------------------------


def diff_profiles(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """Per-phase deltas between two profiles (``b`` relative to ``a``).

    Rows are ordered by absolute total-time delta (desc, then name); a row
    is a *regression* when the phase's mean time per call grew more than
    5% from ``a`` to ``b``.
    """
    phases_a = a.get("phases", {})
    phases_b = b.get("phases", {})
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(phases_a) | set(phases_b)):
        pa = phases_a.get(name)
        pb = phases_b.get(name)
        count_a = pa["count"] if pa else 0
        count_b = pb["count"] if pb else 0
        total_a = pa["total_s"] if pa else 0.0
        total_b = pb["total_s"] if pb else 0.0
        mean_a = total_a / count_a if count_a else 0.0
        mean_b = total_b / count_b if count_b else 0.0
        mean_delta_pct = (
            100.0 * (mean_b - mean_a) / mean_a if mean_a > 0 else None
        )
        rows.append(
            {
                "phase": name,
                "count_a": count_a,
                "count_b": count_b,
                "total_a_s": total_a,
                "total_b_s": total_b,
                "total_delta_s": total_b - total_a,
                "mean_a_s": mean_a,
                "mean_b_s": mean_b,
                "mean_delta_pct": mean_delta_pct,
                "regressed": bool(
                    mean_delta_pct is not None and mean_delta_pct > 5.0
                ),
            }
        )
    rows.sort(key=lambda r: (-abs(r["total_delta_s"]), r["phase"]))
    return rows


def render_diff(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Render :func:`diff_profiles` as a delta table; ``!`` marks a
    regressed phase."""
    rows = diff_profiles(a, b)
    lines: List[str] = []
    title = f"profile diff: {label_a} -> {label_b}"
    lines.append(title)
    lines.append("=" * len(title))
    if not rows:
        lines.append("(no phases in either profile)")
        return "\n".join(lines)
    from repro.experiments.reporting import format_table

    table = []
    for row in rows:
        if row["mean_delta_pct"] is None:
            dmean = "new" if row["count_a"] == 0 else "gone"
        else:
            dmean = f"{row['mean_delta_pct']:+.1f}%"
        table.append((row["phase"], {
            "count": f"{row['count_a']}->{row['count_b']}",
            "total": f"{_fmt_s(row['total_a_s'])}->{_fmt_s(row['total_b_s'])}",
            "mean": f"{_fmt_s(row['mean_a_s'])}->{_fmt_s(row['mean_b_s'])}",
            "d-mean": dmean,
            "": "!" if row["regressed"] else "",
        }))
    lines.append(format_table(table, label="phase"))
    regressions = [r for r in rows if r["regressed"]]
    lines.append("")
    if regressions:
        lines.append(
            f"{len(regressions)} regressed phase(s) (mean/call > +5%): "
            + ", ".join(r["phase"] for r in regressions)
        )
    else:
        lines.append("no per-call regressions past 5%")
    return "\n".join(lines)
