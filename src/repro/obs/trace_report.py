"""Rendering a recorded telemetry trace for terminals (``repro trace``).

Input: a trace directory (``events*.jsonl``, read by
:class:`~repro.obs.events.EventReader`, + optional ``manifest.json``).
Output: plain text — event inventory, the phase tree of the merged timer
registry (:mod:`repro.obs.profile`), counters, and ASCII trajectories
of the controller quantities the paper's theory tracks (dual variables
``μ_t``, constraint-fit accumulation ``Σ‖h_t⁺‖``, the running descent
objective, test accuracy).

Those trajectories come from :class:`RunFold`, the one per-run fold of
the learner and epoch events; ``repro trace --follow``
(:mod:`repro.obs.follow`) streams the same fold.

Everything here is read-only over the JSONL schema in
:mod:`repro.obs.events`; it never needs the experiment code, so traces
from old runs render with newer reporting.
"""

from __future__ import annotations

import itertools
import json
import math
import textwrap
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.events import Event, decode_number as _num, read_events
from repro.obs.hub import MANIFEST_NAME, validate_manifest
from repro.obs.profile import build_profile, render_profile
from repro.obs.registry import TimerStat

__all__ = [
    "load_manifest",
    "render_trace",
    "UnknownRunError",
    "RunFold",
    "fold_runs",
    "run_matches",
    "trajectory_section",
    "timeline_section",
    "quarantine_section",
]

#: ``(epoch, value)``: one point of a :class:`RunFold` series.
Point = Tuple[float, float]


def load_manifest(directory: str | Path) -> Optional[Dict[str, Any]]:
    """Read + validate ``manifest.json``; ``None`` if absent/invalid."""
    path = Path(directory).expanduser() / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
        validate_manifest(payload)
    except (OSError, json.JSONDecodeError, ValueError):
        return None
    return payload


class UnknownRunError(LookupError):
    """``render_trace(run=PREFIX)`` matched no run id in the trace."""


def _aggregate_event_durs(events: Sequence[Event]) -> Dict[str, Dict[str, Any]]:
    """Fallback timing source when no manifest exists: per-kind ``dur``."""
    stats: Dict[str, TimerStat] = {}
    for event in events:
        if event.dur is not None:
            stats.setdefault(event.kind, TimerStat()).record(event.dur)
    return {kind: stat.to_dict() for kind, stat in stats.items()}


def _finite(value: Any) -> Optional[float]:
    f = _num(value)
    return f if f is not None and math.isfinite(f) else None


@dataclass
class RunFold:
    """One run's learner and epoch signals, folded event by event.

    ``repro trace`` charts it and ``repro trace --follow`` streams it, so
    both show the same numbers.  Only finite values enter a series;
    learner and epoch events without an epoch index are skipped (they
    have no place on the epoch axis).
    """

    epochs: int = 0
    accuracy: List[Point] = field(default_factory=list)
    latency: List[Point] = field(default_factory=list)
    mu_max: List[Point] = field(default_factory=list)
    #: Cumulative constraint fit ``Σ_t ‖h_t⁺‖₁`` after each dual ascent.
    fit: List[Point] = field(default_factory=list)
    #: The descent objective ``f_t`` of each epoch.
    objective: List[Point] = field(default_factory=list)
    objective_total: float = 0.0
    headroom: Optional[float] = None
    quarantined: int = 0
    #: ``None`` until ``run.complete`` lands.
    stop_reason: Optional[str] = None

    @property
    def fit_total(self) -> float:
        return self.fit[-1][1] if self.fit else 0.0

    def add(self, event: Event) -> None:
        """Fold one event of this run."""
        data = event.data
        if event.kind == "run.complete":
            self.stop_reason = str(data.get("stop_reason", "?"))
        if event.epoch is None:
            return
        t = float(event.epoch)

        def put(series: List[Point], key: str) -> Optional[float]:
            value = _finite(data.get(key))
            if value is not None:
                series.append((t, value))
            return value

        if event.kind == "learner.descent":
            self.objective_total += put(self.objective, "objective") or 0.0
            headroom = _num(data.get("budget_headroom"))
            if headroom is not None:
                self.headroom = headroom
        elif event.kind == "learner.ascent":
            put(self.mu_max, "mu_max")
            increment = _finite(data.get("fit_increment"))
            if increment is not None:
                self.fit.append((t, self.fit_total + increment))
        elif event.kind == "epoch.complete":
            self.epochs += 1
            put(self.accuracy, "test_accuracy")
            put(self.latency, "epoch_latency")
            budget = _num(data.get("remaining_budget"))
            if budget is not None:
                self.headroom = budget
            self.quarantined += int(_finite(data.get("num_quarantined")) or 0)


def fold_runs(events: Iterable[Event]) -> Dict[str, RunFold]:
    """Fold every event into its run's :class:`RunFold`."""
    folds: Dict[str, RunFold] = {}
    for event in events:
        folds.setdefault(event.run, RunFold()).add(event)
    return folds


def run_matches(run: str, prefix: Optional[str]) -> bool:
    """The ``--run PREFIX`` filter of ``repro trace`` and ``--follow``."""
    return prefix is None or run.startswith(prefix)


def spark(points: Sequence[Point], width: int) -> str:
    """The values of a fold series as a sparkline of at most ``width``
    glyphs (:func:`repro.experiments.plotting.sparkline`); empty before
    the first point."""
    from repro.experiments.plotting import sparkline

    return sparkline([v for _, v in points], width) if points else ""


def trajectory_section(fold: RunFold, run: str, chart: bool = True) -> str:
    """Render the controller trajectories folded for one run id."""
    steps = [t for t, _ in fold.objective]
    cumulative = list(zip(steps, itertools.accumulate(v for _, v in fold.objective)))
    lines: List[str] = [f"trajectories — run {run!r} (x = epoch)"]
    for title, points in (
        ("dual max_i mu_t[i]", fold.mu_max),
        ("cumulative fit sum h_t^+", fold.fit),
        ("descent objective f_t", fold.objective),
        ("cumulative objective", cumulative),
        ("test accuracy", fold.accuracy),
    ):
        if points:
            lines.append(
                f"  {title:<28} {spark(points, 60)}  last={points[-1][1]:.4g}"
            )
    if len(lines) == 1:
        return f"trajectories — run {run!r}: no learner/epoch events recorded"
    if chart and fold.mu_max and fold.fit:
        from repro.experiments.plotting import ascii_chart

        lines.append("")
        lines.append(
            ascii_chart(
                {"mu_max": fold.mu_max, "cum_fit": fold.fit},
                x_label="epoch",
                y_label="value",
            )
        )
    return "\n".join(lines)


def timeline_section(
    events: Sequence[Event],
    run: str,
    prefix: str,
    max_rounds: int = 3,
    width: int = 40,
) -> Optional[str]:
    """Per-client timelines of the ``<prefix>.round`` / ``<prefix>.client``
    events the round runner emits in one shape for the event-driven
    runtime (``sim``) and the live engine (``live``).

    Returns ``None`` when the run recorded no such rounds.  Each of the
    last ``max_rounds`` rounds renders as a bar chart with each client's
    drop status.  A simulated client's bar spans its last activity instant
    relative to the round's completion time, annotated with its
    completed-work seconds; a live client's bar is its barrier fill, the
    share of the round's iterations its upload made.
    """
    simulated = prefix == "sim"
    rounds = [e for e in events if e.run == run and e.kind == f"{prefix}.round"]
    if not rounds:
        return None
    drops: Counter = Counter()
    retries = 0
    deadline_hits = 0
    for event in rounds:
        for reason in event.data.get("dropped", {}).values():
            drops[str(reason)] += 1
        retries += int(_num(event.data.get("retries", 0), 0.0))
        deadline_hits += int(_num(event.data.get("deadline_hits", 0), 0.0))
    title, how = (
        ("event-driven runtime", "simulated") if simulated
        else ("live runtime", "measured")
    )
    lines = [f"{title} — run {run!r} ({len(rounds)} {how} rounds)"]
    drop_text = (
        ", ".join(f"{k}:{n}" for k, n in sorted(drops.items()))
        if drops
        else "none"
    )
    lines.append(
        f"  retries={retries}  deadline_hits={deadline_hits}  drops={drop_text}"
    )
    clients_by_epoch: Dict[Optional[int], List[Event]] = {}
    for event in events:
        if event.run == run and event.kind == f"{prefix}.client":
            clients_by_epoch.setdefault(event.epoch, []).append(event)
    for event in rounds[-max_rounds:]:
        iterations = int(_num(event.data.get("iterations"), 0.0))
        # The live engine measures the round's wall time (under ``ts``).
        total = (
            _num(event.data.get("completion_time"), 0.0) if simulated
            else (event.dur or 0.0) / _num(event.data.get("time_scale"), 1.0)
        )
        lines.append(
            f"  epoch {event.epoch}: {event.data.get('aggregation', 'sync')} "
            f"T={total:.4g}s iterations={event.data.get('iterations')} "
            f"participants={event.data.get('participants')} "
            f"survivors={event.data.get('survivors')}"
        )
        for ce in sorted(
            clients_by_epoch.get(event.epoch, []),
            key=lambda ev: int(_num(ev.data.get("client", 0), 0.0)),
        ):
            if simulated:
                last = _num(ce.data.get("last_t"), 0.0)
                frac = min(1.0, last / total) if total > 0 else 0.0
                note = f"busy={_num(ce.data.get('busy_s'), 0.0):.4g}s"
            else:
                made = int(_num(ce.data.get("contributions"), 0.0))
                frac = made / iterations if iterations > 0 else 0.0
                note = f"fill={made}/{iterations}"
            bar = "#" * max(1, int(round(frac * width)))
            status = str(ce.data.get("status", "ok"))
            mark = "" if status == "ok" else f"  [{status}]"
            lines.append(
                f"    k={int(_num(ce.data.get('client', 0), 0.0)):>3d} "
                f"|{bar:<{width}}| {note}{mark}"
            )
    return "\n".join(lines)


def quarantine_section(
    events: Sequence[Event],
    run: str,
    max_clients: int = 10,
) -> Optional[str]:
    """Defense-layer digest from the ``defense.round``/``adversary.round``
    events: per-client rejected/clipped update totals, empty-iteration
    count, and (when an adversary was configured) the attack with the
    number of distinct compromised clients seen among the participants.

    Returns ``None`` when the run recorded no defense activity.
    """
    defense_rounds = [
        e for e in events if e.run == run and e.kind == "defense.round"
    ]
    if not defense_rounds:
        return None
    rejected: Counter = Counter()
    clipped: Counter = Counter()
    empty_iterations = 0
    aggregators = set()
    for event in defense_rounds:
        aggregators.add(str(event.data.get("aggregator", "?")))
        for cid, n in event.data.get("rejected", {}).items():
            rejected[int(cid)] += int(_num(n, 0.0))
        for cid, n in event.data.get("clipped", {}).items():
            clipped[int(cid)] += int(_num(n, 0.0))
        empty_iterations += int(_num(event.data.get("empty_iterations", 0), 0.0))
    # attack kind -> the distinct compromised clients seen among participants
    attacks: Dict[str, set] = {}
    for e in events:
        if e.run == run and e.kind == "adversary.round":
            roster = e.data.get("compromised_participants")
            attacks.setdefault(str(e.data.get("attack", "?")), set()).update(
                roster if isinstance(roster, list) else ()
            )
    lines = [
        f"update quarantine — run {run!r} "
        f"(aggregator {'/'.join(sorted(aggregators))}, "
        f"{len(defense_rounds)} defended rounds)"
    ]
    if attacks:
        attack_text = ", ".join(
            f"{kind} ({len(ids)} compromised participants seen)"
            for kind, ids in sorted(attacks.items())
        )
        lines.append(f"  configured attack: {attack_text}")
    lines.append(
        f"  rejected_updates={sum(rejected.values())}  "
        f"clipped_updates={sum(clipped.values())}  "
        f"empty_iterations={empty_iterations}"
    )
    offenders = Counter()
    for cid, n in rejected.items():
        offenders[cid] += n
    for cid, n in clipped.items():
        offenders[cid] += n
    flagged = [cid for cid, n in offenders.most_common(max_clients) if n > 0]
    if flagged:
        from repro.experiments.reporting import format_table

        rows = [
            (cid, {"rejected": rejected.get(cid, 0), "clipped": clipped.get(cid, 0)})
            for cid in flagged
        ]
        table = format_table(rows, label="client")
        lines.append(textwrap.indent(table, "    "))
    else:
        lines.append("    no updates rejected or clipped")
    return "\n".join(lines)


def _warm_start_summary(counters: Mapping[str, Any]) -> Optional[str]:
    """One-line solver warm-start digest from the registry counters.

    Only rendered when the trace recorded warm-start activity (the
    counters come from :meth:`OnlineLearner.descent_step`).
    """
    hits = _num(counters.get("solver.warm_start_hits", 0), 0.0)
    if not hits:
        return None
    saved = _num(counters.get("solver.iterations_saved", 0), 0.0)
    total = _num(counters.get("solver.iterations", 0), 0.0)
    line = (
        f"solver warm-start: {hits:.0f} warm solves, "
        f"{saved:.0f} iterations saved ({saved / hits:.1f}/solve)"
    )
    if total:
        line += f", {total:.0f} descent iterations total"
    return line


def _host_line(manifest: Optional[Dict[str, Any]]) -> str:
    """Header line naming the pool the run's digests came from."""
    host = manifest.get("host") if manifest else None
    if host is None:
        return ""
    threads = host["blas_threads"]
    if not isinstance(threads, str):
        threads = " ".join(f"{k}={v}" for k, v in threads.items())
    return f"\n  host: cpus={host['cpus']}  blas threads: {threads}"


def render_trace(
    directory: str | Path,
    run: Optional[str] = None,
    chart: bool = True,
    max_runs: int = 4,
) -> str:
    """Full text report for ``repro trace DIRECTORY``.

    Raises :class:`UnknownRunError` when ``run`` matches no run id.
    """
    from repro.experiments.reporting import format_table

    directory = Path(directory).expanduser()
    events = read_events(directory)
    folds = fold_runs(events)
    manifest = load_manifest(directory)
    sections: List[str] = []

    counts = Counter(e.kind for e in events)
    runs = sorted({e.run for e in events})
    workers = sorted({e.worker for e in events})
    sections.append(
        f"telemetry trace: {directory}\n"
        f"  events={len(events)}  runs={len(runs)}  workers={len(workers)}"
        + ("  manifest=ok" if manifest else "  manifest=missing")
        + _host_line(manifest)
    )

    if counts:
        inventory = format_table(
            [(kind, {"events": n}) for kind, n in sorted(counts.items())],
            label="kind",
        )
        sections.append("event inventory\n" + textwrap.indent(inventory, "  "))

    engines = Counter(
        str(e.data.get("engine", "?")) for e in events if e.kind == "round.complete"
    )
    profile = build_profile(
        manifest
        or {
            "registry": {"timers": _aggregate_event_durs(events)},
            "event_counts": counts,
        },
        engines=engines,
    )
    sections.append("per-phase timing\n" + render_profile(profile))

    if manifest:
        counters = manifest["registry"]["counters"]
        if counters:
            table = format_table(
                [
                    (name, {"value": f"{value:.6g}"})
                    for name, value in sorted(counters.items())
                ],
                label="counter",
            )
            sections.append("counters\n" + textwrap.indent(table, "  "))
        warm_line = _warm_start_summary(counters)
        if warm_line:
            sections.append(warm_line)
        # Utilization is sweep.job time, which only sweep workers record.
        busy = [w for w in manifest["workers"] if w["jobs"] > 0]
        if busy:
            rows = [
                (w["worker"], {"jobs": w["jobs"], "busy": f"{w['busy_s']:.3f}s"})
                for w in busy
            ]
            table = format_table(rows, label="worker")
            sections.append("worker utilization\n" + textwrap.indent(table, "  "))

    if run is not None:
        chosen = [r for r in runs if run_matches(r, run)]
        if not chosen:
            raise UnknownRunError(f"run {run!r} not found; available: {runs}")
    else:
        # Most-instrumented runs first, capped so sweep traces stay readable.
        by_signal = Counter(
            e.run for e in events if e.kind in ("learner.ascent", "epoch.complete")
        )
        chosen = [r for r, _ in by_signal.most_common(max_runs)]
    for r in chosen:
        sections.append(trajectory_section(folds[r], r, chart=chart))
        for prefix in ("sim", "live"):
            timeline = timeline_section(events, r, prefix)
            if timeline:
                sections.append(timeline)
        defense_section = quarantine_section(events, r)
        if defense_section:
            sections.append(defense_section)
    if run is None and len(runs) > len(chosen) and chosen:
        sections.append(
            f"({len(runs) - len(chosen)} more runs in this trace; "
            "re-run with --run PREFIX to select one)"
        )
    return "\n\n".join(sections)
