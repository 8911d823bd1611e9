"""Metrics export: ``metrics.json`` + Prometheus text exposition.

``Telemetry.finalize()`` calls :func:`export_metrics` after the manifest
is written, so every finished trace directory carries two scrape-ready
artifacts next to ``manifest.json``:

* ``metrics.json`` — a flat, versioned distillation of the merged
  registry (timers, counters, gauges, per-kind event totals, per-worker
  utilization).  Unlike the manifest it is shaped for dashboards: one
  namespace of dot-named scalar series, no nested stat objects.
* ``metrics.prom`` — the same numbers in the Prometheus text exposition
  format (``# HELP``/``# TYPE`` + samples with escaped labels), so a
  node-exporter textfile collector or a push gateway can ingest a run
  without any repro-specific tooling.

Both files merge across sweep/tournament workers for free: they are
derived from the manifest, which already folds every
``registry-<worker>.json`` snapshot.  Everything non-deterministic stays
under the ``ts`` key of ``metrics.json`` (the ``.prom`` file carries
measured times by nature), matching the trace convention.

Writes go through :func:`repro.atomic.atomic_write_text`, like every
other artifact in the trace directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.atomic import atomic_write_text

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "METRICS_NAME",
    "PROM_NAME",
    "build_metrics",
    "prometheus_exposition",
    "export_metrics",
    "load_metrics",
]

METRICS_SCHEMA_VERSION = 1
METRICS_NAME = "metrics.json"
PROM_NAME = "metrics.prom"


def build_metrics(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """Distill a telemetry manifest into the flat metrics document."""
    registry = manifest.get("registry", {})
    timers = registry.get("timers", {})
    counters = registry.get("counters", {})
    gauges = registry.get("gauges", {})
    event_counts = manifest.get("event_counts", {})
    workers = manifest.get("workers", [])
    return {
        "v": METRICS_SCHEMA_VERSION,
        "kind": "metrics",
        "timers": {
            name: {
                "count": int(stat.get("count", 0)),
                "total_s": float(stat.get("total_s", 0.0)),
                "mean_s": (
                    float(stat.get("total_s", 0.0)) / int(stat["count"])
                    if stat.get("count")
                    else 0.0
                ),
                "min_s": float(stat.get("min_s", 0.0)),
                "max_s": float(stat.get("max_s", 0.0)),
            }
            for name, stat in sorted(timers.items())
        },
        "counters": {k: float(v) for k, v in sorted(counters.items())},
        "gauges": {k: float(v) for k, v in sorted(gauges.items())},
        "events": {k: int(v) for k, v in sorted(event_counts.items())},
        "events_total": int(sum(event_counts.values())),
        "workers": [
            {
                "worker": str(w.get("worker", "?")),
                "jobs": int(w.get("jobs", 0)),
                "busy_s": float(w.get("busy_s", 0.0)),
            }
            for w in workers
        ],
        "meta": dict(manifest.get("meta", {})),
        "ts": dict(manifest.get("ts", {})),
    }


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, labels: Mapping[str, str], value: float) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    f = float(value)
    if f != f:
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def prometheus_exposition(metrics: Mapping[str, Any]) -> str:
    """Render a :func:`build_metrics` document as Prometheus text format."""
    lines = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    timers = metrics.get("timers", {})
    if timers:
        family(
            "repro_phase_seconds_total",
            "counter",
            "Cumulative seconds recorded under each telemetry timer.",
        )
        for name, stat in timers.items():
            lines.append(
                _sample(
                    "repro_phase_seconds_total",
                    {"phase": name},
                    stat["total_s"],
                )
            )
        family(
            "repro_phase_count_total",
            "counter",
            "Number of observations recorded under each telemetry timer.",
        )
        for name, stat in timers.items():
            lines.append(
                _sample("repro_phase_count_total", {"phase": name}, stat["count"])
            )
    counters = metrics.get("counters", {})
    if counters:
        family(
            "repro_counter_total",
            "counter",
            "Monotonic telemetry counters merged across workers.",
        )
        for name, value in counters.items():
            lines.append(_sample("repro_counter_total", {"name": name}, value))
    gauges = metrics.get("gauges", {})
    if gauges:
        family(
            "repro_gauge",
            "gauge",
            "Point-in-time telemetry gauges (last write wins per worker).",
        )
        for name, value in gauges.items():
            lines.append(_sample("repro_gauge", {"name": name}, value))
    events = metrics.get("events", {})
    if events:
        family(
            "repro_events_total",
            "counter",
            "Telemetry events recorded per kind across all event files.",
        )
        for kind, value in events.items():
            lines.append(_sample("repro_events_total", {"kind": kind}, value))
    workers = metrics.get("workers", [])
    if workers:
        family(
            "repro_worker_jobs_total",
            "counter",
            "Sweep jobs executed per worker process.",
        )
        for w in workers:
            lines.append(
                _sample("repro_worker_jobs_total", {"worker": w["worker"]}, w["jobs"])
            )
        family(
            "repro_worker_busy_seconds_total",
            "counter",
            "Seconds each worker spent inside sweep jobs.",
        )
        for w in workers:
            lines.append(
                _sample(
                    "repro_worker_busy_seconds_total",
                    {"worker": w["worker"]},
                    w["busy_s"],
                )
            )
    return "\n".join(lines) + "\n" if lines else ""


def export_metrics(
    directory: str | Path, manifest: Mapping[str, Any]
) -> Tuple[Path, Path]:
    """Write ``metrics.json`` + ``metrics.prom`` for one trace directory."""
    root = Path(directory).expanduser()
    metrics = build_metrics(manifest)
    json_path = atomic_write_text(
        root / METRICS_NAME, json.dumps(metrics, indent=2, sort_keys=False)
    )
    prom_path = atomic_write_text(
        root / PROM_NAME, prometheus_exposition(metrics)
    )
    return json_path, prom_path


def load_metrics(directory: str | Path) -> Optional[Dict[str, Any]]:
    """Read ``metrics.json`` from a trace directory (None if absent/bad)."""
    path = Path(directory).expanduser() / METRICS_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("kind") != "metrics":
        return None
    return payload
