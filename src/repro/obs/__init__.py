"""Dependency-free structured telemetry for runs and sweeps.

Four modules write a recording:

* :mod:`repro.obs.events` — the versioned JSONL event schema (monotonic
  sequence numbers, run/epoch/worker scoping, all wall-clock data
  isolated in the ``ts`` field so traces diff deterministically), and
  :class:`~repro.obs.events.EventReader`, the one reader of event files.
* :mod:`repro.obs.registry` — timer/counter/gauge registry with
  snapshot/merge for process-safe aggregation across sweep workers.
* :mod:`repro.obs.hub` — the process-current :class:`Telemetry` hub the
  instrumentation in the learner / round runner / experiment loop /
  sweep engine reports to.  Its timers key each measurement by the path
  of the timers open around it, so the registry holds the phase tree
  that ran.  Defaults to a no-op hub: with telemetry disabled nothing is
  emitted, timed, or attached to results.
* :mod:`repro.obs.export` — ``metrics.json``/``metrics.prom``, written at
  finalize.

Three read one, all through that reader: :mod:`repro.obs.trace_report`
renders it (``repro trace DIR``) and holds :class:`RunFold`, the one
per-run fold of learner and epoch events; :mod:`repro.obs.profile`
builds, renders and diffs its phase tree for that report (``repro trace
DIR --diff OTHER``); and :mod:`repro.obs.follow` tails one that is still
running (``repro trace DIR --follow``) and streams the same fold.
"""

from repro.obs.events import (
    EVENT_KINDS,
    TELEMETRY_SCHEMA_VERSION,
    Event,
    EventReader,
    canonical_line,
    event_to_line,
    jsonify,
    read_events,
    strip_volatile,
    validate_event_dict,
)
from repro.obs.hub import (
    MANIFEST_NAME,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    build_manifest,
    get_telemetry,
    set_telemetry,
    use_telemetry,
    validate_manifest,
)
from repro.obs.export import (
    METRICS_NAME,
    METRICS_SCHEMA_VERSION,
    PROM_NAME,
    build_metrics,
    export_metrics,
    load_metrics,
    prometheus_exposition,
)
from repro.obs.follow import TraceFollower, follow_trace
from repro.obs.profile import (
    build_profile,
    diff_profiles,
    profile_directory,
    render_diff,
    render_profile,
)
from repro.obs.registry import (
    MetricsRegistry,
    TimerStat,
    load_snapshot,
    merge_snapshots,
)
from repro.obs.trace_report import (
    RunFold,
    UnknownRunError,
    fold_runs,
    load_manifest,
    render_trace,
)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "EVENT_KINDS",
    "Event",
    "jsonify",
    "event_to_line",
    "validate_event_dict",
    "strip_volatile",
    "canonical_line",
    "EventReader",
    "read_events",
    "MetricsRegistry",
    "TimerStat",
    "merge_snapshots",
    "load_snapshot",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "MANIFEST_NAME",
    "build_manifest",
    "validate_manifest",
    "load_manifest",
    "render_trace",
    "UnknownRunError",
    "RunFold",
    "fold_runs",
    "METRICS_SCHEMA_VERSION",
    "METRICS_NAME",
    "PROM_NAME",
    "build_metrics",
    "prometheus_exposition",
    "export_metrics",
    "load_metrics",
    "build_profile",
    "profile_directory",
    "render_profile",
    "diff_profiles",
    "render_diff",
    "TraceFollower",
    "follow_trace",
]
