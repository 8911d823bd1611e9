"""The telemetry hub: event emission, timers, scoping, and the manifest.

One :class:`Telemetry` instance per process.  Instrumentation sites never
construct hubs; they fetch the process-current one::

    tel = get_telemetry()
    if tel.enabled:
        tel.emit("learner.descent", data={...}, dur=dt)
    with tel.timer("round.local_solve"):
        ...

A timer's registry key is the path of the timers open around it, joined
by ``/``, then its own name: ``round.local_solve`` opened inside
``fl.round`` inside a sweep job records under
``sweep.job/fl.round/round.local_solve``.  The phase tree that ``repro
trace`` renders is read off those keys, so it is the nesting that ran.

The default hub is :data:`NULL_TELEMETRY`, whose ``enabled`` is False and
whose ``timer`` returns a shared no-op context manager — instrumentation
costs one module-global read and an attribute check when telemetry is
off, and adds nothing to any result object.

A real hub is activated with :func:`use_telemetry` (context manager) or
:func:`set_telemetry`; :meth:`Telemetry.for_directory` builds one that
writes ``events-<worker>.jsonl`` under a trace directory.  Sequence
numbers are monotonic per hub; epoch scope is set by the experiment loop
via :meth:`Telemetry.epoch_scope` so deep call sites (solver, round
runner) inherit it for free.

``finalize()`` writes ``manifest.json``: the merged timer/counter/gauge
registry (own + every worker snapshot found in the directory), per-kind
event counts, and per-worker utilization — the single file ``repro
trace`` and CI validation start from.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, TextIO

from repro.atomic import atomic_write_text
from repro.host import host_record
from repro.obs.events import (
    TELEMETRY_SCHEMA_VERSION,
    Event,
    EventReader,
    event_to_line,
    jsonify,
)
from repro.obs.registry import MetricsRegistry, load_snapshot

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "MANIFEST_NAME",
    "build_manifest",
    "validate_manifest",
]

MANIFEST_NAME = "manifest.json"


class _NullTimer:
    """Shared do-nothing context manager (zero allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _Timer:
    """Measures a block and records it in the registry under its path;
    ``seconds`` holds the measurement once the block exits."""

    __slots__ = ("_hub", "_name", "_key", "_t0", "seconds")

    def __init__(self, hub: "Telemetry", name: str) -> None:
        self._hub = hub
        self._name = name

    def __enter__(self) -> "_Timer":
        open_keys = self._hub._open_timers
        self._key = (
            f"{open_keys[-1]}/{self._name}" if open_keys else self._name
        )
        open_keys.append(self._key)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self._hub._open_timers.pop()
        self._hub.registry.record_timer(self._key, self.seconds)
        return False


class Telemetry:
    """Structured event hub + metrics registry for one process."""

    def __init__(
        self,
        sink: Optional[TextIO] = None,
        run_id: str = "run",
        worker: str = "main",
        directory: Optional[Path] = None,
        progress_stream: Optional[TextIO] = None,
    ) -> None:
        self._sink = sink
        self.run_id = run_id
        self.worker = worker
        self.directory = Path(directory) if directory is not None else None
        self.progress_stream = progress_stream
        self.registry = MetricsRegistry()
        # Keys of the timers open right now, outermost first.  Every timer
        # site runs on the experiment loop's thread, so one stack suffices.
        self._open_timers: List[str] = []
        self._seq = 0
        self._epoch: Optional[int] = None
        self._finalized = False
        self._manifest_path: Optional[Path] = None

    @property
    def enabled(self) -> bool:
        """True when events are being recorded.  Call sites use this to
        skip payload construction entirely; a progress-only hub (no sink)
        therefore costs as little as the null hub inside jobs."""
        return self._sink is not None

    @classmethod
    def for_directory(
        cls,
        directory: str | Path,
        run_id: str = "run",
        worker: str = "main",
        progress_stream: Optional[TextIO] = None,
    ) -> "Telemetry":
        """Hub writing ``events-<worker>.jsonl`` under ``directory``.

        The file is truncated (a recording replaces any previous one by
        the same worker, keeping ``seq`` monotonic within each file) and
        line-buffered, so a crash loses at most the final partial line;
        concurrent workers each own a distinct file (the worker label is
        part of the name).
        """
        root = Path(directory).expanduser()
        root.mkdir(parents=True, exist_ok=True)
        sink = (root / f"events-{worker}.jsonl").open(
            "w", buffering=1, encoding="utf-8"
        )
        return cls(
            sink=sink,
            run_id=run_id,
            worker=worker,
            directory=root,
            progress_stream=progress_stream,
        )

    # -- events ------------------------------------------------------------------

    def emit(
        self,
        kind: str,
        data: Optional[Mapping[str, Any]] = None,
        epoch: Optional[int] = None,
        dur: Optional[float] = None,
        measured: Optional[Mapping[str, float]] = None,
    ) -> Optional[Event]:
        """Append one event to the trace (no-op without a sink).  ``dur``
        and ``measured`` are wall-clock measurements: they go under ``ts``,
        apart from the deterministic ``data``."""
        if self._sink is None:
            return None
        event = Event(
            kind=kind,
            seq=self._seq,
            run=self.run_id,
            worker=self.worker,
            epoch=self._epoch if epoch is None else epoch,
            data=jsonify(dict(data) if data else {}),
            wall=time.time(),
            dur=dur,
            measured=jsonify(dict(measured) if measured else {}),
        )
        self._seq += 1
        self._sink.write(event_to_line(event) + "\n")
        return event

    # -- registry shorthands -----------------------------------------------------

    def timer(self, name: str) -> _Timer:
        """``with tel.timer("round.aggregate"): ...`` — records the block's
        wall time under its path (see the module docstring)."""
        return _Timer(self, name)

    def counter(self, name: str, value: float = 1.0) -> None:
        self.registry.add_counter(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    # -- scoping -----------------------------------------------------------------

    def set_epoch(self, t: Optional[int]) -> None:
        """Loop-style epoch scoping: every later event carries epoch ``t``
        until the next call (``None`` clears the scope)."""
        self._epoch = None if t is None else int(t)

    @contextmanager
    def epoch_scope(self, t: int) -> Iterator[None]:
        """Tag every event emitted inside the block with epoch ``t``."""
        prev, self._epoch = self._epoch, int(t)
        try:
            yield
        finally:
            self._epoch = prev

    @contextmanager
    def run_scope(self, run_id: str) -> Iterator[None]:
        """Tag every event emitted inside the block with ``run_id``
        (sweeps retag per job so multi-run traces stay separable)."""
        prev, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = prev

    # -- progress ----------------------------------------------------------------

    def progress(self, message: str) -> None:
        """Human-facing progress line: echoed to ``progress_stream`` (if
        any) and recorded as a ``sweep.progress`` event (if sinked) — one
        code path for both surfaces."""
        if self.progress_stream is not None:
            print(message, file=self.progress_stream)
        self.emit("sweep.progress", data={"message": message})

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def dump_worker_snapshot(self) -> Optional[Path]:
        """Write this process's cumulative registry snapshot into the
        trace directory (called by sweep workers after every job)."""
        if self.directory is None:
            return None
        return self.registry.dump(self.directory / f"registry-{self.worker}.json")

    def finalize(self, meta: Optional[Mapping[str, Any]] = None) -> Optional[Path]:
        """Flush, merge all registries, write ``manifest.json``, close.

        The hub's own registry reaches the manifest via its snapshot file
        (like every worker's), so each process is counted exactly once no
        matter how often it snapshotted mid-run.

        Idempotent: the first call does all the work and later calls
        return the same path without touching the directory again.  All
        artifacts (``manifest.json``, ``metrics.json``, ``metrics.prom``)
        are written with :func:`~repro.atomic.atomic_write_text`, so a
        crash mid-write leaves the previous version (or nothing) — never
        a torn file or a temp file.
        """
        if self._finalized:
            return self._manifest_path
        self.flush()
        path: Optional[Path] = None
        if self.directory is not None:
            self.dump_worker_snapshot()
            manifest = build_manifest(self.directory, meta=meta)
            path = atomic_write_text(
                self.directory / MANIFEST_NAME,
                json.dumps(manifest, indent=2, sort_keys=False),
            )
            # Deferred import: export depends on the manifest shape built
            # here, keeping hub <- export a one-way edge at import time.
            from repro.obs.export import export_metrics

            export_metrics(self.directory, manifest)
        self.close()
        self._finalized = True
        self._manifest_path = path
        return path

    def close(self) -> None:
        if self._sink is not None and self._sink is not sys.stderr:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None


class NullTelemetry(Telemetry):
    """The disabled hub: every operation is a no-op.

    ``enabled`` is False (no sink) so call sites skip building event
    payloads entirely; ``timer`` hands back one shared null context
    manager, so a ``with`` block costs two trivial method calls and no
    clock reads.
    """

    def __init__(self) -> None:
        super().__init__(sink=None)

    def emit(  # type: ignore[override]
        self, kind, data=None, epoch=None, dur=None, measured=None
    ):
        return None

    def timer(self, name: str):  # type: ignore[override]
        return _NULL_TIMER

    def counter(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def progress(self, message: str) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()

_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The process-current hub (the null hub unless one was installed)."""
    return _current


def set_telemetry(hub: Optional[Telemetry]) -> Telemetry:
    """Install ``hub`` (``None`` → the null hub); returns the previous."""
    global _current
    previous = _current
    _current = hub if hub is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(hub: Optional[Telemetry]) -> Iterator[Telemetry]:
    """Scoped :func:`set_telemetry` that always restores the previous hub."""
    previous = set_telemetry(hub)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)


# -- manifest -------------------------------------------------------------------


def build_manifest(
    directory: str | Path,
    own_registry: Optional[MetricsRegistry] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Aggregate one trace directory into a manifest dict.

    Merges ``own_registry`` with every ``registry-*.json`` worker
    snapshot, counts events per kind as :class:`~repro.obs.events.
    EventReader` reads them (a torn or malformed line is not an event),
    and derives per-worker utilization from each worker's ``sweep.job``
    timer (jobs executed + busy seconds).  ``host`` says which pool the
    process that wrote the manifest computed with (:func:`repro.host.
    host_record`); pool workers and forked live workers inherit it.
    """
    root = Path(directory).expanduser()
    merged = MetricsRegistry()
    if own_registry is not None:
        merged.merge_snapshot(own_registry.snapshot())
    workers = []
    for snap_path in sorted(root.glob("registry-*.json")):
        snap = load_snapshot(snap_path)
        if snap is None:
            continue
        merged.merge_snapshot(snap)
        job_stat = snap.get("timers", {}).get("sweep.job")
        workers.append(
            {
                "worker": snap_path.stem.replace("registry-", "", 1),
                "jobs": int(job_stat["count"]) if job_stat else 0,
                "busy_s": float(job_stat["total_s"]) if job_stat else 0.0,
            }
        )
    reader = EventReader(root)
    event_counts = Counter(event.kind for event in reader.poll())
    return {
        "v": TELEMETRY_SCHEMA_VERSION,
        "kind": "telemetry-manifest",
        "event_files": reader.files,
        "event_counts": dict(sorted(event_counts.items())),
        "workers": workers,
        "registry": merged.snapshot(),
        "meta": jsonify(dict(meta) if meta else {}),
        "host": host_record(),
        "ts": {"wall": time.time()},
    }


def validate_manifest(payload: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid v1 manifest."""
    if not isinstance(payload, Mapping):
        raise ValueError("manifest must be a JSON object")
    if payload.get("v") != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest version {payload.get('v')!r}")
    if payload.get("kind") != "telemetry-manifest":
        raise ValueError("manifest kind must be 'telemetry-manifest'")
    for key in ("event_files", "workers"):
        if not isinstance(payload.get(key), list):
            raise ValueError(f"manifest field {key!r} missing or mistyped")
    if not isinstance(payload.get("event_counts"), Mapping):
        raise ValueError("manifest field 'event_counts' missing or mistyped")
    registry = payload.get("registry")
    if not isinstance(registry, Mapping):
        raise ValueError("manifest field 'registry' missing or mistyped")
    for section in ("timers", "counters", "gauges"):
        if not isinstance(registry.get(section), Mapping):
            raise ValueError(f"registry section {section!r} missing or mistyped")
    for name, stat in registry["timers"].items():
        if not isinstance(stat, Mapping) or not {
            "count",
            "total_s",
            "min_s",
            "max_s",
        } <= set(stat):
            raise ValueError(f"timer {name!r} malformed")
    # Directories written before the field existed carry no ``host``.
    host = payload.get("host")
    if host is not None and not (
        isinstance(host, Mapping)
        and isinstance(host.get("cpus"), int)
        and isinstance(host.get("blas_threads"), (Mapping, str))
    ):
        raise ValueError("manifest field 'host' mistyped")
