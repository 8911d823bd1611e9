"""Structured telemetry events and their JSONL wire format.

Every event is one JSON object per line with a fixed, versioned shape::

    {"v": 1, "seq": 12, "kind": "epoch.start", "run": "FedL-s0",
     "worker": "main", "epoch": 3, "data": {...}, "ts": {"wall": ..., "dur": ...}}

Design rules the rest of the subsystem (and the tests) rely on:

* ``seq`` is a per-hub monotonic sequence number, so a single file is
  totally ordered even if wall clocks jump.
* **Everything non-deterministic lives under ``ts``** (wall-clock instant
  and measured duration).  ``v``/``seq``/``kind``/scope/``data`` are pure
  functions of the run, so two traces of the same seeded experiment are
  byte-identical once ``ts`` is dropped — see :func:`canonical_line`.
* ``data`` values are plain JSON scalars/lists (NumPy is converted by
  :func:`jsonify` at emit time), so traces parse without this package.

:class:`EventReader` is the one reader of a trace directory's
``events*.jsonl`` files: read through once (:func:`read_events`, ``repro
trace``, the manifest's event counts) or polled while a run is still
writing (``repro trace --follow``), with one rule for a torn or bad line.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "EVENT_KINDS",
    "Event",
    "jsonify",
    "decode_number",
    "event_to_line",
    "validate_event_dict",
    "strip_volatile",
    "canonical_line",
    "EventReader",
    "read_events",
]

#: Bump when the wire shape of an event line changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

#: The kinds the built-in instrumentation emits (documentation + trace
#: rendering; validation accepts unknown kinds so downstream users can
#: add their own without forking the schema).
EVENT_KINDS = (
    "run.start",
    "run.complete",
    "epoch.start",
    "epoch.decision",
    "epoch.complete",
    "learner.descent",
    "learner.ascent",
    "round.complete",
    "shard.select",
    "sim.round",
    "sim.client",
    "live.round",
    "live.client",
    "sweep.start",
    "sweep.job",
    "sweep.worker",
    "sweep.complete",
    "sweep.progress",
)


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serializable types.

    NumPy scalars/arrays become Python floats/ints/lists; non-finite
    floats become the strings ``"nan"``/``"inf"``/``"-inf"`` (strict JSON
    has no encoding for them and traces must stay parseable everywhere).
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    raise TypeError(f"cannot jsonify {type(value).__name__}: {value!r}")


_NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def decode_number(value: Any, default: Optional[float] = None) -> Optional[float]:
    """Undo :func:`jsonify`'s non-finite encoding: a JSON number or one of
    ``"nan"``/``"inf"``/``"-inf"`` becomes a float, anything else (a bool,
    ``None``, another string, a container) is ``default``."""
    if isinstance(value, bool):
        return default
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return _NON_FINITE.get(value, default)
    return default


@dataclass(frozen=True)
class Event:
    """One telemetry event (the in-memory form of a JSONL line)."""

    kind: str
    seq: int
    run: str
    worker: str
    epoch: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0               # non-deterministic: wall-clock seconds
    dur: Optional[float] = None     # non-deterministic: measured duration
    #: Further measured quantities, written under ``ts`` beside ``dur``.
    measured: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Wire dict with the fixed key order the sink writes."""
        return {
            "v": TELEMETRY_SCHEMA_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "run": self.run,
            "worker": self.worker,
            "epoch": self.epoch,
            "data": self.data,
            "ts": {"wall": self.wall, "dur": self.dur, **self.measured},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Event":
        validate_event_dict(payload)
        ts = payload["ts"]
        return cls(
            kind=payload["kind"],
            seq=payload["seq"],
            run=payload["run"],
            worker=payload["worker"],
            epoch=payload["epoch"],
            data=dict(payload["data"]),
            wall=float(ts["wall"]),
            dur=None if ts["dur"] is None else float(ts["dur"]),
            measured={k: v for k, v in ts.items() if k not in ("wall", "dur")},
        )


def validate_event_dict(payload: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid v1 event dict."""
    if not isinstance(payload, Mapping):
        raise ValueError("event must be a JSON object")
    if payload.get("v") != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema version {payload.get('v')!r} "
            f"(expected {TELEMETRY_SCHEMA_VERSION})"
        )
    for key, types in (
        ("seq", (int,)),
        ("kind", (str,)),
        ("run", (str,)),
        ("worker", (str,)),
    ):
        if not isinstance(payload.get(key), types) or isinstance(
            payload.get(key), bool
        ):
            raise ValueError(f"event field {key!r} missing or mistyped")
    if payload["seq"] < 0:
        raise ValueError("seq must be nonnegative")
    epoch = payload.get("epoch")
    if epoch is not None and (isinstance(epoch, bool) or not isinstance(epoch, int)):
        raise ValueError("epoch must be an int or null")
    if not isinstance(payload.get("data"), Mapping):
        raise ValueError("data must be an object")
    ts = payload.get("ts")
    if not isinstance(ts, Mapping) or "wall" not in ts or "dur" not in ts:
        raise ValueError("ts must be an object with wall and dur")
    if not isinstance(ts["wall"], (int, float)) or isinstance(ts["wall"], bool):
        raise ValueError("ts.wall must be a number")
    if ts["dur"] is not None and (
        isinstance(ts["dur"], bool) or not isinstance(ts["dur"], (int, float))
    ):
        raise ValueError("ts.dur must be a number or null")


def event_to_line(event: Event) -> str:
    """Serialize to one JSONL line (no trailing newline)."""
    return json.dumps(event.to_dict(), separators=(",", ":"))


def strip_volatile(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Drop the ``ts`` field — everything that may differ between two
    runs of the same seeded experiment."""
    return {k: v for k, v in payload.items() if k != "ts"}


def canonical_line(line: str) -> str:
    """Deterministic re-serialization of an event line (``ts`` removed,
    keys sorted).  Two traces of the same run compare equal line-by-line
    under this mapping; the determinism test is built on it."""
    payload = json.loads(line)
    return json.dumps(strip_volatile(payload), sort_keys=True, separators=(",", ":"))


class EventReader:
    """Reads the events completed in ``events*.jsonl`` since the last poll.

    One :meth:`poll` reads a directory through; repeated polls tail a run
    that is still writing.  Every caller gets the same rules:

    * a trailing partial line waits (as bytes, so a multi-byte UTF-8
      character may split across polls) until its newline arrives;
    * a complete line that is not a valid v1 event is skipped and counted
      in ``malformed``;
    * a file that shrank (truncated in place) or whose name now points at
      a different file (rotated, possibly already larger than the old
      offset) is read again from offset 0, and named in ``restarts``.

    Size and identity come from ``fstat`` of the handle actually read, so a
    rotation between the directory listing and the open cannot slip through.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory).expanduser()
        self.malformed = 0
        #: Bytes the last poll consumed.
        self.bytes_read = 0
        #: ``"<file> truncated"`` / ``"<file> rotated"``, for the last poll.
        self.restarts: List[str] = []
        # file name -> (identity, offset, buffered partial line)
        self._files: Dict[str, Tuple[Tuple[int, int], int, bytes]] = {}

    @property
    def files(self) -> List[str]:
        """Names of the event files read so far."""
        return sorted(self._files)

    def poll(self) -> List[Event]:
        """Every event whose line completed since the previous poll, in
        file-name then file order."""
        self.bytes_read = 0
        self.restarts = []
        events: List[Event] = []
        for path in sorted(self.directory.glob("events*.jsonl")):
            events.extend(self._read(path))
        return events

    def _read(self, path: Path) -> List[Event]:
        try:
            with path.open("rb") as fh:
                st = os.fstat(fh.fileno())
                identity = (st.st_dev, st.st_ino)
                known, pos, partial = self._files.get(path.name, (identity, 0, b""))
                if known != identity or st.st_size < pos:
                    how = "rotated" if known != identity else "truncated"
                    self.restarts.append(f"{path.name} {how}")
                    pos, partial = 0, b""
                fh.seek(pos)
                chunk = fh.read()
        except OSError:
            return []
        self.bytes_read += len(chunk)
        *lines, partial = (partial + chunk).split(b"\n")
        self._files[path.name] = (identity, pos + len(chunk), partial)
        return [event for event in map(self._parse, lines) if event is not None]

    def _parse(self, raw: bytes) -> Optional[Event]:
        raw = raw.strip()
        if not raw:
            return None
        try:
            return Event.from_dict(json.loads(raw.decode("utf-8", errors="replace")))
        except ValueError:  # not JSON, or not a v1 event
            self.malformed += 1
            return None


def read_events(directory: str | Path) -> List[Event]:
    """Read every complete event under ``directory`` once (see
    :class:`EventReader`); ordered by (worker, seq)."""
    return sorted(EventReader(directory).poll(), key=lambda e: (e.worker, e.seq))
