"""Hierarchical timer/counter/gauge registry with cross-process merging.

Counter and gauge names are dotted (``"solver.iterations"``).  A timer's
name is the ``/``-joined path of the timers that were open around it
(``"fl.round/round.local_solve"``); the hub builds that path, so the
registry stores it as an opaque key and merges equal keys.

Process safety model: each process owns a private registry (no locks on
the hot path); sweep workers serialize a :meth:`MetricsRegistry.snapshot`
to disk after every job and the parent folds them together with
:func:`merge_snapshots`.  Merging is associative and idempotent-friendly
(snapshots are cumulative, so workers *overwrite* their snapshot file
rather than appending).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.atomic import atomic_write_text

__all__ = [
    "TimerStat",
    "MetricsRegistry",
    "merge_snapshots",
    "load_snapshot",
]


@dataclass
class TimerStat:
    """Aggregate of every observation recorded under one timer key."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TimerStat":
        stat = cls(
            count=int(payload["count"]),
            total_s=float(payload["total_s"]),
            max_s=float(payload["max_s"]),
        )
        stat.min_s = float(payload["min_s"]) if stat.count else float("inf")
        return stat

    def merge(self, other: "TimerStat") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)


@dataclass
class MetricsRegistry:
    """Per-process store of timers, monotonic counters, and gauges."""

    timers: Dict[str, TimerStat] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def record_timer(self, name: str, seconds: float) -> None:
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.record(seconds)

    def add_counter(self, name: str, value: float = 1.0) -> float:
        total = self.counters.get(name, 0.0) + value
        self.counters[name] = total
        return total

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    # -- cross-process aggregation ---------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready cumulative view of this registry."""
        return {
            "timers": {k: v.to_dict() for k, v in sorted(self.timers.items())},
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def merge_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Timers/counters accumulate; gauges are last-write-wins (the value
        from ``snap`` replaces ours), matching their point-in-time
        semantics.
        """
        for name, payload in snap.get("timers", {}).items():
            other = TimerStat.from_dict(payload)
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = other
            else:
                mine.merge(other)
        for name, value in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + float(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauges[name] = float(value)

    def dump(self, path: str | Path) -> Path:
        """Atomically write :meth:`snapshot` to ``path``."""
        return atomic_write_text(
            path, json.dumps(self.snapshot(), separators=(",", ":"))
        )


def load_snapshot(path: str | Path) -> Optional[Dict[str, Any]]:
    """Read a snapshot file; ``None`` on any read/parse problem (a lost
    worker snapshot degrades the manifest, it must not fail the sweep)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def merge_snapshots(snaps: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Fold many snapshots into a fresh registry."""
    merged = MetricsRegistry()
    for snap in snaps:
        merged.merge_snapshot(snap)
    return merged
