"""Live tailing of a telemetry trace: ``repro trace DIR --follow``.

A long run writes ``events-<worker>.jsonl`` line-buffered; this module
tails those files while the run is still going and renders one status
line per completed epoch — regret accumulant, cumulative fit, budget
headroom, quarantine count, epoch latency, plus a rolling ASCII sparkline
of test accuracy — and a per-run summary with full series when a
``run.complete`` lands.

Robustness contract (tested):

* **partial trailing lines** — the writer may be mid-line at any poll;
  bytes after the last newline stay buffered until the line completes
  (multi-byte UTF-8 sequences may split across polls, hence the byte
  buffer);
* **truncation / rotation** — if a file shrinks, or the path is replaced
  by a new file (rotation: same name, different inode), the follower
  restarts it from offset 0 instead of mis-seeking — even when the new
  file has already grown past the old offset by the time it is polled;
* **missing manifest** — a live directory has no ``manifest.json`` yet;
  the follower never requires one and uses its *appearance* (finalize
  ran) plus a drained read as the completion signal;
* **malformed lines** are skipped and counted, never fatal.

Rendering is a pure function of the event payloads (all wall-clock data
in a trace lives under each event's ``ts`` key, which the renderer never
reads), so following a finished trace is byte-deterministic.

:class:`TraceFollower` is the poll-driven core with no sleeps or clocks —
drive ``poll()`` yourself (tests feed it byte-by-byte); ``follow_trace``
wraps it in the CLI polling loop.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO

from repro.obs.events import decode_number as _num
from repro.obs.hub import MANIFEST_NAME

__all__ = ["TraceFollower", "follow_trace", "sparkline"]

#: 10-level ASCII intensity ramp for the streaming series.
SPARK_CHARS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 20) -> str:
    """Fixed-width ASCII sparkline of the last ``width`` finite values."""
    vals = [float(v) for v in values if _finite(v)][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK_CHARS[len(SPARK_CHARS) // 2] * len(vals)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[int(round((v - lo) / (hi - lo) * top))] for v in vals
    )


def _finite(value: object) -> bool:
    f = _num(value)
    return f is not None and f == f and abs(f) != float("inf")


@dataclass
class _RunState:
    """Streaming accumulators for one run id."""

    epochs: int = 0
    accuracy: List[float] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    fit: List[float] = field(default_factory=list)
    fit_sum: float = 0.0
    regret_sum: float = 0.0
    headroom: Optional[float] = None
    quarantined: int = 0
    complete: bool = False
    stop_reason: str = ""


class TraceFollower:
    """Incremental reader + renderer over one trace directory.

    ``poll()`` reads whatever new bytes appeared since the last call and
    returns the newly rendered report lines.  No clocks, no sleeps — the
    caller owns pacing, which is what makes the renderer deterministic
    and directly testable.
    """

    def __init__(self, directory: str | Path, run: Optional[str] = None) -> None:
        self.directory = Path(directory).expanduser()
        self.run = run
        self._positions: Dict[str, int] = {}
        self._buffers: Dict[str, bytes] = {}
        self._identities: Dict[str, tuple] = {}
        self._runs: Dict[str, _RunState] = {}
        self._run_order: List[str] = []
        self.events_seen = 0
        self.malformed = 0
        self.manifest_seen = False
        self._last_poll_bytes = 0

    # -- polling -----------------------------------------------------------------

    def poll(self) -> List[str]:
        """Consume new bytes from every event file; render new lines."""
        out: List[str] = []
        self._last_poll_bytes = 0
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("events*.jsonl")):
                out.extend(self._poll_file(path))
            self.manifest_seen = (self.directory / MANIFEST_NAME).is_file()
        return out

    def _poll_file(self, path: Path) -> List[str]:
        name = path.name
        pos = self._positions.get(name, 0)
        # Size and identity come from fstat of the handle actually read,
        # so a rotation between stat and open cannot slip through.
        try:
            fh = path.open("rb")
        except OSError:
            return []
        out: List[str] = []
        with fh:
            st = os.fstat(fh.fileno())
            size = st.st_size
            identity = (st.st_dev, st.st_ino)
            known = self._identities.get(name)
            self._identities[name] = identity
            if known is not None and known != identity:
                # Rotated: the name now points at a different file.  The
                # new one may already be *larger* than our offset, so
                # this cannot be folded into the shrink check below.
                out.append(f"[follow] {name} rotated; restarting from offset 0")
                pos = 0
                self._buffers[name] = b""
            if size < pos:
                # The file shrank: truncated in place.  Restart — seq
                # numbers restart with the new recording, so state from
                # the old bytes would mislabel the new run anyway.
                out.append(
                    f"[follow] {name} truncated; restarting from offset 0"
                )
                pos = 0
                self._buffers[name] = b""
            if size == pos:
                self._positions[name] = pos
                return out
            try:
                fh.seek(pos)
                chunk = fh.read()
            except OSError:
                return out
        self._positions[name] = pos + len(chunk)
        self._last_poll_bytes += len(chunk)
        buffer = self._buffers.get(name, b"") + chunk
        # Bytes after the last newline are a partial line (possibly even a
        # split multi-byte character) — keep them for the next poll.
        *complete, self._buffers[name] = buffer.split(b"\n")
        for raw in complete:
            raw = raw.strip()
            if raw:
                out.extend(self._handle_line(raw))
        return out

    # -- event handling ----------------------------------------------------------

    def _handle_line(self, raw: bytes) -> List[str]:
        try:
            payload = json.loads(raw.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            self.malformed += 1
            return []
        if not isinstance(payload, dict):
            self.malformed += 1
            return []
        self.events_seen += 1
        run = str(payload.get("run", "?"))
        if self.run is not None and run != self.run:
            return []
        kind = payload.get("kind")
        data = payload.get("data", {})
        if not isinstance(data, dict):
            data = {}
        state = self._runs.get(run)
        if state is None:
            state = self._runs[run] = _RunState()
            self._run_order.append(run)
        if kind == "learner.descent":
            objective = _num(data.get("objective"))
            if objective is not None and _finite(objective):
                state.regret_sum += objective
            headroom = _num(data.get("budget_headroom"))
            if headroom is not None:
                state.headroom = headroom
        elif kind == "learner.ascent":
            fit = _num(data.get("fit_increment"))
            if fit is not None and _finite(fit):
                state.fit_sum += fit
                state.fit.append(state.fit_sum)
        elif kind == "epoch.complete":
            return [self._epoch_line(run, state, payload, data)]
        elif kind == "run.complete":
            state.complete = True
            state.stop_reason = str(data.get("stop_reason", "?"))
            return self._run_summary(run, state)
        return []

    def _epoch_line(
        self, run: str, state: _RunState, payload: dict, data: dict
    ) -> str:
        state.epochs += 1
        epoch = payload.get("epoch")
        acc = _num(data.get("test_accuracy"))
        lat = _num(data.get("epoch_latency"))
        budget = _num(data.get("remaining_budget"))
        quar = _num(data.get("num_quarantined")) or 0.0
        state.quarantined += int(quar)
        if acc is not None:
            state.accuracy.append(acc)
        if lat is not None:
            state.latency.append(lat)
        headroom = budget if budget is not None else state.headroom

        def fmt(v: Optional[float], spec: str, suffix: str = "") -> str:
            return (spec % v) + suffix if v is not None else "-"

        return (
            f"{run}  t={epoch if epoch is not None else '?':>4}  "
            f"acc={fmt(acc, '%.4f')}  "
            f"regret={state.regret_sum:.3f}  "
            f"fit={state.fit_sum:.3f}  "
            f"budget={fmt(headroom, '%.1f')}  "
            f"quar={state.quarantined}  "
            f"lat={fmt(lat, '%.3f', 's')}  "
            f"|{sparkline(state.accuracy)}|"
        )

    def _run_summary(self, run: str, state: _RunState) -> List[str]:
        lines = [
            f"{run}  run complete: {state.epochs} epochs, "
            f"stop={state.stop_reason}, regret={state.regret_sum:.3f}, "
            f"fit={state.fit_sum:.3f}, quarantined={state.quarantined}"
        ]
        for label, series in (
            ("accuracy", state.accuracy),
            ("fit", state.fit),
            ("latency", state.latency),
        ):
            if series:
                lines.append(
                    f"{run}    {label:<9} "
                    f"|{sparkline(series, width=40)}| "
                    f"last={series[-1]:.4f}"
                )
        return lines

    # -- completion --------------------------------------------------------------

    @property
    def runs_completed(self) -> int:
        return sum(1 for s in self._runs.values() if s.complete)

    @property
    def done(self) -> bool:
        """Finalize ran (manifest on disk) and the last poll drained
        nothing new — every recorded event has been rendered."""
        return self.manifest_seen and self._last_poll_bytes == 0

    def footer(self) -> str:
        return (
            f"[follow] complete: {self.events_seen} events, "
            f"{self.runs_completed}/{len(self._runs)} runs finished, "
            f"{self.malformed} malformed lines"
        )


def follow_trace(
    directory: str | Path,
    run: Optional[str] = None,
    poll_s: float = 0.5,
    timeout_s: Optional[float] = None,
    stream: Optional[TextIO] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """CLI loop: poll until the trace finalizes (exit 0) or ``timeout_s``
    of wall time passes (exit 0 if any events were seen, else 1)."""
    import sys

    out = sys.stdout if stream is None else stream
    follower = TraceFollower(directory, run=run)
    print(
        f"[follow] tailing {follower.directory} "
        f"(poll {poll_s:g}s"
        + (f", timeout {timeout_s:g}s" if timeout_s is not None else "")
        + ")",
        file=out,
    )
    waited = 0.0
    while True:
        for line in follower.poll():
            print(line, file=out)
        if follower.done:
            print(follower.footer(), file=out)
            return 0
        if timeout_s is not None and waited >= timeout_s:
            print(
                f"[follow] timeout after {waited:g}s "
                f"({follower.events_seen} events seen)",
                file=out,
            )
            return 0 if follower.events_seen else 1
        sleep(poll_s)
        waited += poll_s
