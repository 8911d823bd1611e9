"""Live tailing of a telemetry trace: ``repro trace DIR --follow``.

A long run writes ``events-<worker>.jsonl`` line-buffered; this module
polls those files through :class:`~repro.obs.events.EventReader` while
the run is still going, folds each run's events into its
:class:`~repro.obs.trace_report.RunFold` (the fold ``repro trace``
charts), and renders one status line per completed epoch — cumulative
descent objective, cumulative fit, budget headroom, quarantine count,
epoch latency, plus a rolling sparkline of test accuracy — and a per-run
summary with full series when a ``run.complete`` lands.

The reader's rules hold here too (tested): a partial trailing line waits
for its newline, a malformed line is skipped and counted, a truncated or
rotated file restarts from offset 0.  A live directory has no
``manifest.json`` yet; the follower never requires one and uses its
*appearance* (finalize ran) plus a drained read as the completion signal.

Rendering is a pure function of the event payloads (all wall-clock data
in a trace lives under each event's ``ts`` key, which the renderer never
reads), so following a finished trace is byte-deterministic.

:class:`TraceFollower` is the poll-driven core with no sleeps or clocks —
drive ``poll()`` yourself (tests feed it byte-by-byte); ``follow_trace``
wraps it in the CLI polling loop.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO

from repro.obs.events import EventReader
from repro.obs.hub import MANIFEST_NAME
from repro.obs.trace_report import Point, RunFold, run_matches, spark

__all__ = ["TraceFollower", "follow_trace"]

#: Epochs of accuracy in an epoch line's rolling sparkline.
ROLLING = 20


def _at(points: List[Point], t: Optional[int]) -> Optional[float]:
    """The series' value at epoch ``t``, if its last point is there."""
    return points[-1][1] if points and points[-1][0] == t else None


def _epoch_line(run: str, epoch: Optional[int], fold: RunFold) -> str:
    def fmt(v: Optional[float], spec: str, suffix: str = "") -> str:
        return (spec % v) + suffix if v is not None else "-"

    return (
        f"{run}  t={epoch if epoch is not None else '?':>4}  "
        f"acc={fmt(_at(fold.accuracy, epoch), '%.4f')}  "
        f"objective={fold.objective_total:.3f}  "
        f"fit={fold.fit_total:.3f}  "
        f"budget={fmt(fold.headroom, '%.1f')}  "
        f"quar={fold.quarantined}  "
        f"lat={fmt(_at(fold.latency, epoch), '%.3f', 's')}  "
        f"|{spark(fold.accuracy[-ROLLING:], ROLLING)}|"
    )


def _run_summary(run: str, fold: RunFold) -> List[str]:
    lines = [
        f"{run}  run complete: {fold.epochs} epochs, "
        f"stop={fold.stop_reason}, objective={fold.objective_total:.3f}, "
        f"fit={fold.fit_total:.3f}, quarantined={fold.quarantined}"
    ]
    for label, series in (
        ("accuracy", fold.accuracy),
        ("fit", fold.fit),
        ("latency", fold.latency),
    ):
        if series:
            lines.append(
                f"{run}    {label:<9} |{spark(series, 40)}| "
                f"last={series[-1][1]:.4f}"
            )
    return lines


class TraceFollower:
    """Incremental reader + renderer over one trace directory.

    ``poll()`` reads whatever new bytes appeared since the last call and
    returns the newly rendered report lines.  No clocks, no sleeps — the
    caller owns pacing, which is what makes the renderer deterministic
    and directly testable.
    """

    def __init__(self, directory: str | Path, run: Optional[str] = None) -> None:
        self.reader = EventReader(directory)
        self.directory = self.reader.directory
        self.run = run
        self.runs: Dict[str, RunFold] = {}
        self.events_seen = 0
        self.manifest_seen = False

    @property
    def malformed(self) -> int:
        return self.reader.malformed

    def poll(self) -> List[str]:
        """Consume new bytes from every event file; render new lines."""
        events = self.reader.poll()
        self.events_seen += len(events)
        out = [
            f"[follow] {name}; restarting from offset 0"
            for name in self.reader.restarts
        ]
        for event in events:
            if not run_matches(event.run, self.run):
                continue
            fold = self.runs.setdefault(event.run, RunFold())
            fold.add(event)
            if event.kind == "epoch.complete":
                out.append(_epoch_line(event.run, event.epoch, fold))
            elif event.kind == "run.complete":
                out.extend(_run_summary(event.run, fold))
        self.manifest_seen = (self.directory / MANIFEST_NAME).is_file()
        return out

    # -- completion --------------------------------------------------------------

    @property
    def runs_completed(self) -> int:
        return sum(1 for f in self.runs.values() if f.stop_reason is not None)

    @property
    def done(self) -> bool:
        """Finalize ran (manifest on disk) and the last poll drained
        nothing new — every recorded event has been rendered."""
        return self.manifest_seen and self.reader.bytes_read == 0

    def footer(self) -> str:
        return (
            f"[follow] complete: {self.events_seen} events, "
            f"{self.runs_completed}/{len(self.runs)} runs finished, "
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
