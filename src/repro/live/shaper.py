"""Upload timing for the live engine, as due instants.

A worker never sleeps on a client's behalf.  :func:`upload_schedule`
turns one client's upload into the sequence of ``time.monotonic``
instants at which its frames are due, and the worker's command loop
sends each frame at its instant while other clients' frames and the
next local solve proceed (see :mod:`repro.live.worker`).

The schedule plays the :mod:`repro.sim.faults` semantics the DES uses:
each failed attempt occupies a full transmission ``upload_s`` before the
loss is discovered, then a ``retry`` notice goes out and an exponential
backoff follows; one failure past ``max_retries`` ends the upload.  The
surviving attempt is a token bucket that starts empty, computed rather
than slept: chunk *j* is due at ``start + upload_s · (bytes through
chunk j) / size``, so the payload drains at the rate the ``net/`` model
predicted (``size / upload_s``) and the first chunk already pays its
transmission time.

Cancellation and dropout are the caller's: it checks both before acting
on each instant, and stops resuming the schedule once either fires.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

__all__ = ["RETRY", "FAILED", "CHUNK", "upload_schedule"]

#: Event kinds of :func:`upload_schedule`.  ``None`` is a bare wait.
RETRY = "retry"      # arg: the failed attempt's number
FAILED = "failed"    # arg: the failed attempt's number (> max_retries)
CHUNK = "chunk"      # arg: (lo, hi) byte range of the payload

Event = Tuple[float, Optional[str], object]


def upload_schedule(
    start: float,
    size: int,
    chunk_bytes: int,
    upload_s: float,
    attempt_fails: Callable[[], bool],
    max_retries: int,
    backoff_s: float,
) -> Iterator[Event]:
    """Yield ``(instant, event, arg)`` for an upload that begins at ``start``.

    ``attempt_fails`` is called once per attempt, lazily: the schedule is
    resumed only at the instant the previous event is due, so a cancelled
    or dropped upload draws exactly what the attempts it reached drew.
    """
    t = start
    failures = 0
    while attempt_fails():
        failures += 1
        t += upload_s
        if failures > max_retries:
            yield t, FAILED, failures
            return
        yield t, RETRY, failures
        t += backoff_s * (2.0 ** (failures - 1))
        yield t, None, None
    sent = 0
    while sent < size:
        lo, sent = sent, min(sent + chunk_bytes, size)
        yield t + upload_s * sent / size, CHUNK, (lo, sent)
