"""Live multi-process execution engine (``TrainingConfig.engine = "live"``).

The fourth engine: clients are real OS processes (forked workers, reusing
the PR1 fork infrastructure) that exchange length-prefixed serialized
model updates with the server process over local sockets.  Round
timelines are *measured*, not computed — a token-bucket bandwidth shaper
plus injected delay/loss, parameterized from the same :mod:`repro.net`
channel models and :mod:`repro.sim.faults` profiles the DES uses, makes
the two engines share one physics while only this one feels genuine
concurrency, serialization, and backpressure.

Layout:

* :mod:`repro.live.protocol` — length-prefixed frame transport.
* :mod:`repro.live.shaper` — upload schedules as due instants (the
  token bucket computed, not slept).
* :mod:`repro.live.worker` — the forked client-side process loop.
* :mod:`repro.live.runtime` — server-side runtime, barrier policies,
  :class:`LiveRoundSpec` / :class:`LiveRoundOutcome`.
* :mod:`repro.live.calibrate` — the DES-vs-live divergence report.
"""

from repro.live.calibrate import CalibrationReport, CalibrationRow, run_calibration
from repro.live.runtime import (
    LiveError,
    LiveRound,
    LiveRoundOutcome,
    LiveRoundSpec,
    LiveRoundTimeout,
    LiveRuntime,
)

__all__ = [
    "CalibrationReport",
    "CalibrationRow",
    "LiveError",
    "LiveRound",
    "LiveRoundOutcome",
    "LiveRoundSpec",
    "LiveRoundTimeout",
    "LiveRuntime",
    "run_calibration",
]
