"""Simulated FL entities: client compute/uplink processes + the server.

One *round* (epoch) of the paper's protocol is simulated at message
granularity on :class:`repro.sim.engine.EventLoop`:

* every global iteration the server **broadcasts**; each surviving client
  runs its compute phase (``τ_loc`` seconds, from
  :mod:`repro.net.latency`) then its upload phase (``τ_cm`` seconds, at
  the equal-share FDMA rate of :mod:`repro.net.fdma`), possibly retrying
  transient upload failures with exponential backoff
  (:mod:`repro.sim.faults`);
* the server's **aggregation policy** decides when the iteration barrier
  closes: ``"sync"`` waits for every survivor (the paper's model),
  ``"deadline"`` waits at most ``deadline_s`` and drops stragglers
  (FedCS-style exclusion), ``"async"`` closes after the ``quorum``
  fastest uploads and discards the in-flight rest (buffered-async with
  stale updates dropped).

**Correctness anchor** — with no faults, no deadline, and sync
aggregation the simulated completion time must equal the closed-form
``epoch_latency``/``client_latency`` *bit-exactly*.  Repeated float
addition of a constant barrier duration drifts from ``l·τ`` by ulps, so
the server tracks *runs* of identical iterations (same contributor set,
same duration, no fault activity) and computes barrier times as
``t₀ + k·d`` — multiplication, not accumulation.  Fault-perturbed
iterations break the run and fall back to plain addition.  All widths
and barrier instants are derived from closed-form client offsets, never
from the event heap's clock: heap timestamps only decide *order*, so
ulp-level skew between the bookkept barrier and the heap clock cannot
leak into results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.sim.engine import EventLoop, ScheduledEvent
from repro.sim.faults import (
    FaultProfile,
    ParticipationFloorError,
    sample_dropout_times,
)

__all__ = [
    "AGGREGATION_POLICIES",
    "SimRoundSpec",
    "TimelineRecord",
    "RoundOutcome",
    "ClientProcess",
    "ServerProcess",
    "simulate_round",
]

AGGREGATION_POLICIES = ("sync", "deadline", "async")


@dataclass(frozen=True)
class SimRoundSpec:
    """Everything the runtime needs to simulate one federated round."""

    client_ids: np.ndarray          # (P,) int ids of the round's participants
    tau_loc: np.ndarray             # (P,) compute seconds per iteration
    tau_cm: np.ndarray              # (P,) upload seconds per attempt
    iterations: int                 # l_t global iterations
    aggregation: str = "sync"
    deadline_s: Optional[float] = None   # per-iteration barrier deadline
    quorum: Optional[int] = None         # async: aggregate after K uploads
    faults: FaultProfile = field(default_factory=FaultProfile)
    min_participants: int = 1            # constraint (3b) floor
    record_timeline: bool = True         # keep the per-message timeline
                                         # (telemetry/gantt views); off =
                                         # zero allocations per message

    def __post_init__(self) -> None:
        ids = np.asarray(self.client_ids, dtype=int)
        loc = np.asarray(self.tau_loc, dtype=float)
        cm = np.asarray(self.tau_cm, dtype=float)
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "tau_loc", loc)
        object.__setattr__(self, "tau_cm", cm)
        if ids.ndim != 1 or ids.size < 1:
            raise ValueError("need at least one participant")
        if loc.shape != ids.shape or cm.shape != ids.shape:
            raise ValueError("tau arrays must match client_ids shape")
        if np.any(~np.isfinite(loc)) or np.any(loc < 0):
            raise ValueError("tau_loc must be finite and nonnegative")
        if np.any(~np.isfinite(cm)) or np.any(cm < 0):
            raise ValueError("tau_cm must be finite and nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.aggregation not in AGGREGATION_POLICIES:
            raise ValueError(f"unknown aggregation policy {self.aggregation!r}")
        if self.aggregation == "deadline":
            if self.deadline_s is None or self.deadline_s <= 0:
                raise ValueError("deadline aggregation needs deadline_s > 0")
        if self.aggregation == "async":
            if self.quorum is None or self.quorum < 1:
                raise ValueError("async aggregation needs quorum >= 1")
        if self.min_participants < 1:
            raise ValueError("min_participants must be >= 1")


@dataclass(frozen=True)
class TimelineRecord:
    """One message-level event, for ``sim.*`` telemetry and gantt views."""

    time: float
    kind: str                       # broadcast | compute.done | upload.ok | ...
    client: Optional[int]           # client id (None for server events)
    iteration: int


@dataclass
class RoundOutcome:
    """What one simulated round produced (times relative to round start)."""

    completion_time: float                  # d(E_t): last barrier instant
    iteration_durations: List[float]        # per-iteration barrier widths
    contributors: List[np.ndarray]          # per-iteration arrived client ids
    dropped: Dict[int, str]                 # client id -> drop reason
    num_retries: int
    deadline_hits: int                      # iterations ended by the deadline
    client_busy_s: Dict[int, float]         # id -> completed work seconds
    client_last_t: Dict[int, float]         # id -> last activity instant
    timeline: List[TimelineRecord]

    @property
    def survivors(self) -> np.ndarray:
        """Ids that finished the round (contributed to the last iteration)."""
        if not self.contributors:  # pragma: no cover - defensive
            return np.zeros(0, dtype=int)
        return self.contributors[-1]


class ClientProcess:
    """Per-client compute → upload (→ retry) pipeline for one round.

    Event times are scheduled as ``t_broadcast + offset`` with ``offset``
    accumulated in closed form (``τ_loc + τ_cm`` precomputed as one
    float), so heap timestamps order like the logical offsets the
    server's duration bookkeeping uses.
    """

    __slots__ = (
        "loop", "server", "pos", "cid", "tau_loc", "tau_cm", "tau_total",
        "faults", "rng", "dropped", "attempt", "offset", "retry_extra",
        "iterations_done", "pending", "t_broadcast",
    )

    def __init__(
        self,
        loop: EventLoop,
        server: "ServerProcess",
        pos: int,
        cid: int,
        tau_loc: float,
        tau_cm: float,
        tau_total: float,
        faults: FaultProfile,
        rng: Optional[np.random.Generator],
    ) -> None:
        self.loop = loop
        self.server = server
        self.pos = pos
        self.cid = cid
        self.tau_loc = tau_loc
        self.tau_cm = tau_cm
        self.tau_total = tau_total
        self.faults = faults
        self.rng = rng
        self.dropped = False
        self.attempt = 0
        self.offset = tau_total         # arrival offset of the pending attempt
        self.retry_extra = 0.0          # extra seconds spent on retries, total
        self.iterations_done = 0
        self.pending: List[ScheduledEvent] = []
        self.t_broadcast = 0.0

    def _sched(self, time: float, callback) -> ScheduledEvent:
        # The bookkept barrier instant can trail the heap clock by ulps
        # (multiplication vs accumulation); clamping keeps the heap
        # monotone without touching the closed-form offsets results are
        # computed from.  max() is monotone, so event *order* survives.
        loop = self.loop
        return loop.schedule_at(time if time >= loop.now else loop.now, callback)

    def on_broadcast(self, t: float) -> None:
        self.t_broadcast = t
        self.attempt = 0
        self.offset = self.tau_total
        self.pending = [
            self._sched(t + self.tau_loc, self._compute_done),
            self._sched(t + self.offset, self._upload_done),
        ]

    def _compute_done(self, now: float) -> None:
        self.server.record(now, "compute.done", self.cid)

    def _upload_done(self, now: float) -> None:
        faults = self.faults
        if faults.upload_failure_prob > 0.0 and (
            self.rng.random() < faults.upload_failure_prob
        ):
            self.attempt += 1
            self.server.record(now, "upload.fail", self.cid)
            if self.attempt > faults.max_retries:
                self.drop(now, "upload_failed")
                return
            backoff = faults.retry_backoff_s * (2.0 ** (self.attempt - 1))
            # Retransmission: wait out the backoff, then resend the
            # payload.  The offset stays closed-form relative to the
            # broadcast so ordering and durations agree bit-for-bit.
            extra = backoff + self.tau_cm
            self.offset += extra
            self.retry_extra += extra
            self.server.note_retry()
            self.pending = [
                self._sched(self.t_broadcast + self.offset, self._upload_done)
            ]
            return
        self.pending = []
        self.iterations_done += 1
        self.server.on_arrival(self, self.offset, now)

    def cancel_pending(self) -> None:
        for event in self.pending:
            EventLoop.cancel(event)
        self.pending = []

    def drop(self, now: float, reason: str) -> None:
        if self.dropped:
            return
        self.dropped = True
        self.cancel_pending()
        self.server.on_drop(self, reason, now)


class ServerProcess:
    """Barrier/aggregation logic plus the exact time bookkeeping."""

    def __init__(
        self,
        loop: EventLoop,
        spec: SimRoundSpec,
        rng: Optional[np.random.Generator],
    ) -> None:
        self.loop = loop
        self.spec = spec
        self.rng = rng
        self.tau_total = spec.tau_loc + spec.tau_cm
        self.clients = [
            ClientProcess(
                loop,
                self,
                pos,
                int(cid),
                float(spec.tau_loc[pos]),
                float(spec.tau_cm[pos]),
                float(self.tau_total[pos]),
                spec.faults,
                rng,
            )
            for pos, cid in enumerate(spec.client_ids)
        ]
        self.active = list(self.clients)
        self.iteration = 0
        self.t_begin = 0.0
        self.arrived: List[Tuple[float, ClientProcess]] = []
        self.arrived_ids: Set[int] = set()
        self.deadline_event: Optional[ScheduledEvent] = None
        self.done = False
        self.completion_time = 0.0
        # Exact-barrier run tracking: consecutive identical iterations are
        # timed as t0 + k*d instead of repeated addition.  "Identical"
        # means same contributor set, same width, and no fault activity
        # (retry/drop/deadline) — async quorum cancellation is
        # deterministic and does NOT break a run.
        self._run_t0 = 0.0
        self._run_i0 = 0
        self._run_d: Optional[float] = None
        self._run_key: Optional[Tuple[int, ...]] = None
        self._iteration_clean = True
        self._deadline_closed = False
        # Outcome accumulators.
        self.durations: List[float] = []
        self.contributors: List[np.ndarray] = []
        self.dropped: Dict[int, str] = {}
        self.num_retries = 0
        self.deadline_hits = 0
        self.timeline: List[TimelineRecord] = []
        self._record_timeline = spec.record_timeline
        self.client_last_t: Dict[int, float] = {}

    # -- bookkeeping helpers -----------------------------------------------------

    def record(self, t: float, kind: str, cid: Optional[int]) -> None:
        if self._record_timeline:
            self.timeline.append(TimelineRecord(t, kind, cid, self.iteration))
        if cid is not None:
            self.client_last_t[cid] = t

    def note_retry(self) -> None:
        self.num_retries += 1
        self._iteration_clean = False

    def _floor_check(self, reason: str) -> None:
        survivors = len(self.active)
        floor = self.spec.min_participants
        if survivors < floor:
            raise ParticipationFloorError(survivors, floor, reason)

    def _pending_clients(self) -> List[ClientProcess]:
        """Active clients whose upload has not landed this iteration."""
        return [c for c in self.active if c.cid not in self.arrived_ids]

    # -- iteration lifecycle -----------------------------------------------------

    def begin_round(self) -> None:
        # Dropout instants are sampled up front, in client order, against
        # the closed-form round-length estimate (hazard is per round).
        hazard = self.spec.faults.dropout_hazard
        if hazard > 0.0:
            horizon = float(self.spec.iterations * np.max(self.tau_total))
            times = sample_dropout_times(
                len(self.clients), hazard, horizon, self.rng
            )
            for client, t_drop in zip(self.clients, times):
                if np.isfinite(t_drop):
                    self.loop.schedule_at(
                        float(t_drop),
                        lambda now, c=client: c.drop(now, "dropout"),
                    )
        self._begin_iteration(0.0)

    def _begin_iteration(self, t: float) -> None:
        self.t_begin = t
        self.arrived = []
        self.arrived_ids = set()
        self._iteration_clean = True
        self._deadline_closed = False
        self.record(t, "broadcast", None)
        for client in self.active:
            client.on_broadcast(t)
        if self.spec.aggregation == "deadline":
            loop = self.loop
            t_dead = t + float(self.spec.deadline_s)
            self.deadline_event = loop.schedule_at(
                t_dead if t_dead >= loop.now else loop.now, self._on_deadline
            )

    def on_arrival(self, client: ClientProcess, offset: float, now: float) -> None:
        self.arrived.append((offset, client))
        self.arrived_ids.add(client.cid)
        self.record(now, "upload.ok", client.cid)
        self._maybe_complete()

    def on_drop(self, client: ClientProcess, reason: str, now: float) -> None:
        self.active.remove(client)
        self.dropped[client.cid] = reason
        self._iteration_clean = False
        self.record(now, "client.drop", client.cid)
        self._floor_check(reason)
        if not self.done:
            self._maybe_complete()

    def _on_deadline(self, now: float) -> None:
        self.deadline_event = None
        stragglers = self._pending_clients()
        if not stragglers:  # pragma: no cover - completion cancels the event
            return
        self.deadline_hits += 1
        self._deadline_closed = True
        self._iteration_clean = False
        self.record(now, "deadline", None)
        for client in stragglers:
            client.drop(now, "deadline")
        # on_drop re-checks completion after the last straggler drops.

    def _quorum_met(self) -> bool:
        if self.spec.aggregation == "async":
            if len(self.arrived) >= int(self.spec.quorum):
                return True
        return not self._pending_clients()

    def _maybe_complete(self) -> None:
        if self.done or not self.arrived or not self._quorum_met():
            return
        if self.spec.aggregation == "async":
            # Quorum reached: in-flight stragglers are cancelled (their
            # stale updates are discarded) but stay in the round.  This
            # is deterministic, so it does not break the exact-run
            # bookkeeping.
            for client in self._pending_clients():
                client.cancel_pending()
        if self.deadline_event is not None:
            EventLoop.cancel(self.deadline_event)
            self.deadline_event = None
        # Barrier width: the deadline caps the wait when it fired (the
        # server only discovers stragglers at the deadline instant);
        # otherwise the slowest accepted upload closes the barrier.
        if self._deadline_closed:
            width = float(self.spec.deadline_s)
        else:
            width = max(offset for offset, _ in self.arrived)
        self._complete_iteration(width)

    def _complete_iteration(self, width: float) -> None:
        i = self.iteration
        ids = np.asarray(sorted(self.arrived_ids), dtype=int)
        self.durations.append(width)
        self.contributors.append(ids)
        key = tuple(int(c) for c in ids)
        if (
            self._iteration_clean
            and self._run_d is not None
            and width == self._run_d
            and key == self._run_key
        ):
            # Extend the run of identical iterations: exact closed form.
            t_next = self._run_t0 + (i + 1 - self._run_i0) * width
        else:
            t_next = self.t_begin + width
            self._run_t0 = self.t_begin
            self._run_i0 = i
            self._run_d = width if self._iteration_clean else None
            self._run_key = key if self._iteration_clean else None
        self.record(t_next, "iteration.complete", None)
        self.iteration += 1
        if self.iteration >= self.spec.iterations:
            self.done = True
            self.completion_time = t_next
            self.record(t_next, "round.complete", None)
            self.loop.stop()
            return
        self._begin_iteration(t_next)

    # -- outcome -----------------------------------------------------------------

    def outcome(self) -> RoundOutcome:
        # Completed-work seconds per client, in closed form: finished
        # iterations × per-iteration latency (multiplication, matching
        # net.latency.client_latency bit-for-bit), plus realized retry
        # time.  Cancelled/in-flight attempts are not counted as work.
        counts = np.asarray(
            [c.iterations_done for c in self.clients], dtype=np.int64
        )
        busy = counts * self.tau_total
        extras = np.asarray([c.retry_extra for c in self.clients])
        if np.any(extras != 0.0):
            busy = busy + extras
        return RoundOutcome(
            completion_time=float(self.completion_time),
            iteration_durations=self.durations,
            contributors=self.contributors,
            dropped=dict(self.dropped),
            num_retries=self.num_retries,
            deadline_hits=self.deadline_hits,
            client_busy_s={
                c.cid: float(busy[pos]) for pos, c in enumerate(self.clients)
            },
            client_last_t=dict(self.client_last_t),
            timeline=self.timeline,
        )


def simulate_round(
    spec: SimRoundSpec, rng: Optional[np.random.Generator] = None
) -> RoundOutcome:
    """Simulate one federated round; raises
    :class:`~repro.sim.faults.ParticipationFloorError` when faults or
    deadlines would take the round below the (3b) floor."""
    if spec.faults.stochastic and rng is None:
        raise ValueError("a fault RNG is required for stochastic fault profiles")
    if len(spec.client_ids) < spec.min_participants:
        raise ParticipationFloorError(
            len(spec.client_ids), spec.min_participants, "initial selection"
        )
    loop = EventLoop()
    server = ServerProcess(loop, spec, rng)
    server.begin_round()
    loop.run()
    if not server.done:  # pragma: no cover - defensive; loop.stop() sets done
        raise RuntimeError("event loop drained before the round completed")
    return server.outcome()
