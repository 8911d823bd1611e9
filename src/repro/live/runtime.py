"""Server side of the live engine: forked workers, barriers, measurement.

:class:`LiveRuntime` forks ``workers`` processes once per experiment
(PR1 fork infrastructure: the children inherit the parent's
:class:`~repro.fl.client.FLClient` objects, so per-client RNG streams
stay continuous across epochs) and keeps one framed socket per worker.
:class:`LiveRound` then plays one federated round over those sockets:

* ``run_iteration`` broadcasts ``(w, ḡ)`` to every active participant,
  multiplexes the worker sockets while shaped uploads trickle back, and
  closes the barrier per the aggregation policy — ``sync`` waits for all
  survivors, ``deadline`` drops stragglers at ``deadline_s`` (scaled to
  wall time), ``async`` cancels in-flight uploads once ``quorum`` have
  landed.  Stale frames from cancelled iterations are discarded by
  iteration tag.
* every instant is *measured* wall clock, converted back to simulated
  seconds through ``time_scale``; the outcome mirrors
  :class:`repro.sim.entities.RoundOutcome` so the DES and the live
  engine are directly comparable (see :mod:`repro.live.calibrate`).

Fault realizations (dropout instants, upload-failure seeds) are drawn
server-side from a dedicated RNG stream using the *same*
:mod:`repro.sim.faults` machinery as the DES, then shipped to workers —
identical physics, independent draws.

Supervision (PR10): workers emit ``hb`` heartbeat frames from a
background thread; the pump treats a socket EOF *or* heartbeat silence
beyond ``worker_stale_s`` as a worker death.  A dead worker is reaped
and — within a bounded per-worker restart budget with exponential
backoff — re-forked from the parent's client objects, the RNG streams
of clients that had drawn by the last checkpoint reset to that state
(``set_rng``; the others restart pristine, as the parent holds them) and
its datasets re-shipped from the install cache.  Clients the casualty had
in the round in flight are dropped with the normal ``_drop_client`` machinery,
so a fleet that shrinks below ``min_participants`` degrades to the
typed :class:`~repro.sim.faults.ParticipationFloorError` (CLI exit 1)
instead of hanging until the barrier timeout.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atomic import atomic_write_text
from repro.live.protocol import FrameStream, socket_pair, tcp_pair
from repro.nn.serialization import TruncatedPayloadError, decode_payload
from repro.sim.entities import SimRoundSpec
from repro.sim.faults import (
    ParticipationFloorError,
    SimError,
    sample_dropout_times,
)

if TYPE_CHECKING:  # import would cycle through repro.fl.__init__
    from repro.fl.client import FLClient

__all__ = [
    "LiveError",
    "LiveRoundTimeout",
    "LiveRoundSpec",
    "LiveRoundOutcome",
    "LiveRound",
    "LiveRuntime",
]


class LiveError(SimError):
    """Live-runtime failure (worker died, protocol violation, ...)."""


class LiveRoundTimeout(LiveError):
    """A barrier did not close within the wall-clock safety timeout."""


@dataclass(frozen=True)
class LiveRoundSpec(SimRoundSpec):
    """Everything the live runtime needs to play one federated round: the
    DES's physics (one set of fields, one validation) plus ``time_scale``,
    which maps simulated seconds to wall seconds (2.0 = the round runs at
    half speed, twice the shaping headroom)."""

    time_scale: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")


@dataclass
class LiveRoundOutcome:
    """What one live round measured (sim-seconds, i.e. wall/time_scale)."""

    completion_time: float                  # measured d(E_t)
    iteration_durations: List[float]        # measured barrier widths
    contributors: List[np.ndarray]          # per-iteration arrived ids
    dropped: Dict[int, str]                 # client id -> drop reason
    num_retries: int
    deadline_hits: int
    arrival_offsets: Dict[int, List[float]]  # id -> measured per-iteration
                                             # broadcast→upload offsets
    solve_wall_s: Dict[int, float]           # id -> summed real solve time
    worker_deaths: int = 0                   # workers lost during this round
    worker_restarts: int = 0                 # supervised restarts performed

    @property
    def survivors(self) -> np.ndarray:
        if not self.contributors:  # pragma: no cover - defensive
            return np.zeros(0, dtype=int)
        return self.contributors[-1]


class LiveRound:
    """Barrier/measurement logic for one round on a started runtime."""

    def __init__(
        self,
        runtime: "LiveRuntime",
        spec: LiveRoundSpec,
        rng: Optional[np.random.Generator],
    ) -> None:
        if spec.faults.stochastic and rng is None:
            raise ValueError("a fault RNG is required for stochastic fault profiles")
        if len(spec.client_ids) < spec.min_participants:
            raise ParticipationFloorError(
                len(spec.client_ids), spec.min_participants, "initial selection"
            )
        self.runtime = runtime
        self.spec = spec
        self.round_index = runtime.rounds_started
        runtime.rounds_started += 1
        self.active: set = {int(c) for c in spec.client_ids}
        self.dropped: Dict[int, str] = {}
        self.num_retries = 0
        self.deadline_hits = 0
        self.durations: List[float] = []
        self.contributors: List[np.ndarray] = []
        self.arrival_offsets: Dict[int, List[float]] = {}
        self.solve_wall_s: Dict[int, float] = {}
        self.iteration = -1
        self._deaths_at_start = runtime.worker_deaths_total
        self._restarts_at_start = runtime.worker_restarts_total
        self._round_t0: Optional[float] = None
        self._iter_t0 = 0.0
        self._arrived: Dict[int, Tuple[np.ndarray, float]] = {}
        self._buffers: Dict[int, bytearray] = {}
        self._cancel_sent = False
        # Fault plan, drawn with the same machinery the DES uses (dropout
        # first, then upload seeds — a fixed drain order for the stream).
        faults = spec.faults
        horizon = float(
            spec.iterations * np.max(spec.tau_loc + spec.tau_cm)
        )
        drop_after = sample_dropout_times(
            len(spec.client_ids), faults.dropout_hazard, horizon, rng
        )
        if faults.upload_failure_prob > 0.0:
            seeds = rng.integers(0, 2**63, size=len(spec.client_ids))
        else:
            seeds = np.zeros(len(spec.client_ids), dtype=np.int64)
        self._drop_after = drop_after
        self._upload_seeds = seeds

    # -- worker-facing messages --------------------------------------------------

    def _send_round_setup(self, target_eta: Optional[float]) -> None:
        spec = self.spec
        meta = {
            "cmd": "round",
            "round": self.round_index,
            "iterations": spec.iterations,
            "time_scale": spec.time_scale,
            "clients": [int(c) for c in spec.client_ids],
            "upload_failure_prob": spec.faults.upload_failure_prob,
            "max_retries": spec.faults.max_retries,
            "retry_backoff_s": spec.faults.retry_backoff_s,
            "target_eta": target_eta,
        }
        arrays = {
            "tau_loc": spec.tau_loc,
            "tau_cm": spec.tau_cm,
            "drop_after": self._drop_after,
            "upload_seeds": self._upload_seeds,
        }
        self.runtime.broadcast(meta, arrays)

    def run_iteration(
        self,
        iteration: int,
        w: np.ndarray,
        global_grad: np.ndarray,
        target_eta: Optional[float] = None,
    ) -> List[Tuple[int, np.ndarray, float]]:
        """Broadcast, wait for the barrier, return arrivals sorted by id.

        Each arrival is ``(client_id, d, eta_hat)`` — the worker's real
        solve output, bit-identical to what the loop engine would have
        computed in the parent.
        """
        if iteration != self.iteration + 1:
            raise LiveError(
                f"iterations must run in order (got {iteration}, "
                f"expected {self.iteration + 1})"
            )
        self.iteration = iteration
        if iteration == 0:
            # Deaths between rounds were already healed (restart + data
            # re-ship), so stale casualty notices don't apply here; only
            # clients owned by a *permanently* dead worker (restart
            # budget exhausted) can never contribute again.
            self.runtime.take_casualties()
            for cid in sorted(self.active):
                if self.runtime.is_dead(self.runtime.owner_of(cid)):
                    self._drop_client(cid, "worker_dead")
            self._send_round_setup(target_eta)
        self._arrived = {}
        self._buffers = {}
        self._cancel_sent = False
        active_list = sorted(self.active)
        meta = {
            "cmd": "iter",
            "round": self.round_index,
            "iteration": iteration,
            "clients": active_list,
        }
        arrays = {"w": np.asarray(w, dtype=float), "g": np.asarray(global_grad, dtype=float)}
        self._iter_t0 = time.monotonic()
        if self._round_t0 is None:
            self._round_t0 = self._iter_t0
        self.runtime.broadcast(meta, arrays)
        self._absorb_casualties()
        self._wait_barrier()
        close_wall = time.monotonic()
        self.durations.append((close_wall - self._iter_t0) / self.spec.time_scale)
        ids = np.asarray(sorted(self._arrived), dtype=int)
        self.contributors.append(ids)
        self._completion_wall = close_wall
        return [
            (int(cid), self._arrived[cid][0], float(self._arrived[cid][1]))
            for cid in ids
        ]

    # -- barrier -----------------------------------------------------------------

    def _barrier_met(self) -> bool:
        spec = self.spec
        if spec.aggregation == "async" and len(self._arrived) >= int(spec.quorum):
            return True
        return all(cid in self._arrived for cid in self.active)

    def _wait_barrier(self) -> None:
        spec = self.spec
        runtime = self.runtime
        hard_deadline = self._iter_t0 + runtime.round_timeout_s
        soft_deadline = None
        if spec.aggregation == "deadline":
            soft_deadline = self._iter_t0 + float(spec.deadline_s) * spec.time_scale
        while not self._barrier_met():
            now = time.monotonic()
            if now >= hard_deadline:
                self._send_cancel()
                raise LiveRoundTimeout(
                    f"barrier for iteration {self.iteration} did not close "
                    f"within {runtime.round_timeout_s:.0f}s "
                    f"(arrived {sorted(self._arrived)}, active {sorted(self.active)})"
                )
            timeout = hard_deadline - now
            if soft_deadline is not None:
                if now >= soft_deadline:
                    self._close_by_deadline()
                    continue
                timeout = min(timeout, soft_deadline - now)
            runtime.pump(timeout, self._dispatch)
            self._absorb_casualties()
        if spec.aggregation == "async" and not self._cancel_sent:
            # Quorum reached with uploads still in flight: cancel them
            # (their stale updates are discarded); the clients stay in
            # the round.
            if any(cid not in self._arrived for cid in self.active):
                self._send_cancel()

    def _close_by_deadline(self) -> None:
        stragglers = [c for c in self.active if c not in self._arrived]
        if not stragglers:  # pragma: no cover - barrier_met would have fired
            return
        self.deadline_hits += 1
        self._send_cancel()
        for cid in stragglers:
            self._drop_client(cid, "deadline")

    def _send_cancel(self) -> None:
        if self._cancel_sent:
            return
        self._cancel_sent = True
        meta = {"cmd": "cancel", "round": self.round_index, "iteration": self.iteration}
        self.runtime.broadcast(meta)

    def _absorb_casualties(self) -> None:
        """Drop the in-flight clients of any worker lost since the last
        check (EOF, send failure, or heartbeat-stale kill — restarted or
        not, the replacement has no state for this round).  Dropping
        below ``min_participants`` degrades to the typed
        :class:`ParticipationFloorError` instead of hanging."""
        for widx in self.runtime.take_casualties():
            for cid in [
                c for c in sorted(self.active)
                if self.runtime.owner_of(c) == widx
            ]:
                self._drop_client(cid, "worker_died")

    def _drop_client(self, cid: int, reason: str) -> None:
        if cid not in self.active:
            return
        self.active.discard(cid)
        self._buffers.pop(cid, None)
        self.dropped[cid] = reason
        survivors = len(self.active)
        if survivors < self.spec.min_participants:
            self._send_cancel()
            raise ParticipationFloorError(
                survivors, self.spec.min_participants, reason
            )

    # -- frame dispatch ----------------------------------------------------------

    def _dispatch(self, meta: Dict, arrays: Dict) -> None:
        cmd = meta.get("cmd")
        if cmd == "chunk":
            self._on_chunk(meta, arrays)
        elif cmd == "drop":
            self._drop_client(int(meta["client"]), str(meta["reason"]))
        elif cmd == "retry":
            self.num_retries += 1
        elif cmd == "error":
            raise LiveError(
                f"worker error for client {meta.get('client')}: {meta.get('error')}"
            )
        elif cmd == "ok":
            # Stale ack (install handshakes are pumped separately).
            pass
        else:
            raise LiveError(f"unexpected frame from worker: {cmd!r}")

    def _on_chunk(self, meta: Dict, arrays: Dict) -> None:
        cid = int(meta["client"])
        if int(meta["iteration"]) != self.iteration or self._cancel_sent:
            return  # stale or post-barrier frame: discard
        if cid not in self.active or cid in self._arrived:
            return
        buf = self._buffers.setdefault(cid, bytearray())
        buf.extend(arrays["part"].tobytes())
        if not meta["last"]:
            return
        payload_meta, payload = decode_payload(bytes(self._buffers.pop(cid)))
        offset_wall = time.monotonic() - self._iter_t0
        d = payload["d"]
        eta = float(payload["eta"])
        self._arrived[cid] = (d, eta)
        self.arrival_offsets.setdefault(cid, []).append(
            offset_wall / self.spec.time_scale
        )
        self.solve_wall_s[cid] = self.solve_wall_s.get(cid, 0.0) + float(
            payload["solve_wall"]
        )

    # -- outcome -----------------------------------------------------------------

    def finish(self) -> LiveRoundOutcome:
        if self.iteration + 1 != self.spec.iterations:
            raise LiveError(
                f"round finished after {self.iteration + 1} of "
                f"{self.spec.iterations} iterations"
            )
        completion = (self._completion_wall - self._round_t0) / self.spec.time_scale
        outcome = LiveRoundOutcome(
            completion_time=float(completion),
            iteration_durations=list(self.durations),
            contributors=list(self.contributors),
            dropped=dict(self.dropped),
            num_retries=self.num_retries,
            deadline_hits=self.deadline_hits,
            arrival_offsets={k: list(v) for k, v in self.arrival_offsets.items()},
            solve_wall_s=dict(self.solve_wall_s),
            worker_deaths=self.runtime.worker_deaths_total - self._deaths_at_start,
            worker_restarts=(
                self.runtime.worker_restarts_total - self._restarts_at_start
            ),
        )
        self.runtime.record_round(self.spec, outcome)
        return outcome


class LiveRuntime:
    """Worker fleet lifecycle + per-client measured statistics."""

    def __init__(
        self,
        clients: Sequence[FLClient],
        num_workers: int = 2,
        transport: str = "unix",
        chunk_bytes: int = 16384,
        round_timeout_s: float = 60.0,
        stats_dir: Optional[str | Path] = None,
        worker_heartbeat_s: float = 0.5,
        worker_stale_s: float = 0.0,
        max_worker_restarts: int = 2,
        restart_backoff_s: float = 0.1,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if transport not in ("unix", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        if chunk_bytes < 1024:
            raise ValueError("chunk_bytes must be >= 1024")
        if round_timeout_s <= 0:
            raise ValueError("round_timeout_s must be positive")
        if worker_heartbeat_s < 0 or worker_stale_s < 0:
            raise ValueError("heartbeat/staleness thresholds must be >= 0")
        if max_worker_restarts < 0 or restart_backoff_s < 0:
            raise ValueError("restart budget/backoff must be >= 0")
        # Kept as given: ``clients[k]`` is client ``k``, and a lazily built
        # population must not be materialised here.
        self.clients = clients
        if not len(clients):
            raise ValueError("need at least one client")
        self.num_workers = min(int(num_workers), len(self.clients))
        self.transport = transport
        self.chunk_bytes = chunk_bytes
        self.round_timeout_s = round_timeout_s
        self.stats_dir = Path(stats_dir) if stats_dir is not None else None
        self.worker_heartbeat_s = float(worker_heartbeat_s)
        # The watchdog must fire before the hard barrier timeout does,
        # or a wedged worker hangs the round; the auto threshold leaves
        # half the barrier budget for the restart itself.
        self.worker_stale_s = (
            float(worker_stale_s)
            if worker_stale_s > 0
            else max(10.0 * self.worker_heartbeat_s, round_timeout_s / 2.0)
        )
        self.max_worker_restarts = int(max_worker_restarts)
        self.restart_backoff_s = float(restart_backoff_s)
        #: ``streams[idx] is None`` while worker ``idx`` is down (being
        #: restarted, or permanently dead once its budget is exhausted).
        self.streams: List[Optional[FrameStream]] = []
        self._pids: List[Optional[int]] = []
        self._selector: Optional[selectors.BaseSelector] = None
        self.rounds_started = 0
        self._client_stats: Dict[int, Dict] = {}
        self._started = False
        self._closed = False
        # -- supervision state ----------------------------------------------------
        self._last_beat: Dict[int, float] = {}
        self._restarts: List[int] = [0] * self.num_workers
        self._dead: set = set()          # restart budget exhausted
        self._casualties: List[int] = [] # deaths not yet seen by the round
        self._installed: Dict[int, "Dataset"] = {}   # this epoch's shipment
        self._client_rng_cache: Dict[int, dict] = {} # last checkpointed states
        self.worker_deaths_total = 0
        self.worker_restarts_total = 0

    # -- lifecycle ---------------------------------------------------------------

    def owner_of(self, cid: int) -> int:
        """Worker index owning client ``cid`` (fixed modulo partition)."""
        return cid % self.num_workers

    def _owned(self, idx: int) -> Dict[int, "FLClient"]:
        """Worker ``idx``'s clients, read straight off its residue class."""
        return {
            k: self.clients[k]
            for k in range(idx, len(self.clients), self.num_workers)
        }

    def ensure_started(self) -> None:
        """Fork the workers (idempotent).  Must happen before any client
        RNG stream is consumed in the parent, i.e. before the first
        round — the fork snapshot is what keeps worker-side streams
        continuous with the loop engine's."""
        if self._started:
            return
        if self._closed:
            raise LiveError("runtime already closed")
        from repro.live.worker import worker_main

        make_pair = socket_pair if self.transport == "unix" else tcp_pair
        pairs = [make_pair() for _ in range(self.num_workers)]
        for idx in range(self.num_workers):
            owned = self._owned(idx)
            pid = os.fork()
            if pid == 0:
                # Child: keep only this worker's end of this pair.
                for j, (parent_end, child_end) in enumerate(pairs):
                    parent_end.close()
                    if j != idx:
                        child_end.close()
                worker_main(
                    pairs[idx][1],
                    owned,
                    chunk_bytes=self.chunk_bytes,
                    worker_index=idx,
                    heartbeat_s=self.worker_heartbeat_s,
                )
                raise AssertionError("worker_main returned")  # pragma: no cover
            self._pids.append(pid)
        self._selector = selectors.DefaultSelector()
        now = time.monotonic()
        for idx, (parent_end, child_end) in enumerate(pairs):
            child_end.close()
            stream = FrameStream(parent_end)
            self.streams.append(stream)
            self._selector.register(
                stream.sock, selectors.EVENT_READ, (idx, stream)
            )
            self._last_beat[idx] = now
        self._started = True

    def close(self) -> None:
        """Stop and reap the workers; flush per-client stats files."""
        if self._closed:
            return
        self._closed = True
        for stream in self.streams:
            if stream is None:
                continue
            try:
                stream.send({"cmd": "stop"})
            except OSError:
                pass
        for stream in self.streams:
            if stream is not None:
                stream.close()
        if self._selector is not None:
            self._selector.close()
        deadline = time.monotonic() + 5.0
        for pid in self._pids:
            if pid is None:
                continue
            while True:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        if self.stats_dir is not None:
            self.write_client_stats(self.stats_dir)

    def __enter__(self) -> "LiveRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- socket pump + watchdog --------------------------------------------------

    def pump(self, timeout: float, handler) -> None:
        """Read every available frame (≤ one per worker per call) and
        feed it to ``handler(meta, arrays)``; waits at most ``timeout``.

        ``hb`` heartbeat frames are swallowed here (any frame counts as
        a liveness proof).  A socket EOF or a torn frame means the peer
        died: the worker is reaped and — restart budget permitting —
        respawned, and the death is queued for :meth:`take_casualties`
        so the round in flight can drop its clients.  Workers whose
        heartbeat has gone stale (wedged, not dead) are killed and take
        the same path.
        """
        events = self._selector.select(timeout=max(timeout, 0.0))
        now = time.monotonic()
        for key, _ in events:
            idx, stream = key.data
            if self.streams[idx] is not stream:
                continue  # stale registration: worker already replaced
            try:
                frame = stream.recv()
            except TruncatedPayloadError:
                frame = None  # died mid-frame
            if frame is None:
                self._handle_worker_death(idx)
                continue
            self._last_beat[idx] = now
            meta, arrays = frame
            if meta.get("cmd") == "hb":
                continue
            handler(meta, arrays)
        self._check_stale_workers(now)

    def _check_stale_workers(self, now: float) -> None:
        if self.worker_heartbeat_s <= 0:
            return  # heartbeats disabled: EOF detection only
        for idx, stream in enumerate(self.streams):
            if stream is None:
                continue
            if now - self._last_beat.get(idx, now) > self.worker_stale_s:
                pid = self._pids[idx]
                if pid is not None:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self._handle_worker_death(idx)

    def _handle_worker_death(self, idx: int) -> None:
        """Reap worker ``idx`` and restart it within the retry budget."""
        stream = self.streams[idx]
        if stream is None:
            return
        self.worker_deaths_total += 1
        try:
            self._selector.unregister(stream.sock)
        except (KeyError, ValueError):
            pass
        stream.close()
        self.streams[idx] = None
        pid, self._pids[idx] = self._pids[idx], None
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        self._casualties.append(idx)
        attempt = self._restarts[idx]
        if attempt >= self.max_worker_restarts:
            self._dead.add(idx)
            return
        self._restarts[idx] = attempt + 1
        self.worker_restarts_total += 1
        if self.restart_backoff_s > 0:
            time.sleep(self.restart_backoff_s * (2.0 ** attempt))
        self._respawn_worker(idx)

    def _respawn_worker(self, idx: int) -> None:
        """Re-fork worker ``idx``: fresh socket, ``set_rng`` with the last
        checkpointed state of each client a checkpoint has captured (one
        that had not drawn by then keeps the parent's pristine stream),
        datasets re-shipped from the install cache."""
        make_pair = socket_pair if self.transport == "unix" else tcp_pair
        parent_end, child_end = make_pair()
        owned = self._owned(idx)
        from repro.live.worker import worker_main

        pid = os.fork()
        if pid == 0:
            parent_end.close()
            # Drop inherited parent-side sockets of the other workers.
            for other in self.streams:
                if other is not None:
                    try:
                        other.sock.close()
                    except OSError:
                        pass
            worker_main(
                child_end,
                owned,
                chunk_bytes=self.chunk_bytes,
                worker_index=idx,
                heartbeat_s=self.worker_heartbeat_s,
            )
            raise AssertionError("worker_main returned")  # pragma: no cover
        child_end.close()
        stream = FrameStream(parent_end)
        self.streams[idx] = stream
        self._pids[idx] = pid
        self._selector.register(stream.sock, selectors.EVENT_READ, (idx, stream))
        self._last_beat[idx] = time.monotonic()
        states = {
            str(cid): state
            for cid, state in self._client_rng_cache.items()
            if self.owner_of(cid) == idx
        }
        if states:
            stream.send({"cmd": "set_rng", "states": states})
        cids = sorted(c for c in self._installed if self.owner_of(c) == idx)
        if cids:
            arrays = {}
            for cid in cids:
                data = self._installed[cid]
                arrays[f"x{cid}"] = data.x
                arrays[f"y{cid}"] = data.y
            stream.send({"cmd": "install", "clients": cids}, arrays)

    def send_to_worker(self, idx: int, meta, arrays=None) -> bool:
        """Send one frame to worker ``idx``; a send failure (EPIPE after
        a kill the pump has not seen yet) takes the same death path as a
        pumped EOF.  Returns whether the frame was delivered."""
        stream = self.streams[idx]
        if stream is None:
            return False
        try:
            stream.send(meta, arrays)
            return True
        except OSError:
            self._handle_worker_death(idx)
            return False

    def broadcast(self, meta, arrays=None) -> None:
        """Send one frame to every live worker, tolerating deaths."""
        for idx in range(self.num_workers):
            if self.streams[idx] is not None:
                self.send_to_worker(idx, meta, arrays)

    def take_casualties(self) -> List[int]:
        """Worker indices lost since the last call (restarted or not)."""
        out, self._casualties = self._casualties, []
        return out

    def is_dead(self, idx: int) -> bool:
        """True once worker ``idx`` has exhausted its restart budget."""
        return idx in self._dead

    def live_streams(self) -> List[FrameStream]:
        return [s for s in self.streams if s is not None]

    # -- data distribution -------------------------------------------------------

    def install_data(self, datasets: Dict[int, "Dataset"]) -> None:
        """Ship this epoch's local datasets to the owning workers.

        The shipment replaces the re-ship cache first, so a worker
        restarted before the next install is re-provisioned with exactly
        this epoch's datasets, and a worker drops every owned client's data
        its shipment does not list; workers whose restart budget is
        exhausted are skipped (their clients get dropped from the round by
        the supervision path)."""
        self.ensure_started()
        self._installed = dict(datasets)
        per_worker: Dict[int, List[int]] = {}
        for cid in datasets:
            per_worker.setdefault(self.owner_of(cid), []).append(cid)
        expect = 0
        for widx, cids in per_worker.items():
            if self.streams[widx] is None:
                continue
            arrays = {}
            for cid in cids:
                data = datasets[cid]
                arrays[f"x{cid}"] = data.x
                arrays[f"y{cid}"] = data.y
            self.send_to_worker(
                widx, {"cmd": "install", "clients": sorted(cids)}, arrays
            )
            # A send failure restarted the worker (re-shipping this very
            # cache) or declared it permanently dead; only live workers
            # owe an ack.
            if self.streams[widx] is not None:
                expect += 1
        acks = [0]

        def on_frame(meta, arrays):
            if meta.get("cmd") == "ok" and meta.get("re") == "install":
                acks[0] += 1
            # Anything else here is a stale frame from a cancelled
            # iteration; discard.

        deadline = time.monotonic() + self.round_timeout_s
        while acks[0] < expect:
            if time.monotonic() > deadline:
                raise LiveRoundTimeout("workers did not acknowledge data install")
            self.pump(0.1, on_frame)

    # -- checkpoint support ------------------------------------------------------

    def client_rng_states(self) -> Dict[str, dict]:
        """Collect the worker-side client RNG states for a checkpoint.

        Per-client streams are created and consumed *inside* the forked
        workers, so the parent factory's own capture is stale (or empty)
        for them; this pulls the live ``bit_generator.state`` dicts back
        over the sockets and returns them keyed by factory stream name
        (``fl.client.<id>``).  A worker reports only clients that have
        drawn in it; a client absent here is exactly what the parent
        factory holds for it — a state restored by a resume, or nothing
        at all, in which case the stream is recreated from seed and key
        at its first draw.  The result is also cached so a later worker
        restart can resume its clients from the last checkpointed state;
        clients of a permanently dead worker keep their last cached one.
        """
        if not self._started or self._closed:
            return {}
        states: Dict[int, dict] = {}
        replied: set = set()
        asked: set = set()

        def on_frame(meta, arrays) -> None:
            if meta.get("cmd") == "ok" and meta.get("re") == "rng_state":
                replied.add(int(meta["worker"]))
                for key, state in meta["states"].items():
                    states[int(key)] = state
            # Anything else is a stale frame from a finished round.

        deadline = time.monotonic() + self.round_timeout_s
        while True:
            pending = [
                idx
                for idx, stream in enumerate(self.streams)
                if stream is not None and idx not in replied
            ]
            for idx in pending:
                if idx not in asked:
                    asked.add(idx)
                    self.send_to_worker(idx, {"cmd": "rng_state"})
            if not pending:
                break
            if time.monotonic() > deadline:
                raise LiveRoundTimeout(
                    "workers did not report their RNG state for the checkpoint"
                )
            self.pump(0.1, on_frame)
            # A worker that died mid-collection came back with the
            # cached states from the previous checkpoint; re-ask the
            # replacement so those are what this checkpoint records.
            for idx in self.take_casualties():
                asked.discard(idx)
        self._client_rng_cache.update(states)
        return {
            f"fl.client.{cid}": state
            for cid, state in self._client_rng_cache.items()
        }

    # -- rounds ------------------------------------------------------------------

    def begin_round(
        self, spec: LiveRoundSpec, rng: Optional[np.random.Generator] = None
    ) -> LiveRound:
        self.ensure_started()
        return LiveRound(self, spec, rng)

    # -- measured per-client statistics ------------------------------------------

    def record_round(self, spec: LiveRoundSpec, outcome: LiveRoundOutcome) -> None:
        for pos, cid in enumerate(spec.client_ids):
            cid = int(cid)
            stats = self._client_stats.setdefault(
                cid,
                {
                    "client": cid,
                    "rounds": 0,
                    "contributions": 0,
                    "drops": {},
                    "solve_wall_s": 0.0,
                    "arrival_offset_s_sum": 0.0,
                    "arrivals": 0,
                    "predicted_tau_s_sum": 0.0,
                },
            )
            stats["rounds"] += 1
            stats["contributions"] += int(
                sum(1 for ids in outcome.contributors if cid in ids)
            )
            if cid in outcome.dropped:
                reason = outcome.dropped[cid]
                stats["drops"][reason] = stats["drops"].get(reason, 0) + 1
            stats["solve_wall_s"] += float(outcome.solve_wall_s.get(cid, 0.0))
            offsets = outcome.arrival_offsets.get(cid, [])
            stats["arrival_offset_s_sum"] += float(sum(offsets))
            stats["arrivals"] += len(offsets)
            stats["predicted_tau_s_sum"] += float(
                spec.tau_loc[pos] + spec.tau_cm[pos]
            ) * len(offsets)

    def write_client_stats(self, directory: str | Path) -> List[Path]:
        """Atomically persist one ``live_client_<id>.json`` per client
        that participated in any round (temp file + rename)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for cid in sorted(self._client_stats):
            paths.append(
                atomic_write_text(
                    directory / f"live_client_{cid}.json",
                    json.dumps(self._client_stats[cid], indent=2, sort_keys=True),
                )
            )
        return paths
