"""The forked client-side process of the live engine.

One worker owns a disjoint subset of the fleet's :class:`~repro.fl.
client.FLClient` objects (inherited by fork, so every per-client RNG
stream continues exactly where the parent left it — the bit-identity
anchor).  It runs two threads:

* the **compute thread**, started by :meth:`_Worker.run` in the forked
  child, takes tasks from one FIFO and runs them one after another:
  each broadcast's *real* DANE local solves (the only place client RNG
  is consumed) in ascending client id, installs and releases,
  ``rng_state`` and ``set_rng``.  Nothing else touches a client, so two
  solves never overlap, an ``rng_state`` reply reports the state after
  every solve queued before it, and the fleet shares one model object
  whatever the model.  A solve whose iteration was cancelled, or whose
  client has dropped, is skipped before it starts.
* the **command loop** (the main thread) reads server frames and sends
  every timed frame at its due instant.  A finished solve hands it that
  client's upload (:func:`repro.live.shaper.upload_schedule`): the rest
  of the channel model's compute budget, which ends at
  ``max(t_iter + τ_loc · time_scale, solve end)`` with ``t_iter`` the
  instant the broadcast arrived; the round's fault plan — scheduled
  mid-round dropout, per-attempt upload failures with exponential
  backoff — exactly the :mod:`repro.sim.faults` semantics the DES uses;
  then the serialized update, chunk by chunk at the rate the channel
  model predicted (``payload / (τ_cm · time_scale)``).  The loop waits
  on the socket with a timeout equal to the next due instant, so uploads
  from different clients interleave on the wire while the next solve
  runs.  A ``cancel`` discards the iteration's pending frames; a dropout
  instant that comes before a client's pending frame sends the ``drop``
  notice at that instant instead, and a torn upload stays torn.

The command loop is the socket's only writer, the compute thread's
replies included, and it never blocks on a write: a socket that takes no
more holds back the frames due next (real backpressure, as a congested
uplink would) while the loop goes on reading, so a server blocked writing
a broadcast to this worker is always drained.

The command loop also sends a small ``hb`` liveness beacon every
``heartbeat_s`` wall seconds, as one more due instant; the server's
watchdog uses its absence to tell a *wedged* worker (deadlocked,
stopped) from a merely slow one.  Two supervision commands round out the
protocol: ``rng_state`` reports the ``bit_generator.state`` of every
owned client that has drawn (how checkpoints capture worker-side RNG
streams; a client that never trained here has no stream to report) and
``set_rng`` restores them (how a restarted worker resumes from the last
checkpointed client state).

Workers never touch the aggregation pipeline: compression,
adversaries, defenses and averaging all stay in the server process, in
ascending-client-id order, which is why a fault-free live run is
bit-identical to the loop engine.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.fl.client import FLClient
from repro.live.protocol import FrameStream, encode_frame
from repro.live.shaper import CHUNK, FAILED, RETRY, upload_schedule
from repro.nn.serialization import encode_payload

__all__ = ["worker_main"]


@dataclass
class _RoundPlan:
    """One round's shaping + fault schedule, as shipped by the server."""

    round_index: int
    iterations: int
    time_scale: float
    tau_loc: Dict[int, float]           # per-client compute seconds (sim)
    tau_cm: Dict[int, float]            # per-client upload seconds (sim)
    drop_at: Dict[int, float]           # monotonic dropout instant (wall)
    upload_rng: Dict[int, np.random.Generator]
    upload_failure_prob: float
    max_retries: int
    retry_backoff_s: float
    target_eta: Optional[float]
    dropped: set = field(default_factory=set)


@dataclass
class _Upload:
    """One client's upload in flight: its next event and the rest."""

    cid: int
    it: int
    plan: _RoundPlan
    payload: bytes
    steps: Iterator
    due: float                          # when ``event`` is due
    event: Optional[str] = None         # a bare wait until the first step
    arg: object = None


class _Worker:
    def __init__(
        self,
        stream: FrameStream,
        clients: Dict[int, FLClient],
        chunk_bytes: int,
        worker_index: int = 0,
        heartbeat_s: float = 0.5,
    ) -> None:
        self.stream = stream
        self.clients = clients
        self.chunk_bytes = chunk_bytes
        self.worker_index = worker_index
        self.heartbeat_s = float(heartbeat_s)
        self.plan: Optional[_RoundPlan] = None
        self.cancelled: set = set()     # (round, iteration) keys
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()  # compute FIFO
        self._ready: deque = deque()    # solved uploads, for the loop
        self._pending: list = []        # heap of (instant, seq, _Upload)
        self._seq = itertools.count()
        self._outbox: deque = deque()   # encoded frames, in send order
        self._writing = memoryview(b"")  # the rest of the frame being written
        self._failure: Optional[BaseException] = None
        self._stopping = False
        self._loop_thread: Optional[int] = None
        self._wake_r = self._wake_w = None

    # -- command handlers (install, rng_state, set_rng: on the compute thread) --

    def handle_install(self, meta: Dict, arrays: Dict) -> None:
        """Install this epoch's shipment and release every other owned
        client's dataset (the parent's clients release theirs when the
        round returns)."""
        shipped = {int(cid) for cid in meta["clients"]}
        for cid, client in self.clients.items():
            if cid in shipped:
                client.set_data(Dataset(x=arrays[f"x{cid}"], y=arrays[f"y{cid}"]))
            else:
                client.release_data()
        self._send({"cmd": "ok", "re": "install"})

    def handle_round(self, meta: Dict, arrays: Dict) -> None:
        ids = [int(c) for c in meta["clients"]]
        scale = float(meta["time_scale"])
        now = time.monotonic()
        drop_after = arrays["drop_after"]
        seeds = arrays["upload_seeds"]
        self.plan = _RoundPlan(
            round_index=int(meta["round"]),
            iterations=int(meta["iterations"]),
            time_scale=scale,
            tau_loc={c: float(t) for c, t in zip(ids, arrays["tau_loc"])},
            tau_cm={c: float(t) for c, t in zip(ids, arrays["tau_cm"])},
            # Dropout offsets are sim-seconds from round start; the round
            # starts now (the round frame immediately precedes the first
            # broadcast).
            drop_at={
                c: (now + float(d) * scale if np.isfinite(d) else float("inf"))
                for c, d in zip(ids, drop_after)
            },
            upload_rng={
                c: np.random.default_rng(int(s)) for c, s in zip(ids, seeds)
            },
            upload_failure_prob=float(meta["upload_failure_prob"]),
            max_retries=int(meta["max_retries"]),
            retry_backoff_s=float(meta["retry_backoff_s"]),
            target_eta=meta["target_eta"],
        )

    def handle_rng_state(self) -> None:
        """Report the RNG state of every owned client whose stream exists
        (checkpoint capture).  A client absent from the reply has never
        drawn here: its stream is whatever the parent's factory holds or
        would create from seed and key."""
        states = {
            str(cid): self.clients[cid].rng.bit_generator.state
            for cid in sorted(self.clients)
            if self.clients[cid].rng_created
        }
        self._send(
            {
                "cmd": "ok",
                "re": "rng_state",
                "worker": self.worker_index,
                "states": states,
            }
        )

    def handle_set_rng(self, meta: Dict) -> None:
        """Restore owned client RNG streams (worker restart path)."""
        for key, state in meta["states"].items():
            cid = int(key)
            if cid in self.clients:
                self.clients[cid].rng.bit_generator.state = state

    def handle_iter(self, meta: Dict, arrays: Dict) -> None:
        plan = self.plan
        if plan is None or plan.round_index != int(meta["round"]):
            # A restarted worker has no state for the round in flight;
            # the server drops its clients from that round and the next
            # "round" frame re-synchronizes.
            return
        it = int(meta["iteration"])
        t_iter = time.monotonic()
        w = arrays["w"]
        g = arrays["g"]
        for cid in sorted(int(c) for c in meta["clients"]):
            if cid in self.clients and cid not in plan.dropped:
                self._tasks.put((self._solve, (cid, it, w, g, plan, t_iter)))

    def handle_cancel(self, meta: Dict) -> None:
        self.cancelled.add((int(meta["round"]), int(meta["iteration"])))

    # -- outgoing frames ---------------------------------------------------------

    def _send(self, meta: Dict, arrays: Optional[Dict] = None) -> None:
        """Queue one frame for the command loop, the socket's only writer.

        The loop never blocks on a full socket, so it always goes on
        reading: a worker blocked in a write while the server blocks
        writing a broadcast to it would stall both for good."""
        self._outbox.append(encode_frame(meta, arrays))
        if threading.get_ident() != self._loop_thread:
            self._wake_w.send(b"\0")

    def _flush(self) -> bool:
        """Write queued frames until the socket would block; True once
        every frame is written."""
        while self._writing or self._outbox:
            if not self._writing:
                self._writing = memoryview(self._outbox.popleft())
            try:
                sent = self.stream.sock.send(self._writing, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return False
            self._writing = self._writing[sent:]
        return True

    def _drop(self, cid: int, it: int, plan: _RoundPlan, reason: str) -> None:
        plan.dropped.add(cid)
        self._send({"cmd": "drop", "client": cid, "iteration": it, "reason": reason})

    # -- the compute thread ------------------------------------------------------

    def _compute(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None or self._stopping:
                return
            fn, args = task
            try:
                fn(*args)
            except BaseException as exc:  # the command loop re-raises it
                self._failure = exc
                self._wake_w.send(b"\0")
                return

    def _solve(
        self,
        cid: int,
        it: int,
        w: np.ndarray,
        g: np.ndarray,
        plan: _RoundPlan,
        t_iter: float,
    ) -> None:
        if (plan.round_index, it) in self.cancelled or cid in plan.dropped:
            return
        if time.monotonic() >= plan.drop_at[cid]:
            self._drop(cid, it, plan, "dropout")
            return
        try:
            t_solve = time.monotonic()
            d, eta_hat, _ = self.clients[cid].train_iteration(
                w, g, target_eta=plan.target_eta
            )
            solve_end = time.monotonic()
            payload = encode_payload(
                {"client": cid, "iteration": it},
                {
                    "d": d,
                    "eta": np.float64(eta_hat),
                    "solve_wall": np.float64(solve_end - t_solve),
                },
            )
        except Exception as exc:  # surface worker-side bugs to the server
            self._send(
                {
                    "cmd": "error",
                    "client": cid,
                    "iteration": it,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        scale = plan.time_scale
        p_fail = plan.upload_failure_prob
        rng = plan.upload_rng[cid]
        compute_end = max(t_iter + plan.tau_loc[cid] * scale, solve_end)
        steps = upload_schedule(
            compute_end,
            len(payload),
            self.chunk_bytes,
            plan.tau_cm[cid] * scale,
            lambda: p_fail > 0.0 and rng.random() < p_fail,
            plan.max_retries,
            plan.retry_backoff_s * scale,
        )
        self._ready.append(_Upload(cid, it, plan, payload, steps, due=compute_end))
        self._wake_w.send(b"\0")

    # -- the command loop --------------------------------------------------------

    def _schedule(self, up: _Upload) -> None:
        instant = min(up.due, up.plan.drop_at[up.cid])
        heapq.heappush(self._pending, (instant, next(self._seq), up))

    def _fire(self, up: _Upload) -> None:
        """Act on ``up``'s due event, then schedule its next one."""
        plan = up.plan
        if (plan.round_index, up.it) in self.cancelled:
            return
        if plan.drop_at[up.cid] <= up.due:
            self._drop(up.cid, up.it, plan, "dropout")
            return
        if up.event == FAILED:
            self._drop(up.cid, up.it, plan, "upload_failed")
            return
        if up.event == RETRY:
            self._send(
                {"cmd": "retry", "client": up.cid, "iteration": up.it, "attempt": up.arg}
            )
        elif up.event == CHUNK:
            lo, hi = up.arg
            self._send(
                {
                    "cmd": "chunk",
                    "client": up.cid,
                    "iteration": up.it,
                    "last": hi >= len(up.payload),
                },
                {"part": np.frombuffer(up.payload, dtype=np.uint8)[lo:hi]},
            )
        step = next(up.steps, None)
        if step is not None:
            up.due, up.event, up.arg = step
            self._schedule(up)

    def _dispatch(self, meta: Dict, arrays: Dict) -> None:
        cmd = meta.get("cmd")
        if cmd == "install":
            self._tasks.put((self.handle_install, (meta, arrays)))
        elif cmd == "round":
            self.handle_round(meta, arrays)
        elif cmd == "iter":
            self.handle_iter(meta, arrays)
        elif cmd == "cancel":
            self.handle_cancel(meta)
        elif cmd == "rng_state":
            self._tasks.put((self.handle_rng_state, ()))
        elif cmd == "set_rng":
            self._tasks.put((self.handle_set_rng, (meta,)))
        else:
            raise ValueError(f"unknown worker command {cmd!r}")

    def run(self) -> None:
        """Serve until ``stop`` or EOF, with the compute thread beside."""
        self._loop_thread = threading.get_ident()
        self._wake_r, self._wake_w = socket.socketpair()
        selector = selectors.DefaultSelector()
        selector.register(self.stream, selectors.EVENT_READ)
        selector.register(self._wake_r, selectors.EVENT_READ)
        interest = selectors.EVENT_READ
        compute = threading.Thread(target=self._compute, name="live-compute")
        compute.start()
        beat = self.heartbeat_s
        next_beat = time.monotonic() + beat if beat > 0 else float("inf")
        try:
            while True:
                now = time.monotonic()
                # A socket that takes no more is backpressure: nothing
                # further fires until it drains.
                flushed = self._flush()
                while flushed and self._pending and self._pending[0][0] <= now:
                    self._fire(heapq.heappop(self._pending)[2])
                    flushed = self._flush()
                if flushed and now >= next_beat:
                    self._send({"cmd": "hb", "worker": self.worker_index})
                    next_beat = now + beat
                    flushed = self._flush()
                want = selectors.EVENT_READ | (0 if flushed else selectors.EVENT_WRITE)
                if want != interest:
                    selector.modify(self.stream, want)
                    interest = want
                timeout = None
                if flushed:
                    due = min(self._pending[0][0], next_beat) if self._pending else next_beat
                    if due < float("inf"):
                        timeout = max(due - time.monotonic(), 0.0)
                for key, mask in selector.select(timeout):
                    if key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)
                        if self._failure is not None:
                            raise self._failure
                        while self._ready:
                            self._schedule(self._ready.popleft())
                    elif mask & selectors.EVENT_READ:
                        frame = self.stream.recv()
                        if frame is None or frame[0].get("cmd") == "stop":
                            return
                        self._dispatch(*frame)
        finally:
            self._stopping = True
            self._tasks.put(None)
            compute.join()
            selector.close()
            self._wake_r.close()
            self._wake_w.close()


def worker_main(
    sock,
    clients: Dict[int, FLClient],
    chunk_bytes: int = 16384,
    worker_index: int = 0,
    heartbeat_s: float = 0.5,
) -> None:
    """Entry point of a forked worker; never returns (``os._exit``)."""
    code = 0
    try:
        _Worker(
            FrameStream(sock),
            clients,
            chunk_bytes,
            worker_index=worker_index,
            heartbeat_s=heartbeat_s,
        ).run()
    except (BrokenPipeError, ConnectionResetError):
        pass  # server tore the socket down mid-send: clean termination
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        sys.stderr.flush()
        code = 1
    finally:
        os._exit(code)
