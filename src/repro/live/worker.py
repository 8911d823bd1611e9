"""The forked client-side process of the live engine.

One worker owns a disjoint subset of the fleet's :class:`~repro.fl.
client.FLClient` objects (inherited by fork, so every per-client RNG
stream continues exactly where the parent left it — the bit-identity
anchor).  The main thread is a command loop on the server socket; each
broadcast spawns one thread per owned participant which

1. runs the *real* DANE local solve (the only place client RNG is
   consumed), then sleeps out the remainder of the channel model's
   compute budget ``τ_loc · time_scale``,
2. plays out the round's fault plan — scheduled mid-round dropout,
   per-attempt upload failures with exponential backoff — exactly the
   :mod:`repro.sim.faults` semantics the DES uses,
3. streams the serialized update back through a token bucket at the rate
   the channel model predicted (``payload / (τ_cm · time_scale)``),
   chunk by chunk, so uploads from different clients genuinely
   interleave on the wire.

A background thread additionally sends a small ``hb`` liveness beacon
every ``heartbeat_s`` wall seconds; the server's watchdog uses its
absence to tell a *wedged* worker (deadlocked, stopped) from a merely
slow one.  Two supervision commands round out the protocol: ``rng_state``
reports the ``bit_generator.state`` of every owned client that has drawn
(how checkpoints capture worker-side RNG streams; a client that never
trained here has no stream to report) and ``set_rng`` restores them (how
a restarted worker resumes from the last checkpointed client state).

Workers never touch the aggregation pipeline: DP, compression,
adversaries, defenses and averaging all stay in the server process, in
ascending-client-id order, which is why a fault-free live run is
bit-identical to the loop engine.
"""

from __future__ import annotations

import copy
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.fl.client import FLClient
from repro.live.protocol import FrameStream
from repro.live.shaper import TokenBucket, WaitOutcome, wait_until

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
        self.plan: Optional[_RoundPlan] = None
        self.cancels: Dict[tuple, threading.Event] = {}
        self.threads: list = []
        # A ``Module``-path model (CNN) gets a private clone per client:
        # its loss/grad calls load parameters into shared network buffers,
        # so concurrent solves on one model object would race.  A dense
        # model evaluates through the stateless flat-parameter kernel and
        # never writes its layers, so the fleet keeps sharing one.
        for client in clients.values():
            if client.model.kernel is None:
                client.model = copy.deepcopy(client.model)
        self.locks = {cid: threading.Lock() for cid in clients}
        self._hb_stop = threading.Event()
        if heartbeat_s > 0:
            threading.Thread(
                target=self._heartbeat_loop,
                args=(float(heartbeat_s),),
                name="live-heartbeat",
                daemon=True,
            ).start()

    def _heartbeat_loop(self, interval: float) -> None:
        """Liveness beacon: solves run in threads, so beacons keep
        flowing through long local solves — only a genuinely wedged
        process goes silent."""
        while not self._hb_stop.wait(interval):
            try:
                self.stream.send({"cmd": "hb", "worker": self.worker_index})
            except OSError:
                return

    # -- command handlers --------------------------------------------------------

    def handle_install(self, meta: Dict, arrays: Dict) -> None:
        """Install this epoch's shipment and release every other owned
        client's dataset (the parent's clients release theirs when the
        round returns).  A release takes the client's lock so that a
        cancelled straggler still inside a solve keeps its data."""
        shipped = {int(cid) for cid in meta["clients"]}
        for cid, client in self.clients.items():
            if cid in shipped:
                client.set_data(Dataset(x=arrays[f"x{cid}"], y=arrays[f"y{cid}"]))
            else:
                with self.locks[cid]:
                    client.release_data()
        self.stream.send({"cmd": "ok", "re": "install"})

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
        self.cancels.clear()
        self.threads = [t for t in self.threads if t.is_alive()]

    def handle_rng_state(self) -> None:
        """Report the RNG state of every owned client whose stream exists
        (checkpoint capture).  A client absent from the reply has never
        drawn here: its stream is whatever the parent's factory holds or
        would create from seed and key.

        Each client's lock is taken so a cancelled straggler still inside
        a solve cannot advance the stream mid-read."""
        states = {}
        for cid in sorted(self.clients):
            with self.locks[cid]:
                if self.clients[cid].rng_created:
                    states[str(cid)] = self.clients[cid].rng.bit_generator.state
        self.stream.send(
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
                with self.locks[cid]:
                    self.clients[cid].rng.bit_generator.state = state

    def handle_iter(self, meta: Dict, arrays: Dict) -> None:
        plan = self.plan
        if plan is None or plan.round_index != int(meta["round"]):
            # A restarted worker has no state for the round in flight;
            # the server drops its clients from that round and the next
            # "round" frame re-synchronizes.
            return
        it = int(meta["iteration"])
        cancel = threading.Event()
        self.cancels[(plan.round_index, it)] = cancel
        w = arrays["w"]
        g = arrays["g"]
        for cid in meta["clients"]:
            cid = int(cid)
            if cid not in self.clients or cid in plan.dropped:
                continue
            thread = threading.Thread(
                target=self._client_task,
                args=(cid, it, w, g, plan, cancel),
                name=f"live-client-{cid}",
                daemon=True,
            )
            self.threads.append(thread)
            thread.start()

    def handle_cancel(self, meta: Dict) -> None:
        key = (int(meta["round"]), int(meta["iteration"]))
        event = self.cancels.get(key)
        if event is not None:
            event.set()

    # -- the per-client pipeline -------------------------------------------------

    def _drop(self, cid: int, it: int, plan: _RoundPlan, reason: str) -> None:
        plan.dropped.add(cid)
        self.stream.send(
            {"cmd": "drop", "client": cid, "iteration": it, "reason": reason}
        )

    def _client_task(
        self,
        cid: int,
        it: int,
        w: np.ndarray,
        g: np.ndarray,
        plan: _RoundPlan,
        cancel: threading.Event,
    ) -> None:
        try:
            # Serialize per client: a cancelled straggler may still hold
            # the lock mid-solve when the next broadcast lands.
            with self.locks[cid]:
                self._client_task_locked(cid, it, w, g, plan, cancel)
        except Exception as exc:  # surface worker-side bugs to the server
            try:
                self.stream.send(
                    {
                        "cmd": "error",
                        "client": cid,
                        "iteration": it,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            except OSError:
                pass

    def _client_task_locked(
        self,
        cid: int,
        it: int,
        w: np.ndarray,
        g: np.ndarray,
        plan: _RoundPlan,
        cancel: threading.Event,
    ) -> None:
        if cancel.is_set() or cid in plan.dropped:
            return
        drop_at = plan.drop_at[cid]
        scale = plan.time_scale
        if time.monotonic() >= drop_at:
            self._drop(cid, it, plan, "dropout")
            return
        # --- compute phase: real solve, then sleep out the model budget ----
        t_solve = time.monotonic()
        d, eta_hat, _ = self.clients[cid].train_iteration(
            w, g, target_eta=plan.target_eta
        )
        solve_wall = time.monotonic() - t_solve
        compute_end = t_solve + plan.tau_loc[cid] * scale
        outcome = wait_until(compute_end, cancel=cancel, drop_at=drop_at)
        if outcome == WaitOutcome.CANCEL:
            return
        if outcome == WaitOutcome.DROP:
            self._drop(cid, it, plan, "dropout")
            return
        # --- upload phase: transient failures, retries, then shaped send ---
        from repro.nn.serialization import encode_payload

        payload = encode_payload(
            {"client": cid, "iteration": it},
            {"d": d, "eta": np.float64(eta_hat), "solve_wall": np.float64(solve_wall)},
        )
        upload_s = plan.tau_cm[cid] * scale
        rng = plan.upload_rng[cid]
        p_fail = plan.upload_failure_prob
        failures = 0
        while p_fail > 0.0 and rng.random() < p_fail:
            failures += 1
            # The failed attempt still occupies the channel for a full
            # transmission before the loss is discovered.
            outcome = wait_until(
                time.monotonic() + upload_s, cancel=cancel, drop_at=drop_at
            )
            if outcome == WaitOutcome.CANCEL:
                return
            if outcome == WaitOutcome.DROP:
                self._drop(cid, it, plan, "dropout")
                return
            if failures > plan.max_retries:
                self._drop(cid, it, plan, "upload_failed")
                return
            self.stream.send(
                {"cmd": "retry", "client": cid, "iteration": it, "attempt": failures}
            )
            backoff = plan.retry_backoff_s * (2.0 ** (failures - 1)) * scale
            outcome = wait_until(
                time.monotonic() + backoff, cancel=cancel, drop_at=drop_at
            )
            if outcome == WaitOutcome.CANCEL:
                return
            if outcome == WaitOutcome.DROP:
                self._drop(cid, it, plan, "dropout")
                return
        self._shaped_send(cid, it, payload, upload_s, cancel, drop_at, plan)

    def _shaped_send(
        self,
        cid: int,
        it: int,
        payload: bytes,
        upload_s: float,
        cancel: threading.Event,
        drop_at: float,
        plan: _RoundPlan,
    ) -> None:
        chunk = self.chunk_bytes
        bucket = (
            TokenBucket(rate=len(payload) / upload_s) if upload_s > 0 else None
        )
        offset = 0
        while offset < len(payload):
            part = payload[offset : offset + chunk]
            if bucket is not None:
                outcome = bucket.consume(len(part), cancel=cancel, drop_at=drop_at)
                if outcome == WaitOutcome.CANCEL:
                    return
                if outcome == WaitOutcome.DROP:
                    # Torn upload: the server discards the partial
                    # reassembly when the drop notice lands.
                    self._drop(cid, it, plan, "dropout")
                    return
            offset += len(part)
            self.stream.send(
                {
                    "cmd": "chunk",
                    "client": cid,
                    "iteration": it,
                    "last": offset >= len(payload),
                },
                {"part": np.frombuffer(part, dtype=np.uint8)},
            )

    # -- main loop ---------------------------------------------------------------

    def run(self) -> None:
        while True:
            frame = self.stream.recv()
            if frame is None:
                return
            meta, arrays = frame
            cmd = meta.get("cmd")
            if cmd == "stop":
                return
            if cmd == "install":
                self.handle_install(meta, arrays)
            elif cmd == "round":
                self.handle_round(meta, arrays)
            elif cmd == "iter":
                self.handle_iter(meta, arrays)
            elif cmd == "cancel":
                self.handle_cancel(meta)
            elif cmd == "rng_state":
                self.handle_rng_state()
            elif cmd == "set_rng":
                self.handle_set_rng(meta)
            else:
                raise ValueError(f"unknown worker command {cmd!r}")


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
