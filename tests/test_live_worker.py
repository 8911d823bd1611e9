"""The live worker's threading and timing contract.

A worker runs its clients' local solves one after another on one compute
thread and sends every timed frame (retries, chunks, drops, heartbeats)
from its command loop at the frame's due instant.  Driven here in
process over a socket pair, with the test playing the server:

* solves never overlap, yet the uploads' shaped waits still do;
* each upload is ``ceil(payload / chunk_bytes)`` chunk frames;
* a ``cancel`` stops the iteration's pending chunks and its queued
  solves, and a dropout instant tears an upload mid-way;
* ``rng_state`` queues behind the solves of the broadcast before it;
* :func:`repro.live.shaper.upload_schedule`'s instants and lazy draws.
"""

import math
import selectors
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.datasets.synthetic import Dataset
from repro.fl.client import FLClient
from repro.live.protocol import FrameStream, socket_pair
from repro.live.shaper import CHUNK, FAILED, RETRY, upload_schedule
from repro.live.worker import _Worker
from repro.nn.models import build_model
from repro.nn.serialization import decode_payload

FEATURES, CLASSES, SAMPLES = 64, 3, 40  # 40 > batch 32: every solve draws
CLIENTS = [0, 1, 2, 3]


def make_fleet(ids=CLIENTS):
    """Clients sharing one model, each with its own data and stream."""
    model = build_model("logreg", FEATURES, CLASSES, np.random.default_rng(0))
    data_rng = np.random.default_rng(1)
    data = {
        cid: Dataset(
            x=data_rng.normal(size=(SAMPLES, FEATURES)),
            y=data_rng.integers(0, CLASSES, size=SAMPLES),
        )
        for cid in ids
    }
    clients = {cid: FLClient(cid, model, np.random.default_rng(100 + cid)) for cid in ids}
    return model, clients, data


def broadcast_arrays(model):
    rng = np.random.default_rng(2)
    w = rng.normal(scale=0.1, size=model.num_params)
    return {"w": w, "g": rng.normal(scale=0.01, size=w.size)}


class Harness:
    """One in-process worker on a socket pair; the test is the server."""

    def __init__(self, clients, data, chunk_bytes=1024):
        ours, theirs = socket_pair()
        self.sockets = (ours, theirs)
        self.worker = _Worker(FrameStream(ours), clients, chunk_bytes, heartbeat_s=0)
        self.server = FrameStream(theirs)
        self.selector = selectors.DefaultSelector()
        self.selector.register(theirs, selectors.EVENT_READ)
        self.thread = threading.Thread(target=self.worker.run)
        self.thread.start()
        arrays = {f"{k}{cid}": getattr(d, k) for cid, d in data.items() for k in "xy"}
        self.server.send({"cmd": "install", "clients": sorted(data)}, arrays)
        assert self.recv(5.0)[0] == {"cmd": "ok", "re": "install"}

    def recv(self, timeout):
        """The next frame with its arrival instant, or ``None`` on timeout."""
        if not self.selector.select(timeout):
            return None
        meta, arrays = self.server.recv()
        return meta, arrays, time.monotonic()

    def start_round(self, tau_loc, tau_cm, drop_after=None, time_scale=1.0):
        ids = sorted(self.worker.clients)
        n = len(ids)
        drop = np.full(n, np.inf) if drop_after is None else np.asarray(drop_after)
        self.server.send(
            {
                "cmd": "round", "round": 0, "iterations": 1,
                "time_scale": time_scale, "clients": ids,
                "upload_failure_prob": 0.0, "max_retries": 0,
                "retry_backoff_s": 0.0, "target_eta": None,
            },
            {
                "tau_loc": np.full(n, float(tau_loc)),
                "tau_cm": np.full(n, float(tau_cm)),
                "drop_after": drop,
                "upload_seeds": np.zeros(n, dtype=np.int64),
            },
        )

    def broadcast(self, arrays, iteration=0):
        ids = sorted(self.worker.clients)
        self.server.send(
            {"cmd": "iter", "round": 0, "iteration": iteration, "clients": ids},
            arrays,
        )
        return time.monotonic()

    def close(self):
        try:
            self.server.send({"cmd": "stop"})
        finally:
            self.thread.join(10.0)
            self.selector.close()
            for sock in self.sockets:
                sock.close()
        assert not self.thread.is_alive()


@pytest.fixture
def solves(monkeypatch):
    """Record every local solve as (client, start, end) and track how many
    run at once; ``pause`` seconds inside each solve widen any overlap."""
    record = {"spans": [], "active": 0, "max_active": 0, "pause": 0.0}
    lock = threading.Lock()
    real = FLClient.train_iteration

    def counted(self, *args, **kwargs):
        with lock:
            record["active"] += 1
            record["max_active"] = max(record["max_active"], record["active"])
        start = time.monotonic()
        try:
            time.sleep(record["pause"])
            return real(self, *args, **kwargs)
        finally:
            with lock:
                record["active"] -= 1
            record["spans"].append((self.client_id, start, time.monotonic()))

    monkeypatch.setattr(FLClient, "train_iteration", counted)
    return record


def in_process_states(model, data, arrays):
    """The client streams after the same solves run in this thread."""
    states = {}
    for cid in CLIENTS:
        twin = FLClient(cid, model, np.random.default_rng(100 + cid))
        twin.set_data(data[cid])
        twin.train_iteration(arrays["w"], arrays["g"])
        states[str(cid)] = twin.rng.bit_generator.state
    return states


class TestOneComputeThread:
    UPLOAD_S = 0.2  # τ_cm · time_scale per client

    def test_solves_never_overlap_and_uploads_still_do(self, solves):
        solves["pause"] = 0.02
        model, clients, data = make_fleet()
        h = Harness(clients, data)
        try:
            h.start_round(tau_loc=0.0, tau_cm=self.UPLOAD_S)
            t0 = h.broadcast(broadcast_arrays(model))
            parts, landed = {}, {}
            while len(landed) < len(CLIENTS):
                frame = h.recv(5.0)
                assert frame is not None, "upload never completed"
                meta, arrays, at = frame
                assert meta["cmd"] == "chunk", meta
                parts.setdefault(meta["client"], []).append(arrays["part"].tobytes())
                if meta["last"]:
                    landed[meta["client"]] = at
        finally:
            h.close()
        assert solves["max_active"] == 1
        spans = {cid: (start, end) for cid, start, end in solves["spans"]}
        assert sorted(spans) == CLIENTS
        solve_total = sum(end - start for start, end in spans.values())
        last_solve_end = max(end for _, end in spans.values())
        # The solves are not held up by earlier clients' uploads (three
        # waits in between would add 0.6 s) ...
        assert last_solve_end - t0 < solve_total + 1.5 * self.UPLOAD_S
        # ... and the four shaped waits overlap: one τ_cm after the last
        # solve, not four.
        assert max(landed.values()) - last_solve_end < 2 * self.UPLOAD_S
        for cid in CLIENTS:
            # The chunks drain at the channel rate, never ahead of it.
            assert landed[cid] >= spans[cid][1] + self.UPLOAD_S - 0.01
            size = sum(map(len, parts[cid]))
            assert len(parts[cid]) == math.ceil(size / 1024) > 1

    def test_cancel_stops_pending_chunks_and_queued_solves(self, solves):
        solves["pause"] = 0.1
        model, clients, data = make_fleet()
        h = Harness(clients, data)
        try:
            # Client 0's upload outlasts the hand-off, so client 1's solve
            # is under way when the cancel lands.
            h.start_round(tau_loc=0.0, tau_cm=0.05)
            h.broadcast(broadcast_arrays(model))
            while True:  # an async quorum of 1: the first upload closes it
                meta, _, _ = h.recv(5.0)
                if meta["cmd"] == "chunk" and meta["last"]:
                    break
            assert meta["client"] == 0
            h.server.send({"cmd": "cancel", "round": 0, "iteration": 0})
            h.server.send({"cmd": "rng_state"})
            after = []
            while True:
                frame = h.recv(5.0)
                assert frame is not None, "no rng_state reply"
                if frame[0].get("re") == "rng_state":
                    break
                after.append(frame[0])
            reply = frame[0]
            # Give an upload of the solve that was running (client 1's)
            # time to (wrongly) go out.
            while (frame := h.recv(0.2)) is not None:
                after.append(frame[0])
        finally:
            h.close()
        assert [m for m in after if m["cmd"] == "chunk"] == []
        ran = [cid for cid, _, _ in solves["spans"]]
        assert ran[0] == 0 and set(ran) <= {0, 1}
        for cid in (2, 3):  # queued behind the cancel: never drew
            assert reply["states"][str(cid)] == np.random.default_rng(100 + cid).bit_generator.state

    def test_rng_state_reports_after_the_queued_solves(self):
        model, clients, data = make_fleet()
        arrays = broadcast_arrays(model)
        h = Harness(clients, data)
        try:
            h.start_round(tau_loc=0.0, tau_cm=0.001)
            h.broadcast(arrays)
            h.server.send({"cmd": "rng_state"})
            while True:
                frame = h.recv(5.0)
                assert frame is not None, "no rng_state reply"
                if frame[0].get("re") == "rng_state":
                    break
        finally:
            h.close()
        assert frame[0]["states"] == in_process_states(model, data, arrays)

    def test_dropout_tears_an_upload_at_its_instant(self):
        model, clients, data = make_fleet()
        h = Harness(clients, data, chunk_bytes=256)
        try:
            # Client 0 leaves 0.15 s into a 0.3 s upload; the others never.
            h.start_round(tau_loc=0.0, tau_cm=0.3, drop_after=[0.15, np.inf, np.inf, np.inf])
            t0 = h.broadcast(broadcast_arrays(model))
            frames = []
            while sum(m.get("last", False) for m, _ in frames) < 3:
                frame = h.recv(5.0)
                assert frame is not None
                frames.append((frame[0], frame[2]))
        finally:
            h.close()
        mine = [(m, at) for m, at in frames if m["client"] == 0]
        *chunks, (drop, dropped_at) = mine
        assert drop == {"cmd": "drop", "client": 0, "iteration": 0, "reason": "dropout"}
        assert chunks  # torn mid-way: some chunks went, the last never did
        assert all(m["cmd"] == "chunk" and not m["last"] for m, _ in chunks)
        assert 0.14 <= dropped_at - t0 < 0.3


class TestUploadSchedule:
    def test_chunks_drain_at_the_channel_rate(self):
        steps = list(upload_schedule(10.0, 2500, 1000, 0.5, lambda: False, 0, 0.0))
        assert steps == [
            (10.0 + 0.5 * 1000 / 2500, CHUNK, (0, 1000)),
            (10.0 + 0.5 * 2000 / 2500, CHUNK, (1000, 2000)),
            (10.5, CHUNK, (2000, 2500)),
        ]

    def test_unshaped_upload_is_due_at_once(self):
        steps = list(upload_schedule(3.0, 10, 4, 0.0, lambda: False, 0, 0.0))
        assert [t for t, _, _ in steps] == [3.0, 3.0, 3.0]

    def test_failed_attempts_retry_with_backoff(self):
        outcomes = iter([True, True, False])
        steps = list(upload_schedule(0.0, 8, 8, 1.0, lambda: next(outcomes), 2, 0.5))
        assert steps == [
            (1.0, RETRY, 1), (1.5, None, None),
            (2.5, RETRY, 2), (3.5, None, None),
            (4.5, CHUNK, (0, 8)),
        ]

    def test_one_failure_past_the_budget_ends_the_upload(self):
        steps = list(upload_schedule(0.0, 8, 8, 1.0, lambda: True, 1, 0.25))
        assert steps == [(1.0, RETRY, 1), (1.25, None, None), (2.25, FAILED, 2)]

    def test_draws_are_lazy(self):
        draws = []

        def fails():
            draws.append(1)
            return True

        schedule = upload_schedule(0.0, 8, 8, 1.0, fails, 5, 0.0)
        assert draws == []
        next(schedule)
        assert len(draws) == 1  # a stopped schedule draws no further


class TestStress:
    def test_every_upload_lands_whole_under_constant_thread_switching(self):
        """Eight clients, three broadcasts, 256-byte chunks, and the
        interpreter switching threads every microsecond: every upload
        reassembles to the update the same solves give in process."""
        ids = list(range(8))
        model, clients, data = make_fleet(ids)
        twins = {cid: FLClient(cid, model, np.random.default_rng(100 + cid)) for cid in ids}
        for cid in ids:
            twins[cid].set_data(data[cid])
        rng = np.random.default_rng(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            h = Harness(clients, data, chunk_bytes=256)
            try:
                h.start_round(tau_loc=0.0, tau_cm=0.002)
                for it in range(3):
                    w = rng.normal(scale=0.1, size=model.num_params)
                    g = rng.normal(scale=0.01, size=w.size)
                    h.broadcast({"w": w, "g": g}, iteration=it)
                    buffers, done = {}, {}
                    while len(done) < len(ids):
                        frame = h.recv(10.0)
                        assert frame is not None, "an upload never completed"
                        meta, arrays, _ = frame
                        assert (meta["cmd"], meta["iteration"]) == ("chunk", it)
                        buf = buffers.setdefault(meta["client"], bytearray())
                        buf.extend(arrays["part"].tobytes())
                        if meta["last"]:
                            done[meta["client"]] = decode_payload(bytes(buf))[1]["d"]
                    for cid in ids:
                        expected, _, _ = twins[cid].train_iteration(w, g)
                        np.testing.assert_array_equal(done[cid], expected)
            finally:
                h.close()
        finally:
            sys.setswitchinterval(interval)


class TestBackpressure:
    def test_a_full_socket_never_stops_the_worker_reading(self):
        """Uploads back up while the server writes a large frame and reads
        nothing: the worker must go on reading, or both sides block in a
        write for good."""
        model = build_model("logreg", 20_000, CLASSES, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        data = {
            cid: Dataset(x=rng.normal(size=(2, 20_000)), y=np.array([0, 1]))
            for cid in CLIENTS
        }
        clients = {cid: FLClient(cid, model, np.random.default_rng(cid)) for cid in CLIENTS}
        h = Harness(clients, data, chunk_bytes=16_384)
        try:
            h.start_round(tau_loc=0.0, tau_cm=0.0)  # every chunk due at once
            h.broadcast(broadcast_arrays(model))  # 4 × 1.6 MB of uploads
            time.sleep(0.5)
            big = {f"{k}{cid}": getattr(d, k) for cid, d in data.items() for k in "xy"}
            big["pad"] = np.zeros(500_000)  # + 4 MB the worker must read
            writer = threading.Thread(
                target=h.server.send, args=({"cmd": "install", "clients": CLIENTS}, big)
            )
            writer.start()
            writer.join(20.0)
            stalled = writer.is_alive()
            landed, acked = set(), False
            while not stalled and (len(landed) < len(CLIENTS) or not acked):
                meta, _, _ = h.recv(10.0)
                acked |= meta.get("re") == "install"
                if meta["cmd"] == "chunk" and meta["last"]:
                    landed.add(meta["client"])
        finally:
            if stalled:  # unblock both writers so the test can end
                for sock in h.sockets:
                    sock.shutdown(socket.SHUT_RDWR)
                writer.join(10.0)
                h.thread.join(10.0)
            else:
                h.close()
        assert not stalled, "the worker stopped reading while its socket was full"
