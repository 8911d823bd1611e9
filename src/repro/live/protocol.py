"""Length-prefixed frame transport for the live engine.

Every message on a live-engine socket is one *frame*::

    u32 little-endian payload length | payload

where the payload is a self-describing :func:`repro.nn.serialization.
encode_payload` buffer (JSON meta + named numpy arrays + crc32).  A
stream that ends mid-frame raises the same typed
:class:`~repro.nn.serialization.TruncatedPayloadError` a torn on-disk
payload does, so transport and persistence share one failure vocabulary.

:class:`FrameStream` wraps a connected socket with a write lock
(concurrent senders never tear a frame) and blocking whole-frame reads
(the server multiplexes many sockets and reads one only once a frame has
started arriving).  A live worker writes :func:`encode_frame` bytes from
its command loop alone, without blocking, so that it always goes on
reading (see :mod:`repro.live.worker`).
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.nn.serialization import (
    PayloadError,
    TruncatedPayloadError,
    decode_payload,
    encode_payload,
)

__all__ = ["MAX_FRAME_BYTES", "Frame", "FrameStream", "encode_frame", "recv_exact"]

#: Upper bound on a single frame, as a corruption tripwire: a garbled
#: length prefix must fail loudly, not allocate gigabytes.
MAX_FRAME_BYTES = 1 << 30

Frame = Tuple[Dict, Dict[str, np.ndarray]]


def encode_frame(
    meta: Mapping, arrays: Optional[Mapping[str, np.ndarray]] = None
) -> bytes:
    """One frame's bytes: the length prefix, then the payload."""
    payload = encode_payload(meta, arrays or {})
    return len(payload).to_bytes(4, "little") + payload


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; EOF mid-read is a torn frame."""
    parts = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise TruncatedPayloadError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


class FrameStream:
    """One framed, thread-safe-for-writers message stream over a socket."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._wlock = threading.Lock()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(
        self, meta: Mapping, arrays: Optional[Mapping[str, np.ndarray]] = None
    ) -> None:
        """Serialize and send one frame (atomic w.r.t. other senders)."""
        frame = encode_frame(meta, arrays)
        with self._wlock:
            self.sock.sendall(frame)

    def recv(self) -> Optional[Frame]:
        """Block for one frame; ``None`` on a clean EOF at a frame
        boundary, :class:`TruncatedPayloadError` on a torn stream."""
        try:
            head = self.sock.recv(4)
        except (ConnectionResetError, BrokenPipeError):
            return None
        if not head:
            return None
        if len(head) < 4:
            head += recv_exact(self.sock, 4 - len(head))
        length = int.from_bytes(head, "little")
        if not (0 < length <= MAX_FRAME_BYTES):
            raise PayloadError(f"implausible frame length {length}")
        return decode_payload(recv_exact(self.sock, length))

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def socket_pair() -> Tuple[socket.socket, socket.socket]:
    """A connected AF_UNIX pair (created pre-fork, so no bind races)."""
    return socket.socketpair()


def tcp_pair() -> Tuple[socket.socket, socket.socket]:
    """A connected loopback TCP pair (exercises the kernel TCP stack —
    Nagle disabled so small control frames are not delayed)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        client.connect(listener.getsockname())
        server, _ = listener.accept()
    finally:
        listener.close()
    for s in (client, server):
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return server, client
