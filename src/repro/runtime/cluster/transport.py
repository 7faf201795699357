"""Length-prefixed socket transport between the host and worker processes.

One :class:`Channel` wraps one end of a ``socket.socketpair()``: each
message is a 4-byte big-endian length prefix followed by a canonical JSON
body (sorted keys, no whitespace — two processes encoding the same message
produce identical bytes, which keeps the wire format diffable and the
determinism tests honest).  The replay host and each worker drive their
channels from one thread, and receives stay single-consumer; sends still
hold a per-channel lock, so a channel shared between threads never
interleaves two frames.

A peer that vanishes — closed socket, dead process — surfaces as
:class:`WorkerLostError` from either direction, which the cluster frontend
converts into the resilience layer's failure path.
"""

from __future__ import annotations

import json
import socket
import struct

from ...analysis.runtime_checks import make_lock

_LENGTH = struct.Struct(">I")

#: Refuse absurd frames instead of allocating them: a corrupted or
#: misaligned length prefix must not look like a 4 GiB message.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class WorkerLostError(RuntimeError):
    """The transport peer is gone (socket closed, process dead)."""


class Channel:
    """One framed, full-duplex message channel over a connected socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = make_lock("transport", reentrant=False)

    def settimeout(self, timeout) -> None:
        """Receive timeout in seconds (``None`` blocks forever)."""
        self._sock.settimeout(timeout)

    def send(self, message: dict) -> None:
        """Frame and send one message; raises :class:`WorkerLostError` if
        the peer is gone.  Thread-safe: frames never interleave."""
        body = json.dumps(
            message, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        frame = _LENGTH.pack(len(body)) + body
        with self._send_lock:
            try:
                self._sock.sendall(frame)
            except (OSError, ValueError) as exc:
                raise WorkerLostError(f"send failed: {exc}") from exc

    def recv(self) -> dict:
        """Receive one message; raises :class:`WorkerLostError` on EOF or
        a dead peer, ``socket.timeout`` past a configured timeout."""
        header = self._recv_exact(_LENGTH.size)
        (length,) = _LENGTH.unpack(header)
        if length > MAX_MESSAGE_BYTES:
            raise WorkerLostError(
                f"frame of {length} bytes exceeds the "
                f"{MAX_MESSAGE_BYTES}-byte limit (corrupt stream?)"
            )
        body = self._recv_exact(length)
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as exc:
            raise WorkerLostError(f"undecodable frame: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining > 0:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise
            except (OSError, ValueError) as exc:
                raise WorkerLostError(f"recv failed: {exc}") from exc
            if not chunk:
                raise WorkerLostError("peer closed the channel")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close both directions; safe to call twice.  Closing unblocks a
        peer (or a local thread) parked in :meth:`recv`."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def detach_close(self) -> None:
        """Drop this process's fd only — no shutdown.

        ``shutdown`` acts on the socket (shared by every fd copy across a
        fork); a parent dropping its copy of a child's channel end must use
        a plain close, or it would sever the child's connection too.
        """
        try:
            self._sock.close()
        except OSError:
            pass


def channel_pair() -> tuple:
    """A connected ``(host_channel, worker_channel)`` pair."""
    host_sock, worker_sock = socket.socketpair()
    return Channel(host_sock), Channel(worker_sock)
