"""Wire protocol for the remote sweep fabric.

One frame = one message, length-prefixed over a stream socket::

    | 4-byte magic b"CFW3" | >I body length | body |

where the body is ``pickle((kind, payload))`` — ``kind`` a short
string, ``payload`` a dict. There is one revision: a header with any
other magic is a :class:`ProtocolError`, so a peer speaking an older
framing (CFW1, CFW2) is refused at its first frame.

Two readers share one decoder. :func:`recv_frame` blocks until one
whole frame is in (the scheduler's dial-out hello, hand-rolled test
peers). :meth:`Channel.recv` makes one read of a readable socket and
returns the frames it completed, keeping a partial frame's bytes for
the next read — so a ``select`` loop never blocks on a peer that
stalls mid-frame.

The conversation:

========== =========== ====================================================
kind       direction   payload
========== =========== ====================================================
hello      worker → s  ``worker`` id, ``pid``, ``version``, ``slots``
task       s → worker  ``tid``, ``index``, ``task`` (SweepTask), ``scale``,
                       ``seed``, ``capture``, ``digest`` (content
                       address, or None when uncached), ``have`` (the
                       scheduler's store already holds this digest's
                       blob — a hash-only ``cached`` reply suffices)
result     worker → s  ``tid``, ``index``, ``payload`` = the
                       ``execute_task`` tuple — data, metrics snapshot,
                       trace events, elapsed (the result blob the
                       scheduler writes through the shared cache)
cached     worker → s  ``tid``, ``index``, ``digest`` — the worker
                       confirms the task without shipping the blob;
                       the scheduler serves it from its own store
error      worker → s  ``tid``, ``index``, ``kind`` (taxonomy), ``message``
heartbeat  either      (empty) — liveness: worker → scheduler while
                       its slots run tasks, scheduler → worker behind
                       the worker's silence deadline
bye        either      polite close (a worker serving ``--listen`` goes
                       back to accepting; ``--once`` exits)
========== =========== ====================================================

Unknown kinds are ignored by both sides.

Frames are pickled, so the fabric assumes *mutual trust*: anything that
can connect to the scheduler's listen port (or that a worker dials) can
execute code on the other side. Bind to loopback, a private network, or
tunnel over SSH — never a public interface.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Optional

MAGIC = b"CFW3"
_HEADER = struct.Struct(">4sI")

#: Refuse frames over this size — a corrupt header read as a length
#: must not trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 30

#: Largest single socket read: a header's claimed length never sizes
#: an allocation before the bytes behind it arrive.
_RECV_BYTES = 1 << 16


class ProtocolError(RuntimeError):
    """A malformed frame (bad magic, oversized length, torn pickle)."""


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (host defaults to loopback).

    IPv6 literals use the bracketed URI form: ``"[::1]:9000"`` ->
    ``("::1", 9000)``; an unbracketed multi-colon host is rejected
    rather than silently mangled.
    """
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {addr!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ValueError(f"empty bracketed host in {addr!r}")
    elif ":" in host:
        raise ValueError(
            f"bare IPv6 literal in {addr!r}: bracket it, e.g. [::1]:9000")
    return (host or "127.0.0.1", int(port))


def format_addr(addr: tuple) -> str:
    """Inverse of :func:`parse_addr` (brackets IPv6 hosts)."""
    host, port = addr[0], addr[1]
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


def _sendall_scatter(sock: socket.socket, header: bytes,
                     blob: bytes) -> None:
    """Write ``header + blob`` without concatenating them.

    ``socket.sendmsg`` takes a buffer list (one syscall, zero copies);
    short writes resume from the right offset via ``memoryview``
    slicing, and platforms without ``sendmsg`` fall back to two
    ``sendall`` calls — still copy-free.
    """
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - every POSIX has sendmsg
        sock.sendall(header)
        sock.sendall(blob)
        return
    buffers = [memoryview(header), memoryview(blob)]
    while buffers:
        sent = sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers.pop(0))
        if buffers and sent:
            buffers[0] = buffers[0][sent:]


def send_frame(sock: socket.socket, kind: str,
               payload: Optional[dict] = None) -> int:
    """Serialize and send one ``(kind, payload)`` frame.

    Returns the frame's size in bytes — the wire-byte accounting the
    fabric benchmarks read.
    """
    blob = pickle.dumps((kind, payload or {}),
                        protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(MAGIC, len(blob))
    _sendall_scatter(sock, header, blob)
    return len(header) + len(blob)


def recv_frame(sock: socket.socket) -> tuple[str, dict[str, Any]]:
    """Block until one whole frame is in and decode it; raises
    :class:`EOFError` on a clean close at a frame boundary,
    :class:`ProtocolError` on a malformed or truncated frame."""
    length = _parse_header(_recv_exact(sock, _HEADER.size, eof_ok=True))
    return _decode_body(_recv_exact(sock, length))


def _parse_header(buf) -> int:
    """The body length of the frame header that starts ``buf``, checked
    before any body byte is read."""
    magic, length = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    return length


def _decode_body(body) -> tuple[str, dict[str, Any]]:
    try:
        kind, payload = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    return kind, payload


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool = False) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, _RECV_BYTES))
        if not chunk:
            if eof_ok and got == 0:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class Channel:
    """One peer connection: socket + byte meters.

    ``send`` is serialized by an internal lock so the scheduler's idle
    heartbeat pump and its select loop can share the connection
    without interleaving frames. ``recv`` buffers a partial frame
    instead of waiting for the rest.
    """

    __slots__ = ("sock", "bytes_in", "bytes_out", "_lock", "_buf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.bytes_in = 0
        self.bytes_out = 0
        self._lock = threading.Lock()
        self._buf = bytearray()

    def send(self, kind: str, payload: Optional[dict] = None) -> int:
        with self._lock:
            n = send_frame(self.sock, kind, payload)
        self.bytes_out += n
        return n

    def recv(self) -> list[tuple[str, dict[str, Any]]]:
        """Read once and return the frames that read completed.

        Call it when ``select`` reports the socket readable, so the
        read returns at once; the list may be empty while a frame is
        still arriving. Raises :class:`EOFError` when the peer closed
        at a frame boundary, and :class:`ProtocolError` when it closed
        mid-frame or sent a malformed frame (a bad header as soon as
        its bytes are in).
        """
        chunk = self.sock.recv(_RECV_BYTES)
        buf = self._buf
        if not chunk:
            if buf:
                raise ProtocolError(
                    f"connection closed mid-frame ({len(buf)} bytes "
                    f"buffered)")
            raise EOFError("connection closed")
        self.bytes_in += len(chunk)
        buf += chunk
        frames = []
        while len(buf) >= _HEADER.size:
            end = _HEADER.size + _parse_header(buf)
            if len(buf) < end:
                break
            frames.append(_decode_body(buf[_HEADER.size:end]))
            del buf[:end]
        return frames

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
