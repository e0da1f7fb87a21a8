"""Wire protocol for the remote sweep fabric.

One frame = one message, length-prefixed over a stream socket::

    | 4-byte magic b"CFW2" | >B codec | >I body length | body |

where the body is ``pickle((kind, payload))`` — ``kind`` a short
string, ``payload`` a dict — run through the frame's codec (``0`` =
raw, ``1`` = zlib, ``2`` = zstd). Small frames ship raw even on a
compressed channel (compression below :data:`COMPRESS_MIN_BYTES` costs
more than it saves), so heartbeats stay a handful of bytes; a
``compress="none"`` channel sends every frame raw. There is one
revision: a header with any other magic is a :class:`ProtocolError`,
so a peer speaking an older framing is refused at its first frame.

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
hello      worker → s  ``worker`` id, ``pid``, ``version``, ``slots``,
                       ``codecs`` the worker can decode
hello      s → worker  the acknowledgement: the negotiated ``codec``
                       (both directions), the scheduler's ``codecs``,
                       and ``heartbeat_s`` — the interval at which the
                       scheduler pulses
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
heartbeat  either      (empty) — liveness: worker → scheduler while a
                       long task runs, scheduler → worker behind the
                       worker's silence deadline
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
import zlib
from typing import Any, Optional

MAGIC = b"CFW2"
_HEADER = struct.Struct(">4sBI")

#: Refuse frames over this size — a corrupt header read as a length
#: must not trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 30

#: Frames smaller than this ship raw even on a compressed channel:
#: zlib on a 100-byte heartbeat costs CPU to *grow* the frame.
COMPRESS_MIN_BYTES = 512

#: Largest single socket read: a header's claimed length never sizes
#: an allocation before the bytes behind it arrive.
_RECV_BYTES = 1 << 16

try:  # pragma: no cover - exercised only where zstandard is installed
    import zstandard as _zstd
except ImportError:
    _zstd = None

#: codec name -> (frame codec id, compress, decompress). Order is
#: preference order for negotiation (best first).
_CODECS: dict[str, tuple] = {}
if _zstd is not None:  # pragma: no cover - optional dependency
    _CODECS["zstd"] = (2,
                       lambda b: _zstd.ZstdCompressor().compress(b),
                       lambda b: _zstd.ZstdDecompressor().decompress(b))
_CODECS["zlib"] = (1, lambda b: zlib.compress(b, 6), zlib.decompress)

_CODEC_BY_ID = {cid: (name, comp, decomp)
                for name, (cid, comp, decomp) in _CODECS.items()}


def available_codecs() -> tuple[str, ...]:
    """Codecs this interpreter can encode/decode, best first."""
    return tuple(_CODECS)


def negotiate_codec(preference: Optional[str],
                    peer_codecs) -> Optional[str]:
    """Pick the frame codec for a channel.

    ``preference`` is the local ``compress`` policy: ``"auto"`` takes
    the best codec both sides support, an explicit codec name requires
    exactly that codec, ``"none"``/``None`` disables compression.
    Returns the codec name, or ``None`` when the channel stays
    uncompressed.
    """
    if preference in (None, "none"):
        return None
    peers = tuple(peer_codecs or ())
    if preference == "auto":
        for name in _CODECS:
            if name in peers:
                return name
        return None
    if preference in _CODECS and preference in peers:
        return preference
    return None


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
               payload: Optional[dict] = None,
               codec: Optional[str] = None) -> int:
    """Serialize and send one ``(kind, payload)`` frame.

    ``codec`` names the channel's compression codec; ``None`` sends the
    body raw (codec 0), as does a frame under
    :data:`COMPRESS_MIN_BYTES` or one that compression fails to shrink.
    Returns the frame's size in bytes — the wire-byte accounting the
    fabric benchmarks read.
    """
    blob = pickle.dumps((kind, payload or {}),
                        protocol=pickle.HIGHEST_PROTOCOL)
    codec_id = 0
    if codec is not None and len(blob) >= COMPRESS_MIN_BYTES:
        cid, compress, _decomp = _CODECS[codec]
        packed = compress(blob)
        if len(packed) < len(blob):
            blob, codec_id = packed, cid
    header = _HEADER.pack(MAGIC, codec_id, len(blob))
    _sendall_scatter(sock, header, blob)
    return len(header) + len(blob)


def recv_frame(sock: socket.socket) -> tuple[str, dict[str, Any]]:
    """Block until one whole frame is in and decode it; raises
    :class:`EOFError` on a clean close at a frame boundary,
    :class:`ProtocolError` on a malformed or truncated frame."""
    codec_id, length = _parse_header(
        _recv_exact(sock, _HEADER.size, eof_ok=True))
    return _decode_body(codec_id, _recv_exact(sock, length))


def _parse_header(buf) -> tuple[int, int]:
    """``(codec id, body length)`` of the frame header that starts
    ``buf``, checked before any body byte is read."""
    magic, codec_id, length = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    return codec_id, length


def _decode_body(codec_id: int, body) -> tuple[str, dict[str, Any]]:
    if codec_id:
        entry = _CODEC_BY_ID.get(codec_id)
        if entry is None:
            raise ProtocolError(
                f"frame compressed with unknown codec id {codec_id} "
                f"(decodable here: {', '.join(_CODECS) or 'none'})")
        try:
            body = entry[2](body)
        except Exception as exc:
            raise ProtocolError(
                f"undecompressable {entry[0]} frame: {exc}") from exc
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame decompressed to {len(body)} bytes, over limit")
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
    """One peer connection: socket + negotiated codec + byte meters.

    ``send`` is serialized by an internal lock so a worker's heartbeat
    thread, result callbacks and main loop (or the scheduler's idle
    heartbeat pump and select loop) can share the connection without
    interleaving frames. ``codec`` is the *transmit* codec — every
    frame names its own codec, so either side may switch the moment
    negotiation completes without racing frames already in flight.
    ``recv`` buffers a partial frame instead of waiting for the rest.
    """

    __slots__ = ("sock", "codec", "bytes_in", "bytes_out", "_lock",
                 "_buf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.codec: Optional[str] = None
        self.bytes_in = 0
        self.bytes_out = 0
        self._lock = threading.Lock()
        self._buf = bytearray()

    def send(self, kind: str, payload: Optional[dict] = None) -> int:
        with self._lock:
            n = send_frame(self.sock, kind, payload, codec=self.codec)
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
            codec_id, length = _parse_header(buf)
            end = _HEADER.size + length
            if len(buf) < end:
                break
            frames.append(_decode_body(codec_id, buf[_HEADER.size:end]))
            del buf[:end]
        return frames

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
