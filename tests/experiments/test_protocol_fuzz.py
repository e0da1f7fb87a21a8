"""Fuzzing the remote fabric's frame decoder.

Both readers — the blocking :func:`recv_frame` and the buffered
:meth:`Channel.recv` — must return exactly the frames that were sent,
however the byte stream is split, and must turn every truncated or
malformed stream into :class:`ProtocolError` (or :class:`EOFError` at a
clean frame boundary) without waiting for bytes a bad header promises.
"""

import pickle
import socket
import struct
import zlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments.backends.protocol import (
    COMPRESS_MIN_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    Channel,
    ProtocolError,
    recv_frame,
    send_frame,
)

#: A reader that waits this long for bytes it should never need fails
#: with a timeout instead of hanging the suite.
READ_TIMEOUT_S = 1.0

FUZZ = settings(max_examples=150, deadline=None)

HEADER = struct.Struct(">4sBI")


def blocking_reader(sock):
    return lambda: [recv_frame(sock)]


def channel_reader(sock):
    return Channel(sock).recv


READERS = [blocking_reader, channel_reader]


class _Collect:
    """Write-only socket stand-in that keeps what ``send_frame`` writes."""

    def __init__(self):
        self.data = bytearray()

    def sendmsg(self, buffers):
        for buf in buffers:
            self.data += buf
        return sum(len(buf) for buf in buffers)


# Payloads from a few bytes to several KiB; the repeated ones compress,
# so frames sent with codec "zlib" go out as codec 1 among raw ones.
payloads = st.dictionaries(
    st.sampled_from(["tid", "index", "blob", "message"]),
    st.one_of(st.integers(), st.text(max_size=40),
              st.builds(lambda chunk, n: chunk * n,
                        st.binary(min_size=1, max_size=32),
                        st.integers(0, 200))),
    max_size=3)
frames_st = st.lists(
    st.tuples(st.sampled_from(["task", "result", "heartbeat", "bye"]),
              payloads, st.sampled_from([None, "zlib"])),
    min_size=1, max_size=6)


def encode(frames) -> tuple[bytes, list[int]]:
    """The wire bytes of ``frames`` and the offset where each ends."""
    out = _Collect()
    ends = []
    for kind, payload, codec in frames:
        send_frame(out, kind, payload, codec=codec)
        ends.append(len(out.data))
    return bytes(out.data), ends


def drain(read):
    """Read until the stream ends; returns (frames, exception type)."""
    got = []
    with pytest.raises((EOFError, ProtocolError)) as info:
        while True:
            got.extend(read())
    return got, info.type


def socket_pair():
    tx, rx = socket.socketpair()
    rx.settimeout(READ_TIMEOUT_S)
    return tx, rx


class TestChunking:
    @given(frames_st, st.data())
    @FUZZ
    def test_any_split_yields_exactly_the_frames(self, frames, data):
        wire, _ends = encode(frames)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(wire) - 1),
                                        max_size=12)))
        tx, rx = socket_pair()
        channel = Channel(rx)
        got = []
        try:
            for a, b in zip([0, *cuts], [*cuts, len(wire)]):
                tx.sendall(wire[a:b])
                got.extend(channel.recv())  # readable: returns at once
            tx.close()
            rest, ended = drain(channel.recv)
        finally:
            tx.close()
            rx.close()
        assert ended is EOFError
        assert got + rest == [(kind, payload) for kind, payload, _c in frames]
        assert channel.bytes_in == len(wire)


class TestTruncation:
    @pytest.mark.parametrize("reader", READERS)
    @given(frames=frames_st, data=st.data())
    @FUZZ
    def test_cut_stream_is_a_protocol_error_or_clean_eof(self, reader,
                                                         frames, data):
        wire, ends = encode(frames)
        cut = data.draw(st.integers(0, len(wire)))
        tx, rx = socket_pair()
        try:
            tx.sendall(wire[:cut])
            tx.close()
            got, ended = drain(reader(rx))
        finally:
            tx.close()
            rx.close()
        assert ended is (EOFError if cut in (0, *ends) else ProtocolError)
        assert got == [(kind, payload)
                       for (kind, payload, _c), end in zip(frames, ends)
                       if end <= cut]


bad_magic = st.one_of(
    st.just(b"CFW1"),
    st.binary(min_size=4, max_size=4).filter(lambda m: m != MAGIC))
bad_headers = st.one_of(
    st.tuples(bad_magic, st.integers(0, 255), st.integers(0, 2**32 - 1)),
    st.tuples(st.just(MAGIC), st.integers(0, 255),
              st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1)))


@pytest.mark.parametrize("reader", READERS)
class TestMalformedFrames:
    @given(header=bad_headers)
    @FUZZ
    def test_bad_header_is_refused_once_it_is_in(self, reader, header):
        tx, rx = socket_pair()
        try:
            tx.sendall(HEADER.pack(*header))  # the writer stays open
            with pytest.raises(ProtocolError):
                read = reader(rx)
                while True:
                    assert read() == []
        finally:
            tx.close()
            rx.close()

    @given(codec_id=st.integers(3, 255), body=st.binary(max_size=256))
    @FUZZ
    def test_unregistered_codec_id(self, reader, codec_id, body):
        assert_refused(reader,
                       HEADER.pack(MAGIC, codec_id, len(body)) + body)

    @given(data=st.data())
    @FUZZ
    def test_corrupted_zlib_body(self, reader, data):
        body = zlib.compress(pickle.dumps(
            ("result", {"blob": b"abc" * COMPRESS_MIN_BYTES})))
        at = data.draw(st.integers(0, len(body) - 1))
        if data.draw(st.booleans()):
            torn = body[:at]  # cut short inside the compressed stream
        else:
            flip = data.draw(st.integers(1, 255))
            torn = body[:at] + bytes([body[at] ^ flip]) + body[at + 1:]
        # A flipped padding bit after the last deflate block changes
        # nothing zlib reads: that is no corruption.
        assume(not inflates(torn))
        assert_refused(reader, HEADER.pack(MAGIC, 1, len(torn)) + torn)


def inflates(blob: bytes) -> bool:
    try:
        zlib.decompress(blob)
    except zlib.error:
        return False
    return True


def assert_refused(reader, frame: bytes) -> None:
    """A whole frame, then a closed writer: the reader must refuse it."""
    tx, rx = socket_pair()
    try:
        tx.sendall(frame)
        tx.close()
        _got, ended = drain(reader(rx))
    finally:
        rx.close()
    assert ended is ProtocolError
