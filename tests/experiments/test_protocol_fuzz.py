"""Fuzzing the remote fabric's frame decoder.

Both readers — the blocking :func:`recv_frame` and the buffered
:meth:`Channel.recv` — must return exactly the frames that were sent,
however the byte stream is split, and must turn every truncated or
malformed stream into :class:`ProtocolError` (or :class:`EOFError` at a
clean frame boundary) without waiting for bytes a bad header promises.
"""

import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends.protocol import (
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

HEADER = struct.Struct(">4sI")


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


# Payloads from a few bytes to several KiB.
payloads = st.dictionaries(
    st.sampled_from(["tid", "index", "blob", "message"]),
    st.one_of(st.integers(), st.text(max_size=40),
              st.builds(lambda chunk, n: chunk * n,
                        st.binary(min_size=1, max_size=32),
                        st.integers(0, 200))),
    max_size=3)
frames_st = st.lists(
    st.tuples(st.sampled_from(["task", "result", "heartbeat", "bye"]),
              payloads),
    min_size=1, max_size=6)


def encode(frames) -> tuple[bytes, list[int]]:
    """The wire bytes of ``frames`` and the offset where each ends."""
    out = _Collect()
    ends = []
    for kind, payload in frames:
        send_frame(out, kind, payload)
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
        assert got + rest == frames
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
        assert got == [frame for frame, end in zip(frames, ends)
                       if end <= cut]


bad_magic = st.one_of(
    st.sampled_from([b"CFW1", b"CFW2"]),
    st.binary(min_size=4, max_size=4).filter(lambda m: m != MAGIC))
bad_headers = st.one_of(
    st.tuples(bad_magic, st.integers(0, 2**32 - 1)),
    st.tuples(st.just(MAGIC), st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1)))


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
