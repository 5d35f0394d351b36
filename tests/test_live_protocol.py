"""Unit tests for the live cluster's length-prefixed frame codec."""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live import protocol


def test_frame_roundtrip():
    payload = b'{"op":"ping","id":3}'
    frame = protocol.encode_frame(payload)
    assert frame[:4] == struct.pack(">I", len(payload))
    dec = protocol.FrameDecoder()
    assert dec.feed(frame) == [payload]
    assert dec.pending_bytes == 0


def test_decoder_byte_by_byte_and_coalesced():
    msgs = [{"op": "cgi", "id": i, "cpu": 0.001 * i} for i in range(5)]
    # encode_message returns a ready-to-send frame (prefix included).
    stream = b"".join(protocol.encode_message(m) for m in msgs)
    # One byte at a time: every frame must still come out whole.
    dec = protocol.FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(dec.feed(stream[i:i + 1]))
    assert [protocol.decode_message(p) for p in out] == msgs
    # Entire stream in one chunk.
    dec2 = protocol.FrameDecoder()
    assert len(dec2.feed(stream)) == len(msgs)


def test_oversized_frame_rejected():
    huge = struct.pack(">I", protocol.MAX_FRAME + 1)
    with pytest.raises(protocol.ProtocolError):
        protocol.FrameDecoder().feed(huge)


def test_message_validation():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(b"not json")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(b'{"no_op": 1}')
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_message({"id": 1})  # missing op


def test_read_frame_eof_semantics():
    async def scenario():
        # Clean EOF between frames -> None.
        reader = asyncio.StreamReader()
        reader.feed_data(protocol.encode_frame(b"abc"))
        reader.feed_eof()
        assert await protocol.read_frame(reader) == b"abc"
        assert await protocol.read_frame(reader) is None
        # EOF in the middle of a frame -> protocol error.
        truncated = asyncio.StreamReader()
        truncated.feed_data(protocol.encode_frame(b"abcdef")[:-2])
        truncated.feed_eof()
        with pytest.raises(protocol.ProtocolError):
            await protocol.read_frame(truncated)

    asyncio.run(scenario())


def test_hello_handshake():
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(protocol.encode_message(protocol.hello(7)))
        assert (await protocol.expect_hello(reader))["sender"] == 7
        # A non-hello first frame is rejected.
        bad = asyncio.StreamReader()
        bad.feed_data(protocol.encode_message({"op": "cgi", "id": 1}))
        with pytest.raises(protocol.ProtocolError):
            await protocol.expect_hello(bad)

    asyncio.run(scenario())


# -- properties ---------------------------------------------------------------


@st.composite
def chunked(draw, data: bytes):
    """``data`` cut at arbitrary points (empty chunks included)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=12)))
    bounds = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(st.data(),
       st.lists(st.binary(max_size=4096), max_size=8))
def test_decoder_recovers_payloads_however_chunked(data, payloads):
    stream = b"".join(protocol.encode_frame(p) for p in payloads)
    dec = protocol.FrameDecoder()
    out = []
    for chunk in data.draw(chunked(stream)):
        out.extend(dec.feed(chunk))
    assert out == payloads
    assert dec.pending_bytes == 0


@settings(max_examples=100, deadline=None)
@given(st.data(),
       st.integers(protocol.MAX_FRAME + 1, 2**32 - 1),
       st.binary(max_size=64))
def test_oversized_prefix_rejected_however_chunked(data, length, tail):
    stream = struct.pack(">I", length) + tail
    dec = protocol.FrameDecoder()
    with pytest.raises(protocol.ProtocolError):
        for chunk in data.draw(chunked(stream)):
            dec.feed(chunk)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
@example(b"[" * 100_000)             # nesting past the recursion limit
@example(b'{"op":"cgi","id":' + b"9" * 5000 + b"}")   # int digit limit
@example(b"\xff\xfe\x00")            # undecodable text
def test_decode_message_raises_only_protocol_error(payload):
    try:
        msg = protocol.decode_message(payload)
    except protocol.ProtocolError:
        return
    assert isinstance(msg, dict) and "op" in msg
