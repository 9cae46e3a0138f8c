"""The gateway codec: typed errors both ways, and framing that cannot
be crashed.

Two halves.  The deterministic half walks :data:`ERROR_CODES` in both
directions (every class encodes to its code, every code decodes to its
class, unknown codes stay catchable and survive a re-encode) and pins
each framing hazard to :class:`GatewayProtocolError`.  The hypothesis
half feeds the decoder adversarial byte streams — random junk, valid
frames chopped at random boundaries, corrupted prefixes — and asserts
the invariant the server's zero-unhandled-exceptions counter rests on:
``feed()`` either returns frames or raises ``GatewayProtocolError``;
no other exception type ever escapes.
"""

import json
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import (AuthError, ExecError, GatewayError,
                          GatewayExecError, GatewayProtocolError, Overloaded,
                          RateLimited)
from repro.gateway.protocol import (ERROR_CODES, OPS, check_request,
                                    decode_error, encode_error)
from repro.wire import MAX_FRAME_BYTES, FrameDecoder, encode_frame


def frame_bytes(obj) -> bytes:
    body = json.dumps(obj).encode("utf-8")
    return struct.pack("!I", len(body)) + body


class TestErrorRoundTrip:
    def test_every_class_encodes_to_its_code(self):
        for code, cls in ERROR_CODES.items():
            payload = encode_error(cls("boom"))["error"]
            assert payload["code"] == code
            assert payload["message"] == "boom"

    def test_every_code_decodes_to_its_class(self):
        for code, cls in ERROR_CODES.items():
            error = decode_error({"code": code, "message": "kaput"})
            assert type(error) is cls
            assert str(error) == "kaput"

    def test_retry_after_survives_both_directions(self):
        wire = encode_error(RateLimited("slow down", retry_after=0.25),
                            rid=7)
        assert wire["id"] == 7
        assert wire["error"]["retry_after"] == 0.25
        error = decode_error(wire["error"])
        assert isinstance(error, RateLimited)
        assert error.retry_after == 0.25

    def test_all_known_errors_are_gateway_errors(self):
        for cls in ERROR_CODES.values():
            assert issubclass(cls, GatewayError)
        # The concrete hierarchy the API promises.
        assert issubclass(AuthError, GatewayError)
        assert issubclass(Overloaded, GatewayError)

    def test_an_exec_failure_keeps_its_errno_and_path(self):
        sent = GatewayExecError("cannot launch")
        sent.errno, sent.path = 2, "/no/such/binary"
        error = decode_error(encode_error(sent)["error"])
        assert isinstance(error, ExecError) and isinstance(error,
                                                           GatewayError)
        assert (error.errno, error.path) == (2, "/no/such/binary")

    def test_unknown_code_stays_catchable_and_reencodable(self):
        error = decode_error({"code": "quota_exceeded", "message": "nope",
                              "retry_after": 3})
        assert type(error) is GatewayError  # root class, still typed
        assert error.code == "quota_exceeded"  # preserved for re-encode
        assert error.retry_after == 3.0
        again = encode_error(error)["error"]
        assert again["code"] == "quota_exceeded"

    def test_garbage_error_payload_decodes_to_protocol_error(self):
        assert isinstance(decode_error("not a dict"),
                          GatewayProtocolError)
        weird = decode_error({"code": "rate_limited",
                              "retry_after": "soonish"})
        assert isinstance(weird, RateLimited)
        assert weird.retry_after is None  # junk hint dropped, not raised


class TestFraming:
    def test_roundtrip(self):
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame({"op": "stats", "id": 3}))
        assert frames == [{"op": "stats", "id": 3}]

    def test_byte_at_a_time(self):
        decoder = FrameDecoder()
        wire = encode_frame({"id": 1}) + encode_frame({"id": 2})
        collected = []
        for i in range(len(wire)):
            collected += decoder.feed(wire[i:i + 1])
        assert collected == [{"id": 1}, {"id": 2}]

    def test_oversized_prefix_rejected_before_buffering(self):
        decoder = FrameDecoder()
        with pytest.raises(GatewayProtocolError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))
        assert decoder.buffered == 0  # body never accumulates

    def test_oversized_body_refused_at_encode(self):
        with pytest.raises(GatewayProtocolError):
            encode_frame({"pad": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_utf8_body(self):
        decoder = FrameDecoder()
        with pytest.raises(GatewayProtocolError):
            decoder.feed(struct.pack("!I", 2) + b"\xff\xfe")

    def test_non_json_body(self):
        decoder = FrameDecoder()
        with pytest.raises(GatewayProtocolError):
            decoder.feed(struct.pack("!I", 4) + b"!!!!")

    def test_non_object_body(self):
        decoder = FrameDecoder()
        with pytest.raises(GatewayProtocolError):
            decoder.feed(frame_bytes([1, 2, 3]))

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder()
        with pytest.raises(GatewayProtocolError):
            decoder.feed(struct.pack("!I", 4) + b"!!!!")
        with pytest.raises(GatewayProtocolError):
            decoder.feed(encode_frame({"op": "stats"}))  # even valid bytes

    def test_eof_mid_frame(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"id": 1})[:-2])
        with pytest.raises(GatewayProtocolError):
            decoder.eof()

    def test_clean_eof(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame({"id": 1}))
        decoder.eof()  # no dangling bytes, no complaint


class TestCheckRequest:
    def test_every_op_passes(self):
        for op in OPS:
            assert check_request({"op": op, "id": 4}) == (op, 4)

    def test_unknown_op(self):
        with pytest.raises(GatewayProtocolError) as excinfo:
            check_request({"op": "teleport", "id": 4})
        assert "teleport" in str(excinfo.value)

    def test_missing_op(self):
        with pytest.raises(GatewayProtocolError):
            check_request({"id": 4})

    def test_non_integer_id(self):
        with pytest.raises(GatewayProtocolError):
            check_request({"op": "stats", "id": "four"})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10)


class TestDecoderNeverCrashes:
    """The fuzz half: arbitrary bytes, arbitrary chunking, one outcome."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=512),
           chunk=st.integers(min_value=1, max_value=64))
    def test_random_bytes(self, data, chunk):
        decoder = FrameDecoder()
        try:
            for i in range(0, len(data), chunk):
                decoder.feed(data[i:i + chunk])
            decoder.eof()
        except GatewayProtocolError:
            pass  # the ONLY exception framing may produce

    @settings(max_examples=100, deadline=None)
    @given(objs=st.lists(st.dictionaries(st.text(max_size=8), json_values,
                                         max_size=4), max_size=5),
           chunk=st.integers(min_value=1, max_value=64))
    def test_valid_frames_survive_any_chunking(self, objs, chunk):
        wire = b"".join(encode_frame(obj) for obj in objs)
        decoder = FrameDecoder()
        collected = []
        for i in range(0, len(wire), chunk):
            collected += decoder.feed(wire[i:i + chunk])
        decoder.eof()
        assert collected == objs

    @settings(max_examples=100, deadline=None)
    @given(obj=st.dictionaries(st.text(max_size=8), json_values,
                               max_size=4),
           junk=st.binary(min_size=1, max_size=64))
    def test_trailing_junk_cannot_unframe_earlier_frames(self, obj, junk):
        decoder = FrameDecoder()
        collected = list(decoder.feed(encode_frame(obj)))
        assert collected == [obj]
        try:
            decoder.feed(junk)
            decoder.eof()
        except GatewayProtocolError:
            pass
