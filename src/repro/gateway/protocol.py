"""The gateway wire protocol: length-prefixed JSON, typed both ways.

A frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding one object.  Requests carry ``op`` (one of
:data:`OPS`) and a client-chosen correlation ``id``; replies echo the
``id`` and carry either the op's result fields or an ``error`` object::

    {"id": 7, "op": "spawn", "argv": ["/bin/true"], "nfds": 0}
    {"id": 7, "pid": 4242}
    {"id": 9, "error": {"code": "rate_limited",
                        "message": "tenant 'a' over 50 req/s",
                        "retry_after": 0.02}}

One frame travels unasked: when a child exits, the daemon pushes
``{"exit": pid, "status": rc}`` (no ``id``) to the connection that
spawned it — never before the reply that hands out the pid — so reaping
costs no round trip.  ``wait`` survives as the non-blocking claim a
client makes after a reconnect: the status, or ``null`` with the notice
re-pointed at the asking connection.

Everything that can go wrong at the framing layer — truncated or
oversized length prefixes, non-UTF-8 bodies, junk JSON, a body that is
not an object — surfaces as :class:`~repro.errors.GatewayProtocolError`
from :class:`FrameDecoder`, never as a raw ``ValueError`` or
``struct.error``.  The server treats a protocol error as fatal *to that
connection only*: it answers with an error frame when a correlation id
is recoverable, closes the connection, and keeps serving everyone else.

Error objects and the :class:`~repro.errors.GatewayError` hierarchy map
onto each other losslessly in both directions via :func:`encode_error`
and :func:`decode_error`; :data:`ERROR_CODES` is the single table both
directions share, so a new subclass cannot drift out of sync with the
wire.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterator, List, Optional, Tuple, Type

from ..errors import (AuthError, GatewayConnectionLost, GatewayError,
                      GatewayProtocolError, Overloaded, RateLimited)

_LEN = struct.Struct("!I")

#: Hard ceiling on one frame's body.  A spawn_batch of a few hundred
#: members is a few hundred KiB of JSON; anything past this is either a
#: corrupt length prefix or an abusive client, and buffering it would
#: let one connection hold the daemon's memory hostage.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Every operation the daemon understands, and the protocol version the
#: ``hello`` handshake advertises.  ``ping`` is the liveness probe: it
#: is answered *before* auth (it leaks nothing beyond "a daemon speaks
#: this protocol here"), so a supervisor can health-check a daemon
#: without holding a tenant token.
OPS = ("hello", "ping", "spawn", "spawn_batch", "lease", "wait", "stats",
       "drain")
PROTOCOL_VERSION = 2

#: code -> exception class, the one authoritative table.  ``decode``
#: walks it by code, ``encode`` by (most-derived) class; the round-trip
#: test in tests/gateway walks it both ways.
ERROR_CODES: Dict[str, Type[GatewayError]] = {
    cls.code: cls
    for cls in (GatewayError, GatewayProtocolError, AuthError,
                RateLimited, Overloaded, GatewayConnectionLost)
}


def encode_frame(obj: dict) -> bytes:
    """One wire frame: length prefix plus the JSON body."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise GatewayProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    return _LEN.pack(len(body)) + body


def encode_error(error: GatewayError, rid: Optional[int] = None) -> dict:
    """The wire object for ``error`` (the reply's ``error`` field).

    Any :class:`GatewayError` subclass encodes to its class ``code``;
    non-gateway exceptions are the caller's bug — wrap them first so
    the wire never carries an unnamed code.
    """
    payload: dict = {"code": error.code, "message": str(error)}
    if error.retry_after is not None:
        payload["retry_after"] = error.retry_after
    reply: dict = {"error": payload}
    if rid is not None:
        reply["id"] = rid
    return reply


def decode_error(payload: dict) -> GatewayError:
    """The exception a reply's ``error`` object denotes.

    Unknown codes decode to the root :class:`GatewayError` (a newer
    daemon may grow codes an older client has no class for; the client
    still gets a typed, catchable error instead of a crash).
    """
    if not isinstance(payload, dict):
        return GatewayProtocolError(
            f"malformed error payload: {payload!r}")
    code = payload.get("code", "gateway")
    message = payload.get("message", code)
    retry_after = payload.get("retry_after")
    if retry_after is not None:
        try:
            retry_after = float(retry_after)
        except (TypeError, ValueError):
            retry_after = None
    cls = ERROR_CODES.get(code, GatewayError)
    error = cls(str(message), retry_after=retry_after)
    error.code = code  # preserve an unknown code across a re-encode
    return error


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get frames out.

    The decoder owns all framing hazards so the server loop never sees
    them as anything but :class:`GatewayProtocolError`:

    * a length prefix above :attr:`max_frame` (corrupt or abusive) is
      rejected the moment the 4 prefix bytes arrive — the body is never
      buffered;
    * a body that is not valid UTF-8, not valid JSON, or not a JSON
      *object* is rejected when complete;
    * truncation (EOF mid-frame) is the *caller's* question — call
      :meth:`eof` and it answers whether bytes were left dangling.

    After an error the decoder is poisoned: the stream can no longer be
    trusted to align on a frame boundary, so every later call raises
    the same error.  One decoder per connection.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max_frame = max_frame
        self._error: Optional[GatewayProtocolError] = None

    @property
    def buffered(self) -> int:
        """Bytes received but not yet yielded as frames."""
        return len(self._buffer)

    def _poison(self, message: str) -> GatewayProtocolError:
        self._error = GatewayProtocolError(message)
        self._buffer.clear()
        return self._error

    def feed(self, data: bytes) -> List[dict]:
        """Consume ``data``; return every frame it completed (maybe [])."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        frames: List[dict] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[dict]:
        if len(self._buffer) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buffer)
        if length > self._max_frame:
            raise self._poison(
                f"frame length {length} exceeds the {self._max_frame}-byte "
                f"limit (corrupt prefix?)")
        if len(self._buffer) < _LEN.size + length:
            return None
        body = bytes(self._buffer[_LEN.size:_LEN.size + length])
        del self._buffer[:_LEN.size + length]
        try:
            frame = json.loads(body.decode("utf-8"))
        except UnicodeDecodeError:
            raise self._poison("frame body is not valid UTF-8") from None
        except ValueError:
            raise self._poison("frame body is not valid JSON") from None
        if not isinstance(frame, dict):
            raise self._poison(
                f"frame body must be a JSON object, got "
                f"{type(frame).__name__}")
        return frame

    def eof(self) -> None:
        """Declare end of stream; raises if bytes were left mid-frame."""
        if self._error is not None:
            raise self._error
        if self._buffer:
            raise self._poison(
                f"connection closed mid-frame with {len(self._buffer)} "
                f"bytes pending")

    def __iter__(self) -> Iterator[dict]:  # pragma: no cover - convenience
        return iter(())


def check_request(frame: dict) -> Tuple[str, Optional[int]]:
    """Validate a decoded request frame; returns ``(op, id)``.

    Raises :class:`GatewayProtocolError` for a missing or unknown op or
    a non-integer id — with the id echoed back when it *is* usable, so
    the server can still address the error reply.
    """
    rid = frame.get("id")
    if rid is not None and not isinstance(rid, int):
        raise GatewayProtocolError(f"request id must be an integer, "
                                   f"got {rid!r}")
    op = frame.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise GatewayProtocolError(
            f"unknown op {op!r}; this gateway speaks {', '.join(OPS)}")
    return op, rid
