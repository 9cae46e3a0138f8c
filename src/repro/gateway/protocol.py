"""The gateway's vocabulary on the shared wire: ops, version, errors.

Frames, correlation ids, fd grants and pushed exit notices are
:mod:`repro.wire`'s (``docs/WIRE.md``); this module is what the gateway
says over them.  Requests carry ``op`` (one of :data:`OPS`) and a
client-chosen correlation ``id``; replies echo the ``id`` and carry
either the op's result fields or an ``error`` object::

    {"id": 7, "op": "spawn", "reqs": [{"argv": ["/bin/true"]}], "nfds": 0}
    {"id": 7, "pids": [4242], "strategy": "forkserver-pool"}
    {"id": 9, "error": {"code": "rate_limited",
                        "message": "tenant 'a' over 50 req/s",
                        "retry_after": 0.02}}

``spawn`` is the one launch op: ``reqs`` holds N >= 1 members (one
child is a batch of one) and ``nfds`` (0, or 3 per member) their stdio
grant; the reply names the N pids in order and the tier that served
them.  One frame travels unasked: when a child exits, the daemon pushes
``{"exit": pid, "status": rc}`` (no ``id``) to the connection that
spawned it — never before the reply that hands out the pid — so reaping
costs no round trip.  ``wait`` survives as the non-blocking claim a
client makes after a reconnect: the status, or ``null`` with the notice
re-pointed at the asking connection.

A framing failure surfaces as
:class:`~repro.errors.GatewayProtocolError`; the server treats it as
fatal *to that connection only*: it answers with an error frame when a
correlation id is recoverable, closes the connection, and keeps serving
everyone else.

Error objects and the :class:`~repro.errors.GatewayError` hierarchy map
onto each other losslessly in both directions via :func:`encode_error`
and :func:`decode_error`; :data:`ERROR_CODES` is the single table both
directions share, so a new subclass cannot drift out of sync with the
wire.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from ..errors import (AuthError, GatewayCannotExpress, GatewayConnectionLost,
                      GatewayError, GatewayExecError, GatewayProtocolError,
                      Overloaded, RateLimited)

#: Every operation the daemon understands, and the protocol version the
#: ``hello`` handshake advertises.  ``ping`` is the liveness probe: it
#: is answered *before* auth (it leaks nothing beyond "a daemon speaks
#: this protocol here"), so a supervisor can health-check a daemon
#: without holding a tenant token.
OPS = ("hello", "ping", "spawn", "wait", "stats", "drain")
PROTOCOL_VERSION = 4

#: code -> exception class, the one authoritative table.  ``decode``
#: walks it by code, ``encode`` by (most-derived) class; the round-trip
#: test in tests/gateway walks it both ways.
ERROR_CODES: Dict[str, Type[GatewayError]] = {
    cls.code: cls
    for cls in (GatewayError, GatewayProtocolError, AuthError,
                RateLimited, Overloaded, GatewayConnectionLost,
                GatewayExecError, GatewayCannotExpress)
}


def encode_error(error: GatewayError, rid: Optional[int] = None) -> dict:
    """The wire object for ``error`` (the reply's ``error`` field).

    Any :class:`GatewayError` subclass encodes to its class ``code``;
    non-gateway exceptions are the caller's bug — wrap them first so
    the wire never carries an unnamed code.
    """
    payload: dict = {"code": error.code, "message": str(error)}
    if error.retry_after is not None:
        payload["retry_after"] = error.retry_after
    if isinstance(error, GatewayExecError):
        payload["errno"], payload["path"] = error.errno, error.path
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
    if cls is GatewayExecError:
        error.errno, error.path = payload.get("errno"), payload.get("path")
    return error


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
