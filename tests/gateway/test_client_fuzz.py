"""Property fuzz: the reply path of every client against a hostile peer.

The reader thread is the one place a malicious or corrupt peer touches
client memory, so it gets the adversarial treatment.  Both clients —
:class:`~repro.core.ForkServer` and :class:`~repro.gateway.GatewayClient`
— hold a :class:`repro.wire.Channel`, so the corpus is aimed at the
channel itself, over a socketpair, once in each client's configuration:
the peer swallows one request and answers with *arbitrary bytes*, then
hangs up.  Whatever arrives — junk framing, valid frames with junk
bodies, wrong correlation ids, malformed or unknown-pid ``exit``
notices, half frames then EOF — the property is the same:

* the blocked request returns within its deadline, with a reply that
  happened to be addressed to it or a **typed** error (the client's own
  ``lost`` type), never a hang and never a raw ``ValueError`` /
  ``struct.error`` escaping the reader;
* the reader thread dies quietly instead of crashing the process;
* the correlation map and the exit-slot table are empty afterwards (no
  stale entries, no slot opened for a pid nobody was handed).

The forkserver helper cannot import ``repro.wire`` and keeps its own
``recv_frame``; the same blobs are fed to it, and it may only return a
frame, report EOF, or raise ``ValueError``.
"""

import socket

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import forkserver, helper
from repro.core.result import encode_status
from repro.errors import GatewayConnectionLost, GatewayError, SpawnError
from repro.gateway import client as gateway_client
from repro.wire import Channel, encode_frame

TIMEOUT = 2.0

#: How each client builds its channel, and the error its callers catch.
CLIENTS = {
    "forkserver": dict(lost=SpawnError,
                       pids_of=forkserver._pids_handed_out),
    "gateway": dict(lost=GatewayConnectionLost,
                    pids_of=gateway_client._pids_handed_out,
                    exit_status=gateway_client._exit_status),
}


def _meet(name, request, blob):
    """One request on a fresh ``name`` channel whose peer answers with
    ``blob`` and hangs up; returns (channel, pending)."""
    ours, theirs = socket.socketpair()
    channel = Channel(ours, name, **CLIENTS[name])
    pending = channel.send(request)
    theirs.settimeout(TIMEOUT)
    theirs.recv(65536)  # the request under test
    theirs.sendall(blob)
    theirs.close()
    return channel, pending


def _exercise(blob):
    for name, config in CLIENTS.items():
        channel, pending = _meet(name, {"op": "stats"}, blob)
        try:
            try:
                reply = channel.result(pending, TIMEOUT)
            except config["lost"]:
                pass
            else:
                assert reply.get("id") == pending.rid
            channel.reader.join(timeout=TIMEOUT)
            assert not channel.reader.is_alive()
            assert channel.dead is not None
            assert channel.pending == {}
            assert channel.exits == {}
        finally:
            channel.close("test over", TIMEOUT)
    _exercise_helper(blob)


def _exercise_helper(blob):
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.settimeout(TIMEOUT)
        theirs.sendall(blob)
        theirs.shutdown(socket.SHUT_WR)
        try:
            request, fds = helper.recv_frame(ours, 3)
        except ValueError:
            return
        assert fds == []
        assert request is None or isinstance(request, dict)


@settings(max_examples=30, deadline=None)
@given(blob=st.binary(max_size=256))
def test_raw_bytes_never_hang_or_crash_the_reader(blob):
    _exercise(blob)


@settings(max_examples=30, deadline=None)
@given(payload=st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8))
def test_validly_framed_junk_is_still_typed(payload):
    """A well-framed reply whose body is arbitrary JSON: wrong ids,
    wrong shapes, junk error objects — all still typed errors."""
    _exercise(encode_frame(payload if isinstance(payload, dict)
                           else {"junk": payload}))


@settings(max_examples=20, deadline=None)
@given(data=st.binary(min_size=1, max_size=64),
       cut=st.integers(min_value=1, max_value=63))
def test_half_a_frame_then_eof_is_connection_lost(data, cut):
    """A frame truncated by EOF mid-body: the reader must translate
    the dangling bytes into a typed channel death."""
    frame = encode_frame({"id": 0, "pad": data.hex()})
    _exercise(frame[:min(cut, len(frame) - 1)])


@pytest.mark.parametrize("blob", [
    b"\xff\xff\xff\xff",                      # a 4 GiB length prefix
    b"\x00\x00\x00\x02\xc3\x28",              # framed, not UTF-8
    b"\x00\x00\x00\x07[1,2,3]",               # framed JSON, not an object
    b"\x00\x00\x00\x05{\"a\":",               # framed, not JSON
], ids=["oversized", "non-utf8", "non-object", "non-json"])
def test_each_framing_hazard_by_name(blob):
    """The named members of the corpus, so none depends on hypothesis
    finding it: every reader dies typed, and the helper's receive
    refuses each with ``ValueError``."""
    _exercise(blob)
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(blob)
        with pytest.raises(ValueError):
            helper.recv_frame(ours, 3)


_JUNK = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=8) | st.lists(st.integers(), max_size=2)
         | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


@settings(max_examples=40, deadline=None)
@given(notices=st.lists(
    st.fixed_dictionaries({"exit": _JUNK},
                          optional={"status": _JUNK, "error": _JUNK,
                                    "id": _JUNK}),
    min_size=1, max_size=4))
def test_malformed_and_unknown_pid_exit_notices(notices):
    """Exit notices for pids this client was never handed, with pids
    and statuses of every wrong shape (unhashable ones included): each
    is dropped or kills the channel typed — the reader never crashes,
    and no slot is ever opened from a notice."""
    _exercise(b"".join(encode_frame(notice) for notice in notices))


@settings(max_examples=30, deadline=None)
@given(status=_JUNK)
def test_junk_status_for_a_handed_out_pid_is_typed_and_frees_the_slot(
        status):
    """The notice for a pid the gateway client *does* hold: an integer
    status reaps, anything else is filed as a typed error — and either
    way the slot is gone afterwards and nobody waits past the notice."""
    channel, pending = _meet(
        "gateway", {"op": "spawn", "argv": ["x"]},
        encode_frame({"id": 0, "pid": 4242})
        + encode_frame({"exit": 4242, "status": status}))
    try:
        assert channel.result(pending, TIMEOUT)["pid"] == 4242
        filed = channel.wait_exit(4242, TIMEOUT)
        if type(status) is int:
            assert filed == encode_status(status)
        else:
            assert isinstance(filed, GatewayError)
            assert "lost the exit status" in str(filed)
        assert channel.exits == {} and channel.pending == {}
    finally:
        channel.close("test over", TIMEOUT)
