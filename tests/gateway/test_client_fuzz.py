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
  stale entries, no slot opened for a pid nobody was handed);
* a request that asked to be *told* (``Channel.notify``, what a caller
  that cannot block uses) is told exactly once — by a reply addressed to
  it or by the channel's death — never twice, never from under the
  channel's lock, and a callback that raises takes neither the reader
  nor the next request's callback with it.

The forkserver helper cannot import ``repro.wire`` and keeps its own
``recv_frame``; the same blobs are fed to it, and it may only return a
frame, report EOF, or raise ``ValueError``.
"""

import os
import signal
import socket
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import forkserver, helper
from repro.core.result import encode_status
from repro.errors import GatewayConnectionLost, GatewayError, SpawnError
from repro.gateway import client as gateway_client
from repro.wire import Channel, FrameDecoder, encode_frame

TIMEOUT = 2.0

#: How each client builds its channel, and the error its callers catch.
CLIENTS = {
    "forkserver": dict(lost=SpawnError,
                       pids_of=forkserver._pids_handed_out),
    "gateway": dict(lost=GatewayConnectionLost,
                    pids_of=gateway_client._pids_handed_out,
                    exit_status=gateway_client._exit_status),
}


def _meet(name, requests, blob):
    """``requests`` on a fresh ``name`` channel whose peer reads them
    all, answers with ``blob`` and hangs up; returns (channel, the
    pending of each)."""
    ours, theirs = socket.socketpair()
    channel = Channel(ours, name, **CLIENTS[name])
    pendings = [channel.send(request) for request in requests]
    theirs.settimeout(TIMEOUT)
    decoder, seen = FrameDecoder(), 0
    while seen < len(requests):  # the requests under test
        seen += len(decoder.feed(theirs.recv(65536)))
    theirs.sendall(blob)
    theirs.close()
    return channel, pendings


class _Told:
    """A ``notify`` callback that counts its calls and notes whether
    the channel's lock was free each time."""

    def __init__(self, channel, raises=False):
        self.channel = channel
        self.raises = raises
        self.calls = 0
        self.lock_was_free = True
        self.done = threading.Event()

    def __call__(self):
        self.calls += 1
        if self.channel._lock.acquire(blocking=False):
            self.channel._lock.release()
        else:
            self.lock_was_free = False
        self.done.set()
        if self.raises:
            raise RuntimeError("a callback that raises")


def _exercise(blob):
    for name, config in CLIENTS.items():
        channel, (blocked, rude, told) = _meet(
            name, [{"op": "stats"}] * 3, blob)
        try:
            # Registered after the blob is on its way: told by the
            # reader, or at once if the reader has already been by.
            callbacks = [_Told(channel, raises=True), _Told(channel)]
            try:
                channel.notify(rude, callbacks[0])
            except RuntimeError:
                pass  # already resolved: it raised into our own call
            channel.notify(told, callbacks[1])
            for pending in (blocked, rude, told):
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
            for callback in callbacks:
                assert callback.done.wait(TIMEOUT)
                assert callback.calls == 1 and callback.lock_was_free
        finally:
            channel.close("test over", TIMEOUT)
        assert [callback.calls for callback in callbacks] == [1, 1]
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


def test_a_null_env_launches_from_a_plain_dict(monkeypatch):
    """``env: null`` must reach ``os.posix_spawn`` as the helper's own
    copy, a ``dict`` — never ``os.environ``, a ``Mapping`` the call
    walks key by key through Python — and ``{}`` as itself, empty."""
    launched = []

    def posix_spawn(path, argv, env, file_actions):
        launched.append(env)
        return 4242

    monkeypatch.setattr(helper.os, "posix_spawn", posix_spawn)
    ours, theirs = socket.socketpair()
    handler = signal.getsignal(signal.SIGCHLD)
    loop = helper.Helper(ours, {})
    try:
        for env in (None, {}):
            reply = loop.op_spawn(
                {"reqs": [{"argv": ["/bin/true"], "env": env, "nfds": 3}]},
                [os.dup(0), os.dup(1), os.dup(2)])
            assert reply["results"][0]["pid"] == 4242
    finally:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, handler)
        helper.close_all([loop.rwake, loop.wwake])
        ours.close()
        theirs.close()
    assert type(launched[0]) is dict and launched[0] == dict(os.environ)
    assert launched[0] is loop.environ and launched[1] == {}


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
    channel, (pending,) = _meet(
        "gateway", [{"op": "spawn", "reqs": [{"argv": ["x"]}]}],
        encode_frame({"id": 0, "pids": [4242]})
        + encode_frame({"exit": 4242, "status": status}))
    try:
        assert channel.result(pending, TIMEOUT)["pids"] == [4242]
        filed = channel.wait_exit(4242, TIMEOUT)
        if type(status) is int:
            assert filed == encode_status(status)
        else:
            assert isinstance(filed, GatewayError)
            assert "lost the exit status" in str(filed)
        assert channel.exits == {} and channel.pending == {}
    finally:
        channel.close("test over", TIMEOUT)


class TestNotify:
    """``Channel.notify`` by name, one resolution at a time."""

    @staticmethod
    def channel():
        ours, theirs = socket.socketpair()
        theirs.settimeout(TIMEOUT)
        return Channel(ours, "forkserver", **CLIENTS["forkserver"]), theirs

    def test_a_reply_tells_it_from_the_reader_thread(self):
        channel, theirs = self.channel()
        try:
            pending = channel.send({"op": "ping"})
            threads, told = [], _Told(channel)
            channel.notify(pending, lambda: (
                threads.append(threading.current_thread()), told()))
            assert told.calls == 0
            theirs.sendall(encode_frame({"id": pending.rid, "ok": True}))
            assert told.done.wait(TIMEOUT)
            assert threads == [channel.reader] and told.lock_was_free
            assert channel.result(pending, 0)["ok"] is True
            channel.close("test over", TIMEOUT)  # ...and death is not a 2nd
            assert told.calls == 1
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    @pytest.mark.parametrize("how", ["eof", "close"])
    def test_the_channels_death_tells_it_and_result_raises_the_loss(
            self, how):
        channel, theirs = self.channel()
        try:
            pending = channel.send({"op": "ping"})
            told = _Told(channel)
            channel.notify(pending, told)
            if how == "eof":
                theirs.close()
            else:
                channel.close("closed under it", TIMEOUT)
            assert told.done.wait(TIMEOUT)
            assert told.calls == 1 and told.lock_was_free
            with pytest.raises(SpawnError) as excinfo:
                channel.result(pending, 0)
            assert not getattr(excinfo.value, "unsent", False)
            channel.close("again", TIMEOUT)
            assert told.calls == 1
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_already_resolved_is_told_at_once_on_the_asking_thread(self):
        channel, theirs = self.channel()
        try:
            pending = channel.send({"op": "ping"})
            theirs.sendall(encode_frame({"id": pending.rid, "ok": True}))
            assert pending.event.wait(TIMEOUT)
            told = _Told(channel)
            channel.notify(pending, told)
            assert told.calls == 1 and told.lock_was_free
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_a_raising_callback_costs_nobody_else_anything(self, caplog):
        """Not the reader, not the request routed next, not the exit
        notice after it — and the raise is logged, not lost."""
        channel, theirs = self.channel()
        try:
            first = channel.send({"op": "spawn"})
            second = channel.send({"op": "ping"})
            rude, told, exited = (_Told(channel, raises=True),
                                  _Told(channel), _Told(channel, raises=True))
            channel.notify(first, rude)
            channel.notify(second, told)
            theirs.sendall(encode_frame({"id": first.rid,
                                         "results": [{"pid": 4242}]})
                           + encode_frame({"id": second.rid, "ok": True}))
            assert told.done.wait(TIMEOUT) and rude.calls == 1
            channel.watch(4242, exited)
            theirs.sendall(encode_frame({"exit": 4242, "status": 0}))
            assert exited.done.wait(TIMEOUT)
            assert channel.wait_exit(4242, 0) == 0
            assert channel.reader.is_alive() and channel.dead is None
            third = channel.send({"op": "ping"})
            theirs.sendall(encode_frame({"id": third.rid, "ok": True}))
            assert channel.result(third, TIMEOUT)["ok"] is True
            assert "a callback that raises" in caplog.text
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_a_send_that_fails_never_calls_back(self):
        """Registration follows the send, so there is nothing to tell:
        the raise is the resolution."""
        channel, theirs = self.channel()
        try:
            theirs.close()
            channel.reader.join(timeout=TIMEOUT)
            with pytest.raises(SpawnError) as excinfo:
                channel.send({"op": "ping"})
            assert excinfo.value.unsent is True and channel.pending == {}
        finally:
            channel.close("test over", TIMEOUT)


class TestSendWithoutWaiting:
    """``Channel.send(wait=False)``: what a thread that must not block
    (the gateway's loop) sends with — the frame leaves at once and
    whole, or not one byte of it does and nothing is left pending."""

    @staticmethod
    def frames_from(theirs, count):
        decoder, frames = FrameDecoder(), []
        while len(frames) < count:
            frames += decoder.feed(theirs.recv(65536))
        return frames

    def test_a_peer_that_stops_reading_gets_none_not_a_blocked_sender(self):
        channel, theirs = TestNotify.channel()
        try:
            ballast = "x" * 8192
            sent = []
            while True:  # nobody reads: the socket fills
                pending = channel.send({"op": "ping", "pad": ballast},
                                       wait=False)
                if pending is None:
                    break
                sent.append(pending)
                assert len(sent) < 10_000
            assert sent and sorted(channel.pending) == [p.rid for p in sent]
            # Every frame that left left whole; the peer drains them and
            # there is room again.
            frames = self.frames_from(theirs, len(sent))
            assert [frame["id"] for frame in frames] == [p.rid for p in sent]
            again = channel.send({"op": "ping", "pad": ballast}, wait=False)
            assert again is not None
            assert self.frames_from(theirs, 1)[0]["id"] == again.rid
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_a_frame_too_big_for_one_piece_is_never_tried(self):
        channel, theirs = TestNotify.channel()
        try:
            big = {"op": "ping", "pad": "x" * 40_000}
            assert channel.send(big, wait=False) is None
            assert channel.pending == {}
            pending = channel.send(big)  # a sender that may wait sends it
            assert self.frames_from(theirs, 1)[0]["id"] == pending.rid
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_a_wire_another_sender_holds_is_not_waited_for(self):
        channel, theirs = TestNotify.channel()
        try:
            with channel._send_lock:
                assert channel.send({"op": "ping"}, wait=False) is None
            assert channel.pending == {}
            assert channel.send({"op": "ping"}, wait=False) is not None
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_a_dead_peer_still_raises_the_loss(self):
        channel, theirs = TestNotify.channel()
        try:
            theirs.close()
            channel.reader.join(timeout=TIMEOUT)
            with pytest.raises(SpawnError) as excinfo:
                channel.send({"op": "ping"}, wait=False)
            assert excinfo.value.unsent is True and channel.pending == {}
        finally:
            channel.close("test over", TIMEOUT)
