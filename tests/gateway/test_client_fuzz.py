"""Property fuzz: the reply path of every client against a hostile peer.

:meth:`Channel.pump <repro.wire.Channel.pump>` is the one place a
malicious or corrupt peer touches client memory, so it gets the
adversarial treatment.  Both clients —
:class:`~repro.core.ForkServer` and :class:`~repro.gateway.GatewayClient`
— hold a :class:`repro.wire.Channel`, so the corpus is aimed at the
channel itself, over a socketpair, in each client's configuration and
under each of the pump's three drivers: a reader thread, the blocked
callers themselves, and an asyncio loop the channel was handed over to.
The peer swallows the requests and answers with *arbitrary bytes*, then
hangs up.  Whatever arrives — junk framing, valid frames with junk
bodies, wrong correlation ids, malformed or unknown-pid ``exit``
notices, half frames then EOF — the property is the same:

* the blocked request returns within its deadline, with a reply that
  happened to be addressed to it or a **typed** error (the client's own
  ``lost`` type), never a hang and never a raw ``ValueError`` /
  ``struct.error`` escaping the pump;
* the channel dies quietly instead of crashing the process: a reader
  thread exits, a loop stops watching the socket;
* the correlation map and the exit-slot table are empty afterwards (no
  stale entries, no slot opened for a pid nobody was handed);
* a request that asked to be *told* (``Channel.notify``, what a caller
  that cannot block uses) is told exactly once — by a reply addressed to
  it or by the channel's death — never twice, never from under the
  channel's lock, and a callback that raises takes neither the driver
  nor the next request's callback with it.

The forkserver helper cannot import ``repro.wire`` and keeps its own
``recv_frame``; the same blobs are fed to it, and it may only return a
frame, report EOF, or raise ``ValueError``.
"""

import asyncio
import os
import select
import signal
import socket
import threading
import time

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

#: Who pumps: a reader thread, the blocked callers, an asyncio loop.
DRIVERS = ("thread", "caller", "loop")


class _Loop:
    """One asyncio loop on a thread of its own, for the tests to hand
    channels over to — the gateway daemon's driver, without a daemon."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="test-loop", daemon=True)
        self.thread.start()

    def run(self, fn, *args):
        """``fn(*args)`` on the loop's thread; its result."""
        done, out = threading.Event(), []
        self.loop.call_soon_threadsafe(
            lambda: (out.append(fn(*args)), done.set()))
        assert done.wait(TIMEOUT)
        return out[0]

    def hand_over(self, channel):
        return self.run(channel.hand_over, self.loop)


_LOOP = None


def loop_driver() -> _Loop:
    global _LOOP
    if _LOOP is None:
        _LOOP = _Loop()
    return _LOOP


def _open(name, driver):
    """A ``name`` channel pumped by ``driver``, and its peer's end."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(TIMEOUT)
    channel = Channel(ours, name, **CLIENTS[name])
    if driver == "thread":
        channel.hand_over()
    elif driver == "loop":
        assert loop_driver().hand_over(channel)
    channel.first_reader = channel.reader
    return channel, theirs


def _meet(name, requests, blob, driver="thread"):
    """``requests`` on a fresh ``name`` channel whose peer reads them
    all, answers with ``blob`` and hangs up; returns (channel, the
    pending of each)."""
    channel, theirs = _open(name, driver)
    pendings = [channel.send(request) for request in requests]
    decoder, seen = FrameDecoder(), 0
    while seen < len(requests):  # the requests under test
        seen += len(decoder.feed(theirs.recv(65536)))
    theirs.sendall(blob)
    theirs.close()
    return channel, pendings


def _settled(channel, driver):
    """Wait out the channel's death by ``driver``; the driver is idle
    afterwards.  The callers read only when they call, so the next call
    — here a pump of what is left — is what finds the hang-up."""
    if driver == "caller":
        while channel.pump():
            pass
    elif driver == "loop":
        assert loop_driver().run(lambda: channel._loop) is None
    if driver == "thread":
        channel.first_reader.join(timeout=TIMEOUT)
        assert not channel.first_reader.is_alive()
    else:
        assert channel.reader is None


class _Told:
    """A ``notify`` callback that counts its calls, notes the thread of
    each and whether the channel's lock was free each time."""

    def __init__(self, channel, raises=False):
        self.channel = channel
        self.raises = raises
        self.calls = 0
        self.threads = []
        self.lock_was_free = True
        self.done = threading.Event()

    def __call__(self):
        self.calls += 1
        self.threads.append(threading.current_thread())
        if self.channel._lock.acquire(blocking=False):
            self.channel._lock.release()
        else:
            self.lock_was_free = False
        self.done.set()
        if self.raises:
            raise RuntimeError("a callback that raises")


def _pumpers(channel, driver):
    """The threads that may route a frame of ``channel``: its driver's,
    and this one (a callback registered on a resolved request)."""
    here = threading.current_thread()
    if driver == "thread":
        return {here, channel.first_reader}
    if driver == "loop":
        return {here, loop_driver().thread}
    return {here}


def _exercise(blob):
    for name, config in CLIENTS.items():
        for driver in DRIVERS:
            _exercise_one(blob, name, config, driver)
    _exercise_helper(blob)


def _exercise_one(blob, name, config, driver):
    channel, (blocked, rude, told) = _meet(
        name, [{"op": "stats"}] * 3, blob, driver)
    try:
        # Registered after the blob is on its way: told by the driver,
        # or at once if it has already been by.
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
        _settled(channel, driver)
        assert channel.dead is not None
        assert channel.pending == {}
        assert channel.exits == {}
        for callback in callbacks:
            assert callback.done.wait(TIMEOUT)
            assert callback.calls == 1 and callback.lock_was_free
            assert set(callback.threads) <= _pumpers(channel, driver)
    finally:
        channel.close("test over", TIMEOUT)
    assert [callback.calls for callback in callbacks] == [1, 1]


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
    for driver in DRIVERS:
        channel, (pending,) = _meet(
            "gateway", [{"op": "spawn", "reqs": [{"argv": ["x"]}]}],
            encode_frame({"id": 0, "pids": [4242]})
            + encode_frame({"exit": 4242, "status": status}), driver)
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


@pytest.mark.parametrize("name", sorted(CLIENTS))
def test_frames_split_at_every_byte_boundary_across_pumps(name):
    """A reply, an exit notice and a second reply arrive one byte per
    pump: nothing is routed before its frame's last byte, everything is
    routed at it, in order — the decoder carries every partial frame
    from one pump to the next."""
    ours, theirs = socket.socketpair()
    channel = Channel(ours, name, **CLIENTS[name])
    try:
        spawn = channel.send({"op": "spawn", "reqs": [{"argv": ["x"]}]})
        ping = channel.send({"op": "ping"})
        handed = ({"results": [{"pid": 4242}]} if name == "forkserver"
                  else {"pids": [4242]})
        frames = [encode_frame(dict(handed, id=spawn.rid)),
                  encode_frame({"exit": 4242, "status": 0}),
                  encode_frame({"id": ping.rid, "ok": True})]
        ends = [sum(map(len, frames[:n + 1])) for n in range(3)]
        stream = b"".join(frames)
        for cut in range(1, len(stream) + 1):
            theirs.sendall(stream[cut - 1:cut])
            assert channel.pump()
            assert (spawn.reply is not None) == (cut >= ends[0])
            slot = channel.exits.get(4242)
            filed = slot is not None and slot.status is not None
            assert filed == (cut >= ends[1])
            assert (ping.reply is not None) == (cut >= ends[2])
        assert not channel.pump() and channel.dead is None
        assert channel.result(spawn, 0) == dict(handed, id=spawn.rid)
        assert channel.wait_exit(4242, 0) == 0
        assert channel.result(ping, 0)["ok"] is True
        assert channel.pending == {} and channel.exits == {}
    finally:
        channel.close("test over", TIMEOUT)
        theirs.close()


class TestNotify:
    """``Channel.notify`` by name, one resolution at a time."""

    @staticmethod
    def channel():
        ours, theirs = socket.socketpair()
        theirs.settimeout(TIMEOUT)
        channel = Channel(ours, "forkserver", **CLIENTS["forkserver"])
        channel.hand_over()  # a reader thread, as ForkServer has
        return channel, theirs

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


class TestHandOver:
    """``Channel.hand_over``: an asyncio loop takes a channel over from
    its reader thread, and gives it back — never two readers on the
    socket, never a socket closed under a loop that watches it."""

    @staticmethod
    def ping(channel, theirs):
        """One exchange; the thread that routed its reply."""
        pending = channel.send({"op": "ping"})
        routed = []
        channel.notify(pending, lambda: routed.append(
            threading.current_thread()))
        theirs.sendall(encode_frame({"id": pending.rid, "ok": True}))
        assert channel.result(pending, TIMEOUT)["ok"] is True
        return routed[0]

    def test_a_parked_reader_leaves_the_socket_to_the_loop(self):
        """The reader, parked in its pump's ``recv``, is not interrupted:
        it routes the frames that next wake it, finds the loop in charge
        and exits — and from then on the loop routes everything."""
        loop = loop_driver()
        channel, theirs = TestNotify.channel()
        parked = channel.reader
        try:
            deadline = time.monotonic() + TIMEOUT
            while (not channel._pump_lock.locked()  # in its recv
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert loop.hand_over(channel)
            assert parked.is_alive()
            assert self.ping(channel, theirs) is parked
            parked.join(TIMEOUT)
            assert not parked.is_alive() and channel.reader is None
            assert self.ping(channel, theirs) is loop.thread
            assert self.ping(channel, theirs) is loop.thread
            assert loop.hand_over(channel)  # already the loop's
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_handed_back_a_reader_thread_pumps_again(self):
        loop = loop_driver()
        channel, theirs = TestNotify.channel()
        try:
            assert loop.hand_over(channel)
            self.ping(channel, theirs)  # the parked reader's last
            assert self.ping(channel, theirs) is loop.thread
            assert loop.run(channel.hand_over, None)
            assert channel._loop is None and channel.reader.is_alive()
            assert self.ping(channel, theirs) is channel.reader
            # Not watched any more: the loop has nothing left to remove.
            assert loop.run(loop.loop.remove_reader, channel._fd) is False
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_no_fd_is_closed_while_a_loop_watches_it(self):
        """close() from another thread while the loop watches the socket
        leaves it open; the loop stops watching, then closes it — so a
        new socket given the same number is never mistaken for it."""
        loop = loop_driver()
        channel, theirs = TestNotify.channel()
        fd = channel.sock.fileno()
        try:
            assert loop.hand_over(channel)
            busy = threading.Event()
            loop.loop.call_soon_threadsafe(busy.wait, TIMEOUT)
            channel.close("closed under the loop", TIMEOUT)
            assert channel.sock.fileno() == fd  # the loop watches it
            busy.set()
            deadline = time.monotonic() + TIMEOUT
            while (loop.run(lambda: channel._loop) is not None
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert channel._loop is None and channel.sock.fileno() == -1
            assert loop.run(loop.loop.remove_reader, fd) is False
            # The number is free, and whoever gets it next is its owner.
            fresh, theirs2 = TestNotify.channel()
            try:
                assert loop.hand_over(fresh)
                self.ping(fresh, theirs2)
                assert self.ping(fresh, theirs2) is loop.thread
            finally:
                fresh.close("test over", TIMEOUT)
                theirs2.close()
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_callers_read_their_own_channel(self):
        """A channel nobody was handed has no reader: the caller blocked
        on a reply leads, the others follow, and every one of them gets
        its own reply."""
        ours, theirs = socket.socketpair()
        channel = Channel(ours, "gateway", **CLIENTS["gateway"])
        try:
            assert channel.reader is None
            pendings = [channel.send({"op": "ping", "n": n}) for n in range(4)]
            replies = {}

            def wait(pending):
                replies[pending.rid] = channel.result(pending, TIMEOUT)

            threads = [threading.Thread(target=wait, args=(pending,))
                       for pending in pendings]
            for thread in threads:
                thread.start()
            for pending in reversed(pendings):  # answered out of order
                theirs.sendall(encode_frame({"id": pending.rid, "ok": True}))
            for thread in threads:
                thread.join(TIMEOUT)
            assert sorted(replies) == [p.rid for p in pendings]
            assert all(reply["ok"] for reply in replies.values())
            assert channel.pending == {} and not channel._leading
        finally:
            channel.close("test over", TIMEOUT)
            theirs.close()

    def test_a_reply_routed_before_the_leader_polls_still_wakes_it(self):
        """Only a leader pumps a channel its callers read.  The injected
        poller holds the leader between its check and its ``poll`` while
        its reply arrives and another caller sends; a send that pumped
        outside the lead would route that reply there, and the leader
        would sleep in ``poll`` until its timeout."""
        ours, theirs = socket.socketpair()
        channel = Channel(ours, "gateway", **CLIENTS["gateway"])
        in_gap, go = threading.Event(), threading.Event()
        real = select.poll()
        real.register(ours, select.POLLIN)

        class HeldPoller:
            def poll(self, timeout):
                in_gap.set()
                go.wait(TIMEOUT)
                return real.poll(timeout)

        channel._poller = HeldPoller()
        try:
            pending = channel.send({"op": "ping"})
            took = {}

            def lead():
                start = time.monotonic()
                took["reply"] = channel.result(pending, 2.0)
                took["seconds"] = time.monotonic() - start

            leader = threading.Thread(target=lead)
            leader.start()
            assert in_gap.wait(TIMEOUT)
            theirs.sendall(encode_frame({"id": pending.rid, "ok": True}))
            channel.send({"op": "ping"})  # its pre-pump must not read
            go.set()
            leader.join(TIMEOUT + 1)
            assert took["reply"]["ok"] is True
            assert took["seconds"] < 1.0
        finally:
            go.set()
            channel.close("test over", TIMEOUT)
            theirs.close()


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
