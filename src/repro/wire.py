"""The one wire: framing, descriptor passing and the pipelined channel.

Everything in ``repro`` that talks to another process over a stream
socket — :class:`~repro.core.forkserver.ForkServer` and
:class:`~repro.core.templates.TemplateServer` to their helper,
:class:`~repro.gateway.client.GatewayClient` to the daemon, the daemon
and its supervisor back — speaks the dialect defined here (spec:
``docs/WIRE.md``):

* a **frame** is a 4-byte big-endian length and that many bytes of
  UTF-8 JSON encoding one object (:func:`encode_frame`,
  :class:`FrameDecoder`), bounded by :data:`MAX_FRAME_BYTES`;
* **descriptors** ride next to a frame as one ``SCM_RIGHTS`` message
  (:func:`send_buffers`) and are received close-on-exec
  (:func:`recv_with_fds`);
* a :class:`Channel` pipelines request/reply exchanges over one socket
  by correlation id and files the exit notices the peer pushes.

The forkserver helper (``core/helper.py``) cannot import ``repro`` — it
must stay pristine and cheap to fork — so it carries the one permitted
second implementation of the framing, fuzzed with the same corpus.
"""

from __future__ import annotations

import array
import json
import logging
import math
import operator
import select
import socket
import struct
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import GatewayProtocolError, SpawnError, SpawnTimeout
from .faults import FAULTS

_LEN = struct.Struct("!I")
_LOG = logging.getLogger(__name__)

#: Hard ceiling on one frame's body.  A spawn_batch of a few hundred
#: members is a few hundred KiB of JSON; anything past this is either a
#: corrupt length prefix or an abusive peer, and buffering it would let
#: one connection hold the reader's memory hostage.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Linux caps one SCM_RIGHTS control message at SCM_MAX_FD descriptors;
#: a batch's grants all ride in one message, so this bounds batch size
#: (3 stdio fds per member).  Receivers size their ancillary buffer to
#: match — anything past it would be silently truncated by the kernel.
SCM_MAX_FD = 253

_RECV_BYTES = 65536  # what one read asks the socket for
_FD_SIZE = array.array("i").itemsize
_FD_BUFFER = socket.CMSG_SPACE(SCM_MAX_FD * _FD_SIZE)

#: The largest frame a sender that must not wait will try to send.  A
#: stream socket may take part of a frame and make the sender wait to
#: place the rest; Linux queues up to 32 KiB (and a page) as one buffer,
#: which a non-blocking ``sendmsg`` places whole or not at all.
_NOWAIT_BYTES = 32768


# -- codec -------------------------------------------------------------------


def encode_body(obj: dict, rid: int) -> bytes:
    """A request's frame body: full JSON encode, correlation id added."""
    return json.dumps(dict(obj, id=rid), separators=(",", ":")).encode("utf-8")


def _header(body: bytes) -> bytes:
    """The length prefix for ``body`` — refused if no reader would take it."""
    if len(body) > MAX_FRAME_BYTES:
        raise GatewayProtocolError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
        )
    return _LEN.pack(len(body))


def encode_frame(obj: dict) -> bytes:
    """One wire frame: length prefix plus the JSON body."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _header(body) + body


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get frames out.

    The decoder owns all framing hazards so a read loop never sees them
    as anything but :class:`GatewayProtocolError`:

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
            limit = self._max_frame
            raise self._poison(f"frame length {length} exceeds the {limit}-byte limit (corrupt?)")
        end = _LEN.size + length
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_LEN.size : end])
        del self._buffer[:end]
        try:
            frame = json.loads(body.decode("utf-8"))
        except UnicodeDecodeError:
            raise self._poison("frame body is not valid UTF-8") from None
        except ValueError:
            raise self._poison("frame body is not valid JSON") from None
        if not isinstance(frame, dict):
            raise self._poison(f"frame body must be a JSON object, got {type(frame).__name__}")
        return frame

    def eof(self) -> None:
        """Declare end of stream; raises if bytes were left mid-frame."""
        if self._error is not None:
            raise self._error
        if self._buffer:
            pending = len(self._buffer)
            raise self._poison(f"connection closed mid-frame with {pending} bytes pending")


# -- descriptor passing ------------------------------------------------------


def send_buffers(
    sock: socket.socket, buffers: Sequence[bytes], fds: Sequence[int] = (), flags: int = 0
) -> None:
    """Write ``buffers`` as ONE ``sendmsg``, ``fds`` riding along.

    The kernel gathers the iovecs, so header and body are never
    concatenated (a full copy of every frame) and two writers can never
    interleave their halves; the rare partial-write tail is drained
    through a ``memoryview`` so resends slice without copying either.
    An ``OSError`` means the frame did not fully leave: a partial frame
    can never be parsed, so the peer provably did not act on it.
    ``flags`` go to that first ``sendmsg`` only (``MSG_DONTWAIT``: a
    ``BlockingIOError`` means not one byte left).
    """
    ancdata = []
    if fds:
        ancdata = [(socket.SOL_SOCKET, socket.SCM_RIGHTS, array.array("i", fds).tobytes())]
    sent = sock.sendmsg(buffers, ancdata, flags)
    if sent < sum(map(len, buffers)):  # fds already went with the head
        rest = memoryview(b"".join(buffers))[sent:]
        while rest:
            rest = rest[sock.send(rest) :]


def recv_with_fds(sock: socket.socket) -> Tuple[bytes, List[int]]:
    """One ``recvmsg``: the bytes plus every descriptor granted with
    them.  Grants arrive close-on-exec — whoever launches a child
    ``dup2``s exactly the ones it means to pass, and nothing else leaks
    across an exec."""
    data, ancdata, _flags, _addr = sock.recvmsg(_RECV_BYTES, _FD_BUFFER, socket.MSG_CMSG_CLOEXEC)
    fds = array.array("i")
    for level, ctype, payload in ancdata:
        if level == socket.SOL_SOCKET and ctype == socket.SCM_RIGHTS:
            fds.frombytes(payload[: len(payload) - len(payload) % _FD_SIZE])
    return data, list(fds)


# -- the pipelined channel ---------------------------------------------------


class Pending:
    """One in-flight request's future: an event plus its eventual reply
    (``None`` once the event is set means the channel died first), and
    a callback if someone asked to be told (:meth:`Channel.notify`)."""

    __slots__ = ("rid", "request", "event", "reply", "callback")

    def __init__(self, rid: int, request: dict):
        self.rid = rid
        self.request = request
        self.event = threading.Event()
        self.reply: Optional[dict] = None
        self.callback: Optional[Callable[[], None]] = None


class Exit:
    """One handed-out child's exit slot: the status once the peer has
    pushed it, an event if a caller is blocked waiting for it, and a
    callback if one asked to be told (``ChildProcess.on_exit``)."""

    __slots__ = ("status", "event", "callback")

    def __init__(self):
        self.status = None
        self.event: Optional[threading.Event] = None
        self.callback: Optional[Callable[[], None]] = None


class Channel:
    """Pipelined request/reply over one connected stream socket.

    Every request carries a correlation id and many may be in flight at
    once: :meth:`send` (one ``sendmsg`` under a small send lock) pairs
    with :meth:`pump`, which reads what the socket holds and routes each
    reply to its request's :class:`Pending`, so concurrent callers never
    wait on each other's round trips.  The peer also *pushes*
    ``{"exit": pid, "status": s}`` notices; each is filed in the pid's
    :class:`Exit` slot, which :meth:`pump` opened while routing the
    reply that handed the pid out — so a notice can never overtake its
    own registration, and one for a pid no caller was given is dropped,
    not stored.

    One :meth:`pump`, three drivers — whoever reads, it is this code:

    * **the blocked callers**, on a new channel: whoever waits for a
      reply or an exit leads, polling and pumping for everyone until
      its own frame is in, while the others follow on a condition (one
      leader at a time, under the channel's lock).  Only a leader
      pumps: every :meth:`send` first pumps what is ready, so a peer
      that hung up is noticed before a frame is put on its wire, and
      :meth:`close` files the notices that have already arrived — each
      taking the lead while it is free, and reading nothing while a
      leader holds it;
    * a **reader thread** (:meth:`hand_over` with no loop) parks in
      :meth:`pump`'s ``recv`` and routes whatever wakes it;
    * an **asyncio loop** the channel is handed to (:meth:`hand_over`)
      watches the socket with ``add_reader`` and pumps on its own
      thread — a reader thread routes what next wakes it, finds the
      loop in charge and exits, and a reader gets the channel back when
      the loop lets go.

    A channel dies once (damaged frame, EOF, send failure, :meth:`close`)
    and stays dead: every pending request, blocked waiter and callback
    (:meth:`notify`, :meth:`watch`) is woken, filled exit slots stay
    readable, and whoever owns the channel dials a new one — a stale
    reader can only ever poison the object it was born with.

    Callbacks run on whichever thread resolves them — the pumping one,
    or the one that killed the channel — never under the channel's
    lock, and one that raises is logged and costs nobody else anything.
    A callback must not pump its own channel.

    What differs between peers is injected, never branched on: ``name``
    prefixes the ``<name>.frame`` fault point, the reader thread and
    messages; ``lost`` builds the error a dead channel raises;
    ``pids_of(request, reply)`` says which pids a reply hands out;
    ``exit_status(notice)`` decodes a pushed notice into what waiters
    get; and each :meth:`send` takes its body encoder.
    """

    def __init__(
        self,
        sock: socket.socket,
        name: str,
        *,
        lost: Callable[[str], Exception],
        pids_of: Callable[[dict, dict], Iterable],
        exit_status: Callable[[dict], object] = operator.itemgetter("status"),
    ):
        self.sock = sock
        self.name = name
        self._frame_point = f"{name}.frame"
        self._lost = lost
        self._pids_of = pids_of
        self._exit_status = exit_status
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pump_lock = threading.Lock()  # one reader of the socket at a time
        self._decoder = FrameDecoder()
        self._next_id = 0
        self.pending: Dict[int, Pending] = {}
        # pid -> slot for every child handed to a caller and not yet
        # reaped by it.
        self.exits: Dict[int, Exit] = {}
        self.waiting = 0  # callers blocked in wait_exit right now
        self.dead: Optional[str] = None  # why the channel died, once it has
        self.closed = False
        # The blocked callers read until the channel is handed over to
        # a reader thread or to an asyncio loop (then the fd it watches).
        self._callers_read = True
        self.reader: Optional[threading.Thread] = None
        self._loop = None
        self._fd = -1
        # Caller-driven reading: whether one caller leads, how many
        # follow, and the condition they follow on.
        self._leading = False
        self._following = 0
        self._turn = threading.Condition(self._lock)
        self._poller: Optional[select.poll] = None

    def _start_reader(self) -> None:
        self.reader = threading.Thread(target=self._read, name=f"{self.name}-reader", daemon=True)
        self.reader.start()

    @property
    def in_flight(self) -> int:
        """Requests awaiting replies plus callers blocked on an exit."""
        with self._lock:
            return len(self.pending) + self.waiting

    def _lose(self, message: str, unsent: bool) -> Exception:
        error = self._lost(f"{self.name} {message}")
        # A request that provably never reached the peer is safe to
        # re-issue; one lost after it was sent is ambiguous.
        error.unsent = unsent
        return error

    # -- requests --------------------------------------------------------

    def send(
        self,
        obj: dict,
        fds: Sequence[int] = (),
        encode: Callable[[dict, int], bytes] = encode_body,
        wait: bool = True,
    ) -> Optional[Pending]:
        """Register one request and put it on the wire.

        ``encode(obj, rid)`` builds the frame body.  The pending entry
        is popped on every failure path here and on every exit path of
        :meth:`result`, so a late reply can never be written into a dead
        waiter and the table cannot accumulate stale entries.

        ``wait=False`` is for a thread that must not block (an event
        loop): where the send would have to wait — the peer has stopped
        reading and the socket is full, another sender holds the wire,
        the frame is too big to leave in one piece — it returns ``None``
        instead, with nothing sent and nothing pending, and the caller
        sends again from a thread that may wait.

        Where the callers read and none leads, what is ready is pumped
        first: a peer that hung up is noticed here, and the request is
        refused as ``unsent`` rather than lost after it was sent.
        """
        self._pump_ready()
        with self._lock:
            if self.dead is not None:
                raise self._lose(f"channel is dead: {self.dead}", True)
            rid = self._next_id
            self._next_id += 1
            pending = self.pending[rid] = Pending(rid, obj)
        sent = False
        try:
            body = encode(obj, rid)
            buffers = [_header(body), body]
            fault = FAULTS.fire(self._frame_point, op=obj.get("op"))
            if fault is not None:
                buffers, fds = self._damage(fault, b"".join(buffers), fds)
            try:
                if wait:
                    with self._send_lock:
                        send_buffers(self.sock, buffers, fds)
                    sent = True
                else:
                    sent = self._send_nowait(buffers, fds)
            except OSError as exc:
                self.fail(str(exc) or type(exc).__name__)
                raise self._lose(f"channel failed: {exc}", True) from exc
        finally:
            if not sent:
                with self._lock:
                    self.pending.pop(rid, None)
        return pending if sent else None

    def _send_nowait(self, buffers: Sequence[bytes], fds: Sequence[int]) -> bool:
        """Send one frame if that takes no waiting; whether it left."""
        if sum(map(len, buffers)) > _NOWAIT_BYTES or not self._send_lock.acquire(False):
            return False
        try:
            send_buffers(self.sock, buffers, fds, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        finally:
            self._send_lock.release()
        return True

    def _damage(self, fault, frame: bytes, fds: Sequence[int]):
        """Chaos path: interpret a ``<name>.frame`` fault by its kind —
        break the transport under the send that follows, or damage the
        frame on its way out (truncate, corrupt, strip the grant).
        Mutation needs the contiguous frame, so only this path pays the
        copy."""
        if fault.kind == "conn_reset":
            # The send that follows fails like a peer RST.
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        elif fault.kind == "partial_frame":
            try:
                with self._send_lock:
                    self.sock.send(frame[: max(1, len(frame) // 2)])
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.fail("injected fault: partial frame")
            raise self._lose("injected fault: connection died mid-frame", True)
        message, fds = fault.mutate_frame(frame, fds)
        return [message], fds

    def result(self, pending: Pending, timeout: Optional[float] = None) -> dict:
        """Wait (at most ``timeout`` seconds) for ``pending``'s reply."""
        try:
            if self._callers_read:
                replied = self._await(lambda: self.pending.get(pending.rid) is not pending, timeout)
            else:
                replied = pending.event.wait(timeout)
            if not replied:
                op = pending.request.get("op")
                raise SpawnTimeout(
                    f"{self.name} request {pending.rid} ({op}) exceeded its {timeout}s deadline"
                )
            if pending.reply is None:
                raise self._lose(f"channel died before replying: {self.dead}", False)
            return pending.reply
        finally:
            with self._lock:
                self.pending.pop(pending.rid, None)

    def notify(self, pending: Pending, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, when :meth:`result` would no longer
        wait for ``pending`` — from the reader thread as it routes the
        reply, or from whichever thread kills the channel (``result``
        then raises the loss) — now, if that has already happened.  The
        reply's counterpart of :meth:`watch`, for a caller that must not
        block; registered after the send, so a send that raises never
        also calls back."""
        with self._lock:
            if self.pending.get(pending.rid) is pending:
                pending.callback = callback
                return
        callback()

    # -- reading: one pump, three drivers -------------------------------

    def pump(self, wait: bool = False) -> bool:
        """Read what the socket holds — one ``recv`` — and route every
        frame it completes; whether anything was read.  It does not
        wait for bytes unless ``wait`` says so (the reader thread's
        form: it parks here).  EOF, a damaged frame or a read error
        kills the channel, and a dead channel reads nothing more.  Safe
        from any thread: one pump reads at a time, so frames are routed
        in the order they arrived whoever drives."""
        with self._pump_lock:
            if self.dead is not None:
                return False
            try:
                data = self.sock.recv(_RECV_BYTES, 0 if wait else socket.MSG_DONTWAIT)
            except (BlockingIOError, InterruptedError):
                return False
            except Exception as exc:
                self.fail(str(exc) or type(exc).__name__)
                return False
            try:
                if not data:
                    self._decoder.eof()
                    raise EOFError("peer hung up")
                for frame in self._decoder.feed(data):
                    self._route(frame)
            except Exception as exc:
                self.fail(str(exc) or type(exc).__name__)
                return False
            return True

    def _read(self) -> None:
        """The reader thread: pump, parked in the ``recv`` — until the
        channel dies, or a loop has taken it over (then the frames that
        woke it are its last)."""
        while True:
            with self._lock:
                if self._loop is not None:
                    self.reader = None  # the loop's now; hand_over(None) starts another
                    return
            if not self.pump(wait=True):
                return

    def _await(self, done: Callable[[], bool], timeout: Optional[float]) -> bool:
        """Where the callers read: block until ``done()`` (checked under
        the lock) or ``timeout``; whether it is done.  With no leader,
        this caller leads — it polls the socket and pumps, routing every
        frame for everyone, until its own is in; otherwise it follows,
        waking when a frame is filed or the lead falls free."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not done():
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                if self._leading:
                    self._following += 1
                    try:
                        self._turn.wait(remaining)
                    finally:
                        self._following -= 1
                    continue
                self._leading = True
                self._lock.release()
                try:
                    if self._poller is None:
                        self._poller = select.poll()
                        self._poller.register(self.sock, select.POLLIN)
                    self._poller.poll(None if remaining is None else math.ceil(remaining * 1000))
                    self.pump()
                finally:
                    self._lock.acquire()
                    self._leading = False
                    if self._following:
                        self._turn.notify_all()
            return True

    def _pump_ready(self, drain: bool = False) -> None:
        """Where the callers read, pump what is ready (all of it, with
        ``drain``) — as their leader, since only a leader pumps: a frame
        routed outside the lead could be a leader's reply, filed between
        its check and its ``poll``, leaving it asleep with its reply in.
        With the lead taken this reads nothing: that leader reads
        everything anyway."""
        if not self._callers_read:  # a handed-over channel: no lock
            return
        with self._lock:
            if not self._callers_read or self._leading:
                return
            self._leading = True
        try:
            while self.pump() and drain:
                pass
        finally:
            with self._lock:
                self._leading = False
                if self._following:
                    self._turn.notify_all()

    def hand_over(self, loop=None) -> bool:
        """Who pumps this channel from now on.  A new channel is read by
        its blocked callers; hand it over before any of them waits (a
        caller already leading is not interrupted).

        Given an asyncio ``loop`` (call it on the loop's thread), the
        loop does: it watches the socket (``add_reader``) and pumps
        whenever it is readable.  A reader thread, parked in its pump,
        routes what next wakes it, finds the loop in charge and exits;
        a loop pump waits for that one to end — the channel never has
        two readers.  ``False``, and nothing changes, when the channel
        is dead, closed, or another loop has it.

        Given ``None``, a reader thread does.  A loop that has the
        channel lets go first (call it on that loop's thread): it stops
        watching the socket, then a reader takes over — or, if the
        channel was closed meanwhile, the socket is closed here, so no
        fd is ever closed while a loop still watches it.
        """
        if loop is None:
            self._unwatch()
            return True
        with self._lock:
            if self._loop is not None or self.closed or self.dead is not None:
                return self._loop is loop
            self._callers_read = False
            self._loop = loop
            self._fd = self.sock.fileno()
        loop.add_reader(self._fd, self._on_readable)
        return True

    def _on_readable(self) -> None:
        """The loop's driver: pump; a channel that died stops being watched."""
        self.pump()
        if self.dead is not None:
            self._unwatch()

    def _unwatch(self) -> None:
        """Stop a loop watching the socket (on its thread), then give the
        channel to a reader thread — or, if it was closed while the loop
        watched it, close its socket."""
        loop = self._loop
        if loop is not None:
            loop.remove_reader(self._fd)
        with self._lock:
            self._loop = None
            self._callers_read = False
            if self.closed:
                if loop is not None:
                    self.sock.close()
            elif self.dead is None and self.reader is None:
                self._start_reader()

    def _route(self, frame: dict) -> None:
        """File one incoming frame: a reply resolves its request's
        future (opening exit slots for the pids it hands out before its
        caller wakes), an exit notice fills its pid's slot and wakes
        whoever waits on it.  A frame of the wrong shape raises into
        :meth:`pump`'s channel-death path."""
        event = callback = None
        with self._lock:
            if "exit" in frame:
                slot = self.exits.get(frame["exit"])
                if slot is not None:
                    slot.status = self._exit_status(frame)
                    event = slot.event
                    callback, slot.callback = slot.callback, None
            else:
                pending = self.pending.pop(frame.get("id"), None)
                if pending is not None:
                    for pid in self._pids_of(pending.request, frame):
                        if type(pid) is not int:
                            continue
                        # A live slot is kept (someone may be waiting on
                        # it); a filled one is a recycled pid's past.
                        slot = self.exits.get(pid)
                        if slot is None or slot.status is not None:
                            self.exits[pid] = Exit()
                    pending.reply = frame
                    event = pending.event
                    callback, pending.callback = pending.callback, None
                elif "error" in frame and frame.get("id") is None:
                    # An un-addressed error is the peer saying the
                    # *stream* is broken: every request on it is lost.
                    raise ConnectionError(f"peer reported a broken stream: {frame['error']}")
            if self._following:
                self._turn.notify_all()
        if event is not None:
            event.set()
        if callback is not None:
            self._call(callback)

    def _call(self, callback: Callable[[], None]) -> None:
        """Run one :meth:`notify` / :meth:`watch` callback, outside the
        lock.  It is somebody else's code on the thread every other
        request depends on: a raise is logged, not propagated."""
        try:
            callback()
        except Exception:
            _LOG.exception("%s channel: callback %r raised", self.name, callback)

    def fail(self, why: str) -> None:
        """Mark the channel dead and wake every stranded caller —
        requests awaiting replies, waiters awaiting exits and the
        callbacks of both alike.  Exit slots still empty go with the
        channel; filled ones stay for their owners to read."""
        with self._lock:
            if self.dead is None:
                self.dead = why
            stranded = []
            for pending in self.pending.values():
                # Taken, not copied: a callback that holds its own
                # request must not keep it alive as a cycle.
                stranded.append((pending.event, pending.callback))
                pending.callback = None
            self.pending.clear()
            empty = [slot for slot in self.exits.values() if slot.status is None]
            stranded += [(slot.event, slot.callback) for slot in empty]
            self.exits = {pid: slot for pid, slot in self.exits.items() if slot.status is not None}
            if self._following:
                self._turn.notify_all()
        for event, callback in stranded:
            if event is not None:
                event.set()
            if callback is not None:
                self._call(callback)

    def close(self, why: str, join_timeout: float = 5.0) -> bool:
        """Hang up and fail everything in flight *before* joining the
        reader, so no waiter stays blocked across a shutdown; where the
        callers read, the notices that have already arrived are filed
        first.  The socket is closed here once no reader can touch it —
        or, if a loop watches it, by the loop once it has stopped
        watching.  Returns whether the reader thread is gone."""
        self._pump_ready(drain=True)
        with self._lock:
            self.closed = True
            watched = self._loop is not None
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes whoever waits on it
        except OSError:
            pass
        self.fail(why)
        reader = self.reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=join_timeout)
        if not watched:
            self.sock.close()
        return reader is None or not reader.is_alive()

    # -- pushed exits ----------------------------------------------------

    def wait_exit(self, pid: int, timeout: Optional[float]):
        """The status pushed for ``pid``, after a wait of at most
        ``timeout`` seconds (``None``: until it exits or the channel
        dies; ``0``: only what has already arrived).  Where the callers
        read, what has arrived is pumped first: a notice pushed while
        nobody called costs one ``recv``, no ``poll``.  ``None`` means not
        exited (yet);
        ``KeyError`` that this channel holds no slot for the pid — never
        handed out here, already reaped, or dropped by the channel's
        death.  Nothing goes on the wire."""
        self._pump_ready()
        with self._lock:
            slot = self.exits[pid]
            wait = slot.status is None and timeout != 0
            if wait:
                self.waiting += 1
                if slot.event is None and not self._callers_read:
                    slot.event = threading.Event()
        if wait:
            try:
                if self._callers_read:
                    self._await(
                        lambda: slot.status is not None or self.exits.get(pid) is not slot, timeout
                    )
                else:
                    slot.event.wait(timeout)
            finally:
                with self._lock:
                    self.waiting -= 1
        with self._lock:
            if slot.status is not None and self.exits.get(pid) is slot:
                del self.exits[pid]
            return slot.status

    def forget(self, pid: int) -> None:
        """Drop ``pid``'s slot: its status reached the caller another way."""
        with self._lock:
            self.exits.pop(pid, None)

    def watch(self, pid: int, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, from whichever thread files the
        pid's exit notice (or the channel's death) — now, if there is
        nothing to wait for."""
        with self._lock:
            slot = self.exits.get(pid)
            if slot is not None and slot.status is None:
                if slot.callback is not None:
                    raise SpawnError(f"pid {pid} already has an on_exit callback")
                slot.callback = callback
                return
        callback()
