"""A forkserver: fork from a pristine template, not from the real parent.

This is the mitigation the paper credits to Android's zygote and
``multiprocessing``'s ``forkserver`` start method: since fork's cost and
hazards both scale with the *parent*, keep a tiny, single-threaded,
nothing-mapped helper process around and ask *it* to fork.  The parent's
gigabytes of heap and threads never matter; the helper's do, and it has
none.

The server is spawned once (via ``posix_spawn``, naturally) running a
self-contained Python script.  The control channel is a Unix-domain
socket pair carrying length-prefixed JSON; stdio descriptors travel
alongside spawn requests as SCM_RIGHTS ancillary data, so children can be
wired into pipelines exactly like directly spawned ones.

The channel is **pipelined**: every request carries a correlation id and
many requests may be in flight on the one socket at once.  A writer path
(serialised by a small send lock, one ``sendmsg`` per request) pairs with
a dedicated reader thread that dispatches replies to per-request futures,
so concurrent callers never wait on each other's round-trips — the
property a spawn *service* needs to sustain traffic.  ``pipelined=False``
recreates the historical one-lock-per-roundtrip behaviour, kept as the
measured baseline for the ``t5-throughput`` experiment.

One child costs **one** round trip and the helper never forks itself on
the hot path: it launches with ``posix_spawn`` (the paper's advice,
applied to our own helper) and *pushes* an exit notice the moment it
reaps a child, so ``wait()`` is an event wait on the pid's slot and
``poll()`` a dictionary lookup — there is no wait request on the wire.
"""

from __future__ import annotations

import array
import json
import os
import select
import signal
import socket
import struct
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import SpawnError, SpawnTimeout
from ..faults import FAULTS
from ..obs import NULL_TRACE, TELEMETRY
from .framecache import FrameCache, frame_key
from .result import ChildProcess

_LEN = struct.Struct("!I")

# Linux caps one SCM_RIGHTS control message at SCM_MAX_FD descriptors;
# a batch's grants all ride in one message, so this bounds batch size
# (3 stdio fds per member).  The helper sizes its ancillary buffer to
# match — anything past it would be silently truncated by the kernel.
_SCM_MAX_FD = 253

#: The helper's entire program.  Deliberately dependency-free: it must
#: stay importable-nothing so its fork cost is the floor, not the
#: parent's.
#:
#: The helper is an event loop, never a blocker: it selects on the
#: control socket plus a SIGCHLD wakeup pipe, and the moment the kernel
#: delivers SIGCHLD it reaps the zombie and PUSHES an unsolicited
#: ``{"exit": pid, "status": s}`` frame to the client.  Reaping costs the
#: client no request at all — one child is one wire round trip (its
#: spawn) — and spawns for other callers keep flowing meanwhile: a
#: blocking waitpid here would stall every in-flight request behind one
#: caller's child.
_SERVER_SOURCE = r"""
import array, json, os, select, signal, socket, struct, sys, time

LEN = struct.Struct("!I")
sock = socket.socket(fileno=int(sys.argv[1]))
# The control channel arrived inheritable (it had to survive our own
# exec).  Flip it back so the children *we* spawn can never inherit it:
# a child holding the socket would keep the service "connected" after
# the real client is gone, and could read its traffic.
os.set_inheritable(sock.fileno(), False)
# Shed every other inherited descriptor.  A helper can be started at
# any moment — including mid-spawn, while the client holds inheritable
# pipe ends for some unrelated child — and any such descriptor we kept
# would hold that pipe open forever (no EOF) and leak into everything
# we fork.  Children receive exactly the stdio triple granted per
# request, nothing else.
keep = sock.fileno()
try:
    inherited = [int(name) for name in os.listdir("/proc/self/fd")]
except (FileNotFoundError, ValueError):
    inherited = list(range(3, 4096))
for fd in inherited:
    if fd > 2 and fd != keep:
        try:
            os.close(fd)
        except OSError:
            pass

# Injected faults, compiled from the client's active FaultPlan (see
# repro.faults).  Spec: "kind:seconds:times:after" entries, comma
# separated; times -1 means unlimited.  Popped so the children we
# spawn never inherit the spec.
FAULT_SPECS = {}
for _spec in os.environ.pop("REPRO_HELPER_FAULTS", "").split(","):
    if not _spec:
        continue
    _parts = _spec.split(":")
    FAULT_SPECS[_parts[0]] = [
        float(_parts[1]) if len(_parts) > 1 and _parts[1] else 0.0,
        int(_parts[2]) if len(_parts) > 2 and _parts[2] else -1,
        int(_parts[3]) if len(_parts) > 3 and _parts[3] else 0,
    ]

def fault(name):
    # Arm one occurrence of an injected fault; returns its seconds
    # argument when it fires, None otherwise.
    spec = FAULT_SPECS.get(name)
    if spec is None:
        return None
    if spec[2] > 0:
        spec[2] -= 1
        return None
    if spec[1] == 0:
        return None
    if spec[1] > 0:
        spec[1] -= 1
    return spec[0]

# SIGCHLD -> a byte on this pipe -> select wakes -> zombies reaped.
# Created after the descriptor sweep; pipe fds are CLOEXEC so spawned
# children never see them.
rwake, wwake = os.pipe()
os.set_blocking(wwake, False)
signal.signal(signal.SIGCHLD, lambda signum, frame: None)
signal.set_wakeup_fd(wwake)

#<EXT:GLOBALS>  (specialised helpers splice extra state/functions here)

def recv_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise SystemExit(0)
        buf += chunk
    return buf

def recv_request():
    # Grants arrive close-on-exec: only the dup2'd 0-2 survive a child's
    # exec, so no child inherits a batch sibling's (or any later
    # request's) stdio by accident — fork leaks by default, we must not.
    fds = array.array("i")
    msg, ancdata, flags, addr = sock.recvmsg(
        LEN.size, socket.CMSG_LEN(253 * fds.itemsize),
        socket.MSG_CMSG_CLOEXEC)
    if not msg:
        raise SystemExit(0)
    for level, ctype, data in ancdata:
        if level == socket.SOL_SOCKET and ctype == socket.SCM_RIGHTS:
            fds.frombytes(data[:len(data) - len(data) % fds.itemsize])
    if len(msg) < LEN.size:
        msg += recv_exact(LEN.size - len(msg))
    (length,) = LEN.unpack(msg)
    body = recv_exact(length)
    try:
        request = json.loads(body)
    except ValueError:
        # A corrupt frame means the channel can no longer be trusted
        # (the next bytes may be mid-frame garbage).  Exit cleanly; the
        # client sees EOF, fails its pending requests, and replaces us.
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass
        raise SystemExit(70)
    return request, list(fds)

def send_reply(rid, obj):
    obj["id"] = rid
    body = json.dumps(obj).encode()
    sock.sendall(LEN.pack(len(body)) + body)

def reap(push=True):
    # Collect every zombie and push each exit to the client at once, all
    # in one write; never block.  The client files a notice under the
    # pid (or drops it: parked template stock nobody leased).
    delay = fault("delay_sigchld")
    if delay:
        time.sleep(delay)
    frames = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
        body = b'{"exit":%d,"status":%d}' % (pid, status)
        frames.append(LEN.pack(len(body)) + body)
    if frames and push:
        try:
            sock.sendall(b"".join(frames))
        except OSError:
            raise SystemExit(0)  # the client is gone: nobody left to tell

def which(name, env):
    # What execvpe did for a bare name: first executable hit on the
    # REQUEST's PATH when it replaces the environment, ours otherwise.
    # None sends the request down the fork path, which fails the way it
    # always has (the child exits 127).
    if "/" in name:
        return name
    path = (env if env is not None else os.environ).get("PATH", os.defpath)
    for entry in path.split(os.pathsep):
        candidate = os.path.join(entry, name)
        if os.access(candidate, os.X_OK) and not os.path.isdir(candidate):
            return candidate
    return None

def spawn_one(req, grant):
    # Launch one request whose stdio triple is ``grant`` and close the
    # grant on our side.  posix_spawn with dup2 file actions: no fork of
    # this interpreter, and the reply leaves after the child's exec.
    # fork -> chdir -> exec survives for the one thing posix_spawn cannot
    # express (cwd) and as the fallback for a failed spawn, so a missing
    # binary is still a child that exits 127.  Raises OSError with the
    # grant still open if even the fork fails (EAGAIN under pid
    # pressure) — the caller owns cleanup so a batch can account for
    # every member.
    argv = req["argv"]
    env = req.get("env")
    pid = 0
    path = None if req.get("cwd") else which(argv[0], env)
    if path is not None:
        try:
            pid = os.posix_spawn(
                path, argv, env if env is not None else os.environ,
                file_actions=[(os.POSIX_SPAWN_DUP2, fd, target)
                              for target, fd in enumerate(grant)])
        except OSError:
            pass
    if not pid:
        pid = os.fork()
        if pid == 0:
            try:
                for target, fd in enumerate(grant):  # stdio triple
                    os.dup2(fd, target)
                if req.get("cwd"):
                    os.chdir(req["cwd"])
                os.execvpe(argv[0], argv,
                           env if env is not None else os.environ)
            except BaseException:
                os._exit(127)
    t_spawn = time.monotonic_ns()
    for fd in grant:
        os.close(fd)
    return pid, t_spawn

running = True
while running:
    ready, _, _ = select.select([sock, rwake], [], [])
    if rwake in ready:
        try:
            os.read(rwake, 512)
        except OSError:
            pass
    reap()
    if sock not in ready:
        continue
    request, fds = recv_request()
    stall = fault("stall_helper")
    if stall:
        time.sleep(stall)
    op = request["op"]
    rid = request.get("id")
    if op == "ping":
        send_reply(rid, {"ok": True})
    elif op == "shutdown":
        send_reply(rid, {"ok": True})
        running = False
    elif op == "spawn":
        want = request.get("nfds")
        if want is not None and len(fds) != want:
            # The SCM_RIGHTS grant went missing (or partially arrived):
            # spawning now would wire the child to OUR stdio.  Refuse
            # loudly; the client retries with a fresh grant.
            for fd in fds:
                os.close(fd)
            send_reply(rid, {"error": "EPROTO: expected %d fds, got %d"
                                      % (want, len(fds))})
        elif fault("refuse_exec") is not None:
            for fd in fds:
                os.close(fd)
            send_reply(rid, {"error":
                             "EACCES: exec refused (injected fault)"})
        else:
            pid, t_spawn = spawn_one(request, fds)
            # The client's trace id rides next to the correlation id;
            # echo it with our spawned-at timestamp (exec done on the
            # posix_spawn path; CLOCK_MONOTONIC is system-wide on Linux,
            # so the client can splice it into its own timeline).
            reply = {"pid": pid, "t_fork_ns": t_spawn}
            if request.get("trace") is not None:
                reply["trace"] = request["trace"]
            send_reply(rid, reply)
    elif op == "batch":
        # N spawns, one frame, one reply: the whole batch's fd grants
        # arrived concatenated in request order (member i's stdio triple
        # is the next reqs[i]["nfds"] fds).  All-or-nothing: a grant
        # mismatch or a failed fork refuses/undoes the ENTIRE batch so
        # the client never has to guess which members ran.
        reqs = request.get("reqs") or []
        want = sum(r.get("nfds", 0) for r in reqs)
        if not reqs or len(fds) != want:
            for fd in fds:
                os.close(fd)
            send_reply(rid, {"error": "EPROTO: batch of %d expected %d "
                                      "fds, got %d"
                                      % (len(reqs), want, len(fds))})
        elif fault("refuse_exec") is not None:
            for fd in fds:
                os.close(fd)
            send_reply(rid, {"error":
                             "EACCES: batch exec refused (injected fault)"})
        else:
            results = []
            error = None
            offset = 0
            for req in reqs:
                nfds = req.get("nfds", 0)
                grant = fds[offset:offset + nfds]
                offset += nfds
                try:
                    pid, t_spawn = spawn_one(req, grant)
                except OSError as exc:
                    error = ("EAGAIN: batch member %d failed to fork: %s"
                             % (len(results), exc))
                    for fd in grant + fds[offset:]:
                        try:
                            os.close(fd)
                        except OSError:
                            pass
                    break
                results.append({"pid": pid, "t_fork_ns": t_spawn})
            if error is not None:
                # Undo the partial batch: no silent survivors.  These
                # pids were spawned moments ago and nothing has waited on
                # them (reap() only runs between loop iterations), so
                # kill+waitpid here is race-free — and no exit notice
                # goes out for a pid the client was never told about.
                for res in results:
                    try:
                        os.kill(res["pid"], signal.SIGKILL)
                    except OSError:
                        pass
                for res in results:
                    try:
                        os.waitpid(res["pid"], 0)
                    except OSError:
                        pass
                send_reply(rid, {"error": error})
            else:
                send_reply(rid, {"results": results})
    #<EXT:OPS>  (specialised helpers splice extra elif branches here)
    else:
        send_reply(rid, {"error": "bad op"})
#<EXT:SHUTDOWN>  (specialised helpers splice teardown here)
# Shutdown: sweep whatever already exited so no zombie outlives the
# service by our hand; still-running children are init's from here.
# Nothing is pushed: the client has hung up.
reap(push=False)
"""


class _Pending:
    """One in-flight request's future: an event plus its eventual reply.

    ``children`` marks a request whose reply hands pids to a caller
    (spawn, batch, lease): whoever routes the reply opens an exit slot
    per pid *before* reading the next frame, so a pushed exit can never
    overtake its own registration.
    """

    __slots__ = ("event", "reply", "children")

    def __init__(self, children: bool = False):
        self.event = threading.Event()
        self.reply: Optional[dict] = None
        self.children = children


class _Exit:
    """One handed-out child's exit slot: the raw status once the helper
    has pushed it, an event if a caller is blocked waiting for it, and
    a callback if one asked to be told (``ChildProcess.on_exit``)."""

    __slots__ = ("status", "event", "callback")

    def __init__(self):
        self.status: Optional[int] = None
        self.event: Optional[threading.Event] = None
        self.callback: Optional[Callable[[], None]] = None


class SpawnRequest:
    """One member of a batched spawn: argv plus its per-child wiring.

    The batch wire op ships N of these in a single frame; each member's
    stdio triple travels in the shared SCM_RIGHTS grant, concatenated in
    request order.  Plain sequences of argv strings are accepted anywhere
    a batch is taken — :func:`SpawnRequest.coerce` wraps them.
    """

    __slots__ = ("argv", "env", "cwd", "stdin", "stdout", "stderr")

    def __init__(self, argv: Sequence[str], *,
                 env: Optional[Dict[str, str]] = None,
                 cwd: Optional[str] = None,
                 stdin: int = 0, stdout: int = 1, stderr: int = 2):
        if not argv:
            raise SpawnError("empty argv in batch member")
        self.argv = [os.fspath(a) for a in argv]
        self.env = env
        self.cwd = cwd
        self.stdin = stdin
        self.stdout = stdout
        self.stderr = stderr

    @classmethod
    def coerce(cls, item: Union["SpawnRequest", Sequence[str]],
               **defaults) -> "SpawnRequest":
        if isinstance(item, cls):
            return item
        return cls(item, **defaults)

    def wire(self) -> dict:
        """The member's share of the batch frame (fds travel separately)."""
        return {"argv": self.argv, "env": self.env, "cwd": self.cwd,
                "nfds": 3}

    def grant(self) -> tuple:
        return (self.stdin, self.stdout, self.stderr)

    def __repr__(self):
        return f"<SpawnRequest {self.argv!r}>"


class ForkServer:
    """Handle on one running forkserver helper.

    Start it early — before the parent grows threads and ballast — and
    every later :meth:`spawn` costs a fork *of the helper*, not of you.
    Usable as a context manager, and safe to share across threads: in
    the default pipelined mode concurrent requests interleave on the one
    socket and are matched back to callers by correlation id.
    """

    #: Seconds the goodbye exchange in :meth:`stop` may take before the
    #: helper is presumed wedged and torn down forcibly.
    shutdown_timeout: float = 2.0

    #: Seconds the boot handshake in :meth:`start` may take.  A helper
    #: that never answers its first ping (damaged frame, wedged loop)
    #: must fail the start loudly, not hang the caller forever.
    start_timeout: float = 10.0

    def __init__(self, *, pipelined: bool = True, frame_cache: int = 256):
        self._sock: Optional[socket.socket] = None
        self._pid: Optional[int] = None
        self._pipelined = bool(pipelined)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        # pid -> slot for every child handed to a caller and not yet
        # reaped by it; exit notices for any other pid are dropped.
        self._exits: Dict[int, _Exit] = {}
        self._waiting = 0  # callers blocked in _reap right now
        self._next_id = 0
        self._reader: Optional[threading.Thread] = None
        self._dead: Optional[str] = None  # why the channel died, once it has
        # Preserialized frames for repeated spawn shapes; 0 disables.
        self._frames: Optional[FrameCache] = (
            FrameCache(frame_cache) if frame_cache else None)

    @property
    def frame_cache(self) -> Optional[FrameCache]:
        """The frame LRU (``None`` when disabled) — for stats and tests."""
        return self._frames

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._sock is not None

    @property
    def pipelined(self) -> bool:
        return self._pipelined

    @property
    def helper_pid(self) -> Optional[int]:
        """The helper process's pid (``None`` when stopped)."""
        return self._pid

    @property
    def healthy(self) -> bool:
        """Running with a live channel (goes ``False`` if the helper dies)."""
        return self._sock is not None and self._dead is None

    @property
    def in_flight(self) -> int:
        """Requests awaiting replies plus callers blocked in ``wait()``."""
        with self._state_lock:
            return len(self._pending) + self._waiting

    @classmethod
    def _server_source(cls) -> str:
        """The helper program :meth:`start` boots.

        Subclasses override this to splice extra state and wire ops into
        the ``#<EXT:...>`` markers of :data:`_SERVER_SOURCE` — the event
        loop, framing, reaping, and fault plumbing stay shared.
        """
        return _SERVER_SOURCE

    def start(self) -> "ForkServer":
        """Launch the helper (idempotent)."""
        if self.running:
            return self
        self._dead = None
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        os.set_inheritable(theirs.fileno(), True)
        env = dict(os.environ)
        helper_faults = FAULTS.helper_spec()
        if helper_faults:
            # The active FaultPlan wants faults *inside* this helper
            # (stall_helper, delay_sigchld, refuse_exec@helper); they
            # ride in as an env spec the helper parses and then drops.
            env["REPRO_HELPER_FAULTS"] = helper_faults
        self._pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-c", self._server_source(),
             str(theirs.fileno())],
            env)
        theirs.close()
        self._sock = ours
        if self._pipelined:
            self._reader = threading.Thread(
                target=self._read_replies, args=(ours,),
                name=f"forkserver-reader-{self._pid}", daemon=True)
            self._reader.start()
        try:
            ping = self._roundtrip({"op": "ping"},
                                   timeout=self.start_timeout)
            if ping.get("ok") is not True:
                raise SpawnError("forkserver failed its first ping")
        except Exception:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Shut the helper down cleanly and reap it — in bounded time.

        The goodbye exchange runs under :attr:`shutdown_timeout`; a
        helper that is wedged (stalled event loop, mid-frame) cannot
        stall the caller.  In-flight pipelined requests are resolved
        with :class:`SpawnError` *before* the reader is joined, so no
        waiter stays blocked across a shutdown, and a helper that does
        not exit within the reap grace period is SIGKILLed.
        """
        sock = self._sock
        if sock is not None:
            try:
                self._roundtrip({"op": "shutdown"},
                                timeout=self.shutdown_timeout)
            except Exception:
                pass
            self._sock = None
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wake a blocked reader
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._fail_pending("forkserver stopped")
        reader, self._reader = self._reader, None
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5.0)
        self._reap_helper()

    def abort(self) -> None:
        """Tear down without a goodbye: close, SIGKILL the helper, reap.

        For channels already known dead (or wedged); :meth:`stop` is the
        polite path.
        """
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wake a blocked reader
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._fail_pending("forkserver aborted")
        reader, self._reader = self._reader, None
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=1.0)
        self._reap_helper(grace=0.0)

    def _reap_helper(self, grace: float = 2.0) -> None:
        """Collect the helper's exit status without blocking forever.

        Polls for up to ``grace`` seconds, then SIGKILLs and reaps — a
        helper that ignored the goodbye does not get to leak as a
        zombie or stall its parent.
        """
        pid, self._pid = self._pid, None
        if pid is None:
            return
        deadline = time.monotonic() + grace
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return
            if done:
                return
            if time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass

    def __enter__(self) -> "ForkServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- protocol ----------------------------------------------------------

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise SpawnError("forkserver is not running (call start())")
        return self._sock

    @staticmethod
    def _send(sock: socket.socket, body: bytes, fds: Sequence[int] = (),
              op: Optional[str] = None) -> None:
        """One request as ONE ``sendmsg``: header and body coalesced.

        Splitting header and body across two syscalls doubled the
        per-request syscall bill and, under pipelining, would let two
        writers interleave their halves; the send lock plus a single
        vectored write keeps each frame contiguous.  The header and body
        go out as two iovecs — the kernel gathers them, so the old
        ``header + body`` concatenation (a full copy of every frame,
        cached or not) never happens; the rare partial-write tail is
        drained through a ``memoryview`` so resends slice without
        copying either.
        """
        header = _LEN.pack(len(body))
        send_fds = list(fds)
        fault = FAULTS.fire("forkserver.frame", op=op)
        if fault is not None:
            # Chaos path: damage the frame on its way out (truncate,
            # corrupt, or strip the SCM_RIGHTS grant).  Mutation needs
            # the contiguous frame, so only this path pays the copy.
            message, send_fds = fault.mutate_frame(header + body, send_fds)
            buffers = [message]
            total = len(message)
        else:
            buffers = [header, body]
            total = len(header) + len(body)
        ancdata = []
        if send_fds:
            ancdata = [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                        array.array("i", send_fds).tobytes())]
        sent = sock.sendmsg(buffers, ancdata)
        if sent < total:  # rare partial write; fds already went
            rest = memoryview(b"".join(buffers))[sent:]
            while rest:
                rest = rest[sock.send(rest):]

    @staticmethod
    def _recv(sock: socket.socket) -> dict:
        header = b""
        while len(header) < _LEN.size:
            chunk = sock.recv(_LEN.size - len(header))
            if not chunk:
                raise SpawnError("forkserver hung up")
            header += chunk
        (length,) = _LEN.unpack(header)
        body = b""
        while len(body) < length:
            chunk = sock.recv(length - len(body))
            if not chunk:
                raise SpawnError("forkserver hung up mid-reply")
            body += chunk
        return json.loads(body)

    def _read_replies(self, sock: socket.socket) -> None:
        """Reader-thread loop: route every incoming frame."""
        while True:
            try:
                frame = self._recv(sock)
            except Exception as exc:
                self._fail_pending(str(exc) or type(exc).__name__)
                return
            self._route(frame)

    def _route(self, frame: dict) -> None:
        """File one incoming frame: a reply resolves its request's
        future (opening exit slots for the pids it hands out), an exit
        notice fills its pid's slot and wakes whoever waits on it.  A
        notice for a pid no caller was given — parked template stock —
        is dropped, not stored."""
        callback = None
        with self._state_lock:
            if "exit" in frame:
                slot = self._exits.get(frame["exit"])
                if slot is None:
                    return
                slot.status = frame["status"]
                event = slot.event
                callback, slot.callback = slot.callback, None
            else:
                pending = self._pending.pop(frame.get("id"), None)
                if pending is None:
                    return
                if pending.children:
                    for result in frame.get("results") or (frame,):
                        if "pid" in result:
                            self._exits[result["pid"]] = _Exit()
                pending.reply = frame
                event = pending.event
        if event is not None:
            event.set()
        if callback is not None:
            callback()

    def _watch(self, pid: int, callback: Callable[[], None]) -> None:
        """``ChildProcess.on_exit`` for this server's children: call
        ``callback()`` once, from whichever thread files the exit notice
        (or the helper's death) — now, if there is nothing to wait for."""
        with self._state_lock:
            slot = self._exits.get(pid)
            if slot is not None and slot.status is None:
                if slot.callback is not None:
                    raise SpawnError(
                        f"pid {pid} already has an on_exit callback")
                slot.callback = callback
                return
        callback()

    def _fail_pending(self, why: str) -> None:
        """Mark the channel dead and wake every stranded caller —
        requests awaiting replies, waiters awaiting exits and on_exit
        callbacks alike."""
        with self._state_lock:
            if self._dead is None:
                self._dead = why
            events = [pending.event for pending in self._pending.values()]
            slots = list(self._exits.values())
            self._pending.clear()
            self._exits.clear()
        for event in events:
            event.set()
        for slot in slots:
            if slot.event is not None:
                slot.event.set()
            if slot.callback is not None:
                slot.callback()

    @staticmethod
    def _encode(obj: dict, rid: int) -> bytes:
        """The default frame body: full JSON encode, id spliced in."""
        return json.dumps(dict(obj, id=rid)).encode()

    def _roundtrip(self, obj: dict, fds: Sequence[int] = (),
                   trace=NULL_TRACE,
                   timeout: Optional[float] = None,
                   encode: Optional[Callable[[dict, int], bytes]] = None,
                   children: bool = False) -> dict:
        """One request/reply exchange, optionally under a deadline.

        ``encode`` builds the frame body given (obj, correlation id);
        the frame cache passes a splicer here so repeat shapes skip the
        JSON encode entirely.  ``children`` says the reply hands out
        pids whose pushed exits must be kept (see :class:`_Pending`).

        A ``timeout`` expiry POISONS the channel: the helper may be
        wedged mid-frame or mid-read, so no later frame can be trusted
        to align.  The server is aborted (helper SIGKILLed and reaped,
        every other pending request failed fast) and
        :class:`SpawnTimeout` is raised; a pool above replaces the
        worker and retries elsewhere.
        """
        sock = self._require_sock()
        if encode is None:
            encode = self._encode
        if not self._pipelined:
            return self._roundtrip_locked(sock, obj, fds, trace, timeout,
                                          encode, children)
        with self._state_lock:
            if self._dead is not None:
                raise SpawnError(f"forkserver channel is dead: {self._dead}")
            rid = self._next_id
            self._next_id += 1
            pending = _Pending(children)
            self._pending[rid] = pending
        try:
            self._send_request(sock, encode(obj, rid), fds, obj.get("op"),
                               self._send_lock)
            trace.stage("framed", request_id=rid)
        except OSError as exc:
            with self._state_lock:
                self._pending.pop(rid, None)
            self._fail_pending(str(exc) or type(exc).__name__)
            raise SpawnError(f"forkserver channel failed: {exc}") from exc
        except Exception:
            with self._state_lock:
                self._pending.pop(rid, None)
            raise
        if not pending.event.wait(timeout):
            with self._state_lock:
                self._pending.pop(rid, None)
            self.abort()
            raise SpawnTimeout(
                f"forkserver request {rid} ({obj.get('op')}) exceeded its "
                f"{timeout}s deadline; helper aborted")
        if pending.reply is None:
            raise SpawnError(
                f"forkserver died before replying: {self._dead}")
        return pending.reply

    def _send_request(self, sock: socket.socket, body: bytes,
                      fds: Sequence[int], op: Optional[str],
                      lock: Optional[threading.Lock] = None) -> None:
        """Put one request on the wire (under ``lock`` when given), with
        the ``forkserver.request`` fault point around the send.

        ``kill_helper`` is the mid-request crash: frame on the wire, no
        reply.  Killing *after* the send raced the helper's answer — a
        fast helper replied before the SIGKILL landed — so the injector
        stops the helper before the frame leaves (``freeze``) and the
        kill follows the send: sent, and provably never answered.
        """
        helper = self._pid
        fault = FAULTS.fire("forkserver.request", helper_pid=helper,
                            op=op, freeze=True)
        try:
            if lock is None:
                self._send(sock, body, fds, op=op)
            else:
                with lock:
                    self._send(sock, body, fds, op=op)
        finally:
            if fault is not None and fault.kind == "kill_helper" and helper:
                try:
                    os.kill(helper, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    def _pump(self, sock: socket.socket, event: threading.Event,
              deadline: Optional[float]) -> None:
        """Locked mode has no reader thread: whoever holds the
        round-trip lock reads and routes frames itself until ``event``
        (its own reply, or its child's exit notice) is set or the
        ``time.monotonic()`` ``deadline`` passes — one already past
        takes only what has arrived."""
        while not event.is_set():
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
                if not select.select([sock], [], [], remaining)[0]:
                    return
            self._route(self._recv(sock))

    def _roundtrip_locked(self, sock: socket.socket, obj: dict,
                          fds: Sequence[int], trace,
                          timeout: Optional[float],
                          encode: Callable[[dict, int], bytes],
                          children: bool) -> dict:
        """Historical baseline: one global lock around the round-trip —
        every caller waits for every other caller.  A ``timeout``
        bounds each phase (lock acquisition, then the reply read).
        Exit notices that arrive ahead of the reply are filed on the
        way, exactly as the reader thread would."""
        if timeout is not None:
            if not self._send_lock.acquire(timeout=timeout):
                # Never touched the wire: the channel itself is fine,
                # the caller simply queued too long behind the lock.
                raise SpawnTimeout(
                    f"forkserver round-trip lock not acquired within "
                    f"{timeout}s (deadline exceeded while queued)")
        else:
            self._send_lock.acquire()
        pending = _Pending(children)
        try:
            with self._state_lock:
                rid = self._next_id
                self._next_id += 1
                self._pending[rid] = pending
            try:
                self._send_request(sock, encode(obj, rid), fds,
                                   obj.get("op"))
                trace.stage("framed", request_id=rid)
                self._pump(sock, pending.event,
                           None if timeout is None
                           else time.monotonic() + timeout)
            except SpawnError as exc:
                # EOF mid-exchange: the helper is gone; say so before
                # anyone else trusts this channel.
                self._fail_pending(str(exc))
                raise
            except (OSError, ValueError) as exc:
                self._fail_pending(str(exc) or type(exc).__name__)
                raise SpawnError(
                    f"forkserver channel failed: {exc}") from exc
            if pending.reply is None:
                if self._dead is not None:
                    raise SpawnError(
                        f"forkserver died before replying: {self._dead}")
                self._fail_pending("deadline exceeded mid-reply")
                raise SpawnTimeout(
                    f"forkserver request {rid} ({obj.get('op')}) exceeded "
                    f"its {timeout}s deadline; channel poisoned")
            return pending.reply
        finally:
            with self._state_lock:
                self._pending.pop(rid, None)
            self._send_lock.release()

    # -- the user-facing operations ------------------------------------------

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Liveness probe: one ``ping`` round-trip under ``timeout``.

        Returns ``False`` (rather than raising) when the helper is
        stopped, dead, or too slow — the pool's health check wants a
        verdict, not an exception.
        """
        if not self.healthy:
            return False
        try:
            return self._roundtrip({"op": "ping"},
                                   timeout=timeout).get("ok") is True
        except SpawnError:
            return False

    def spawn(self, argv: Sequence[str], *,
              env: Optional[Dict[str, str]] = None,
              cwd: Optional[str] = None,
              stdin: int = 0, stdout: int = 1, stderr: int = 2,
              trace=None, deadline: Optional[float] = None) -> ChildProcess:
        """Ask the helper to spawn ``argv``; returns a handle.

        ``stdin``/``stdout``/``stderr`` are descriptors *in this
        process*; they are shipped to the helper as SCM_RIGHTS and become
        the child's fds 0-2 — the explicit-grant model, like the spawn
        API's file actions.

        ``trace`` is an optional :class:`~repro.obs.SpawnTrace` to stamp
        (a caller further up owns it); with telemetry enabled and no
        trace given, the server starts and owns one itself.  The trace
        id travels in the wire request next to the correlation id, and
        the helper's reply carries its own fork timestamp back.
        """
        if not argv:
            raise SpawnError("empty argv")
        owns = trace is None or not trace
        if owns:
            trace = TELEMETRY.trace("forkserver", argv)
            trace.stage("dispatch", helper_pid=self._pid)
        TELEMETRY.count("fd_grants", 3)
        # nfds lets the helper detect a lost/partial SCM_RIGHTS grant
        # and refuse (EPROTO) instead of wiring the child to ITS stdio.
        request = {"op": "spawn", "argv": [os.fspath(a) for a in argv],
                   "env": env, "cwd": cwd, "nfds": 3}
        encode = None
        if self._frames is not None and (stdin, stdout, stderr) == (0, 1, 2):
            # Default-stdio spawns are the repeatable shape worth
            # caching; fd-bearing requests (fresh pipes every call) are
            # deliberately never cached — see framecache.py.
            encode = self._frame_encoder(
                request, trace.trace_id if trace else None)
        elif trace:
            request["trace"] = trace.trace_id
        try:
            FAULTS.fire("forkserver.spawn", helper_pid=self._pid,
                        argv=list(request["argv"]))
            reply = self._roundtrip(request, fds=(stdin, stdout, stderr),
                                    trace=trace, timeout=deadline,
                                    encode=encode, children=True)
            if "pid" not in reply:
                raise SpawnError(f"forkserver refused spawn: {reply}")
        except SpawnError as exc:
            if owns:
                trace.failure(exc)
            raise
        trace.stage("forked", t_ns=reply.get("t_fork_ns"),
                    pid=reply["pid"], helper_pid=self._pid)
        if owns:
            trace.success(reply["pid"])
        return ChildProcess(reply["pid"], argv=argv, strategy="forkserver",
                            reaper=self._reap, timed_reaper=True,
                            watch=self._watch, trace=trace)

    def _frame_encoder(self, request: dict, trace_id: Optional[str]):
        """A frame builder that splices per-call bytes onto a cached tail.

        The invariant part of the frame — everything but the correlation
        id and trace id — is memoized in :class:`FrameCache` keyed on
        the request's *content*, so a repeat shape skips ``json.dumps``
        of argv/env entirely.  The key snapshots content at call time:
        mutate the env dict or argv and the next call misses, never
        reusing a stale frame.
        """
        frames = self._frames
        key = frame_key(request["argv"], request["env"], request["cwd"])

        def encode(obj: dict, rid: int) -> bytes:
            tail = frames.lookup(key)
            if tail is None:
                # [1:] drops the opening brace; the prefix re-opens it.
                tail = json.dumps(request).encode()[1:]
                evicted = frames.store(key, tail)
                TELEMETRY.count("frame_cache_misses")
                if evicted:
                    TELEMETRY.count("frame_cache_evictions", evicted)
            else:
                TELEMETRY.count("frame_cache_hits")
            if trace_id is None:
                prefix = '{"id":%d,' % rid
            else:
                prefix = '{"id":%d,"trace":%s,' % (rid, json.dumps(trace_id))
            return prefix.encode() + tail

        return encode

    def spawn_batch(self, requests, *,
                    traces: Optional[Sequence] = None,
                    deadline: Optional[float] = None) -> "BatchResult":
        """Spawn N children in ONE wire round-trip.

        ``requests`` is a :class:`~repro.core.batch.BatchRequest` (the
        unified batch shape; bare sequences still coerce but warn —
        removal in 2.0).  The whole batch travels as a single
        frame and a single ``sendmsg`` — every member's stdio triple in
        one SCM_RIGHTS grant — and the helper spawns all N before
        replying, so the per-spawn wire cost (encode + syscall + context
        switch) is paid once per *batch*.

        All-or-nothing: a damaged frame, lost grant, or failed fork
        fails the ENTIRE batch with :class:`SpawnError` (the helper
        kills any members it had already forked).  No member is ever
        silently dropped; a pool above retries the whole batch per its
        :class:`~repro.core.policy.SpawnPolicy`.

        ``traces`` optionally carries one per-member trace owned by the
        caller; otherwise (telemetry on) the server starts and owns one
        trace per member.
        """
        from .batch import BatchRequest, BatchResult, coerce_batch
        if not isinstance(requests, BatchRequest):
            batch = coerce_batch("ForkServer.spawn_batch", requests,
                                 deadline=deadline)
        else:
            batch = requests
        if deadline is None:
            deadline = batch.deadline
        if not batch:
            raise SpawnError("empty batch")
        reqs = batch.members
        owns = traces is None
        if owns:
            traces = [TELEMETRY.trace("forkserver", req.argv)
                      for req in reqs]
            for trace in traces:
                trace.stage("dispatch", helper_pid=self._pid,
                            batch=len(reqs))
        elif len(traces) != len(reqs):
            raise SpawnError("one trace per batch member required")
        fds: List[int] = []
        for req in reqs:
            fds.extend(req.grant())
        TELEMETRY.count("fd_grants", len(fds))
        TELEMETRY.observe("spawn_batch_size", len(reqs))
        request = {"op": "batch", "reqs": [req.wire() for req in reqs]}
        try:
            if len(fds) > _SCM_MAX_FD:
                raise SpawnError(
                    f"batch of {len(reqs)} needs {len(fds)} fd grants; "
                    f"one SCM_RIGHTS message carries at most "
                    f"{_SCM_MAX_FD} (= {_SCM_MAX_FD // 3} members) — "
                    f"split the batch")
            FAULTS.fire("forkserver.spawn", helper_pid=self._pid,
                        argv=list(reqs[0].argv), batch=len(reqs))
            reply = self._roundtrip(request, fds=fds, trace=traces[0],
                                    timeout=deadline, children=True)
            results = reply.get("results")
            if results is None:
                raise SpawnError(f"forkserver refused batch: {reply}")
            if len(results) != len(reqs):
                raise SpawnError(
                    f"forkserver protocol error: batch of {len(reqs)} "
                    f"got {len(results)} results")
        except SpawnError as exc:
            if owns:
                for trace in traces:
                    trace.failure(exc)
            raise
        children = []
        for req, trace, result in zip(reqs, traces, results):
            trace.stage("forked", t_ns=result.get("t_fork_ns"),
                        pid=result["pid"], helper_pid=self._pid)
            if owns:
                trace.success(result["pid"])
            children.append(
                ChildProcess(result["pid"], argv=req.argv,
                             strategy="forkserver", reaper=self._reap,
                             timed_reaper=True, watch=self._watch,
                             trace=trace))
        return BatchResult(children, strategy="forkserver")

    def _reap(self, pid: int, flags: int,
              timeout: Optional[float] = None) -> Optional[int]:
        """Collect a child's exit status from the notices the helper pushes.

        Nothing goes on the wire: the helper reaps on SIGCHLD and pushes
        ``{"exit": pid, "status": s}`` unasked, the reader files it in
        the pid's slot, and this is a dictionary lookup — preceded, for
        a blocking wait (``flags == 0``) on a child still running, by an
        event wait of at most ``timeout`` seconds.  ``None`` means not
        exited (yet).  A pid this server never handed out (or one
        already reaped) is ECHILD; a helper that dies first wakes every
        waiter with :class:`SpawnError`.

        In the locked baseline there is no reader thread, so the waiter
        reads frames itself with the round-trip lock held for the
        child's whole runtime: that serialisation is the measured
        pathology, not an accident.
        """
        if flags:
            timeout = 0.0  # WNOHANG: only what has already arrived
        with self._state_lock:
            slot = self._exits.get(pid)
            if slot is None:
                raise SpawnError(
                    f"forkserver wait({pid}): "
                    + (f"channel is dead: {self._dead}"
                       if self._dead is not None else
                       "ECHILD (not a pid this server handed out, or "
                       "already reaped)"))
            wait = slot.status is None and (timeout != 0
                                            or not self._pipelined)
            if wait:
                self._waiting += 1
                if slot.event is None:
                    slot.event = threading.Event()
        if wait:
            try:
                if self._pipelined:
                    slot.event.wait(timeout)
                else:
                    self._reap_locked(slot.event, timeout)
            finally:
                with self._state_lock:
                    self._waiting -= 1
        with self._state_lock:
            if slot.status is None:
                if self._dead is not None:
                    raise SpawnError(
                        f"forkserver died before pid {pid} was reaped: "
                        f"{self._dead}")
                return None
            if self._exits.get(pid) is slot:
                del self._exits[pid]
            return slot.status

    def _reap_locked(self, event: threading.Event,
                     timeout: Optional[float]) -> None:
        """Locked mode's wait: pump frames under the round-trip lock."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._send_lock.acquire(
                timeout=-1 if timeout is None else timeout):
            return
        try:
            self._pump(self._require_sock(), event, deadline)
        except (SpawnError, OSError, ValueError) as exc:
            self._fail_pending(str(exc) or type(exc).__name__)
        finally:
            self._send_lock.release()
