"""A forkserver: fork from a pristine template, not from the real parent.

This is the mitigation the paper credits to Android's zygote and
``multiprocessing``'s ``forkserver`` start method: since fork's cost and
hazards both scale with the *parent*, keep a tiny, single-threaded,
nothing-mapped helper process around and ask *it* to fork.  The parent's
gigabytes of heap and threads never matter; the helper's do, and it has
none.

The server is spawned once (via ``posix_spawn``, naturally) running the
self-contained program in ``core/helper.py``.  The control channel is a
Unix-domain socket pair carried by one :class:`repro.wire.Channel`
(framing, fd grants, correlation ids and pushed exits: ``docs/WIRE.md``);
stdio descriptors travel alongside spawn requests as SCM_RIGHTS
ancillary data, so children can be wired into pipelines exactly like
directly spawned ones.

Many requests may be in flight on the one socket at once, so concurrent
callers never wait on each other's round trips — the property a spawn
*service* needs to sustain traffic.

One child costs **one** round trip and the helper never forks itself on
the hot path: it launches with ``posix_spawn`` (the paper's advice,
applied to our own helper) and *pushes* an exit notice the moment it
reaps a child, so ``wait()`` is an event wait on the pid's slot and
``poll()`` a dictionary lookup — there is no wait request on the wire.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import socket
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import GatewayProtocolError, SpawnError, SpawnTimeout
from ..faults import FAULTS
from ..obs import NULL_TRACE, TELEMETRY
from ..wire import Channel, Pending, encode_body
from .framecache import FrameCache, frame_key
from .result import ChildProcess
from .steps import Steps, run_steps


@functools.lru_cache(maxsize=None)
def _helper_source() -> str:
    """The helper program's text (``core/helper.py``), read once.  It is
    fed to ``python -c`` rather than run by path so ``sys.path[0]``
    stays ``''``: a zygote payload's ``import result`` must not find our
    own modules."""
    path = os.path.join(os.path.dirname(__file__), "helper.py")
    with open(path, encoding="utf-8") as source:
        return source.read()


def _pids_handed_out(request: dict, reply: dict) -> Sequence:
    """The pids ``reply`` gives a caller to reap: a spawn's.  A ``park``
    reply names a pid too, but parked stock belongs to nobody until a
    spawn wakes it."""
    if request.get("op") != "spawn":
        return ()
    return [result.get("pid") for result in reply.get("results") or ()]


class InFlight:
    """One request on a helper's wire, its reply not yet collected —
    and what :meth:`ForkServer._unit_steps` yields while it waits, for
    a driver that cannot block on it (see :mod:`repro.core.steps`)."""

    __slots__ = ("server", "channel", "pending", "timeout")

    def __init__(self, server: "ForkServer", channel: Channel,
                 pending: Pending, timeout: Optional[float]):
        self.server = server
        self.channel = channel
        self.pending = pending
        self.timeout = timeout

    def notify(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, when resuming the steps will no
        longer wait: the reply is in, or the channel died (from the
        thread that pumps its channel — its reader, or the loop it was
        handed over to — or whoever killed it; now, if already so)."""
        self.channel.notify(self.pending, callback)

    @property
    def granted(self) -> bool:
        """Whether the wait ended in a reply that hands out children (a
        spawn's ``results``) — not a refusal, not the channel's death:
        what is left of the steps is then the launch's happy end, which
        kills no helper and waits for nothing."""
        reply = self.pending.reply
        return reply is not None and "results" in reply

    def expire(self) -> None:
        """``timeout`` passed.  With no reply yet the helper is presumed
        wedged and aborted, exactly as a blocking wait's
        :class:`SpawnTimeout` does; the steps resume with the loss."""
        if not self.pending.event.is_set():
            self.server.abort()


class SpawnRequest:
    """One child to launch: argv plus its per-child wiring.

    The unit of work below the public API is a list of these — one for a
    single spawn, N for a batch — and the one ``spawn`` op ships them in
    a single frame with every member's stdio triple in one shared
    SCM_RIGHTS grant, concatenated in request order.
    :meth:`BatchRequest.of <repro.core.batch.BatchRequest.of>` wraps
    bare argv sequences through :meth:`coerce`.
    """

    __slots__ = ("argv", "env", "cwd", "stdin", "stdout", "stderr")

    def __init__(self, argv: Sequence[str], *,
                 env: Optional[Dict[str, str]] = None,
                 cwd: Optional[str] = None,
                 stdin: int = 0, stdout: int = 1, stderr: int = 2):
        if not argv:
            raise SpawnError("empty argv")
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

    def wire(self, inherited: Optional[Dict[str, str]] = None) -> dict:
        """The member's share of the frame (fds travel separately);
        ``inherited`` is what an ``env`` of ``None`` travels as
        (:meth:`ForkServer._inherited_env`)."""
        return {"argv": self.argv,
                "env": inherited if self.env is None else self.env,
                "cwd": self.cwd, "nfds": 3}

    def grant(self) -> tuple:
        return (self.stdin, self.stdout, self.stderr)

    def __repr__(self):
        return f"<SpawnRequest {self.argv!r}>"


class ForkServer:
    """Handle on one running forkserver helper.

    Start it early — before the parent grows threads and ballast — and
    every later :meth:`spawn` costs a fork *of the helper*, not of you.
    Usable as a context manager, and safe to share across threads:
    concurrent requests interleave on the one socket and are matched
    back to callers by correlation id.
    """

    #: What this server's traces, children and batch results are
    #: labelled (``ChildProcess.strategy``).
    label = "forkserver"

    #: Seconds the goodbye exchange in :meth:`stop` may take before the
    #: helper is presumed wedged and torn down forcibly.
    shutdown_timeout: float = 2.0

    #: Seconds the boot handshake in :meth:`start` may take.  A helper
    #: that never answers its first ping (damaged frame, wedged loop)
    #: must fail the start loudly, not hang the caller forever.
    start_timeout: float = 10.0

    def __init__(self, *, frame_cache: int = 256):
        # The live helper's channel; a stopped server keeps its last
        # (closed) one so exits already filed can still be read.
        self._channel: Optional[Channel] = None
        self._pid: Optional[int] = None
        # The environment start() booted the helper with (raw bytes).
        self._boot_env: Optional[dict] = None
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
        return self._channel is not None and not self._channel.closed

    @property
    def helper_pid(self) -> Optional[int]:
        """The helper process's pid (``None`` when stopped)."""
        return self._pid

    @property
    def healthy(self) -> bool:
        """Running with a live channel (goes ``False`` if the helper dies)."""
        return self.running and self._channel.dead is None

    @property
    def in_flight(self) -> int:
        """Requests awaiting replies plus callers blocked in ``wait()``."""
        return self._channel.in_flight if self._channel is not None else 0

    def start(self) -> "ForkServer":
        """Launch the helper (idempotent)."""
        if self.running:
            return self
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        os.set_inheritable(theirs.fileno(), True)
        env = dict(os.environ)
        # What the helper holds once it has popped the fault spec, made
        # from the very copy it boots with and kept in the raw (bytes)
        # form ``os.environ`` keeps, for _inherited_env() to compare.
        self._boot_env = {
            os.fsencode(key): os.fsencode(value)
            for key, value in env.items() if key != "REPRO_HELPER_FAULTS"
        } if hasattr(os.environ, "_data") else None
        helper_faults = FAULTS.helper_spec()
        if helper_faults:
            # The active FaultPlan wants faults *inside* this helper
            # (stall_helper, delay_sigchld, refuse_exec@helper); they
            # ride in as an env spec the helper parses and then drops.
            env["REPRO_HELPER_FAULTS"] = helper_faults
        self._pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-c", _helper_source(), str(theirs.fileno())],
            env)
        theirs.close()
        self._channel = Channel(ours, "forkserver", lost=SpawnError,
                                pids_of=_pids_handed_out)
        self._channel.hand_over()  # a reader thread pumps it
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
        stall the caller.  In-flight requests are resolved with
        :class:`SpawnError` *before* the reader is joined, so no waiter
        stays blocked across a shutdown, and a helper that does not
        exit within the reap grace period is SIGKILLed.
        """
        if self.running:
            try:
                self._roundtrip({"op": "shutdown"},
                                timeout=self.shutdown_timeout)
            except Exception:
                pass
            self._channel.close("forkserver stopped", 5.0)
        self._reap_helper()

    def abort(self) -> None:
        """Tear down without a goodbye: close, SIGKILL the helper, reap.

        For channels already known dead (or wedged); :meth:`stop` is the
        polite path.
        """
        if self.running:
            self._channel.close("forkserver aborted", 1.0)
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

    def _send(self, obj: dict, fds: Sequence[int] = (),
              trace=NULL_TRACE,
              timeout: Optional[float] = None,
              encode: Callable[[dict, int], bytes] = encode_body,
              wait: bool = True) -> Optional["InFlight"]:
        """Put one request on the wire; :meth:`_result` has its reply.

        ``encode`` builds the frame body given (obj, correlation id);
        the frame cache passes a splicer here so repeat shapes skip the
        JSON encode entirely.  ``wait=False`` is
        :meth:`Channel.send <repro.wire.Channel.send>`'s: ``None``, and
        nothing sent, where the send itself would have to wait.

        The ``forkserver.request`` fault point wraps the send.
        ``kill_helper`` is the mid-request crash: frame on the wire, no
        reply.  Killing *after* the send raced the helper's answer — a
        fast helper replied before the SIGKILL landed — so the injector
        stops the helper before the frame leaves (``freeze``) and the
        kill follows the send: sent, and provably never answered.
        """
        if not self.running:
            raise SpawnError("forkserver is not running (call start())")
        channel, helper = self._channel, self._pid
        fault = FAULTS.fire("forkserver.request", helper_pid=helper,
                            op=obj.get("op"), freeze=True)
        try:
            pending = channel.send(obj, fds, encode, wait)
        except GatewayProtocolError as exc:  # a frame too big to send
            raise SpawnError(f"forkserver request refused: {exc}") from exc
        finally:
            if fault is not None and fault.kind == "kill_helper" and helper:
                try:
                    os.kill(helper, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        if pending is None:
            return None
        trace.stage("framed", request_id=pending.rid)
        return InFlight(self, channel, pending, timeout)

    def _result(self, sent: "InFlight") -> dict:
        """The reply to a request :meth:`_send` put on the wire, after a
        wait of at most its ``timeout`` seconds.

        A ``timeout`` expiry POISONS the channel: the helper may be
        wedged mid-frame or mid-read, so no later frame can be trusted
        to align.  The server is aborted (helper SIGKILLed and reaped,
        every other pending request failed fast) and
        :class:`SpawnTimeout` is raised; a pool above replaces the
        worker and retries elsewhere.
        """
        try:
            return sent.channel.result(sent.pending, sent.timeout)
        except SpawnTimeout:
            self.abort()
            raise

    def _roundtrip(self, obj: dict, fds: Sequence[int] = (),
                   trace=NULL_TRACE,
                   timeout: Optional[float] = None) -> dict:
        """One request/reply exchange, optionally under a deadline."""
        return self._result(self._send(obj, fds, trace, timeout))

    def _trace(self, argv: Sequence[str], **size):
        """A trace this server starts (and so owns), stamped ``dispatch``."""
        trace = TELEMETRY.trace(self.label, argv)
        trace.stage("dispatch", helper_pid=self._pid, **size)
        return trace

    def _reap(self, pid: int, flags: int,
              timeout: Optional[float] = None) -> Optional[int]:
        """Collect a child's exit status from the notices the helper pushes.

        Nothing goes on the wire: the helper reaps on SIGCHLD and pushes
        ``{"exit": pid, "status": s}`` unasked, the channel files it in
        the pid's slot, and this is a dictionary lookup — preceded, for
        a blocking wait (``flags == 0``) on a child still running, by an
        event wait of at most ``timeout`` seconds.  ``None`` means not
        exited (yet).  A pid this server never handed out (or one
        already reaped) is ECHILD; a helper that dies first wakes every
        waiter with :class:`SpawnError`.
        """
        channel = self._channel
        if channel is None:
            raise SpawnError("forkserver is not running (call start())")
        try:
            # WNOHANG: only what has already arrived.
            status = channel.wait_exit(pid, 0 if flags else timeout)
        except KeyError:
            raise SpawnError(
                f"forkserver wait({pid}): "
                + (f"channel is dead: {channel.dead}"
                   if channel.dead is not None else
                   "ECHILD (not a pid this server handed out, or "
                   "already reaped)")) from None
        if status is None and channel.dead is not None:
            raise SpawnError(
                f"forkserver died before pid {pid} was reaped: "
                f"{channel.dead}")
        return status

    def _watch(self, pid: int, callback: Callable[[], None]) -> None:
        """``ChildProcess.on_exit`` for this server's children."""
        self._channel.watch(pid, callback)

    # -- the user-facing operations ------------------------------------------

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Liveness probe: one ``ping`` round-trip under ``timeout``.

        Returns ``False`` (rather than raising) when the helper is
        stopped, dead, or too slow: a liveness probe gives a verdict,
        not an exception.
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
              deadline: Optional[float] = None) -> ChildProcess:
        """Ask the helper to spawn ``argv``; returns a handle.

        ``stdin``/``stdout``/``stderr`` are descriptors *in this
        process*; they are shipped to the helper as SCM_RIGHTS and become
        the child's fds 0-2 — the explicit-grant model, like the spawn
        API's file actions.  ``env=None`` is this process's environment
        as it is now, not the one the helper booted with.

        With telemetry enabled the server starts and owns a
        :class:`~repro.obs.SpawnTrace`; its id travels in the wire
        request next to the correlation id, and the helper's reply
        carries its own fork timestamp back.
        """
        member = SpawnRequest(argv, env=env, cwd=cwd, stdin=stdin,
                              stdout=stdout, stderr=stderr)
        return run_steps(self._unit_steps([member], None, deadline))[0]

    def _inherited_env(self) -> Optional[Dict[str, str]]:
        """What ``env=None`` — the caller's environment as it is now —
        travels as: ``None`` while that is still, exactly, what the
        helper was booted with (it launches from its own copy), else a
        copy to ship like any explicit ``env``.  The test is one C-level
        compare of two bytes dicts (~1 µs for 70 variables), never a
        guess; without a raw table to compare, a copy every time."""
        if self._boot_env is not None and os.environ._data == self._boot_env:
            return None
        return dict(os.environ)

    def _frame_encoder(self, request: dict, trace_id: Optional[str]):
        """A frame builder that splices per-call bytes onto a cached tail.

        The invariant part of a one-member frame — everything but the
        correlation id and trace id — is memoized in :class:`FrameCache`
        keyed on the member's *content*, so a repeat shape skips
        ``json.dumps`` of argv/env entirely.  The key snapshots content
        at call time: mutate the env dict or argv and the next call
        misses, never reusing a stale frame.
        """
        frames = self._frames
        member = request["reqs"][0]
        key = frame_key(member["argv"], member["env"], member["cwd"])

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
                    deadline: Optional[float] = None) -> "BatchResult":
        """Spawn N children in ONE wire round-trip.

        ``requests`` is a :class:`~repro.core.batch.BatchRequest`.  The
        whole batch travels as a single frame and a single ``sendmsg``
        — every member's stdio triple in one SCM_RIGHTS grant — and the
        helper spawns all N before replying, so the per-spawn wire cost
        (encode + syscall + context switch) is paid once per *batch*.

        All-or-nothing: a damaged frame, lost grant, or failed fork
        fails the ENTIRE batch with :class:`SpawnError` (the helper
        kills any members it had already forked).  No member is ever
        silently dropped; a pool above retries the whole batch per its
        :class:`~repro.core.policy.SpawnPolicy`.  With telemetry on the
        server starts and owns one trace per member.
        """
        from .batch import BatchResult, batch_unit
        batch = batch_unit("ForkServer.spawn_batch", requests,
                           deadline=deadline)
        return BatchResult(
            run_steps(self._unit_steps(batch.members, None, batch.deadline)),
            strategy=self.label)

    def _unit_steps(self, reqs: List[SpawnRequest],
                    traces: Optional[Sequence],
                    deadline: Optional[float]
                    ) -> "Steps[List[ChildProcess]]":
        """One unit of work — ``reqs``, a single spawn's one member or a
        batch's N — through the helper's one ``spawn`` op, as resumable
        steps (:mod:`repro.core.steps`): everything up to the
        ``sendmsg``, one yielded :class:`InFlight`, then the reply's
        validation, trace stamps and handles, in request order.  All or
        nothing.

        ``traces`` is one trace per member owned by a caller further
        up; without live ones the server starts and owns its own.  A
        unit of more than one member is labelled a batch.
        """
        size = {"batch": len(reqs)} if len(reqs) > 1 else {}
        owns = not traces or not traces[0]
        if owns:
            traces = [self._trace(req.argv, **size) for req in reqs]
        head = traces[0]  # the one whose id and ``framed`` stamp travel
        fds = [fd for req in reqs for fd in req.grant()]
        TELEMETRY.count("fd_grants", len(fds))
        encode = encode_body
        inherited = (self._inherited_env()
                     if any(req.env is None for req in reqs) else None)
        # Each member's nfds lets the helper detect a lost or partial
        # SCM_RIGHTS grant and refuse (EPROTO) instead of wiring a child
        # to ITS stdio.
        request = {"op": "spawn", "reqs": [req.wire(inherited) for req in reqs]}
        if size:
            TELEMETRY.observe("spawn_batch_size", len(reqs))
        if self._frames is not None and fds == [0, 1, 2]:
            # One default-stdio member is the repeatable shape worth
            # caching; fd-bearing requests (fresh pipes every call) are
            # deliberately never cached — see framecache.py.
            encode = self._frame_encoder(
                request, head.trace_id if head else None)
        elif head:
            request["trace"] = head.trace_id
        try:
            FAULTS.fire("forkserver.spawn", helper_pid=self._pid,
                        strategy=self.label, **size)
            sent = self._send(request, fds, head, deadline, encode,
                              wait=False)
            if sent is None:
                yield  # a helper not reading, a frame too big for one piece
                sent = self._send(request, fds, head, deadline, encode)
            yield sent
            reply = self._result(sent)
            results = reply.get("results")
            if results is None:
                raise SpawnError(f"forkserver refused spawn: {reply}")
            if len(results) != len(reqs):
                raise SpawnError(
                    f"forkserver protocol error: spawn of {len(reqs)} "
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
                             strategy=self.label, reaper=self._reap,
                             watch=self._watch, trace=trace))
        return children
