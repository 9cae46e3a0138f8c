"""GatewayClient: the synchronous, pipelined, self-healing client.

The client holds the same :class:`repro.wire.Channel` a
:class:`~repro.core.forkserver.ForkServer` does — one socket, a small
send lock and per-request futures matched by correlation id — so many
threads can have spawns in flight at once without waiting on each
other's round trips.  It has no reader thread: a caller blocked on a
reply or an exit reads the socket itself, for every caller (one leads,
the others follow), so a reply wakes the thread that wanted it and no
other.  Every call first reads what has already arrived, so a daemon
that hung up is noticed before a request is put on its wire.  It dials
a fresh channel per connection: a stale one can only poison itself.

Unlike the forkserver channel, the gateway connection crosses a real
network boundary, so the client owns a failure story:

* a dead channel fails every in-flight request with the typed
  :class:`~repro.errors.GatewayConnectionLost` (never a hang, never a
  bare ``OSError``);
* unless ``max_reconnects=0`` the next operation re-dials with capped
  exponential backoff + jitter and **re-authenticates**
  (the ``hello`` handshake runs on every dial — the daemon forgets the
  tenant with the connection);
* idempotent ops (``wait``, ``stats``, ``ping``, ...) are
  re-issued transparently after a reconnect, so an in-flight child is
  never lost to a connection blip: the daemon still holds it, and the
  ``wait`` claim on the new connection returns its real exit status;
* ``spawn``/``spawn_batch`` (one ``spawn`` op: a spawn is a batch of
  one on this wire too) are re-issued only when the request frame
  provably never reached the daemon (nothing was sent) — a loss after
  the frame was fully sent is ambiguous and surfaces as
  :class:`GatewayConnectionLost` for the caller (or the
  :class:`~repro.core.policy.SpawnPolicy` ladder) to arbitrate;
* a refusal — :class:`~repro.errors.RateLimited` with its Retry-After
  hint included — reaches the caller at once: the client waits out
  nothing but its own re-dials, so a deadline is the caller's to keep.

Reaping is local, exactly as on the forkserver wire: the daemon pushes
``{"exit": pid, "status": rc}`` the moment a child exits, the channel
files it in the pid's slot when a caller reads it: ``wait()`` and
``poll()`` read what has arrived before they look, and :meth:`close`
files the notices already in before it hangs up.

Over a Unix socket the client grants the child's stdio triple as
SCM_RIGHTS ancillary data, exactly like the forkserver wire protocol;
over TCP no descriptors can travel, so spawns run with ``nfds=0`` (the
child inherits the *daemon's* stdio) and requests that need stdio
wiring are refused locally.

Errors come back typed: a reply's ``error`` object decodes through
:func:`repro.gateway.protocol.decode_error` into the
:class:`~repro.errors.GatewayError` hierarchy, so callers catch
:class:`~repro.errors.RateLimited` (with ``retry_after``) or
:class:`~repro.errors.Overloaded` instead of parsing strings.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.batch import BatchRequest, BatchResult, batch_unit
from ..core.forkserver import SpawnRequest
from ..core.policy import Backoff
from ..core.result import ChildProcess, encode_status
from ..errors import (GatewayConnectionLost, GatewayError,
                      GatewayProtocolError, SpawnError)
from ..faults import FAULTS
from ..obs import NULL_TRACE, TELEMETRY
from ..wire import Channel
from .protocol import PROTOCOL_VERSION, decode_error

#: Address forms :class:`GatewayClient` accepts.
Address = Union[str, Tuple[str, int]]


def _pids_handed_out(request: dict, reply: dict) -> Sequence:
    """The pids ``reply`` gives the caller to reap: a spawn's, or the
    one a ``wait`` claim found still running."""
    op = request.get("op")
    if op == "spawn":
        return reply.get("pids") or ()
    if op == "wait" and reply.get("status", 0) is None:
        return (request.get("pid"),)
    return ()


def _exit_status(notice: dict):
    """What a pushed exit notice files in its pid's slot: the raw
    status, or the :class:`GatewayError` that says the daemon lost it."""
    status = notice.get("status")
    if type(status) is int:
        return encode_status(status)
    return GatewayError(f"the gateway lost the exit status of pid "
                        f"{notice['exit']}: {notice.get('error')}")


def _unwatchable(pid: int, fn) -> None:
    """A gateway child's ``on_exit``: the pid is the daemon's child, not
    ours, and no thread here routes its exit notice unless some caller
    pumps this client — so there is nothing to watch."""
    raise SpawnError(f"gateway child pid {pid} is the daemon's: no exit "
                     f"to watch here; poll() it instead")


class GatewayClient:
    """A connection to one gateway daemon, as one tenant.

    ``address`` is a Unix-socket path (str) or a ``(host, port)`` pair;
    ``tenant``/``token`` authenticate the ``hello`` handshake.  Usable
    as a context manager and safe to share across threads.

    Resilience knob: ``max_reconnects`` — the re-dials (each with a
    re-auth) per outage when the channel dies; 0 disables reconnect.
    """

    #: Seconds the hello handshake (and default round trips) may take.
    default_timeout = 10.0

    #: The wait between re-dials: 0.05 s doubling to 2.0 s, ±50 %.
    backoff = Backoff()

    def __init__(self, address: Address, *, tenant: str, token: str,
                 timeout: Optional[float] = None,
                 max_reconnects: int = 5):
        self.address = address
        self.tenant = tenant
        self._token = token
        self._timeout = (timeout if timeout is not None
                         else self.default_timeout)
        self._max_reconnects = max(0, int(max_reconnects))
        # The current dial's channel; a torn-down one is kept (closed)
        # so exit statuses it already filed can still be read.
        self._channel: Optional[Channel] = None
        self._is_unix = isinstance(address, str)
        self._conn_lock = threading.RLock()
        self._ever_connected = False
        self._closed = False
        #: Set by close() *before* it takes _conn_lock, so a reconnect
        #: loop holding the lock notices promptly (its backoff waits on
        #: this event) instead of blocking close() for the full budget.
        self._close_event = threading.Event()
        self._reconnects = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._channel is not None and not self._channel.closed

    @property
    def healthy(self) -> bool:
        return self.connected and self._channel.dead is None

    @property
    def reconnects(self) -> int:
        """Successful re-dials since this client was created."""
        return self._reconnects

    def connect(self) -> "GatewayClient":
        """Dial the daemon and run the ``hello`` handshake (idempotent)."""
        with self._conn_lock:
            self._closed = False
            self._close_event.clear()
            if self.healthy:
                return self
            self._dial_locked()
        return self

    def _dial_locked(self) -> None:
        """Tear down whatever channel exists and dial a fresh one.

        Runs the full ``hello`` re-auth on every dial; on any failure
        the half-open socket is torn down before the error propagates.
        Caller holds ``_conn_lock``.
        """
        self._teardown_locked("gateway client reconnecting")
        FAULTS.fire("gateway.connect", tenant=self.tenant)
        if self._is_unix:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(self._timeout)
            sock.connect(self.address)
            sock.settimeout(None)
        except OSError as exc:
            sock.close()
            raise GatewayError(
                f"cannot reach gateway at {self.address!r}: {exc}") from exc
        stale, self._channel = self._channel, Channel(
            sock, "gateway", lost=GatewayConnectionLost,
            pids_of=_pids_handed_out, exit_status=_exit_status)
        if stale is not None:
            # A filled slot outlives its connection: no claim needed.
            self._channel.exits.update(stale.exits)
        try:
            reply = self._roundtrip_once({"op": "hello",
                                          "tenant": self.tenant,
                                          "token": self._token},
                                         timeout=self._timeout)
            if reply.get("ok") is not True:
                raise GatewayError(f"gateway refused hello: {reply}")
            version = reply.get("version")
            if version != PROTOCOL_VERSION:
                raise GatewayProtocolError(
                    f"gateway speaks protocol {version}, this client "
                    f"speaks {PROTOCOL_VERSION}")
        except Exception:
            self._teardown_locked("gateway handshake failed")
            raise
        self._ever_connected = True

    def _teardown_locked(self, why: str) -> None:
        """Close the current channel, failing its in-flight requests
        (the exit notices already in are filed first).  Caller holds
        ``_conn_lock``."""
        channel = self._channel
        if channel is not None and not channel.closed:
            channel.close(why)

    def close(self) -> None:
        """Hang up (idempotent); in-flight requests fail fast.

        A closed client stays closed: automatic reconnect is disabled
        until an explicit :meth:`connect`.  Raising the close flag
        before taking the lock lets an in-progress reconnect (which
        holds the lock across its backoff waits) bail out promptly
        instead of making close() wait out the whole reconnect budget.
        """
        self._close_event.set()
        with self._conn_lock:
            self._closed = True
            self._teardown_locked("gateway client closed")

    def __enter__(self) -> "GatewayClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reconnect machinery ----------------------------------------------

    def _ensure_channel(self, trace=NULL_TRACE) -> None:
        """Make the channel usable, re-dialing (and re-authing) if dead.

        Raises the last dial error when ``max_reconnects`` attempts all
        fail, :class:`GatewayError` when the client was never connected
        or was explicitly closed.
        """
        if self.healthy:
            return
        with self._conn_lock:
            if self.healthy:
                return
            if self._closed:
                raise GatewayError("gateway client is closed")
            if not self._ever_connected:
                raise GatewayError("gateway client is not connected")
            if not self._max_reconnects:
                raise GatewayConnectionLost(
                    f"gateway channel is dead: {self._channel.dead} "
                    f"(reconnect disabled)")
            last: Optional[Exception] = None
            for attempt in range(self._max_reconnects):
                # An Event wait, not a sleep: close() sets _close_event
                # before blocking on _conn_lock, so it can interrupt the
                # backoff mid-wait (and is noticed before the first dial).
                if self._close_event.wait(
                        self.backoff.delay(attempt - 1) if attempt else 0):
                    raise GatewayError("gateway client is closed")
                trace.stage("reconnect", attempt=attempt)
                try:
                    self._dial_locked()
                except GatewayError as exc:
                    last = exc
                    continue
                self._reconnects += 1
                TELEMETRY.count("gateway_reconnect")
                return
            raise GatewayConnectionLost(
                f"gateway at {self.address!r} unreachable after "
                f"{self._max_reconnects} reconnect attempts: {last}")

    def _roundtrip(self, obj: dict, fds: Sequence[int] = (),
                   timeout: Optional[float] = None, *,
                   retryable: bool = False, trace=NULL_TRACE) -> dict:
        """One request/reply exchange, healed across channel death.

        ``retryable`` ops are re-issued after a successful reconnect;
        non-retryable ops (spawns) are re-issued only when the request
        frame provably never left this process.  Raises typed errors;
        a refusal (``RateLimited`` with its ``retry_after`` included)
        is never waited out here.
        """
        reissues = 0
        while True:
            self._ensure_channel(trace)
            try:
                return self._roundtrip_once(obj, fds, timeout)
            except GatewayConnectionLost as exc:
                safe = retryable or getattr(exc, "unsent", False)
                if (not safe or self._closed
                        or reissues >= self._max_reconnects):
                    raise
                reissues += 1
                TELEMETRY.count("gateway_retry", why="conn_lost")

    def _roundtrip_once(self, obj: dict, fds: Sequence[int] = (),
                        timeout: Optional[float] = None) -> dict:
        """One exchange on the *current* channel; raises typed errors."""
        if not self.connected:
            raise GatewayError("gateway client is not connected")
        channel = self._channel
        reply = channel.result(channel.send(obj, fds), timeout)
        if "error" in reply:
            raise decode_error(reply["error"])
        return reply

    def _require_fd_transport(self, what: str) -> None:
        if not self._is_unix:
            raise GatewayError(
                f"{what} needs stdio fd grants, which only travel over "
                f"a unix-socket connection (this client is on TCP)")

    # -- operations --------------------------------------------------------

    def spawn(self, argv: Sequence[str], *,
              env: Optional[Dict[str, str]] = None,
              cwd: Optional[str] = None,
              stdin: int = 0, stdout: int = 1, stderr: int = 2,
              trace=NULL_TRACE,
              deadline: Optional[float] = None) -> ChildProcess:
        """Spawn ``argv`` through the gateway; returns a live handle.

        Over a Unix socket the stdio triple is granted as SCM_RIGHTS
        (so pipes wire up exactly like a local spawn); the returned
        :class:`ChildProcess` reaps from the exit notices the daemon
        pushes — the child is the *daemon's* child, like forkserver
        children.

        A spawn is only re-issued across a reconnect when its frame
        never reached the daemon; an ambiguous loss (frame sent, no
        reply) raises :class:`~repro.errors.GatewayConnectionLost`.  A
        program the daemon cannot execute raises
        :class:`~repro.errors.GatewayExecError`, an
        :class:`~repro.errors.ExecError` with the daemon's ``errno``.
        """
        member = SpawnRequest(argv, env=env, cwd=cwd, stdin=stdin,
                              stdout=stdout, stderr=stderr)
        trace.stage("dispatch", gateway=str(self.address))
        child, = self._spawn(BatchRequest([member]), deadline, trace)
        trace.stage("forked", pid=child.pid)
        return child

    def spawn_batch(self, requests, *,
                    deadline: Optional[float] = None) -> BatchResult:
        """Spawn N children in one wire round trip (``requests`` is a
        :class:`~repro.core.batch.BatchRequest`)."""
        batch = batch_unit("GatewayClient.spawn_batch", requests,
                           deadline=deadline)
        return BatchResult(self._spawn(batch, batch.deadline),
                           strategy="gateway")

    def _spawn(self, batch: BatchRequest, deadline: Optional[float],
               trace=NULL_TRACE) -> List[ChildProcess]:
        """The one ``spawn`` request, for one member or N: each
        member's stdio triple granted in order over a Unix socket (TCP
        carries none, so it refuses stdio wiring locally)."""
        request = {"op": "spawn", "reqs": batch.wire()}
        members = batch.members
        fds = [fd for member in members for fd in member.grant()]
        if self._is_unix:
            request["nfds"] = 3
            TELEMETRY.count("fd_grants", len(fds))
        elif fds != [0, 1, 2] * len(members):
            self._require_fd_transport("stdio wiring")
        else:
            request["nfds"], fds = 0, []
        reply = self._roundtrip(request, fds=fds,
                                timeout=deadline or self._timeout,
                                trace=trace)
        pids = reply.get("pids")
        if pids is None or len(pids) != len(members):
            raise GatewayError(f"gateway refused spawn: {reply}")
        return [ChildProcess(pid, argv=member.argv, strategy="gateway",
                             reaper=self._reap, watch=_unwatchable,
                             trace=trace)
                for pid, member in zip(pids, members)]

    def ping(self) -> dict:
        """Liveness probe (pre-auth on the daemon side): the pong reply."""
        return self._roundtrip({"op": "ping"}, timeout=self._timeout,
                               retryable=True)

    def stats(self) -> dict:
        """The daemon's stats snapshot (queues, sheds, per-tenant)."""
        reply = self._roundtrip({"op": "stats"}, timeout=self._timeout,
                                retryable=True)
        return reply.get("stats", {})

    def drain(self) -> None:
        """Ask the daemon to drain (refuse new, finish admitted).

        Admin tenants only: a non-admin tenant gets
        :class:`~repro.errors.AuthError`, because drain denies spawn
        service to every other tenant.
        """
        self._roundtrip({"op": "drain"}, timeout=self._timeout,
                        retryable=True)

    def resume(self) -> None:
        """Ask the daemon to leave drain mode (admin tenants only)."""
        self._roundtrip({"op": "drain", "resume": True},
                        timeout=self._timeout, retryable=True)

    def _reap(self, pid: int, flags: int,
              timeout: Optional[float] = None) -> Optional[int]:
        """ChildProcess reaper: a lookup of the status the daemon pushed
        (what has already arrived is read first), after reading the
        socket for at most ``timeout`` seconds if the wait is blocking
        (``flags == 0``).  ``None`` means not exited (yet).

        The ``wait`` claim is the one round trip left: for a pid with no
        slot on this channel (a reconnect dropped it), and once when a
        timed wait runs out with no notice — with the timeout again as
        its deadline — so a lost notice is a timeout and not a hang.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if flags:
                patience = 0  # WNOHANG: only what has already arrived
            elif deadline is not None:
                patience = max(0.0, deadline - time.monotonic())
            else:
                patience = None
            try:
                status = self._channel.wait_exit(pid, patience)
                if isinstance(status, GatewayError):
                    raise status
                if status is not None or flags:
                    return status  # polls stay free: no claim
            except KeyError:
                pass  # no slot here: dropped by a channel death
            reply = self._roundtrip(
                {"op": "wait", "pid": pid}, retryable=True,
                timeout=self._timeout if timeout is None
                else min(self._timeout, max(timeout, 0.1)))
            if reply.get("status") is not None:
                self._channel.forget(pid)
                return encode_status(reply["status"])
            if flags or (deadline is not None
                         and time.monotonic() >= deadline):
                return None

    def __repr__(self):
        state = ("healthy" if self.healthy
                 else "closed" if not self.connected else "dead")
        return (f"<GatewayClient {self.address!r} tenant={self.tenant} "
                f"{state}>")

