"""The spawn gateway daemon: many tenants, one warm spawn service.

:class:`GatewayServer` listens on a Unix socket (and optionally TCP),
speaks :mod:`repro.gateway.protocol` over :mod:`repro.wire` frames, and
maps every admitted request onto the
library's strategy ladder — the forkserver pool, a single forkserver,
or direct ``posix_spawn`` — through each tenant's
:class:`~repro.core.policy.SpawnPolicy`.

The interesting part is what happens *before* a request reaches the
ladder.  Admission control runs per tenant, in order:

1. **auth** — the connection's ``hello`` must present the tenant's
   token (compared in constant time) before any other op is served;
2. **drain** — a draining gateway refuses new spawns with
   :class:`~repro.errors.Overloaded` and a Retry-After hint while
   completing everything already admitted;
3. **rate** — a token bucket (``rate``/``burst``) answers bursts above
   the tenant's contract with :class:`~repro.errors.RateLimited` and
   the exact seconds until a token exists;
4. **queue bound** — each tenant owns a bounded queue; past
   ``max_queue`` the gateway *sheds* (:class:`Overloaded`) instead of
   buffering without bound — the load-shedding half of backpressure.

Admitted work is scheduled by **weighted fair queueing** (start-time
fair queueing over per-tenant virtual clocks): each dispatch advances
its tenant's clock by ``cost/weight``, and the scheduler always serves
the backlogged tenant with the smallest clock — so a tenant flooding
its queue cannot starve the others, and a weight-2 tenant drains twice
as fast as a weight-1 tenant under contention.

Dispatch runs the tenant's ladder as resumable steps
(:mod:`repro.core.steps`).  Where the strategy launches over a helper's
wire (``forkserver-pool``, ``forkserver``) the loop thread itself puts
the request — one child or N: a spawn is a batch of one — on that wire,
takes the helper's channel over (it watches the socket and pumps it,
:meth:`repro.wire.Channel.hand_over`), and finishes the launch when the
reply is routed: a launch costs no thread and no hop.  Whatever
would block — a back-off, a helper to boot or replace, a retry's wait,
a launcher with no steps form — carries on from that point on a thread
executor, so the ladder is the same code wherever it runs;
``max_inflight`` is the daemon-wide concurrency bound.
Reaping costs the client nothing: each child is subscribed
(:meth:`~repro.core.result.ChildProcess.on_exit`) once its spawn reply
is queued, and the daemon pushes ``{"exit": pid, "status": rc}`` down
the spawning connection when it exits — read off the helper's wire by
the same loop.  No thread parks on a child.
Everything is observable through :mod:`repro.obs`: queue-depth gauges,
shed/rate-limit counters, and per-tenant launch-latency histograms.

The event loop runs in a dedicated thread; ``start()``/``stop()`` are
ordinary blocking calls, which is what lets the ``gateway`` strategy
embed a daemon inside the client process.  Socket I/O uses raw
non-blocking sockets with ``loop.add_reader`` — not asyncio streams —
because stdio descriptors arrive as SCM_RIGHTS ancillary data, which
only ``recvmsg`` on the real socket can see.
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import json
import os
import socket
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Union

from ..core.batch import BatchRequest, batch_unit
from ..core.policy import (DEFAULT_FALLBACK, SpawnPolicy, breaker_for)
from ..core.spawn import (_chain, _refuse_inexpressible, _spawn_batch_steps,
                          _unit_needs)
from ..core.steps import run_steps
from ..core.strategies import get_strategy
from ..errors import (AuthError, CannotExpress, ExecError,
                      GatewayCannotExpress, GatewayError, GatewayExecError,
                      GatewayProtocolError, Overloaded, RateLimited,
                      SpawnError)
from ..faults import FAULTS
from ..obs import TELEMETRY
from ..wire import FrameDecoder, encode_frame, recv_with_fds
from .config import GatewayConfig, TenantConfig, TokenBucket
from .protocol import PROTOCOL_VERSION, check_request, encode_error

#: Exit statuses remembered per tenant for the ``wait`` claim of a client
#: whose connection died around the exit; the oldest is forgotten first.
EXITS_KEPT = 1024


class _Connection:
    """One client connection: socket, decoder, granted fds, identity."""

    __slots__ = ("sock", "fd", "is_unix", "decoder", "pending_fds",
                 "tenant", "outbuf", "writing", "closed", "peer",
                 "close_after_flush", "corked")

    def __init__(self, sock: socket.socket, is_unix: bool, peer: str):
        self.sock = sock
        self.fd = sock.fileno()
        self.is_unix = is_unix
        self.decoder = FrameDecoder()
        self.pending_fds: List[int] = []
        self.tenant: Optional[str] = None
        self.outbuf = bytearray()
        self.writing = False
        self.closed = False
        self.close_after_flush = False
        self.corked = False  # frames pile up in outbuf for one send
        self.peer = peer


class _Job:
    """One admitted unit of work, waiting in its tenant's queue: a
    spawn's members and their granted stdio (3 fds each, or none)."""

    __slots__ = ("conn", "rid", "batch", "fds", "cost",
                 "tenant", "t_enqueued", "handles", "timer")

    def __init__(self, conn: _Connection, rid: Optional[int],
                 batch: BatchRequest, fds: List[int], tenant: str):
        self.conn = conn
        self.rid = rid
        self.batch = batch
        self.fds = fds
        self.cost = len(batch)
        self.tenant = tenant
        self.t_enqueued = time.monotonic()
        # The children it made, held here from their launch until the
        # reply is queued and the tenant takes them over.
        self.handles: tuple = ()
        self.timer: Optional[asyncio.TimerHandle] = None  # launch deadline


class _Child:
    """One live child: its handle, and the connection its exit notice
    goes to (the spawner, until a ``wait`` claim re-points it)."""

    __slots__ = ("handle", "conn")

    def __init__(self, handle, conn: _Connection):
        self.handle = handle
        self.conn = conn


class _TenantState:
    """Everything the gateway tracks about one tenant at runtime."""

    __slots__ = ("config", "bucket", "queue", "vtime", "inflight",
                 "admitted", "children", "exited", "policy", "counters")

    def __init__(self, config: TenantConfig):
        self.config = config
        self.bucket: Optional[TokenBucket] = None
        if config.rate is not None:
            self.bucket = TokenBucket(
                config.rate, config.burst if config.burst else config.rate)
        self.queue: Deque[_Job] = deque()
        self.vtime = 0.0
        self.inflight = 0
        self.admitted = 0  # spawns queued or in flight (sum of job costs)
        self.children: Dict[int, _Child] = {}  # live ones only
        # The last EXITS_KEPT exits: pid -> returncode, or the message
        # of the error that lost it.
        self.exited: Dict[int, Union[int, str]] = {}
        self.policy = config.policy or SpawnPolicy(
            deadline=10.0, retries=1, fallback=DEFAULT_FALLBACK)
        self.counters = {"admitted": 0, "completed": 0, "failed": 0,
                         "shed": 0, "rate_limited": 0}


class GatewayServer:
    """The multi-tenant spawn daemon (see the module docstring).

    Lifecycle: ``start()`` binds the listeners and boots the event-loop
    thread; ``drain()`` flips the daemon into refuse-new/finish-admitted
    mode; ``stop()`` drains (bounded by ``config.drain_grace``), closes
    every connection, and joins the loop.  Usable as a context manager.
    """

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._tenants = {name: _TenantState(cfg)
                         for name, cfg in config.tenants.items()}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._listeners: List[socket.socket] = []
        self._connections: Dict[int, _Connection] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._jobs: set = set()  # dispatched, not yet through _job_done
        self._dispatching = False  # a _dispatch is under way
        # The helper channels this loop pumps (Channel.hand_over); each
        # goes back to the callers that wait on it when the loop stops.
        self._pumped: "weakref.WeakSet" = weakref.WeakSet()
        self._inflight = 0
        self._vclock = 0.0
        self._pidfds: Dict[int, tuple] = {}  # pidfd -> (tenant, handle)
        self._draining = False
        self._drained = threading.Event()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._closing = False
        self._unix_path: Optional[str] = None
        self._tcp_port: Optional[int] = None
        self._internal_errors = 0
        self._boot_error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------

    @property
    def unix_path(self) -> Optional[str]:
        """The bound Unix-socket path (``None`` when not listening)."""
        return self._unix_path

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (resolved even when configured as 0)."""
        return self._tcp_port

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def running(self) -> bool:
        """Whether the event loop is (still) serving.

        False before ``start()``, after ``stop()``, and — the case a
        supervisor polls for — after the loop died on its own (a crash
        fault, an unhandled loop error)."""
        return self._thread is not None and not self._stopped.is_set()

    def start(self) -> "GatewayServer":
        """Bind the listeners and boot the loop thread (idempotent,
        and restartable: a stopped server can ``start()`` again)."""
        if self._thread is not None:
            return self
        # A config that names a strategy nobody registered fails here,
        # once — not on every spawn of that tenant, charging its breaker.
        for name, tenant in self._tenants.items():
            try:
                get_strategy(tenant.config.strategy)
            except SpawnError as exc:
                raise GatewayError(f"tenant {name!r}: {exc}") from None
        # A restart after stop(): the lifecycle latches still reflect
        # the old loop.  Reset them so this start() waits on the *new*
        # loop and drain()/stop() don't short-circuit on stale events.
        self._started.clear()
        self._stopped.clear()
        self._drained.clear()
        self._draining = False
        self._closing = False
        self._boot_error = None
        # ...and nothing is admitted yet: what a crash cut short will
        # never report back (_job_done drops a job it does not know).
        self._jobs.clear()
        self._inflight = 0
        for tenant in self._tenants.values():
            tenant.inflight = tenant.admitted = 0
        self._bind_listeners()
        # Creates no thread until the first job that needs one.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="gateway-spawn")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="gateway-loop", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._boot_error is not None:
            error, self._boot_error = self._boot_error, None
            self.stop()
            raise GatewayError(f"gateway failed to start: {error}")
        if not self._started.is_set():
            self.stop()
            raise GatewayError("gateway event loop failed to start")
        return self

    def _bind_listeners(self) -> None:
        if self.config.unix_path is not None:
            path = self.config.unix_path
            try:
                if os.path.exists(path):
                    os.unlink(path)  # stale socket from a dead daemon
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.bind(path)
            except OSError as exc:
                raise GatewayError(
                    f"cannot listen on unix socket {path!r}: {exc}") from exc
            sock.listen(self.config.accept_backlog)
            sock.setblocking(False)
            self._listeners.append(sock)
            self._unix_path = path
        if self.config.tcp_port is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((self.config.tcp_host, self.config.tcp_port))
            except OSError as exc:
                sock.close()
                raise GatewayError(
                    f"cannot listen on {self.config.tcp_host}:"
                    f"{self.config.tcp_port}: {exc}") from exc
            sock.listen(self.config.accept_backlog)
            sock.setblocking(False)
            self._listeners.append(sock)
            self._tcp_port = sock.getsockname()[1]

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            for sock in self._listeners:
                is_unix = sock.family == socket.AF_UNIX
                loop.add_reader(sock.fileno(), self._on_accept, sock,
                                is_unix)
            self._started.set()
            loop.run_forever()
        except BaseException as exc:  # boot failed; unblock start()
            self._boot_error = exc
            self._started.set()
        finally:
            # However the loop stopped, the helpers it pumped go back to
            # the callers that wait on them (and to a reader thread while
            # an on_exit is still subscribed) before it closes: a pool
            # caller outside the daemon, or the pool's own goodbye, still
            # gets its replies.
            pumped, self._pumped = list(self._pumped), weakref.WeakSet()
            for channel in pumped:
                channel.hand_over(None)
            loop.close()
            self._stopped.set()

    def _post(self, callback, *args) -> bool:
        """Run ``callback`` on the loop thread, from any other; ``False``
        when there is no loop (left) to run it on."""
        loop = self._loop
        if loop is None or self._stopped.is_set():
            return False
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # the loop died between the check and the call
            return False
        return True

    def drain(self, *_signal_args) -> None:
        """Refuse new spawns; finish everything already admitted.

        Thread- and signal-safe: this is the SIGTERM handler.  Queued
        and in-flight work completes; new ``spawn`` requests get
        :class:`Overloaded` with a Retry-After hint.
        """
        if not self._post(self._begin_drain):
            self._draining = True
            self._drained.set()

    def resume(self) -> None:
        """Leave drain mode: admit new work again.

        The un-drain half of :meth:`drain`.  A no-op while the server
        is actually stopping (``stop()`` owns the drain latch then).
        """
        self._post(self._end_drain)

    def _begin_drain(self) -> None:
        if not self._draining:
            self._draining = True
            TELEMETRY.event("gateway_drain")
        self._check_drained()

    def _end_drain(self) -> None:
        if self._draining and not self._closing:
            self._draining = False
            self._drained.clear()
            TELEMETRY.event("gateway_resume")

    def _check_drained(self) -> None:
        if not self._draining:
            return
        if self._inflight == 0 and not any(
                t.queue for t in self._tenants.values()):
            self._drained.set()

    def stop(self) -> None:
        """Drain (bounded), close everything, join the loop (idempotent)."""
        self.drain()
        self._drained.wait(timeout=self.config.drain_grace)
        self._closing = True
        self._post(self._shutdown_in_loop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        for sock in self._listeners:
            try:
                sock.close()
            except OSError:
                pass
        self._listeners = []
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        if self._executor is not None:
            # Kept, shut down, until start() replaces it: a launch that
            # finishes late finds it refusing work, not missing.
            self._executor.shutdown(wait=False)
        # Reap whatever the daemon still holds so no zombie outlives us.
        for handle in self.take_orphans().values():
            try:
                handle.poll()
            except Exception:
                pass
        self._close_fds(list(self._pidfds))
        self._pidfds.clear()
        self._loop = None

    def _shutdown_in_loop(self) -> None:
        for sock in self._listeners:
            try:
                self._loop.remove_reader(sock.fileno())
            except Exception:
                pass
        for conn in list(self._connections.values()):
            self._close_connection(conn)
        # Fail whatever is still queued (grace expired before it ran).
        for tenant in self._tenants.values():
            while tenant.queue:
                job = tenant.queue.popleft()
                tenant.admitted -= job.cost
                self._close_job_fds(job)
        self._loop.stop()

    def _crash_in_loop(self) -> None:
        """Die abruptly, the way a SIGKILLed daemon would (fault hook).

        No drain, no goodbye frames: connections and queued work are
        dropped on the floor and the loop stops.  Unlike :meth:`stop`,
        the tenants' live children are *not* reaped or cleared — a
        crash orphans them, and proving a
        :class:`~repro.gateway.supervisor.GatewaySupervisor` reconciles
        those orphans is the point of injecting one.  The drain latches
        are released so a later ``stop()`` cleans up without waiting
        out the grace period.
        """
        TELEMETRY.event("gateway_crash")
        self._closing = True
        self._draining = True
        self._drained.set()
        self._shutdown_in_loop()

    def crash(self) -> None:
        """Crash the daemon from any thread (tests and chaos drills)."""
        if self._post(self._crash_in_loop):
            self._stopped.wait(timeout=10.0)

    def take_orphans(self) -> Dict[int, object]:
        """Claim the children a dead daemon stranded (pid -> handle).

        A supervisor restarting a crashed server calls this *before*
        ``stop()`` (which would merely poll-and-forget them): ownership
        of every live child transfers to the caller, whose job is to
        wait on each one so nothing is left a zombie.  That includes
        the children of launches whose replies were never queued.
        """
        orphans: Dict[int, object] = {}
        for tenant in self._tenants.values():
            for pid, child in list(tenant.children.items()):
                orphans[pid] = child.handle
            tenant.children.clear()
        for job in list(self._jobs):
            handles, job.handles = job.handles, ()
            for handle in handles:
                orphans[handle.pid] = handle
        return orphans

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection plumbing ---------------------------------------------

    def _on_accept(self, listener: socket.socket, is_unix: bool) -> None:
        try:
            sock, addr = listener.accept()
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            return
        sock.setblocking(False)
        fault = FAULTS.fire("gateway.accept")
        if fault is not None and fault.kind == "refuse_accept":
            # The daemon that answers the TCP/unix handshake but hangs
            # up before speaking: the client sees an immediate EOF.
            try:
                sock.close()
            except OSError:
                pass
            return
        peer = self._unix_path if is_unix else f"{addr[0]}:{addr[1]}"
        conn = _Connection(sock, is_unix, str(peer))
        self._connections[conn.fd] = conn
        self._loop.add_reader(conn.fd, self._on_readable, conn)
        TELEMETRY.count("gateway_connections")

    def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._connections.pop(conn.fd, None)
        try:
            self._loop.remove_reader(conn.fd)
        except Exception:
            pass
        if conn.writing:
            try:
                self._loop.remove_writer(conn.fd)
            except Exception:
                pass
        for fd in conn.pending_fds:
            try:
                os.close(fd)
            except OSError:
                pass
        conn.pending_fds = []
        try:
            conn.sock.close()
        except OSError:
            pass

    def _on_readable(self, conn: _Connection) -> None:
        if conn.closed:
            return
        try:
            if conn.is_unix:
                data, fds = recv_with_fds(conn.sock)
                conn.pending_fds.extend(fds)
            else:
                data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_connection(conn)
            return
        if not data:
            self._close_connection(conn)
            return
        try:
            frames = conn.decoder.feed(data)
        except GatewayProtocolError as exc:
            # The stream cannot be re-aligned: answer, flush, hang up.
            self._send(conn, encode_error(exc))
            conn.close_after_flush = True
            self._flush_or_close(conn)
            return
        for frame in frames:
            self._handle_frame(conn, frame)
            if conn.closed or conn.close_after_flush:
                break

    def _send(self, conn: _Connection, obj: dict) -> None:
        """Answer a request.  The ``gateway.reply`` faults live only
        here: an exit notice answers nothing, and no deadline would
        save a blocking ``wait()`` from a dropped one."""
        if conn.closed:
            return
        fault = FAULTS.fire("gateway.reply", tenant=conn.tenant)
        if fault is not None:
            if fault.kind == "drop_reply":
                # The reply evaporates; the client's own deadline (and
                # its retry of retryable ops) is what must save it.
                return
            if fault.kind == "garbage_reply":
                # A length prefix that checks out, a body that does not:
                # the client's decoder must poison and surface a typed
                # protocol error, never hang or crash the reader.
                body = b"\xfe\xedgarbage\xff"
                conn.outbuf += len(body).to_bytes(4, "big") + body
                self._flush_or_close(conn)
                return
        self._push(conn, obj)

    def _push(self, conn: _Connection, obj: dict) -> None:
        """Frame ``obj`` onto the connection; a corked connection keeps
        collecting frames until whoever corked it flushes once."""
        if conn.closed:
            return
        try:
            conn.outbuf += encode_frame(obj)
        except GatewayError:
            # A reply too large to frame: report it in a frame that fits.
            conn.outbuf += encode_frame(encode_error(
                GatewayProtocolError("reply exceeded the frame limit"),
                obj.get("id")))
        self._flush_or_close(conn)

    def _flush_or_close(self, conn: _Connection) -> None:
        if conn.closed or conn.corked:
            return
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
                del conn.outbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close_connection(conn)
                return
        if conn.outbuf and not conn.writing:
            conn.writing = True
            self._loop.add_writer(conn.fd, self._flush_or_close, conn)
        elif not conn.outbuf:
            if conn.writing:
                conn.writing = False
                try:
                    self._loop.remove_writer(conn.fd)
                except Exception:
                    pass
            if conn.close_after_flush:
                self._close_connection(conn)

    # -- request handling ------------------------------------------------

    def _handle_frame(self, conn: _Connection, frame: dict) -> None:
        """One request frame, end to end.  MUST NOT raise: every error
        becomes a typed error reply (that invariant is what 'zero
        unhandled server exceptions' means in the t8 gate)."""
        rid = frame.get("id")  # addresses the error of an unknown op too
        rid = rid if isinstance(rid, int) else None
        fault = FAULTS.fire("gateway.daemon", tenant=conn.tenant)
        if fault is not None and fault.kind == "kill_daemon":
            # The mid-request daemon crash: every connection, queued job
            # and listener dies right now, no drain, no goodbye — and
            # the children the tenants hold are orphaned for a
            # supervisor to reconcile.  The request being handled never
            # gets an answer, exactly like a real SIGKILL.
            self._loop.call_soon(self._crash_in_loop)
            return
        try:
            op, rid = check_request(frame)
            if op == "hello":
                self._op_hello(conn, rid, frame)
            elif op == "ping":
                # Pre-auth on purpose: the liveness probe a supervisor
                # (which holds no tenant token) health-checks with.
                # The pong must leak nothing to an unauthenticated TCP
                # peer, so the daemon's pid travels only over Unix
                # sockets (where the peer is already on the box).
                pong = {"id": rid, "pong": True,
                        "version": PROTOCOL_VERSION}
                if conn.is_unix:
                    pong["pid"] = os.getpid()
                self._send(conn, pong)
            elif conn.tenant is None:
                raise AuthError("say hello first (tenant + token)")
            elif op == "spawn":
                self._op_spawn(conn, rid, frame)
            elif op == "wait":
                self._op_wait(conn, rid, frame)
            elif op == "stats":
                self._send(conn, {"id": rid, "stats": self.stats()})
            elif op == "drain":
                self._op_drain(conn, rid, frame)
        except GatewayError as exc:
            self._send(conn, encode_error(exc, rid))
            if isinstance(exc, AuthError) and conn.tenant is None:
                # A failed handshake hangs up; an authenticated tenant
                # denied a privileged op keeps its connection.
                conn.close_after_flush = True
            elif conn.pending_fds:
                # fds arrived with a request the handler never claimed
                # them for.  The FIFO grant<->request association is
                # lost, so drop the connection (closing the stranded
                # fds) rather than wire them into a later request's
                # child — same fatality as a framing error.
                conn.close_after_flush = True
            if conn.close_after_flush:
                self._flush_or_close(conn)
        except Exception as exc:  # the backstop: never kill the loop
            self._internal_errors += 1
            TELEMETRY.count("gateway_internal_errors")
            self._send(conn, encode_error(
                GatewayError(f"internal error: {exc}"), rid))

    def _op_hello(self, conn: _Connection, rid: Optional[int],
                  frame: dict) -> None:
        name = frame.get("tenant")
        token = frame.get("token")
        tenant = self._tenants.get(name) if isinstance(name, str) else None
        if (tenant is None or not isinstance(token, str)
                or not hmac.compare_digest(
                    token.encode(), tenant.config.token.encode())):
            TELEMETRY.count("gateway_auth_failures")
            raise AuthError("unknown tenant or bad token")
        conn.tenant = name
        self._send(conn, {"id": rid, "ok": True,
                          "version": PROTOCOL_VERSION, "tenant": name})

    def _op_drain(self, conn: _Connection, rid: Optional[int],
                  frame: dict) -> None:
        """Flip the daemon into (or, with ``resume``, out of) drain.

        Admin tenants only: drain denies spawn service to *every*
        tenant, so an ordinary tenant issuing it would be exactly the
        cross-tenant starvation the admission ladder exists to prevent.
        """
        tenant = self._tenants[conn.tenant]
        if not tenant.config.admin:
            TELEMETRY.count("gateway_auth_failures")
            raise AuthError(
                f"tenant {conn.tenant!r} is not an admin; the drain op "
                f"affects every tenant and needs an admin token")
        if frame.get("resume"):
            self._end_drain()
        else:
            self._begin_drain()
        self._send(conn, {"id": rid, "draining": self._draining})

    def _take_fds(self, conn: _Connection, frame: dict,
                  members: int) -> List[int]:
        """Claim this request's granted stdio fds (``nfds`` per member).

        ``nfds`` must be 0 (inherit the daemon's stdio) or 3 per
        member; a grant the kernel did not actually deliver is a
        protocol error, mirroring the forkserver's lost-grant check.
        """
        nfds = frame.get("nfds", 0)
        if nfds not in (0, 3):
            raise GatewayProtocolError(f"nfds must be 0 or 3, got {nfds!r}")
        total = nfds * members
        if total == 0:
            return []
        if not conn.is_unix:
            raise GatewayProtocolError(
                "fd grants need a unix-socket connection; TCP clients "
                "must spawn with nfds=0")
        if len(conn.pending_fds) < total:
            raise GatewayProtocolError(
                f"request claims {total} granted fds but only "
                f"{len(conn.pending_fds)} arrived (lost SCM_RIGHTS grant)")
        fds, conn.pending_fds = (conn.pending_fds[:total],
                                 conn.pending_fds[total:])
        return fds

    def _admit(self, conn: _Connection, cost: int) -> _TenantState:
        """The admission ladder: drain, rate, queue bound — in order."""
        tenant = self._tenants[conn.tenant]
        if self._draining:
            raise Overloaded(
                "gateway is draining; try another instance",
                retry_after=self.config.drain_grace)
        if tenant.bucket is not None:
            admitted, retry_after = tenant.bucket.take()
            if not admitted:
                tenant.counters["rate_limited"] += 1
                TELEMETRY.count("gateway_rate_limited", tenant=conn.tenant)
                raise RateLimited(
                    f"tenant {conn.tenant!r} over its "
                    f"{tenant.config.rate:g} req/s contract",
                    retry_after=retry_after)
        if len(tenant.queue) + cost > tenant.config.max_queue:
            tenant.counters["shed"] += 1
            TELEMETRY.count("gateway_shed", tenant=conn.tenant)
            # The hint scales with how deep the backlog is: a full queue
            # behind a slow ladder needs a longer back-off than a blip.
            hint = self.config.retry_after_hint * max(1, len(tenant.queue))
            raise Overloaded(
                f"tenant {conn.tenant!r} queue is full "
                f"({tenant.config.max_queue})", retry_after=hint)
        # Every admitted spawn counts once: in ``admitted`` until its
        # reply is queued, among ``children`` from then until it exits.
        limit = tenant.config.max_children
        if limit is not None and (
                len(tenant.children) + tenant.admitted + cost > limit):
            tenant.counters["shed"] += 1
            TELEMETRY.count("gateway_shed", tenant=conn.tenant)
            raise Overloaded(
                f"tenant {conn.tenant!r} at its limit of {limit} live "
                f"children",
                retry_after=self.config.retry_after_hint)
        return tenant

    def _enqueue(self, tenant: _TenantState, job: _Job) -> None:
        was_empty = not tenant.queue
        tenant.queue.append(job)
        tenant.admitted += job.cost
        tenant.counters["admitted"] += 1
        if was_empty:
            # A newly backlogged tenant joins at the current virtual
            # clock — it gets its fair share from now on, not a refund
            # for the time it was idle (that refund is exactly how one
            # tenant would starve the rest after sitting out a burst).
            tenant.vtime = max(tenant.vtime, self._vclock)
        if TELEMETRY.enabled:
            TELEMETRY.count("gateway_requests", tenant=job.tenant,
                            op="spawn")
            TELEMETRY.gauge("gateway_queue_depth",
                            sum(len(t.queue) for t in self._tenants.values()))
        self._dispatch()

    def _op_spawn(self, conn: _Connection, rid: Optional[int],
                  frame: dict) -> None:
        reqs = frame.get("reqs")
        if not isinstance(reqs, list) or not reqs:
            # Without a member count the grant size is unknowable; if
            # fds did arrive, the _handle_frame backstop hangs up the
            # connection so they cannot leak into a later request.
            raise GatewayProtocolError("spawn needs a non-empty reqs list")
        # Claim this request's grant *before* validating anything else:
        # a rejected request must not leave its fds in pending_fds for
        # the next request to claim FIFO (cross-request misassociation).
        fds = self._take_fds(conn, frame, members=len(reqs))
        try:
            tenant = self._tenants[conn.tenant]
            # A member no exec could take, or a unit no tier of the
            # tenant's ladder can express, is the caller's mistake,
            # refused here: it charges no tenant's or tier's breaker.  The
            # second has its own code, so a caller's ladder passes over
            # its ``gateway`` tier for that request instead of charging it.
            try:
                batch = batch_unit("spawn", BatchRequest.from_wire(reqs),
                                   policy=tenant.policy)
            except SpawnError as exc:
                raise GatewayProtocolError(str(exc)) from exc
            if fds:
                for index, member in enumerate(batch.members):
                    (member.stdin, member.stdout,
                     member.stderr) = fds[3 * index:3 * index + 3]
            try:
                _refuse_inexpressible(
                    _chain(tenant.config.strategy, tenant.policy),
                    _unit_needs(batch.members), f"a batch of {len(batch)}")
            except CannotExpress as exc:
                raise GatewayCannotExpress(str(exc)) from exc
            tenant = self._admit(conn, len(batch))
        except GatewayError:
            self._close_fds(fds)
            raise
        self._enqueue(tenant, _Job(conn, rid, batch, fds, conn.tenant))

    def _op_wait(self, conn: _Connection, rid: Optional[int],
                 frame: dict) -> None:
        """The claim a client makes after a reconnect (and once before a
        timed wait gives up): never blocks.  An exited child's status
        comes from the tenant's remembered exits; a live one answers
        ``null`` and its notice is re-pointed at this connection."""
        tenant = self._tenants[conn.tenant]
        pid = frame.get("pid")
        if not isinstance(pid, int):
            raise GatewayProtocolError(f"wait needs an integer pid, "
                                       f"got {pid!r}")
        status = tenant.exited.get(pid)
        if isinstance(status, str):
            raise GatewayError(status)
        if status is None:
            child = tenant.children.get(pid)
            if child is None:
                raise GatewayError(f"pid {pid} is not a live child of "
                                   f"tenant {conn.tenant!r}")
            child.conn = conn
        self._send(conn, {"id": rid, "status": status})

    # -- exits ------------------------------------------------------------

    def _subscribe(self, tenant: _TenantState, handle) -> None:
        """Ask to be told when ``handle`` exits (loop thread, *after*
        its spawn reply was queued).  Forkserver-family handles call
        back from whoever pumps their helper's channel — this loop, as
        a rule; our own children — the ladder's last tier — hand back a
        pidfd for the loop to watch."""
        tenant.exited.pop(handle.pid, None)  # a recycled pid starts clean
        try:
            fd = handle.on_exit(
                functools.partial(self._on_child_exit, tenant))
        except SpawnError:
            self._poll_child(tenant, handle)  # no pidfd: a timer it is
            return
        if fd is not None:
            self._pidfds[fd] = (tenant, handle)
            self._loop.add_reader(fd, self._on_pidfd, fd)

    def _on_pidfd(self, fd: int) -> None:
        self._loop.remove_reader(fd)
        os.close(fd)
        self._poll_child(*self._pidfds.pop(fd))

    def _poll_child(self, tenant: _TenantState, handle,
                    delay: float = 0.001) -> None:
        """Reap our own child if it is done (which fires its on_exit);
        where no pidfd says when, look again on a backing-off timer."""
        try:
            if handle.poll() is not None:
                return
        except SpawnError:
            self._child_exited(tenant, handle.pid)  # reports the loss
            return
        if not self._closing:
            self._loop.call_later(delay, self._poll_child, tenant, handle,
                                  min(delay * 2, 0.05))

    def _on_child_exit(self, tenant: _TenantState, handle) -> None:
        """The on_exit callback — any thread, must not block."""
        if threading.current_thread() is self._thread:
            self._child_exited(tenant, handle.pid)
        else:
            self._post(self._child_exited, tenant, handle.pid)

    def _child_exited(self, tenant: _TenantState, pid: int) -> None:
        """Push the exit notice and forget the child (loop thread).

        The notice is also remembered (bounded): a connection that died
        around the exit cannot be told, and its client claims the
        status with ``wait`` once it is back.
        """
        child = tenant.children.pop(pid, None)
        if child is None:
            return  # stop() or take_orphans() owns it now
        try:
            status = child.handle.poll()
            if status is None:
                status = f"pid {pid} exited with no status"
        except SpawnError as exc:  # its helper died holding the status
            status = str(exc)
        tenant.exited[pid] = status
        if len(tenant.exited) > EXITS_KEPT:
            del tenant.exited[next(iter(tenant.exited))]
        notice = {"exit": pid, "status": status}
        if isinstance(status, str):
            notice = {"exit": pid, "status": None, "error": status}
        self._push(child.conn, notice)

    # -- the weighted-fair scheduler -------------------------------------

    def _dispatch(self) -> None:
        """Start queued jobs while there is room.  A job that finishes
        while it is started (refused at once) finishes within it: its
        own call here returns, and this loop starts what it made room
        for."""
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._inflight < self.config.max_inflight:
                tenant = self._pick_tenant()
                if tenant is None:
                    break
                job = tenant.queue.popleft()
                # Start-time fair queueing: the global clock follows the
                # dispatched tenant's start tag; its finish tag advances
                # by cost/weight, so heavier tenants accrue time slower
                # and get picked proportionally more often.
                self._vclock = max(self._vclock, tenant.vtime)
                tenant.vtime += job.cost / tenant.config.weight
                tenant.inflight += 1
                self._inflight += 1
                self._jobs.add(job)
                TELEMETRY.gauge("gateway_inflight", self._inflight)
                self._step(job, tenant, self._execute(job), on_loop=True)
        finally:
            self._dispatching = False

    def _pick_tenant(self) -> Optional[_TenantState]:
        best = None
        for tenant in self._tenants.values():
            if tenant.queue and (best is None
                                 or tenant.vtime < best.vtime):
                best = tenant
        return best

    def _step(self, job: _Job, tenant: _TenantState, steps,
              on_loop: bool = False) -> None:
        """Resume a job's steps on this thread until they finish or
        would block: on the loop thread at dispatch, then on whichever
        thread routes the reply that hands out the child — the loop
        again, which takes the helper's channel over to pump it
        (another daemon's loop, if that one has it already).

        Only a first launch waits by callback; whatever the steps stop
        for next — a helper to boot, a back-off, a retry's reply — the
        rest of the ladder runs out on an executor thread.
        """
        try:
            wait = next(steps)
        except StopIteration as done:
            self._finished(job, tenant, done.value, None)
            return
        except Exception as exc:
            self._finished(job, tenant, None, exc)
            return
        if on_loop and wait is not None:
            if wait.timeout is not None:
                job.timer = self._loop.call_later(wait.timeout,
                                                  self._expire, wait)
            if wait.channel not in self._pumped and wait.channel.hand_over(self._loop):
                self._pumped.add(wait.channel)
            wait.notify(functools.partial(self._replied, job, tenant,
                                          steps, wait))
        else:
            self._hand_over(job, tenant, steps)

    def _replied(self, job: _Job, tenant: _TenantState, steps,
                 wait) -> None:
        """A launch's wait is over.  With a child to hand out this is
        the thread that pumped the reply — the loop, as a rule — and
        the steps finish here.  A refusal is the failure
        ladder's — strikes, a helper to retire, a retry — and a loss is
        told by whichever thread killed the helper's channel, holding
        whatever locks it killed it under, which the ladder wants:
        neither ever runs on this thread."""
        if wait.granted:
            self._step(job, tenant, steps)
        else:
            self._hand_over(job, tenant, steps)

    def _expire(self, wait) -> None:
        """Loop thread: a launch's deadline passed.  Aborting a wedged
        helper kills and reaps a process — an executor thread's work."""
        try:
            self._executor.submit(wait.expire)
        except RuntimeError:
            pass  # the daemon is stopping; stop() owns the helpers now

    def _hand_over(self, job: _Job, tenant: _TenantState, steps) -> None:
        """Any thread: the rest of a job's steps is an executor's."""
        try:
            self._executor.submit(self._run_out, job, tenant, steps)
        except RuntimeError:  # the daemon stopped under the job
            steps.close()
            self._close_job_fds(job)

    def _run_out(self, job: _Job, tenant: _TenantState, steps) -> None:
        """Executor thread: the rest of a job's steps, blocking."""
        try:
            reply = run_steps(steps)
        except Exception as exc:
            self._finished(job, tenant, None, exc)
        else:
            self._finished(job, tenant, reply, None)

    def _finished(self, job: _Job, tenant: _TenantState,
                  reply: Optional[dict],
                  error: Optional[Exception]) -> None:
        """Any thread: the job's steps are over.  Its stdio grant is
        closed here, by the thread that ran them — a callback posted to
        a loop that is stopping may never run — and the result goes to
        the loop: handled now, if this is the loop, else posted to it."""
        self._close_job_fds(job)
        if threading.current_thread() is self._thread:
            self._job_done(job, tenant, reply, error)
        else:
            self._post(self._job_done, job, tenant, reply, error)

    def _job_done(self, job: _Job, tenant: _TenantState,
                  reply: Optional[dict],
                  error: Optional[Exception]) -> None:
        self._close_job_fds(job)
        if job not in self._jobs:
            return  # dispatched before a restart; its caller is gone
        self._jobs.remove(job)
        if job.timer is not None:
            job.timer.cancel()
        self._inflight -= 1
        tenant.inflight -= 1
        tenant.admitted -= job.cost
        TELEMETRY.gauge("gateway_inflight", self._inflight)
        if error is not None:
            tenant.counters["failed"] += 1
            if isinstance(error, ExecError):
                wire = GatewayExecError(str(error))
                wire.errno, wire.path = error.errno, error.path
                error = wire
            elif isinstance(error, (SpawnError, OSError)):
                error = GatewayError(str(error))
            elif not isinstance(error, GatewayError):
                self._internal_errors += 1
                TELEMETRY.count("gateway_internal_errors")
                error = GatewayError(f"internal error: {error}")
            self._send(job.conn, encode_error(error, job.rid))
        else:
            tenant.counters["completed"] += 1
            latency_ms = (time.monotonic() - job.t_enqueued) * 1e3
            TELEMETRY.observe("gateway_latency_ms", latency_ms,
                              tenant=job.tenant)
            reply["id"] = job.rid
            # The tenant takes the children over from the job in the
            # same step that stops counting it as admitted.
            conn = job.conn
            handles, job.handles = job.handles, ()
            for handle in handles:
                tenant.children[handle.pid] = _Child(handle, conn)
            # The reply is queued first and the subscriptions after it,
            # so no notice can overtake the reply that hands out its
            # pid; corked, the reply and the notices of children that
            # are already gone leave in one send.
            conn.corked = True
            try:
                self._send(conn, reply)
                for handle in handles:
                    self._subscribe(tenant, handle)
            finally:
                conn.corked = False
                self._flush_or_close(conn)
        self._dispatch()
        self._check_drained()

    # -- the ladder (loop and executor threads) ---------------------------

    def _execute(self, job: _Job):
        """One admitted job through the tenant's strategy ladder, as
        resumable steps (:mod:`repro.core.steps`); returns the reply,
        having left the handles of the children it made on the job.

        Tenant breakers ride the shared :func:`breaker_for` registry
        under a per-tenant key, so a tenant whose spawns keep failing
        stops consuming ladder attempts while everyone else's breaker
        stays closed.  A program the request cannot execute
        (:class:`~repro.errors.ExecError`) is the caller's failure, not
        the tenant's: it charges no breaker.
        """
        tenant = self._tenants[job.tenant]
        breaker = breaker_for(f"gateway:{job.tenant}", tenant.policy)
        if not breaker.allow():
            raise Overloaded(
                f"tenant {job.tenant!r} circuit breaker is open",
                retry_after=tenant.policy.breaker_cooldown)
        try:
            result = yield from _spawn_batch_steps(
                job.batch, tenant.config.strategy)
        except ExecError:
            breaker.abandon()  # the request's program: no tenant verdict
            raise
        except (SpawnError, OSError):
            breaker.record_failure()
            raise
        except BaseException:
            breaker.abandon()  # closed under the job: no verdict
            raise
        breaker.record_success()
        # Held by the job from here, not only from _job_done: a daemon
        # that crashes in between must still find the child among its
        # orphans.
        job.handles = tuple(result.children)
        return {"pids": result.pids, "strategy": result.strategy}

    # -- stats ------------------------------------------------------------

    def stats(self) -> dict:
        """A point-in-time snapshot (also the ``stats`` op's reply)."""
        tenants = {}
        for name, tenant in self._tenants.items():
            tenants[name] = dict(tenant.counters,
                                 queued=len(tenant.queue),
                                 inflight=tenant.inflight,
                                 children=len(tenant.children),
                                 weight=tenant.config.weight,
                                 vtime=round(tenant.vtime, 6))
        return {"draining": self._draining,
                "inflight": self._inflight,
                "internal_errors": self._internal_errors,
                "shed_total": sum(t.counters["shed"]
                                  for t in self._tenants.values()),
                "tenants": tenants}

    # -- small helpers -----------------------------------------------------

    @staticmethod
    def _close_fds(fds: List[int]) -> None:
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass

    def _close_job_fds(self, job: _Job) -> None:
        fds, job.fds = job.fds, []
        self._close_fds(fds)

    def __repr__(self):
        where = self._unix_path or f"tcp:{self._tcp_port}"
        return (f"<GatewayServer {where} tenants={len(self._tenants)} "
                f"{'draining' if self._draining else 'serving'}>")


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.gateway``: run a standalone daemon.

    Takes one argument — the JSON config path — plus ``--print-stats``
    to dump a stats snapshot on exit.  SIGTERM (and SIGINT) drain
    gracefully: in-flight and queued spawns complete, new ones are
    refused with Retry-After, then the daemon exits 0.
    """
    import argparse
    import signal

    parser = argparse.ArgumentParser(
        prog="repro.gateway", description="multi-tenant spawn daemon")
    parser.add_argument("config", help="path to a gateway JSON config")
    parser.add_argument("--print-stats", action="store_true",
                        help="dump a stats snapshot to stdout on exit")
    args = parser.parse_args(argv)

    config = GatewayConfig.from_file(args.config)
    server = GatewayServer(config).start()
    done = threading.Event()

    def on_signal(signum, frame):
        server.drain()
        done.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    where = server.unix_path or f"{config.tcp_host}:{server.tcp_port}"
    print(f"gateway listening on {where} "
          f"({len(config.tenants)} tenants)", flush=True)
    done.wait()
    server.stop()
    if args.print_stats:
        print(json.dumps(server.stats(), indent=2))
    return 0
