"""GatewaySupervisor: keep one spawn daemon alive and zombie-free.

The gateway daemon is a single point of failure by construction — one
process fronting every tenant's spawns — so PR 11's availability story
is incomplete without an answer to "what happens when the daemon
dies?".  This module is that answer, in three parts:

* **health checks** — the supervisor probes the daemon over the real
  wire with the pre-auth ``ping`` op (plus a cheap liveness check on
  the loop thread), so it detects not just a dead process but a wedged
  one that accepts connections and never answers;
* **bounded restart** — a failed daemon is restarted on the same
  address (the Unix-socket path survives restarts, so resilient
  clients simply reconnect), with exponential backoff between
  consecutive failures so a crash loop cannot become a restart storm;
  after ``max_restarts`` consecutive failures its breaker opens: the
  supervisor gives up and reports it, rather than burning CPU forever;
* **orphan reconciliation** — a crashed daemon strands its tenants'
  children (they are the daemon's children; nobody is left to ``wait``
  on them).  Before restarting, the supervisor claims them via
  :meth:`~repro.gateway.server.GatewayServer.take_orphans` and reaps
  every one — sleeping on each child's exit for what is left of one
  ``orphan_grace``, then SIGKILLing the rest — so a daemon crash never
  leaks a zombie.

Counters: ``daemon_restart`` increments per restart,
``orphans_reaped`` per reconciled child, both visible in
``repro-bench metrics`` and gated by the t9-chaos experiment.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional

from ..core.policy import Backoff, CircuitBreaker
from ..errors import GatewayError
from ..obs import TELEMETRY
from ..wire import FrameDecoder, encode_frame
from .config import GatewayConfig
from .server import GatewayServer


def ping_gateway(address, timeout: float = 2.0) -> bool:
    """One wire-level liveness probe: dial, ``ping``, expect a pong.

    Token-free (the daemon answers ``ping`` before auth) and built on
    a throwaway socket, so a supervisor can probe without holding a
    tenant credential or disturbing the shared client channel.
    """
    if address is None:
        return False
    family = (socket.AF_UNIX if isinstance(address, str)
              else socket.AF_INET)
    try:
        with socket.socket(family, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(address)
            sock.sendall(encode_frame({"op": "ping", "id": 0}))
            decoder = FrameDecoder()
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                data = sock.recv(4096)
                if not data:
                    return False
                for frame in decoder.feed(data):
                    return bool(frame.get("pong"))
    except (OSError, GatewayError):
        return False
    return False


class GatewaySupervisor:
    """Run a :class:`GatewayServer` under restart-on-crash supervision.

    ``start()`` boots the daemon and a monitor thread; the monitor
    probes every ``check_interval`` seconds and restarts a dead or
    unresponsive daemon (see the module docstring for the policy).
    ``stop()`` shuts both down and reaps every remaining child.
    Usable as a context manager.
    """

    def __init__(self, config: GatewayConfig, *,
                 check_interval: float = 0.25,
                 ping_timeout: float = 2.0,
                 max_restarts: int = 8,
                 backoff: Backoff = Backoff(jitter=0.0),
                 healthy_reset: float = 5.0,
                 orphan_grace: float = 5.0):
        self.config = config
        self._check_interval = check_interval
        self._ping_timeout = ping_timeout
        self._backoff = backoff
        self._healthy_reset = healthy_reset
        self._orphan_grace = orphan_grace
        self._server: Optional[GatewayServer] = None
        self._monitor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        #: Failures in a row: indexes the back-off, and once open stays
        #: open (nobody asks it ``allow()``) — that is giving up.
        self._breaker = CircuitBreaker(threshold=max_restarts + 1)
        self._healthy_since = 0.0
        #: Restarts performed over this supervisor's lifetime.
        self.restarts = 0
        #: Children reconciled (reaped) across restarts and shutdown.
        self.orphans_reaped = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def server(self) -> Optional[GatewayServer]:
        return self._server

    @property
    def gave_up(self) -> bool:
        """``max_restarts`` consecutive failures spent the budget: the
        daemon stays down and clients rely on their policy's ladder."""
        return self._breaker.state == CircuitBreaker.OPEN

    @property
    def address(self):
        """Where clients dial: stable across daemon restarts.

        A Unix path when one is configured; otherwise the TCP
        ``(host, port)`` pair (the *bound* port once the daemon is up,
        which matters when the config asked for port 0).
        """
        if self._server is not None and self._server.unix_path:
            return self._server.unix_path
        if self.config.unix_path is not None:
            return self.config.unix_path
        if self._server is not None and self._server.tcp_port is not None:
            return (self.config.tcp_host, self._server.tcp_port)
        if self.config.tcp_port is not None:
            return (self.config.tcp_host, self.config.tcp_port)
        return None

    def start(self) -> "GatewaySupervisor":
        """Boot the daemon and the monitor thread (idempotent)."""
        with self._lock:
            if self._monitor is not None:
                return self
            self._stop_event.clear()
            self._breaker.reset()
            if self._server is None:
                self._server = GatewayServer(self.config)
            self._server.start()
            self._healthy_since = time.monotonic()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="gateway-supervisor",
                daemon=True)
            self._monitor.start()
        return self

    def stop(self) -> None:
        """Stop supervising, stop the daemon, reap every child."""
        self._stop_event.set()
        monitor, self._monitor = self._monitor, None
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=10.0)
        with self._lock:
            server, self._server = self._server, None
        if server is not None:
            self._reap(list(server.take_orphans().values()))
            server.stop()

    def __enter__(self) -> "GatewaySupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- health -----------------------------------------------------------

    def healthy(self) -> bool:
        """One probe, now: loop thread alive *and* a pong on the wire."""
        server = self._server
        if server is None or not server.running:
            return False
        return ping_gateway(self.address, timeout=self._ping_timeout)

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self._check_interval):
            if self.gave_up:
                return
            try:
                if self.healthy():
                    if (self._breaker.failures
                            and time.monotonic() - self._healthy_since
                            >= self._healthy_reset):
                        self._breaker.record_success()
                    continue
                self._restart()
            except Exception as exc:
                # An unexpected probe/restart error must not end
                # supervision silently: report it and keep ticking.
                TELEMETRY.event("gateway_supervisor_error",
                                error=f"{type(exc).__name__}: {exc}")

    # -- restart ----------------------------------------------------------

    def _restart(self) -> None:
        """One supervised restart: reconcile orphans, back off, reboot."""
        with self._lock:
            if self._stop_event.is_set() or self._server is None:
                return
            if self._breaker.record_failure():
                TELEMETRY.event("gateway_restart_giveup",
                                restarts=self.restarts)
                return
            server = self._server
            orphans = list(server.take_orphans().values())
            try:
                server.stop()
            except Exception:
                pass
            self._reap(orphans)
            # Bounded restart-storm backoff: exponential in the run of
            # consecutive failures, capped, and interruptible by stop().
            if self._stop_event.wait(
                    self._backoff.delay(self._breaker.failures - 1)):
                return
            try:
                server.start()
            except GatewayError as exc:
                TELEMETRY.event("gateway_restart_failed", error=str(exc))
                return  # next monitor tick retries with more backoff
            self.restarts += 1
            self._healthy_since = time.monotonic()
            TELEMETRY.count("daemon_restart")
            TELEMETRY.event("gateway_restart", restarts=self.restarts)

    # -- orphan reconciliation --------------------------------------------

    def _reap(self, orphans: List[object]) -> None:
        """Wait on every stranded child; SIGKILL what the grace leaves.

        The children were launched by the daemon's executor threads
        inside *this* process (the daemon is an embedded loop, not a
        separate pid), so the handles' own reapers still work after the
        loop died: each wait sleeps on its child's exit, for what is
        left of one shared ``orphan_grace``.
        """
        deadline = time.monotonic() + self._orphan_grace
        for child in orphans:
            try:
                child.wait(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                # Past the grace, or the handle is unreapable (its
                # service died with the daemon): kill, then reap.
                try:
                    child.kill()
                except Exception:
                    pass
                try:
                    child.wait(timeout=2.0)
                except Exception:
                    pass
            self.orphans_reaped += 1
            TELEMETRY.count("orphans_reaped")

    def __repr__(self):
        state = ("gave-up" if self.gave_up
                 else "supervising" if self._monitor is not None
                 else "stopped")
        return (f"<GatewaySupervisor {self.address!r} {state} "
                f"restarts={self.restarts} "
                f"orphans_reaped={self.orphans_reaped}>")
