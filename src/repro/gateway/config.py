"""Gateway configuration: tenants and daemon-wide knobs.

A *tenant* is one customer of the spawn service: an auth token, a
bounded queue, a token-bucket rate limit, a weighted-fair share, and
optionally its own :class:`~repro.core.policy.SpawnPolicy` and launch
strategy.  The daemon multiplexes every tenant over the same warm
pools; these knobs are what keep one noisy tenant from starving the
rest.

Configs load from JSON (``GatewayConfig.from_dict`` /
``from_file``) for the standalone daemon, or are built in code for the
embedded one the ``gateway`` strategy boots.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..core.policy import SpawnPolicy
from ..errors import GatewayError


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's contract with the gateway.

    Attributes:
        name: tenant identifier (the ``hello`` frame's ``tenant``).
        token: shared-secret auth token (compared in constant time).
        max_queue: bound on queued-but-not-dispatched requests; past
            it the gateway sheds with :class:`~repro.errors.Overloaded`.
        rate: sustained requests/second admitted by the token bucket
            (``None`` = unlimited).
        burst: bucket capacity — how far above ``rate`` a short burst
            may go before :class:`~repro.errors.RateLimited`.
        weight: weighted-fair share; a weight-2 tenant drains twice as
            fast as a weight-1 tenant under contention.
        strategy: launch strategy serving this tenant (default
            ``forkserver-pool``).
        policy: the tenant's :class:`SpawnPolicy` (deadline, retries,
            breakers); ``None`` uses a modest default built by the
            server.
        max_children: bound on *live* (spawned, not yet exited)
            children; ``None`` = unlimited.
        admin: whether this tenant may issue the ``drain`` op (flip
            the whole daemon into/out of refuse-new mode).  Ordinary
            tenants get :class:`~repro.errors.AuthError` — one tenant
            must not be able to deny spawn service to the rest.
    """

    name: str
    token: str
    max_queue: int = 64
    rate: Optional[float] = None
    burst: Optional[float] = None
    weight: float = 1.0
    strategy: str = "forkserver-pool"
    policy: Optional[SpawnPolicy] = None
    max_children: Optional[int] = None
    admin: bool = False

    def __post_init__(self):
        if not self.name:
            raise GatewayError("tenant needs a name")
        if not self.token:
            raise GatewayError(f"tenant {self.name!r} needs a token")
        if self.max_queue < 1:
            raise GatewayError(
                f"tenant {self.name!r}: max_queue must be >= 1")
        if self.rate is not None and self.rate <= 0:
            raise GatewayError(f"tenant {self.name!r}: rate must be > 0")
        if self.burst is not None and self.burst < 1:
            raise GatewayError(f"tenant {self.name!r}: burst must be >= 1")
        if self.weight <= 0:
            raise GatewayError(f"tenant {self.name!r}: weight must be > 0")
        if self.strategy == "gateway":
            raise GatewayError(
                f"tenant {self.name!r}: a gateway tenant cannot be served "
                f"by the 'gateway' strategy (infinite recursion)")

    @classmethod
    def from_dict(cls, data: dict) -> "TenantConfig":
        policy = data.get("policy")
        if isinstance(policy, dict):
            policy = SpawnPolicy(**policy)
        return cls(
            name=data["name"], token=data["token"],
            max_queue=int(data.get("max_queue", 64)),
            rate=data.get("rate"), burst=data.get("burst"),
            weight=float(data.get("weight", 1.0)),
            strategy=data.get("strategy", "forkserver-pool"),
            policy=policy,
            max_children=data.get("max_children"),
            admin=bool(data.get("admin", False)))


@dataclass
class GatewayConfig:
    """Daemon-wide knobs: where to listen and how much to run at once.

    Attributes:
        unix_path: Unix-socket path to listen on (``None`` = no Unix
            listener).  Only Unix connections can grant stdio fds.
        tcp_host/tcp_port: TCP listener (``tcp_port=None`` disables).
        tenants: name -> :class:`TenantConfig`.
        max_inflight: spawns executing concurrently across all tenants
            (the dispatch semaphore — the knob overload presses on; also
            the most threads the failure ladder's executor may grow to).
        drain_grace: seconds a SIGTERM drain waits for in-flight work
            before the daemon gives up and exits anyway.
        retry_after_hint: base Retry-After seconds for shed requests
            (scaled by queue pressure).
        accept_backlog: listen(2) backlog for both listeners.
    """

    unix_path: Optional[str] = None
    tcp_host: str = "127.0.0.1"
    tcp_port: Optional[int] = None
    tenants: Dict[str, TenantConfig] = field(default_factory=dict)
    max_inflight: int = 32
    drain_grace: float = 30.0
    retry_after_hint: float = 0.05
    accept_backlog: int = 128

    def __post_init__(self):
        if self.unix_path is None and self.tcp_port is None:
            raise GatewayError(
                "gateway needs at least one listener (unix_path or "
                "tcp_port)")
        if self.max_inflight < 1:
            raise GatewayError("max_inflight must be >= 1")
        if self.drain_grace < 0:
            raise GatewayError("drain_grace must be >= 0")
        if not self.tenants:
            raise GatewayError("gateway needs at least one tenant")

    @classmethod
    def from_dict(cls, data: dict) -> "GatewayConfig":
        tenants = {}
        for tenant in data.get("tenants", ()):
            config = TenantConfig.from_dict(tenant)
            if config.name in tenants:
                raise GatewayError(f"duplicate tenant {config.name!r}")
            tenants[config.name] = config
        return cls(
            unix_path=data.get("unix_path"),
            tcp_host=data.get("tcp_host", "127.0.0.1"),
            tcp_port=data.get("tcp_port"),
            tenants=tenants,
            max_inflight=int(data.get("max_inflight", 32)),
            drain_grace=float(data.get("drain_grace", 30.0)),
            retry_after_hint=float(data.get("retry_after_hint", 0.05)),
            accept_backlog=int(data.get("accept_backlog", 128)))

    @classmethod
    def from_file(cls, path: str) -> "GatewayConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise GatewayError(f"cannot read gateway config {path!r}: "
                               f"{exc}") from exc
        except ValueError as exc:
            raise GatewayError(f"gateway config {path!r} is not valid "
                               f"JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise GatewayError(f"gateway config {path!r} must be a JSON "
                               f"object")
        return cls.from_dict(data)


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, ``burst`` deep.

    :meth:`take` admits a request (consuming one token) or answers with
    the seconds until a token will exist — the Retry-After hint.  The
    clock is injectable so tests run on virtual time.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = None):
        import time as _time
        if rate <= 0:
            raise GatewayError(f"token bucket rate must be > 0: {rate}")
        self._rate = float(rate)
        self._burst = max(1.0, float(burst))
        self._clock = clock or _time.monotonic
        self._tokens = self._burst
        self._stamp = self._clock()
        self._lock = threading.Lock()

    def take(self) -> Tuple[bool, float]:
        """``(admitted, retry_after)`` for one request right now."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self._burst, self._tokens + (now - self._stamp) * self._rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self._rate

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens
