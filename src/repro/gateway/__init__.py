"""repro.gateway — the spawn service as a network-facing daemon.

The paper's complaint is that ``fork`` couples process creation to one
process's private state; :mod:`repro.core` replaces that with explicit
builders, pools, and template zygotes — but as a single-process
*library*.  This package turns the library into a *service*: an asyncio
daemon listening on a Unix socket (and optionally TCP) that multiplexes
many tenants over the same warm spawn machinery.

The pieces:

* :mod:`repro.gateway.protocol` — the gateway's ops (``hello``/
  ``spawn``/``wait``/``stats``/``drain``)
  and the two-way mapping between wire error codes and the
  :class:`~repro.errors.GatewayError` hierarchy.  The frames themselves
  — :func:`encode_frame`, the incremental :class:`FrameDecoder` that
  turns arbitrary bytes into frames or typed protocol errors — are
  :mod:`repro.wire`'s, re-exported here.
* :mod:`repro.gateway.config` — :class:`TenantConfig` (auth token,
  queue bound, token-bucket rate, weighted-fair share, spawn policy)
  and :class:`GatewayConfig` (listeners, executor width, drain grace).
* :mod:`repro.gateway.server` — :class:`GatewayServer`: per-tenant
  admission control, weighted-fair queueing, token-bucket rate limits,
  bounded queues with load shedding and Retry-After hints, graceful
  drain on SIGTERM, and counters/histograms through :mod:`repro.obs`.
* :mod:`repro.gateway.client` — :class:`GatewayClient`, a synchronous
  pipelined client that self-heals across connection loss (typed
  failures, capped-backoff reconnect with re-auth, re-issued waits),
  and the ``gateway`` launch strategy that lets the same
  :class:`~repro.core.ProcessBuilder` program run against the daemon.
* :mod:`repro.gateway.supervisor` — :class:`GatewaySupervisor`:
  wire-level ``ping`` health checks, bounded restart-on-crash, and
  reconciliation of children a crashed daemon orphaned.

Run a standalone daemon with ``python -m repro.gateway``; see
``docs/GATEWAY.md`` for the protocol spec, the failure-mode catalogue,
and the tuning guide.
"""

from .client import GatewayClient
from .config import GatewayConfig, TenantConfig
from ..wire import MAX_FRAME_BYTES, FrameDecoder, encode_frame
from .protocol import ERROR_CODES, decode_error, encode_error
from .server import GatewayServer
from .supervisor import GatewaySupervisor, ping_gateway

__all__ = [
    "ERROR_CODES", "FrameDecoder", "GatewayClient", "GatewayConfig",
    "GatewayServer", "GatewaySupervisor", "MAX_FRAME_BYTES",
    "TenantConfig", "decode_error", "encode_error", "encode_frame",
    "ping_gateway",
]
