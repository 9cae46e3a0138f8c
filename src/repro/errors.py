"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch everything from one root.  The simulated kernel
additionally reports POSIX-style failures through :class:`SimOSError`,
which carries a symbolic errno (``"ENOMEM"``, ``"EBADF"``, ...) so tests
can assert on the exact failure mode without importing the host's
``errno`` values.
"""

from __future__ import annotations

import errno as _errno
import os
from typing import Optional


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class SpawnError(ReproError):
    """A real-OS process could not be created.

    Raised by :mod:`repro.core` when every applicable strategy failed or
    when the request itself is invalid (e.g. an empty argv).
    """


class ExecError(SpawnError):
    """The request's program could not be executed, on any launcher.

    A failed exec — or the ``cwd`` change before it — whose errno says
    the same request would fail the same way on every tier: a missing
    file, a path through a non-directory, no execute permission, no
    format the kernel runs.  Every launch path raises it at launch,
    instead of handing back a child that exits 127, and no one is
    charged for it: the ladder neither retries nor degrades, the pool
    strikes no helper, the gateway charges no tenant.

    Attributes:
        errno: the OS error number (``errno.ENOENT``, ...).
        path: what could not be used — the program, or the ``cwd``.
    """

    errno: Optional[int] = None
    path: Optional[str] = None

    def __init__(self, message: str = "", *, errno: Optional[int] = None,
                 path: Optional[str] = None):
        if errno is not None:
            self.errno = errno
        if path is not None:
            self.path = path
        super().__init__(message or f"cannot launch {path!r}: "
                         f"{_errno.errorcode.get(errno, errno)} "
                         f"({os.strerror(errno or 0)})")

    #: The errnos a failed exec or chdir reports about the request
    #: itself.  Any other — ``EAGAIN``, ``ENOMEM``, ``EMFILE``,
    #: ``ENFILE`` — is the launcher's, and stays the tier's to answer.
    REQUEST_ERRNOS = frozenset({
        _errno.ENOENT, _errno.ENOTDIR, _errno.EACCES, _errno.EPERM,
        _errno.ENOEXEC, _errno.ELOOP, _errno.ENAMETOOLONG, _errno.EISDIR,
        _errno.ETXTBSY, _errno.E2BIG, _errno.ELIBBAD})

    @classmethod
    def raise_for(cls, exc: OSError, program: str) -> None:
        """Raise the request's :class:`ExecError` for ``exc``, an
        ``OSError`` from a launch's exec step or ``cwd`` change, when its
        errno belongs to the request; return (for the caller's bare
        ``raise``) when it is the tier's.  ``exc.filename`` names what
        failed; without one, ``program`` does."""
        if exc.errno in cls.REQUEST_ERRNOS:
            path = os.fsdecode(exc.filename if exc.filename is not None
                               else program)
            raise cls(errno=exc.errno, path=path) from exc


class CannotExpress(SpawnError):
    """A launcher's declaration lacks what the request asks of it
    (``"<tier> cannot express <what>"``).  The ladder passes over such
    a tier for that request: no attempt, no back-off, no verdict."""


class SpawnTimeout(SpawnError):
    """A spawn request outlived its deadline.

    Raised by :meth:`repro.wire.Channel.result` when a
    :class:`~repro.core.policy.SpawnPolicy` deadline (or an explicit
    per-request one) expires before the peer replies.  On a forkserver
    an expired request *poisons* the channel — the helper may be wedged
    mid-frame — so the server is aborted and replaced rather than
    trusted again; a gateway connection stays up.
    """


class GatewayError(ReproError):
    """Root for spawn-gateway failures (client- and server-side).

    Every public entry point of :mod:`repro.gateway` raises only
    descendants of this class (which is itself a :class:`ReproError`),
    and each subclass carries a stable wire ``code`` so a protocol
    error frame and the exception it becomes round-trip losslessly —
    see :data:`repro.gateway.protocol.ERROR_CODES`.
    """

    #: Stable protocol error code for this class (wire ``error.code``).
    code = "gateway"

    def __init__(self, message: str = "", *,
                 retry_after: "float | None" = None):
        super().__init__(message or self.code)
        #: Seconds the client should wait before retrying (``None`` when
        #: retrying sooner is fine); populated for backpressure errors.
        self.retry_after = retry_after


class GatewayProtocolError(GatewayError):
    """A malformed frame or request the gateway could not interpret.

    Covers oversized or truncated length prefixes, non-UTF-8 or junk
    JSON bodies, missing required fields and unknown ops.  The framing
    layer (:mod:`repro.wire`, under forkserver and gateway alike) raises
    it instead of letting codec exceptions (``ValueError``,
    ``UnicodeDecodeError``, ``struct.error``) leak to callers.
    """

    code = "protocol"


class AuthError(GatewayError):
    """The connection is not authenticated (bad tenant or token).

    Raised for an unknown tenant name, a wrong token, or an operation
    attempted before the ``hello`` handshake.
    """

    code = "auth"


class RateLimited(GatewayError):
    """The tenant exceeded its token-bucket rate limit.

    ``retry_after`` carries the seconds until the bucket refills enough
    to admit one request — the wire protocol's Retry-After hint.
    """

    code = "rate_limited"


class Overloaded(GatewayError):
    """The gateway shed the request (queue full, or draining).

    Backpressure made visible: the tenant's bounded queue is full, or
    the daemon is in SIGTERM drain and refuses new work.
    ``retry_after`` hints when capacity is expected back.
    """

    code = "overloaded"


class GatewayExecError(GatewayError, ExecError):
    """An :class:`ExecError` the daemon's launch raised, carried back
    over the wire with its ``errno`` and ``path``: a gateway error and
    the request's exec failure at once."""

    code = "exec"


class GatewayCannotExpress(GatewayProtocolError, CannotExpress):
    """The daemon refused a request at admission because no tier of the
    tenant's ladder can express it: still the protocol refusal it always
    was, and a :class:`CannotExpress` the caller's ladder passes over."""

    code = "cannot_express"


class GatewayConnectionLost(GatewayError):
    """The connection to the gateway died with requests in flight.

    Raised client-side when the daemon hangs up, resets the connection,
    or the stream breaks mid-frame.  Every pending request on the
    channel fails with this type, so callers can distinguish "the
    daemon refused this request" (any other :class:`GatewayError`) from
    "nobody knows what happened to this request" — the ambiguous
    failure that must never be blindly retried for non-idempotent ops.
    """

    code = "conn_lost"


class FaultPlanError(ReproError):
    """A fault-injection plan could not be parsed or validated.

    Raised by :mod:`repro.faults` for unknown fault kinds, malformed
    JSON plans, or a ``REPRO_FAULTS`` environment value that names a
    missing file.
    """


class ForkSafetyError(ReproError):
    """A fork-safety invariant was violated.

    Raised by :mod:`repro.core.safety` when a guarded ``fork`` is
    attempted from an environment the guard considers unsafe (live
    threads, held locks, dirty stdio buffers) and the policy is
    ``"raise"``.
    """


class SimError(ReproError):
    """Root for simulated-kernel errors that are *not* syscall failures.

    These indicate misuse of the simulator API (e.g. operating on a dead
    process object) rather than an error a simulated program could
    legitimately observe.
    """


class SimOSError(SimError):
    """A simulated syscall failed with a POSIX-style error.

    Attributes:
        errno_name: symbolic errno such as ``"ENOMEM"`` or ``"ECHILD"``.
    """

    def __init__(self, errno_name: str, message: str = ""):
        self.errno_name = errno_name
        super().__init__(f"[{errno_name}] {message}" if message else errno_name)


class SimMemoryError(SimOSError):
    """Out of simulated physical memory or commit charge (``ENOMEM``)."""

    def __init__(self, message: str = "out of simulated memory"):
        super().__init__("ENOMEM", message)


class SimSegfault(SimError):
    """A simulated program touched an unmapped or protected address.

    Mirrors a SIGSEGV delivered for an invalid access.  Carries the
    faulting address and the kind of access that failed.
    """

    def __init__(self, address: int, access: str = "read"):
        self.address = address
        self.access = access
        super().__init__(f"segfault: {access} at {address:#x}")


class DeadlockError(SimError):
    """The deterministic scheduler found no runnable task while tasks block.

    This is how the simulator surfaces the paper's fork-with-threads
    deadlock: the child waits forever on a lock whose owner thread does
    not exist in the child.
    """


class LintError(ReproError):
    """The static analyzer could not process an input (bad path, syntax)."""


class BenchError(ReproError):
    """A benchmark harness precondition failed (unknown experiment, ...)."""


class ObsError(ReproError):
    """A telemetry precondition failed (bad sink, empty histogram, ...)."""
