"""Cross-process construction as a first-class launch strategy.

The paper's constructive proposal is not just "use spawn": it is the
Zircon/ExOS model where a child starts **empty** and the parent builds
it explicitly through handles — map memory into it, grant descriptors
into it, install signal state, then start a thread.  The sim kernel has
spoken that dialect for a while (:mod:`repro.sim.syscalls.xproc`); this
module surfaces it at the library's front door:

* :class:`CrossProcessBuilder` — the builder itself, usable over any
  :class:`~repro.sim.kernel.Kernel`: one fluent object per child,
  priced by the sim's virtual clock and traced per construction stage
  (``xproc_create`` → ``xproc_map`` → ``xproc_grant_fd`` →
  ``xproc_start``) through :mod:`repro.obs`.
* :class:`XProcStrategy`, registered as ``"xproc"`` — the same
  ``(argv, FileActions, SpawnAttributes)`` contract every other
  strategy honours, so an unmodified :class:`~repro.core.spawn
  .ProcessBuilder` program runs against the sim backend, fallback
  ladders and circuit breakers included.

The strategy keeps one lazily booted machine (and an *agent* process on
it that issues the construction syscalls) shared process-wide, the way
the pool strategy keeps one pool.  Host descriptors cross the boundary
through :class:`HostOFD`: the agent installs a ``dup()`` of the real
descriptor behind a sim open-file description, grants it with the real
``xproc_grant_fd`` syscall, and the child's reads and writes land on
the host pipe or file — which is what lets ``run(..., strategy="xproc")``
capture stdout exactly as it would from ``posix_spawn``.

One semantic difference is inherent: the sim is deterministic virtual
time, so the child runs **to completion inside** ``launch`` (the handle
you get back is already exited, successfully reaped through the sim's
own ``waitpid``).  A child reading a piped stdin therefore sees
whatever bytes exist at launch time and then EOF — preload stdin, or
use ``stdin_from_file``; there is no way to feed a child that has
already finished.

A launch drives its child with one call to the kernel's own scheduler,
``Kernel.run(root=pid, deadline=...)``.  That run steps the child and
every process created beneath it, never the agent or an earlier
launch's leftovers, so a launch costs the same on an aged machine as on
a fresh one.  A stuck subtree surfaces as a :class:`SpawnError` naming
its blocked threads, a passed deadline as a :class:`SpawnTimeout`.
"""

from __future__ import annotations

import errno
import os
import select
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from ..errors import (DeadlockError, ExecError, SimError, SimOSError,
                      SpawnError, SpawnTimeout)
from ..obs import NULL_TRACE, TELEMETRY
from .attrs import SpawnAttributes
from .file_actions import FileActions
from .result import ChildProcess
from .strategies import Strategy, _stdio_grant, register_strategy

#: Scheduler-step budget for one launched child's subtree: generous for
#: any real workload, small enough that a runaway sim program fails the
#: spawn instead of hanging the caller.
MAX_CHILD_STEPS = 1_000_000


class HostOFD:
    """A sim open-file description backed by a real host descriptor.

    This is the bridge that makes the ``xproc`` strategy's children
    observable: the agent wraps ``os.dup()`` of a host fd (a pipe end
    the :class:`~repro.core.spawn.ProcessBuilder` created, an opened
    file, the caller's own stderr), installs it in its sim descriptor
    table, and grants it into the embryo — so a sim child's ``write(1,
    ...)`` lands on the host pipe the parent is about to drain.

    Reads never block: the child runs eagerly inside ``launch``, when
    nobody can be on the other end of a pipe to feed it more, so a
    descriptor with nothing buffered reads as EOF (checked with a
    zero-timeout ``select`` — the host fd's status flags are shared
    with the parent's descriptor and must not be mutated).  The dup is
    closed when the last sim reference drops, which is how the parent's
    ``read_stdout`` sees EOF after the child exits.
    """

    def __init__(self, host_fd: int, *, readable: bool, writable: bool,
                 label: str = "host-fd"):
        from ..sim.fs import Inode, OpenFileDescription
        # Compose rather than subclass across the core/sim boundary at
        # import time?  No: the fdtable type-checks nothing, but read/
        # write/decref dispatch through the OFD interface, so being one
        # keeps every sharing rule (dup, fork, refcounts) honest.
        self._inner = OpenFileDescription(Inode("file", label),
                                          readable, writable)
        self.host_fd = host_fd

    # The FDTable and file syscalls only ever touch this surface:

    @property
    def inode(self):
        return self._inner.inode

    @property
    def readable(self):
        return self._inner.readable

    @property
    def writable(self):
        return self._inner.writable

    @property
    def refcount(self):
        return self._inner.refcount

    def incref(self) -> None:
        self._inner.incref()

    def decref(self) -> None:
        self._inner.decref()
        if self._inner.refcount == 0 and self.host_fd is not None:
            fd, self.host_fd = self.host_fd, None
            try:
                os.close(fd)
            except OSError:
                pass

    def read(self, nbytes: int) -> bytes:
        if not self.readable:
            raise SimOSError("EBADF", "not open for reading")
        if self.host_fd is None:
            return b""
        ready, _, _ = select.select([self.host_fd], [], [], 0)
        if not ready:
            return b""  # nothing buffered now means nothing ever (EOF)
        return os.read(self.host_fd, nbytes)

    def write(self, data: bytes) -> int:
        if not self.writable:
            raise SimOSError("EBADF", "not open for writing")
        if self.host_fd is None:
            raise SimOSError("EPIPE", "host descriptor already closed")
        return os.write(self.host_fd, bytes(data))

    def seek(self, offset: int, whence: int = 0) -> int:
        raise SimOSError("ESPIPE", "seek on a host-backed descriptor")

    def __repr__(self):
        return (f"<HostOFD fd={self.host_fd} rc={self.refcount} "
                f"{self.inode.name_hint!r}>")


class CrossProcessBuilder:
    """Piece-by-piece construction of one sim child through handles.

    One builder per child, over any kernel and calling thread::

        builder = CrossProcessBuilder(kernel, thread).create("worker")
        addr = builder.map(4 * MIB)
        builder.populate(addr, 4 * MIB)
        builder.grant_fd(log_fd, 1)
        builder.sigaction(SIGTERM, handler)
        pid = builder.start("/bin/worker", argv=("--fast",))

    Every call goes through :meth:`Kernel.timed_call`, so the virtual
    cost of the whole construction accumulates on :attr:`spent_ns` —
    that number is t10's y-axis.  Each stage stamps an ``xproc_<op>``
    trace stage and bumps the ``xproc_stage`` counter, so a construction
    reads as a timeline in ``repro-bench metrics`` exactly like a
    forkserver spawn does.

    Builder-level misuse (start before create, two starts) raises
    :class:`SpawnError`; kernel-level failures (bad handle, unknown
    program) surface as the sim's own stage-stamped
    :class:`~repro.errors.SimOSError`.
    """

    def __init__(self, kernel, thread, *, trace=NULL_TRACE):
        self._kernel = kernel
        self._thread = thread
        self._trace = trace
        self.handle: Optional[int] = None
        self.pid: Optional[int] = None
        #: Virtual nanoseconds spent constructing, across every call.
        self.spent_ns = 0.0

    def _call(self, op: str, *args, **kwargs):
        result, elapsed = self._kernel.timed_call(
            self._thread, f"xproc_{op}", *args, **kwargs)
        self.spent_ns += elapsed
        TELEMETRY.count("xproc_stage", stage=op)
        return result

    def _require_embryo(self, op: str) -> int:
        if self.pid is not None:
            raise SpawnError(
                f"xproc_{op}: this builder already started pid {self.pid}")
        if self.handle is None:
            raise SpawnError(f"xproc_{op}: call create() first")
        return self.handle

    # -- construction stages ------------------------------------------------

    def create(self, name: str = "xproc") -> "CrossProcessBuilder":
        """Create the empty embryo (fresh address space, no fds)."""
        if self.handle is not None or self.pid is not None:
            raise SpawnError("xproc_create: this builder already has a child")
        self.handle = self._call("create", name)
        self._trace.stage("xproc_create", handle=self.handle)
        return self

    def map(self, length: int, prot: str = "rw") -> int:
        """Map anonymous memory into the embryo; returns its address."""
        addr = self._call("map", self._require_embryo("map"), length, prot)
        self._trace.stage("xproc_map", length=length)
        return addr

    def write(self, addr: int, value) -> "CrossProcessBuilder":
        """Write one page token into mapped embryo memory."""
        self._call("write", self._require_embryo("write"), addr, value)
        return self

    def populate(self, addr: int, nbytes: int, value=None) -> int:
        """Bulk-fill embryo memory; returns the pages touched.

        This is the knob t10's transfer sweep turns: construction cost
        grows with what the parent *chooses* to hand over, not with
        what the parent happens to own.
        """
        pages = self._call("populate", self._require_embryo("populate"),
                           addr, nbytes, value)
        self._trace.stage("xproc_populate", nbytes=nbytes)
        return pages

    def grant_fd(self, parent_fd: int, child_fd: int) -> "CrossProcessBuilder":
        """Grant one of the calling process's descriptors to the embryo."""
        self._call("grant_fd", self._require_embryo("grant_fd"),
                   parent_fd, child_fd)
        self._trace.stage("xproc_grant_fd", parent_fd=parent_fd,
                          child_fd=child_fd)
        return self

    def sigaction(self, signum: int, disposition) -> "CrossProcessBuilder":
        """Install one signal disposition in the embryo."""
        self._call("sigaction", self._require_embryo("sigaction"),
                   signum, disposition)
        self._trace.stage("xproc_sigaction", signum=signum)
        return self

    def start(self, path: str, argv: Sequence[str] = ()) -> int:
        """Load ``path`` and schedule the child; returns its pid.

        The handle is consumed: further construction calls on this
        builder raise, matching the kernel's own stale-handle EINVAL.
        """
        handle = self._require_embryo("start")
        self.pid = self._call("start", handle, path, tuple(argv))
        self.handle = None
        self._trace.stage("xproc_start", pid=self.pid, path=path)
        return self.pid

    def abort(self) -> None:
        """Destroy an unstarted embryo, releasing everything granted."""
        if self.handle is None:
            return
        handle, self.handle = self.handle, None
        self._call("abort", handle)
        self._trace.stage("xproc_abort", handle=handle)

    def __repr__(self):
        state = (f"pid={self.pid}" if self.pid is not None
                 else f"handle={self.handle}")
        return f"<CrossProcessBuilder {state} spent={self.spent_ns:.0f}ns>"


class SimChildProcess(ChildProcess):
    """Handle on a sim child: it exited inside ``launch`` already.

    Signals are no-ops (there is nothing left to signal, and the pid is
    a *sim* pid — ``os.kill`` on it would hit an innocent host process).
    The reaper replays the status the sim's ``waitpid`` already
    returned, so ``wait``/``poll``/context-manager exit behave exactly
    like every other strategy's handle.
    """

    def __init__(self, pid: int, raw_status: int, *, argv=(), strategy="?",
                 trace=None):
        super().__init__(pid, argv=argv, strategy=strategy,
                         reaper=lambda _pid, _flags, _timeout: raw_status,
                         trace=trace)

    def send_signal(self, signum: int) -> None:
        return  # already exited; never forward a sim pid to os.kill


def _true_main(sys):
    return iter(())


def _false_main(sys):
    return 1
    yield  # pragma: no cover - makes this a generator function


def _echo_main(sys, *args):
    yield sys.write(1, " ".join(str(a) for a in args).encode() + b"\n")


def _cat_main(sys):
    while True:
        data = yield sys.read(0, 65536)
        if not data:
            return 0
        yield sys.write(1, data)


#: Programs every fresh xproc machine knows, mirroring the host /bin
#: entries the other strategies' tests lean on.
DEFAULT_PROGRAMS = (
    ("/bin/true", _true_main),
    ("/bin/false", _false_main),
    ("/bin/echo", _echo_main),
    ("/bin/cat", _cat_main),
)


@register_strategy("xproc")
class XProcStrategy(Strategy):
    """Launch by explicit cross-process construction on the sim kernel.

    The strategy boots one simulated machine lazily on first launch and
    keeps it (plus a resident *agent* process that issues the
    construction syscalls) for the life of the interpreter, like the
    pool strategy keeps its pool; :meth:`shutdown` discards it and the
    next launch boots a fresh one.  ``argv[0]`` names a program
    registered on that machine — the defaults cover ``/bin/true``,
    ``/bin/false``, ``/bin/echo`` and ``/bin/cat``; register more with
    :meth:`register_program`.

    Policy compatibility is real, not nominal: construction failures,
    subtree deadlocks and step-budget blowups surface as
    :class:`SpawnError` (wall-deadline expiry as :class:`SpawnTimeout`),
    which is exactly what the
    :meth:`~repro.core.spawn.ProcessBuilder.policy` executor retries,
    breaks and degrades on.
    """

    #: An embryo *starts* with every disposition at default, the whole
    #: point, and stdio arrives as a grant; the host-specific rest is
    #: refused rather than silently approximated.
    expresses = frozenset({"reset_signals", "stdio"})

    def __init__(self):
        self._kernel = None
        self._agent = None  # the agent process's main thread
        self._lock = threading.Lock()

    def available(self) -> bool:
        return True  # pure Python; no host syscalls required

    # -- the shared machine -------------------------------------------------

    def _machine_locked(self):
        """The shared kernel + agent thread; booted on first use."""
        if self._kernel is None:
            from ..sim.kernel import Kernel
            kernel = Kernel()
            for path, func in DEFAULT_PROGRAMS:
                kernel.register_program(path, func)
            # The agent never runs its (empty) program; it exists to own
            # a descriptor table and issue construction syscalls.
            kernel.register_program("/sbin/xproc-agent",
                                    lambda sys: iter(()))
            agent = kernel.spawn_root("/sbin/xproc-agent")
            self._kernel = kernel
            self._agent = agent.threads[0]
        return self._kernel, self._agent

    def kernel(self):
        """The shared sim kernel (booted on first use)."""
        with self._lock:
            return self._machine_locked()[0]

    def register_program(self, path: str, func, **segment_sizes) -> None:
        """Register a sim program so ``argv[0] == path`` can launch.

        ``func(sys, *argv)`` is a generator function, exactly as for
        :meth:`repro.sim.kernel.Kernel.register_program`;
        ``segment_sizes`` forwards ``text_bytes``/``data_bytes``/
        ``stack_bytes``.
        """
        with self._lock:
            kernel, _ = self._machine_locked()
            kernel.register_program(path, func, **segment_sizes)

    def shutdown(self) -> None:
        """Discard the machine (a later launch boots a fresh one)."""
        with self._lock:
            self._kernel = None
            self._agent = None

    # -- the launch ------------------------------------------------------------

    def launch(self, argv, actions: FileActions, attrs: SpawnAttributes,
               trace=NULL_TRACE) -> ChildProcess:
        self._enter(argv, actions, attrs)
        path = os.fspath(argv[0])
        args = tuple(os.fspath(a) for a in argv[1:])
        deadline_at = (time.monotonic() + attrs.deadline
                       if attrs.deadline is not None else None)
        try:
            with _stdio_grant(actions) as stdio, self._lock:
                kernel, agent = self._machine_locked()
                if path not in kernel.programs:
                    raise ExecError(
                        f"no sim program registered at {path!r}; register "
                        f"one with get_strategy('xproc').register_program()",
                        errno=errno.ENOENT, path=path)
                pid, raw_status = self._construct_and_run(
                    kernel, agent, path, args, stdio, trace, deadline_at)
        except SimError as exc:
            raise SpawnError(f"xproc construction failed: {exc}") from exc
        child = SimChildProcess(pid, raw_status, argv=argv,
                                strategy=self.name, trace=trace)
        child.poll()  # the status is already known; reap it eagerly
        return child

    def _construct_and_run(self, kernel, agent, path, args, stdio, trace,
                           deadline_at) -> Tuple[int, int]:
        """Build, start, drive to exit, reap.  Returns (pid, raw status)."""
        builder = CrossProcessBuilder(kernel, agent, trace=trace)
        builder.create(name=path.rsplit("/", 1)[-1])
        try:
            self._grant_stdio(agent, builder, stdio)
            pid = builder.start(path, args)
        except BaseException:
            builder.abort()  # refcount hygiene: a failed launch leaks nothing
            raise
        trace.stage("execed", pid=pid)
        try:
            kernel.run(MAX_CHILD_STEPS, root=pid, deadline=deadline_at)
        except DeadlockError as exc:
            raise SpawnError(
                f"xproc child pid {pid} subtree stuck: {exc}") from exc
        except TimeoutError as exc:
            raise SpawnTimeout(
                f"xproc child pid {pid} outlived its deadline") from exc
        (_, exit_status), _ = kernel.timed_call(agent, "waitpid", pid)
        return pid, exit_status << 8

    def _grant_stdio(self, agent, builder: CrossProcessBuilder,
                     stdio: Dict[int, int]) -> None:
        """Grant the stdio triple into the embryo through HostOFD dups.

        The agent's table holds each bridge only for the duration of the
        grant: after ``close`` the embryo owns the sole reference, so the
        host dup's lifetime is exactly the sim child's.
        """
        table = agent.process.fdtable
        for child_fd in sorted(stdio):
            host = HostOFD(os.dup(stdio[child_fd]),
                           readable=(child_fd == 0),
                           writable=(child_fd != 0),
                           label=f"host-fd{stdio[child_fd]}")
            temp_fd = table.install(host)
            try:
                builder.grant_fd(temp_fd, child_fd)
            finally:
                table.close(temp_fd)
