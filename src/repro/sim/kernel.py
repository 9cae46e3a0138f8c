"""The simulated kernel: machine state, scheduler, syscall dispatch.

A :class:`Kernel` is one machine: physical memory, a TLB, a commit
policy, a VFS, a program registry, and a process table — all sharing one
:class:`~repro.sim.params.WorkCounters` record, so every page copied and
IPI sent anywhere on the machine is priced by one cost model into one
virtual clock (:attr:`Kernel.now_ns`).

Programs are generator functions ``def main(sys, *args)`` that ``yield``
requests built by the :class:`SyscallProxy` (``yield sys.fork(child)``,
``yield sys.read(fd, 100)``...).  The trampoline executes each request,
charges its work, and sends the result back in; blocking calls park the
thread on a predicate the scheduler polls.  Scheduling is deterministic:
each round steps every runnable thread once in (pid, tid) order, and a
round with zero runnable threads but blocked ones raises
:class:`~repro.errors.DeadlockError` — the detector that catches the
fork-with-threads deadlock of experiment T4.

Typical use::

    kernel = Kernel()
    kernel.register_program("/bin/true", lambda sys: iter(()))

    def main(sys):
        pid = yield sys.spawn("/bin/true")
        _, status = yield sys.waitpid(pid)
        yield sys.exit(status)

    kernel.register_program("/sbin/init", main)
    kernel.spawn_root("/sbin/init")
    kernel.run()
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..errors import (DeadlockError, SimError, SimMemoryError, SimOSError,
                      SimSegfault)
from .addrspace import AddressSpace, AddressSpaceSnapshot
from .fdtable import FDTable
from .frames import FrameAllocator
from .fs import VFS
from .overcommit import CommitPolicy
from .params import KIB, MIB, SimConfig, WorkCounters, _tally
from .process import (BLOCKED, FINISHED, READY, Process, Thread, ZOMBIE)
from .signals import (SIG_DFL, SIGCHLD, SIGCONT, SIGKILL, SIGSEGV,
                      SIGSTOP, SignalState)
from .syscalls.base import EXEC_TRANSFER, EXITED, Park, RETRY
from .syscalls.emul import EmulationSyscalls
from .syscalls.files import FileSyscalls
from .syscalls.memory import MemorySyscalls
from .syscalls.procs import ProcessSyscalls
from .syscalls.sig import SignalSyscalls
from .syscalls.sync import SyncSyscalls
from .syscalls.xproc import CrossProcessSyscalls
from .tlb import TLBModel


class SyscallRequest:
    """One yielded syscall: a name plus arguments, executed by the kernel."""

    __slots__ = ("name", "args", "kwargs")

    def __init__(self, name: str, args: tuple, kwargs: dict):
        self.name = name
        self.args = args
        self.kwargs = kwargs

    def __repr__(self):
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"sys.{self.name}({', '.join(parts)})"


class SyscallProxy:
    """What programs see as ``sys``: attribute access builds requests.

    The proxy is stateless — it never touches the kernel — so one
    instance can be handed to every program.  Validation happens at
    dispatch: an unknown name raises ``ENOSYS`` inside the program.
    """

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)

        def build(*args, **kwargs) -> SyscallRequest:
            return SyscallRequest(name, args, kwargs)

        build.__name__ = name
        build.__qualname__ = f"sys.{name}"
        return build


@dataclass(frozen=True)
class ProgramImage:
    """A registered executable: entry point plus segment sizes.

    ``func`` is the generator function run as the program's main thread.
    Segment sizes shape the fresh address space exec/spawn builds — they
    are what makes a *big* program cost more to load than ``/bin/true``.
    """

    path: str
    func: Callable
    text_bytes: int = 512 * KIB
    data_bytes: int = 128 * KIB
    stack_bytes: int = 8 * MIB


#: Signals whose default action terminates the process.
_FATAL_DEFAULTS = frozenset({1, 2, 3, 9, 10, 11, 12, 13, 15})

#: Syscalls whose memory demand is a page *fault*, not an allocation
#: request: running out here is not the program's doing, so (outside
#: strict accounting) the OOM killer resolves it rather than ENOMEM.
_FAULTING_SYSCALLS = frozenset({"poke", "populate", "write", "dirty",
                                "xproc_write", "xproc_populate"})


def _iterate(iterable):
    """Adapt a plain iterable of syscall requests into a generator."""
    result = yield from iterable
    return result


class Kernel(ProcessSyscalls, FileSyscalls, MemorySyscalls, SignalSyscalls,
             SyncSyscalls, CrossProcessSyscalls, EmulationSyscalls):
    """One simulated machine.  See the module docstring for the model."""

    def __init__(self, config: Optional[SimConfig] = None, *,
                 strict_crashes: bool = True):
        self.config = config if config is not None else SimConfig()
        self.cost = self.config.cost_model
        self.counters = WorkCounters()
        self.rng = random.Random(self.config.rng_seed)
        self.allocator = FrameAllocator(self.config.total_frames,
                                        self.counters)
        self.tlb = TLBModel(self.config.num_cpus, self.counters)
        self.commit = CommitPolicy(self.config.total_frames,
                                   self.config.overcommit)
        self.vfs = VFS()
        self.vfs.makedirs("/bin")
        self.vfs.makedirs("/tmp")
        self.programs: Dict[str, ProgramImage] = {}
        self.processes: Dict[int, Process] = {}
        self.now_ns = 0.0
        self.strict_crashes = strict_crashes
        self._pids = itertools.count(1)
        self._proxy = SyscallProxy()
        self._as_refs: Dict[int, int] = {}
        self._as_objects: Dict[int, AddressSpace] = {}
        self._fdt_refs: Dict[int, int] = {}
        self._embryos: Dict[int, Process] = {}
        self._next_handle = 1
        #: Live address-space checkpoints by handle (sys_snapshot).
        self.snapshots: Dict[int, AddressSpaceSnapshot] = {}
        #: OOM-killer log: (victim_pid, rss_bytes_at_kill) tuples.
        self.oom_kills: List[tuple] = []
        self._fixed_ns = 0.0
        self._last_call_ns = 0.0
        self._last_thread_tid: Optional[int] = None
        #: Pids a ``run(root=...)`` schedules; ``None`` means all of them.
        self._scope: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Facilities the syscall mixins build on
    # ------------------------------------------------------------------

    def make_proxy(self) -> SyscallProxy:
        """The stateless ``sys`` object handed to programs."""
        return self._proxy

    def make_address_space(self, name: str) -> AddressSpace:
        """A fresh address space on this machine (fresh ASLR layout)."""
        return AddressSpace(self.config, allocator=self.allocator,
                            tlb=self.tlb, commit=self.commit,
                            counters=self.counters,
                            rng=random.Random(self.rng.getrandbits(64)),
                            name=name)

    def make_fdtable(self) -> FDTable:
        """An empty descriptor table wired to the machine counters."""
        return FDTable(self.counters)

    def new_pid(self) -> int:
        return next(self._pids)

    def find_process(self, pid: int) -> Optional[Process]:
        """The process with ``pid``, in any state, or ``None``."""
        return self.processes.get(pid)

    def adopt(self, child: Process, parent: Process) -> None:
        """Register a newly created process under its parent.

        During a scoped :meth:`run`, a child whose parent is in scope
        joins it, so it stays scheduled even once re-parented to init.
        """
        parent.children.append(child.pid)
        self.processes[child.pid] = child
        if self._scope is not None and parent.pid in self._scope:
            self._scope.add(child.pid)

    def attach_thread(self, process: Process, generator, name: str) -> Thread:
        """Add a runnable thread executing ``generator`` to a process.

        Plain iterables (``iter(())`` is a perfectly good /bin/true) are
        wrapped so the trampoline can drive everything through ``send``.
        """
        if not hasattr(generator, "send"):
            generator = _iterate(generator)
        thread = Thread(process, generator, name=name)
        process.threads.append(thread)
        return thread

    def charge_fixed(self, ns: float) -> None:
        """Add size-independent cost to the current syscall."""
        self._fixed_ns += ns

    def as_acquire(self, space: AddressSpace) -> None:
        """Take a reference on an address space (vfork/CLONE_VM share)."""
        self._as_refs[space.asid] = self._as_refs.get(space.asid, 0) + 1
        self._as_objects[space.asid] = space

    def as_release(self, space: AddressSpace) -> None:
        """Drop a reference; the last one destroys the space."""
        refs = self._as_refs.get(space.asid, 0)
        if refs <= 0:
            raise SimError(f"address space {space.asid} over-released")
        if refs == 1:
            del self._as_refs[space.asid]
            self._as_objects.pop(space.asid, None)
            space.destroy()
        else:
            self._as_refs[space.asid] = refs - 1

    def fdt_acquire(self, table: FDTable) -> None:
        """Take a reference on a descriptor table (CLONE_FILES shares)."""
        self._fdt_refs[id(table)] = self._fdt_refs.get(id(table), 0) + 1

    def fdt_release(self, table: FDTable) -> None:
        """Drop a reference; the last one closes every descriptor."""
        refs = self._fdt_refs.get(id(table), 0)
        if refs <= 0:
            raise SimError("descriptor table over-released")
        if refs == 1:
            del self._fdt_refs[id(table)]
            table.close_all()
        else:
            self._fdt_refs[id(table)] = refs - 1

    def lookup_program(self, path: str) -> ProgramImage:
        """The registered image at ``path`` (``ENOENT`` otherwise)."""
        image = self.programs.get(path)
        if image is None:
            raise SimOSError("ENOENT", f"no program registered at {path}")
        return image

    def build_image(self, space: AddressSpace, image: ProgramImage) -> None:
        """Lay out text/data/stack VMAs for a program image."""
        from .params import page_align_up
        page = space.page_size
        space.map(image.text_bytes, "rx", addr=space.text_base,
                  name=f"{image.path}:text")
        data_base = page_align_up(
            space.text_base + max(image.text_bytes, MIB), page)
        space.map(image.data_bytes, "rw", addr=data_base,
                  name=f"{image.path}:data")
        stack_len = page_align_up(image.stack_bytes, page)
        space.map(stack_len, "rw", addr=space.stack_top - stack_len,
                  name="[stack]")

    # ------------------------------------------------------------------
    # Program registry and boot
    # ------------------------------------------------------------------

    def register_program(self, path: str, func: Callable, *,
                         text_bytes: int = 512 * KIB,
                         data_bytes: int = 128 * KIB,
                         stack_bytes: int = 8 * MIB) -> ProgramImage:
        """Register an executable at ``path`` in the VFS.

        ``func(sys, *argv)`` must be a generator function (its body may
        also be empty: ``lambda sys: iter(())`` is a valid /bin/true).
        """
        image = ProgramImage(path, func, text_bytes, data_bytes, stack_bytes)
        self.programs[path] = image
        if not self.vfs.exists(path):
            parent = path.rsplit("/", 1)[0] or "/"
            self.vfs.makedirs(parent)
            self.vfs.create(path, b"#!sim\n" + path.encode())
        return image

    def spawn_root(self, path: str, argv=()) -> Process:
        """Create a top-level process (no parent) from a registered image."""
        image = self.lookup_program(path)
        proc = Process(self.new_pid(), 0, name=path.rsplit("/", 1)[-1])
        proc.addrspace = self.make_address_space(path)
        self.as_acquire(proc.addrspace)
        self.build_image(proc.addrspace, image)
        proc.fdtable = self.make_fdtable()
        self.fdt_acquire(proc.fdtable)
        proc.signals = SignalState()
        proc.argv = [path, *argv]
        self.processes[proc.pid] = proc
        self.attach_thread(proc, image.func(self._proxy, *argv), name="main")
        self.counters.exec_loads += 1
        return proc

    # ------------------------------------------------------------------
    # Snapshots: checkpointed address spaces as spawn sources
    # ------------------------------------------------------------------

    def take_snapshot(self, proc: Process, *,
                      name: Optional[str] = None) -> int:
        """Checkpoint ``proc``'s address space; returns a handle.

        The one-time write-protect sweep against the live space happens
        here (inside :meth:`AddressSpace.snapshot`); every later
        :meth:`spawn_from_snapshot` COW-shares the frozen image, whose
        size never changes again.
        """
        snapshot = proc.addrspace.snapshot(name=name)
        handle = self._next_handle
        self._next_handle += 1
        self.snapshots[handle] = snapshot
        return handle

    def lookup_snapshot(self, handle: int) -> AddressSpaceSnapshot:
        snapshot = self.snapshots.get(handle)
        if snapshot is None or snapshot.dead:
            raise SimOSError("EBADF", f"no such snapshot handle: {handle}")
        return snapshot

    def drop_snapshot(self, handle: int) -> None:
        """Release a snapshot's frames (children keep their COW shares)."""
        snapshot = self.snapshots.pop(handle, None)
        if snapshot is None:
            raise SimOSError("EBADF", f"no such snapshot handle: {handle}")
        snapshot.destroy()

    def spawn_from_snapshot(self, snapshot: AddressSpaceSnapshot,
                            child_main, *args, parent: Process,
                            name: Optional[str] = None) -> Process:
        """Materialise a child process from a frozen checkpoint.

        The child's memory is a COW share of the snapshot — the *live*
        parent's address space is never walked, so (like spawn, unlike
        fork) the cost does not grow with the parent.  Descriptors are
        inherited from the calling parent, signals start fresh, and the
        child runs ``child_main(sys, *args)`` as its continuation.
        """
        child_name = name if name is not None else f"{snapshot.name}+restore"
        child_as = self.make_address_space(child_name)
        try:
            snapshot.restore_into(child_as)
        except Exception:
            child_as.destroy()
            raise
        child = Process(self.new_pid(), parent.pid, name=child_name)
        child.addrspace = child_as
        self.as_acquire(child_as)
        child.fdtable = parent.fdtable.clone_for_fork()
        self.fdt_acquire(child.fdtable)
        child.signals = SignalState()
        child.argv = list(parent.argv)
        child.cwd = parent.cwd
        child.origin = "snapshot"
        self.adopt(child, parent)
        self.attach_thread(child, child_main(self._proxy, *args),
                           name="main")
        return child

    # ------------------------------------------------------------------
    # Process teardown
    # ------------------------------------------------------------------

    def exit_process(self, proc: Process, status: int) -> None:
        """Terminate ``proc``: free resources, zombify, signal the parent."""
        if not proc.alive:
            return
        self.charge_fixed(self.cost.fixed_exit_ns)
        proc.state = ZOMBIE
        proc.exit_status = status
        for thread in proc.threads:
            if thread.state != FINISHED:
                thread.finish()
        self.fdt_release(proc.fdtable)
        proc.shares_parent_as = False  # releases a blocked vfork parent
        self.as_release(proc.addrspace)
        proc.mutexes = {}
        for child_pid in proc.children:
            child = self.processes.get(child_pid)
            if child is not None:
                child.ppid = 1
        parent = self.processes.get(proc.ppid)
        if parent is not None and parent.alive:
            parent.signals.post(SIGCHLD)

    # ------------------------------------------------------------------
    # The trampoline and scheduler
    # ------------------------------------------------------------------

    def _deliver_signals(self, proc: Process) -> bool:
        """Act on pending signals; returns True if the process died.

        SIGSTOP freezes the whole process (job control); the matching
        SIGCONT is serviced by :meth:`_service_stopped`, because a
        stopped process never reaches this per-step delivery point.
        """
        while proc.alive:
            signum = proc.signals.deliverable()
            if signum is None:
                return False
            handler = proc.signals.get_handler(signum)
            proc.signals.take(signum)
            if signum == SIGSTOP:  # uncatchable freeze
                proc.stopped = True
                return False
            if callable(handler):
                handler(signum)
                continue
            if handler == SIG_DFL and signum in _FATAL_DEFAULTS:
                self.exit_process(proc, 128 + signum)
                return True
            # Remaining defaults (SIGCHLD/SIGCONT reach here only if
            # re-posted while also pending): ignore.
        return True

    def _service_stopped(self, procs: List[Process]) -> None:
        """Handle the signals a stopped process can still receive.

        SIGCONT resumes it; SIGKILL kills it; everything else stays
        pending until the process runs again, per POSIX.
        """
        for proc in procs:
            if not proc.alive or not proc.stopped:
                continue
            if SIGKILL in proc.signals.pending:
                proc.signals.take(SIGKILL)
                self.exit_process(proc, 128 + SIGKILL)
                continue
            if SIGCONT in proc.signals.pending:
                proc.signals.take(SIGCONT)
                proc.stopped = False

    def oom_kill(self) -> Optional[Process]:
        """Pick and kill the largest live process (the OOM killer).

        Badness is resident size, Linux-style.  Returns the victim, or
        ``None`` when nothing live holds memory.  The kill is logged on
        :attr:`oom_kills` and the victim dies with status 137
        (128+SIGKILL), exactly what dmesg-reading operators expect.
        """
        candidates = [p for p in self.processes.values()
                      if p.alive and p.addrspace is not None
                      and not p.addrspace.dead]
        candidates = [p for p in candidates
                      if p.addrspace.resident_bytes() > 0]
        if not candidates:
            return None
        victim = max(candidates,
                     key=lambda p: (p.addrspace.resident_bytes(), p.pid))
        rss = victim.addrspace.resident_bytes()
        self.oom_kills.append((victim.pid, rss))
        self.exit_process(victim, 137)
        return victim

    def _execute(self, thread: Thread, request) -> None:
        if not isinstance(request, SyscallRequest):
            thread.throw_value = SimError(
                f"program yielded {request!r}, not a syscall request")
            return
        handler = getattr(self, f"sys_{request.name}", None)
        if handler is None:
            thread.throw_value = SimOSError("ENOSYS", request.name)
            return
        counters = self.counters
        before = _tally(counters)
        counters.syscalls += 1
        self._fixed_ns = 0.0
        try:
            result = handler(thread, *request.args, **request.kwargs)
        except Park as park:
            if park.result is RETRY:
                thread.park(park.predicate, request, park.reason)
            else:
                thread.park(park.predicate, None, park.reason)
                thread.wake_result = park.result
        except SimSegfault:
            thread.process.signals.post(SIGSEGV)
        except SimMemoryError as err:
            self._handle_memory_pressure(thread, request, err)
        except SimOSError as err:
            thread.throw_value = err
        else:
            if result is EXEC_TRANSFER or result is EXITED:
                pass
            else:
                thread.send_value = result
        self.now_ns += self.cost._charge(counters, before) + self._fixed_ns

    def _handle_memory_pressure(self, thread: Thread, request,
                                err: SimMemoryError) -> None:
        """Decide between ENOMEM and the OOM killer.

        Allocation-time failures (mmap, fork's commit charge) return
        ENOMEM to the caller; *fault-time* failures under a policy that
        overcommits are the kernel's promise coming due, so the OOM
        killer frees memory and the faulting call retries — unless the
        faulter itself was the chosen victim (or nothing could be
        freed), in which case it dies.
        """
        if (request.name not in _FAULTING_SYSCALLS
                or self.config.overcommit == "never"):
            thread.throw_value = err
            return
        victim = self.oom_kill()
        if victim is None or victim is thread.process:
            if thread.process.alive:
                self.exit_process(thread.process, 137)
            return
        # Memory was freed: retry the faulting call on the next step.
        thread.pending_call = request

    def _step(self, thread: Thread) -> None:
        proc = thread.process
        if not proc.alive or thread.state != READY:
            return
        if self._deliver_signals(proc):
            return
        if self._last_thread_tid not in (None, thread.tid):
            self.counters.context_switches += 1
            self.now_ns += self.cost.context_switch_ns
        self._last_thread_tid = thread.tid
        if thread.pending_call is not None:
            request = thread.pending_call
            thread.pending_call = None
            self._execute(thread, request)
            return
        thread.state = READY
        try:
            if thread.throw_value is not None:
                exc = thread.throw_value
                thread.throw_value = None
                request = thread.generator.throw(exc)
            else:
                value = thread.send_value
                thread.send_value = None
                request = thread.generator.send(value)
        except StopIteration as stop:
            thread.finish()
            if proc.alive and not proc.live_threads():
                status = stop.value if isinstance(stop.value, int) else 0
                self.exit_process(proc, status)
            return
        except SimOSError as err:
            # An OS error the program chose not to catch: crash.
            self._crash(proc, thread, err)
            return
        except (SimError, DeadlockError):
            raise
        except Exception as exc:  # a bug in the simulated program
            self._crash(proc, thread, exc)
            return
        self._execute(thread, request)

    def _crash(self, proc: Process, thread: Thread, exc: Exception) -> None:
        thread.finish()
        if self.strict_crashes:
            raise SimError(
                f"program crash in pid {proc.pid} ({proc.name}): "
                f"{type(exc).__name__}: {exc}") from exc
        self.exit_process(proc, 134)

    def _scheduled(self) -> List[Process]:
        """The processes this run schedules, in pid order."""
        pids = self.processes if self._scope is None else self._scope
        return [self.processes[pid] for pid in sorted(pids)]

    def _wake_blocked(self, procs: List[Process]) -> None:
        for proc in procs:
            if not proc.alive:
                continue
            for thread in proc.threads:
                if thread.state == BLOCKED and thread.wake_predicate():
                    thread.wake()

    def _reap_orphans(self, procs: List[Process]) -> None:
        for proc in procs:
            if proc.state != ZOMBIE:
                continue
            parent = self.processes.get(proc.ppid)
            if parent is None or not parent.alive:
                proc.state = "reaped"

    @staticmethod
    def runnable_threads(procs: List[Process]) -> List[Thread]:
        """Ready threads of ``procs`` (pid-ordered), in (pid, tid) order.

        Threads of a stopped (SIGSTOPped) process keep their states but
        are never scheduled.
        """
        return [t for p in procs if p.alive and not p.stopped
                for t in p.threads if t.state == READY]

    @staticmethod
    def blocked_threads(procs: List[Process]) -> List[Thread]:
        """Blocked threads in the live processes of ``procs``."""
        return [t for p in procs if p.alive
                for t in p.threads if t.state == BLOCKED]

    def run(self, max_steps: int = 1_000_000, *, root: Optional[int] = None,
            deadline: Optional[float] = None) -> int:
        """Run the machine until every process finishes.

        Returns the number of scheduler steps taken.  Raises
        :class:`DeadlockError` when threads are blocked and nothing can
        ever wake them, and :class:`SimError` past ``max_steps`` (a
        runaway-program backstop).

        ``root`` narrows the run to one subtree: only that pid and every
        process created beneath it (see :meth:`adopt`) are scheduled,
        checked for deadlock and reaped, and the run returns once none
        of them is alive — whatever else on the machine stays blocked.
        ``deadline`` is a :func:`time.monotonic` instant; a round that
        would start past it raises :class:`TimeoutError`.
        """
        if root is not None:
            self._scope = {root}
        try:
            steps = 0
            while True:
                procs = self._scheduled()
                self._wake_blocked(procs)
                self._service_stopped(procs)
                self._reap_orphans(procs)
                runnable = self.runnable_threads(procs)
                if not runnable:
                    blocked = self.blocked_threads(procs)
                    frozen = [p for p in procs
                              if p.alive and p.stopped and p.live_threads()]
                    if blocked or frozen:
                        report = "; ".join(
                            [f"pid {t.process.pid}/{t.name}: "
                             f"{t.block_reason}" for t in blocked]
                            + [f"pid {p.pid}: stopped with no one to "
                               f"SIGCONT it" for p in frozen])
                        raise DeadlockError(
                            f"{len(blocked) + len(frozen)} thread(s)/"
                            f"process(es) stuck forever: {report}")
                    return steps
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"run passed its deadline after "
                                       f"{steps} scheduler steps")
                for thread in runnable:
                    steps += 1
                    if steps > max_steps:
                        raise SimError(
                            f"exceeded {max_steps} scheduler steps")
                    self._step(thread)
        finally:
            self._scope = None

    def ps(self) -> List[dict]:
        """A ``ps``-style snapshot of the process table.

        One row per process (any state), with the fields monitoring and
        tests care about.  Ordered by pid.
        """
        rows = []
        for pid in sorted(self.processes):
            proc = self.processes[pid]
            space = proc.addrspace
            rows.append({
                "pid": proc.pid,
                "ppid": proc.ppid,
                "name": proc.name,
                "state": proc.state,
                "threads": len(proc.live_threads()),
                "rss_bytes": (space.resident_bytes()
                              if space is not None and not space.dead
                              else 0),
                "vsz_bytes": (space.virtual_bytes()
                              if space is not None and not space.dead
                              else 0),
                "fds": len(proc.fdtable) if proc.fdtable is not None else 0,
            })
        return rows

    def timed_call(self, thread: Thread, name: str, *args, **kwargs):
        """Execute one syscall directly and price it: ``(result, ns)``.

        The measurement entry point for benchmark drivers: no scheduler,
        no program generators — just the handler, its counted work, and
        the cost model.  The virtual clock advances as it would under
        the trampoline.  Blocking handlers raise their
        :class:`~repro.sim.syscalls.base.Park`; drivers that call e.g.
        ``vfork`` must catch it (the work has been performed and priced
        by the time it raises).
        """
        handler = getattr(self, f"sys_{name}", None)
        if handler is None:
            raise SimOSError("ENOSYS", name)
        counters = self.counters
        before = _tally(counters)
        counters.syscalls += 1
        self._fixed_ns = 0.0
        try:
            result = handler(thread, *args, **kwargs)
        finally:
            elapsed = self.cost._charge(counters, before) + self._fixed_ns
            self.now_ns += elapsed
            self._last_call_ns = elapsed
        return result, elapsed

    def run_program(self, path: str, argv=(), *,
                    max_steps: int = 1_000_000) -> int:
        """Boot ``path`` as the root process, run to completion.

        Returns the root process's exit status — the one-call way to run
        a self-contained scenario.
        """
        proc = self.spawn_root(path, argv)
        self.run(max_steps=max_steps)
        return proc.exit_status
