"""Process-lifecycle syscalls: fork, vfork, spawn, exec, exit, wait, clone.

This module is the reproduction's centrepiece: every process-creation API
the paper compares, implemented side by side on the same substrate so
their costs and hazards are directly comparable.

* :meth:`ProcessSyscalls.sys_fork` — duplicate *everything*: address
  space (COW), descriptor table, signal state, mutex memory.  Cost grows
  with the parent.
* :meth:`ProcessSyscalls.sys_vfork` — share the address space, suspend
  the parent until the child execs or exits.  Fast and dangerous.
* :meth:`ProcessSyscalls.sys_spawn` — ``posix_spawn``: build the child
  directly from an image + declarative file actions.  Never touches the
  parent's page tables; cost is independent of parent size.
* :meth:`ProcessSyscalls.sys_execve` — replace the calling process's
  image; the fork+exec pair's second half.
* :meth:`ProcessSyscalls.sys_clone` — the configurable Linux primitive
  (share VM / files / sighand, or create a thread).
"""

from __future__ import annotations

from ...errors import SimOSError
from ..process import Process
from .base import EXEC_TRANSFER, EXITED, KernelFacet, Park


class ProcessSyscalls(KernelFacet):
    """Handlers for process creation, replacement and reaping."""

    # ------------------------------------------------------------------
    # fork family
    # ------------------------------------------------------------------

    def sys_fork(self, thread, child_main, *args) -> int:
        """Create a child as a copy of the caller; returns the child pid.

        ``child_main(sys, *args)`` is the child's continuation (Python
        generators cannot be cloned — see :mod:`repro.sim.process`).  The
        expensive parts are exact: the whole address space is duplicated
        copy-on-write, every descriptor entry is copied (sharing OFDs),
        signal handlers and mask are inherited with pending cleared, and
        mutex memory is cloned *including held state*.  Only the calling
        thread is replicated, per POSIX.
        """
        parent = thread.process
        self.charge_fixed(self.cost.fixed_fork_ns)
        return self._assemble(
            parent, f"{parent.name}+fork", "fork",
            space=parent.addrspace.fork_into,
            files=parent.fdtable.clone_for_fork,
            signals=parent.signals.fork_copy(),
            mutexes=parent.fork_mutex_table(),
            main=child_main, args=args).pid

    def sys_vfork(self, thread, child_main, *args) -> int:
        """vfork: child borrows the parent's address space; parent waits.

        Every write the child makes is visible in the parent — the
        behaviour that makes vfork fast and makes POSIX say the child may
        do almost nothing but exec or _exit.  The parent thread stays
        blocked until the child does one of those.
        """
        parent = thread.process
        self.charge_fixed(self.cost.fixed_fork_ns / 4)
        child = self._assemble(
            parent, f"{parent.name}+vfork", "vfork",
            space=parent.addrspace,
            files=parent.fdtable.clone_for_fork,
            signals=parent.signals.fork_copy(),
            mutexes=parent.mutexes,  # same memory, genuinely shared
            main=child_main, args=args)
        child.shares_parent_as = True
        raise Park(
            lambda: not child.shares_parent_as or not child.alive,
            f"vfork: waiting for pid {child.pid} to exec or exit",
            result=child.pid)

    def sys_clone(self, thread, child_main, *args, share_vm: bool = False,
                  share_files: bool = False, share_sighand: bool = False,
                  as_thread: bool = False) -> int:
        """The Linux clone spectrum, from full fork to a thread.

        ``as_thread=True`` (CLONE_THREAD) adds a thread to the calling
        process and returns its tid.  Otherwise a new process is created
        that shares whatever the flags say: ``share_vm`` aliases the
        address space (no COW), ``share_files`` aliases the descriptor
        table object itself, ``share_sighand`` aliases signal state.
        """
        parent = thread.process
        if as_thread:
            new = self.attach_thread(
                parent, child_main(self._proxy, *args), name="worker")
            return new.tid
        self.charge_fixed(self.cost.fixed_fork_ns / 2)
        return self._assemble(
            parent, f"{parent.name}+clone", "clone",
            space=(parent.addrspace if share_vm
                   else parent.addrspace.fork_into),
            files=(parent.fdtable if share_files
                   else parent.fdtable.clone_for_fork),
            signals=(parent.signals if share_sighand
                     else parent.signals.fork_copy()),
            mutexes=(parent.mutexes if share_vm
                     else parent.fork_mutex_table()),
            main=child_main, args=args).pid

    # ------------------------------------------------------------------
    # exec and spawn
    # ------------------------------------------------------------------

    def sys_execve(self, thread, path: str, argv=()):
        """Replace the calling process's image with a registered program.

        Implements every POSIX exec special case the catalog records:
        fresh address space (fresh ASLR), caught signals reset to default
        while ignored stay ignored, close-on-exec descriptors closed,
        other threads destroyed, mutex memory gone.  A vfork parent
        blocked on this child is released.
        """
        proc = thread.process
        image = self.lookup_program(path)
        self.charge_fixed(self.cost.fixed_exec_ns)
        old_as = proc.addrspace
        new_as = self.make_address_space(path)
        try:
            self.build_image(new_as, image)
        except BaseException:
            new_as.destroy()
            raise
        proc.shares_parent_as = False  # releases a blocked vfork parent
        proc.addrspace = new_as
        self.as_acquire(new_as)
        self.as_release(old_as)
        proc.signals.apply_exec()
        proc.fdtable.apply_exec()
        proc.mutexes = {}  # mutex memory lived in the old image
        for other in proc.threads:
            if other is not thread and other.state != "finished":
                other.finish()
        thread.generator = self._load(proc, image, argv)
        thread.send_value = None
        return EXEC_TRANSFER

    def sys_spawn(self, thread, path: str, argv=(), file_actions=(),
                  reset_signals: bool = True) -> int:
        """``posix_spawn``: construct a child directly from an image.

        The child inherits the parent's descriptors (OFDs shared, as
        POSIX specifies), then the declarative ``file_actions`` run in
        order — ``("open", fd, path, mode)``, ``("dup2", old, new)``,
        ``("close", fd)`` — then close-on-exec descriptors are closed.
        The parent's address space is never touched: no page-table copy,
        no write-protect pass, no shootdown.  That asymmetry against
        :meth:`sys_fork` *is* Figure 1 of the paper.
        """
        parent = thread.process
        image = self.lookup_program(path)
        self.charge_fixed(self.cost.fixed_spawn_ns)
        signals = None
        if not reset_signals:
            signals = parent.signals.fork_copy()
            signals.apply_exec()

        def apply_file_actions(child: Process) -> None:
            for action in file_actions:
                self._apply_file_action(child, action)
            child.fdtable.apply_exec()

        return self._assemble(
            parent, path, "spawn", image=image, args=argv,
            files=parent.fdtable.clone_for_fork, signals=signals,
            setup=apply_file_actions).pid

    def _apply_file_action(self, child: Process, action) -> None:
        kind = action[0]
        if kind == "open":
            _, fd, path, mode = action
            ofd = self.vfs.open(path, mode)
            child.fdtable.install(ofd, at=fd)
        elif kind == "dup2":
            _, old_fd, new_fd = action
            child.fdtable.dup2(old_fd, new_fd)
        elif kind == "close":
            _, fd = action
            child.fdtable.close(fd)
        else:
            raise SimOSError("EINVAL", f"bad file action {action!r}")

    # ------------------------------------------------------------------
    # snapshot / restore: a checkpointed process as a spawn source
    # ------------------------------------------------------------------

    def sys_snapshot(self, thread, *, name=None) -> int:
        """Checkpoint the calling process's address space; returns a handle.

        This is the template-zygote idea applied to memory: pay the
        fork-like write-protect sweep *once*, against the live space as
        it is right now, and get back a frozen image that later
        :meth:`sys_spawn_from_snapshot` calls COW-share.  The charge here
        is the same as fork's (it walks the same page tables); the payoff
        is that every restore afterwards costs like spawn, no matter how
        large the live parent grows.
        """
        self.charge_fixed(self.cost.fixed_fork_ns)
        return self.take_snapshot(thread.process, name=name)

    def sys_spawn_from_snapshot(self, thread, handle: int,
                                child_main, *args) -> int:
        """Materialise a child from a snapshot handle; returns its pid.

        Costs like :meth:`sys_spawn` — fixed, independent of the live
        parent — because the child's memory comes from the frozen image,
        not from walking the caller's page tables.  Descriptors are
        inherited from the caller; signals start fresh (spawn semantics,
        not fork semantics).  ``EBADF`` if the handle is unknown or the
        snapshot has been dropped.
        """
        snapshot = self.lookup_snapshot(handle)
        self.charge_fixed(self.cost.fixed_spawn_ns)
        return self._assemble(
            thread.process, f"{snapshot.name}+restore", "snapshot",
            space=snapshot.restore_into,
            files=thread.process.fdtable.clone_for_fork,
            main=child_main, args=args).pid

    def sys_snapshot_drop(self, thread, handle: int) -> int:
        """Release a snapshot's frames; existing children are unaffected."""
        self.drop_snapshot(handle)
        return 0

    # ------------------------------------------------------------------
    # exit and wait
    # ------------------------------------------------------------------

    def sys_exit(self, thread, status: int = 0):
        """Terminate the calling process with ``status``."""
        self.exit_process(thread.process, status)
        return EXITED

    def sys_waitpid(self, thread, pid: int = -1, *, nohang: bool = False):
        """Reap one zombie child; returns ``(pid, status)``.

        ``pid=-1`` waits for any child.  Blocks until a matching child
        has exited; with ``nohang=True`` (WNOHANG) returns ``None``
        instead of blocking.  ``ECHILD`` if there is nothing to wait
        for.
        """
        proc = thread.process
        matching = [c for c in proc.children
                    if pid in (-1, c)]
        if not matching:
            raise SimOSError("ECHILD", f"pid {proc.pid} has no child {pid}")
        for child_pid in matching:
            child = self.find_process(child_pid)
            if child is not None and child.state == "zombie":
                child.state = "reaped"
                proc.children.remove(child_pid)
                return (child.pid, child.exit_status)
        if nohang:
            return None

        def some_child_exited():
            return any(
                (c := self.find_process(p)) is not None and c.state == "zombie"
                for p in proc.children if pid in (-1, p))

        raise Park(some_child_exited, f"waitpid({pid})")

    # ------------------------------------------------------------------
    # identity and misc
    # ------------------------------------------------------------------

    def sys_getpid(self, thread) -> int:
        """The calling process's pid."""
        return thread.process.pid

    def sys_getppid(self, thread) -> int:
        """The parent's pid."""
        return thread.process.ppid

    def sys_gettid(self, thread) -> int:
        """The calling thread's tid."""
        return thread.tid

    def sys_thread_count(self, thread) -> int:
        """Live threads in the calling process (introspection)."""
        return len(thread.process.live_threads())

    def sys_sched_yield(self, thread) -> int:
        """Give up the CPU (the round-robin makes this mostly symbolic)."""
        return 0

    def sys_clock(self, thread) -> float:
        """The kernel's virtual clock, in nanoseconds."""
        return self.now_ns

    def sys_compute(self, thread, ns: float) -> int:
        """Model ``ns`` nanoseconds of user-mode CPU burn."""
        if ns < 0:
            raise SimOSError("EINVAL", "negative compute time")
        self.charge_fixed(ns)
        return 0
