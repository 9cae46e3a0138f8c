"""Processes and threads: the kernel's unit of execution.

A simulated program is a Python *generator function*: it receives a
syscall proxy and ``yield``s syscall requests; the kernel trampoline
executes each request and sends the result back in.  A
:class:`Thread` owns one such generator; a :class:`Process` owns one
address space, one descriptor table, one signal state, a mutex table and
one or more threads — exactly the ownership boundaries whose duplication
(or non-duplication) the fork-vs-spawn argument is about.

One honest limitation, stated up front: Python generators cannot be
cloned, so the simulator's ``fork`` takes the child's continuation as an
explicit function instead of "returning twice".  Everything the paper
measures — address-space COW, shared file descriptions, signal-state
rules, the single-surviving-thread hazard — is cloned exactly; only the
program counter is supplied rather than copied.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional

from ..errors import SimError

# Thread states.
READY = "ready"
RUNNING = "running"
BLOCKED = "blocked"
FINISHED = "finished"

# Process states.
ALIVE = "alive"
ZOMBIE = "zombie"
REAPED = "reaped"


class Mutex:
    """A process-local mutex whose *state* lives in process memory.

    This is the object that makes the paper's thread-safety argument
    runnable: because the locked/owner words are ordinary memory, fork
    clones them — so a child forked while another thread holds the lock
    inherits a lock that is held by a thread that does not exist in the
    child, and any attempt to take it deadlocks (experiment T4).
    """

    _ids = itertools.count(1)

    def __init__(self, mid: Optional[int] = None):
        self.id = mid if mid is not None else next(self._ids)
        self.locked = False
        self.owner_tid: Optional[int] = None

    def fork_clone(self) -> "Mutex":
        """The memory image of the mutex, as COW would copy it."""
        clone = Mutex(mid=self.id)
        clone.locked = self.locked
        clone.owner_tid = self.owner_tid
        return clone

    def __repr__(self):
        state = f"held by tid {self.owner_tid}" if self.locked else "free"
        return f"<Mutex #{self.id} {state}>"


class Thread:
    """One schedulable execution context."""

    _tids = itertools.count(1)

    def __init__(self, process: "Process", generator: Generator,
                 name: str = ""):
        self.tid = next(self._tids)
        self.process = process
        self.generator = generator
        self.name = name or f"tid{self.tid}"
        self.state = READY
        self.send_value = None         # result delivered on next resume
        self.throw_value = None        # exception delivered on next resume
        self.wake_predicate = None     # callable() -> bool while BLOCKED
        self.pending_call = None       # syscall request to retry on wake
        self.wake_result = None        # fixed result to deliver on wake
        self.block_reason = ""

    @property
    def runnable(self) -> bool:
        return self.state == READY

    def park(self, predicate, pending_call, reason: str) -> None:
        """Block until ``predicate()`` holds, then retry ``pending_call``."""
        self.state = BLOCKED
        self.wake_predicate = predicate
        self.pending_call = pending_call
        self.block_reason = reason

    def wake(self) -> None:
        """Return to the run queue.

        A parked retry call re-executes on resume; otherwise the stored
        ``wake_result`` is delivered into the generator.
        """
        if self.state != BLOCKED:
            raise SimError(f"waking non-blocked thread {self!r}")
        self.state = READY
        self.wake_predicate = None
        self.block_reason = ""
        if self.pending_call is None:
            self.send_value = self.wake_result
            self.wake_result = None

    def finish(self) -> None:
        self.state = FINISHED
        self.generator = None

    def __repr__(self):
        return (f"<Thread {self.name} tid={self.tid} "
                f"pid={self.process.pid} {self.state}"
                f"{': ' + self.block_reason if self.block_reason else ''}>")


class Process:
    """One process: resources plus threads.

    The kernel wires in the address space, fd table and signal state at
    creation; this class is deliberately a passive record so every
    policy decision (who copies what, when) lives in the syscall layer
    where the experiments can see it.
    """

    def __init__(self, pid: int, ppid: int, name: str = "?"):
        self.pid = pid
        self.ppid = ppid
        self.name = name
        self.state = ALIVE
        self.addrspace = None
        self.fdtable = None
        self.signals = None
        self.threads: List[Thread] = []
        self.children: List[int] = []
        self.exit_status: Optional[int] = None
        self.mutexes: Dict[int, Mutex] = {}
        self.cwd = "/"
        self.argv: List[str] = []
        #: How this process came to exist: "boot", "fork", "vfork",
        #: "clone", "spawn", "snapshot", "xproc" or "fork_emulated" —
        #: experiments group on it.
        self.origin = "boot"
        #: Job control: True between SIGSTOP and SIGCONT — threads keep
        #: their states but none is scheduled.
        self.stopped = False
        # vfork bookkeeping: set while this process borrows its parent's
        # address space; the parent stays blocked until it clears.
        self.shares_parent_as = False

    @property
    def alive(self) -> bool:
        return self.state == ALIVE

    def live_threads(self) -> List[Thread]:
        """Threads that have not finished."""
        return [t for t in self.threads if t.state != FINISHED]

    def main_thread(self) -> Thread:
        if not self.threads:
            raise SimError(f"process {self.pid} has no threads")
        return self.threads[0]

    def fork_mutex_table(self) -> Dict[int, Mutex]:
        """Clone every mutex *as memory*, held state included."""
        return {mid: m.fork_clone() for mid, m in self.mutexes.items()}

    def __repr__(self):
        return (f"<Process {self.name!r} pid={self.pid} {self.state} "
                f"threads={len(self.live_threads())}>")
