"""Shared plumbing for the syscall layer.

Syscall handlers are methods named ``sys_<name>`` on the kernel, mixed in
from the modules of this package.  They communicate three non-value
outcomes to the trampoline through the types below:

* :class:`Park` — the call cannot progress; block the thread until the
  predicate holds, then either retry the call or deliver a fixed result.
* :class:`ExecTransfer` — the calling thread's program image was
  replaced; do not resume the old generator.
* :class:`Exited` — the calling thread (or its whole process) is gone.
"""

from __future__ import annotations

from typing import Callable

#: Marker: "retry the original call" (vs. a fixed wake-up result).
RETRY = object()


class Park(Exception):
    """Raised by a handler to block the calling thread.

    Attributes:
        predicate: zero-argument callable; the scheduler re-checks it
            each round and wakes the thread when it returns true.
        reason: human-readable blocking reason (shows up in deadlock
            reports — the fork-with-threads experiment reads these).
        result: value to deliver on wake, or :data:`RETRY` to re-execute
            the original syscall instead.
    """

    def __init__(self, predicate: Callable[[], bool], reason: str,
                 result=RETRY):
        super().__init__(reason)
        self.predicate = predicate
        self.reason = reason
        self.result = result


class ExecTransfer:
    """Handler result: the thread now runs a different program image."""

    __slots__ = ()


class Exited:
    """Handler result: the calling thread finished (exit/fatal signal)."""

    __slots__ = ()


EXEC_TRANSFER = ExecTransfer()
EXITED = Exited()


class KernelFacet:
    """Base for syscall mixins; documents the kernel surface they use.

    Mixins assume the kernel provides: ``config``, ``cost``, ``counters``,
    ``vfs``, ``processes``, ``programs``, ``rng``, ``charge_fixed()``,
    ``_assemble()`` (the one way to build a process), ``build_image()``,
    ``_load()``, ``attach_thread()``, ``exit_process()``, ``find_process()``.
    """

    __slots__ = ()
