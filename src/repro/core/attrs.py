"""Spawn attributes: the child-state knobs that are not descriptors.

``posix_spawn`` carries a small attributes object (signal mask, default
dispositions, process group, scheduling) precisely because these are the
things fork-based code used to tweak *in the child* between fork and
exec.  This module models the portable, useful subset and renders it for
each launch strategy.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..errors import SpawnError


@dataclass
class SpawnAttributes:
    """Declarative non-descriptor child state.

    Attributes:
        env: the child's environment, or ``None`` to inherit the
            parent's at spawn time.
        cwd: working directory for the child, or ``None`` to inherit.
            (POSIX's spawn lacks this — a known wart the paper notes as
            "chdir in the child" pressure.  A launcher that can run
            code in the child provides it: ``fork_exec``, which the
            default picker forks the caller for, or a forkserver
            helper's child.)
        new_process_group: put the child in its own process group
            (``setpgid(0, 0)``), the shell's job-control idiom.
        reset_signals: restore default dispositions for every catchable
            signal in the child, so a library's handlers do not leak in.
        sigmask: signals to block in the child, by number.
        umask: file-creation mask, or ``None`` to inherit.
        deadline: seconds one spawn attempt may take before it is
            abandoned, where a launcher owns a wait to bound: the
            forkserver strategies' and ``gateway``'s wire round trip,
            ``xproc``'s run of the sim child.  Direct syscalls complete
            or fail immediately.
    """

    env: Optional[Dict[str, str]] = None
    cwd: Optional[str] = None
    new_process_group: bool = False
    reset_signals: bool = False
    sigmask: Sequence[int] = field(default_factory=tuple)
    umask: Optional[int] = None
    deadline: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`SpawnError` on nonsense combinations."""
        if self.env is not None:
            for key, value in self.env.items():
                if not isinstance(key, str) or not isinstance(value, str):
                    raise SpawnError("environment entries must be str: "
                                     f"{key!r}={value!r}")
                if not key or "=" in key or "\0" in key or "\0" in value:
                    raise SpawnError(
                        f"bad environment entry {key!r}={value!r}: a name "
                        "is non-empty and holds no '=', neither holds a NUL")
        if self.cwd is not None and not isinstance(self.cwd, (str, os.PathLike)):
            raise SpawnError(f"bad cwd {self.cwd!r}")
        if self.umask is not None and not 0 <= self.umask <= 0o7777:
            raise SpawnError(f"bad umask {self.umask:#o}")
        if self.deadline is not None and self.deadline <= 0:
            raise SpawnError(f"deadline must be > 0: {self.deadline}")
        for signum in self.sigmask:
            if not 1 <= int(signum) < signal.NSIG:
                raise SpawnError(f"bad signal number {signum}")

    def effective_env(self) -> Dict[str, str]:
        """The environment the child will actually see."""
        return dict(os.environ) if self.env is None else dict(self.env)

    def posix_spawn_kwargs(self) -> dict:
        """Keyword arguments for ``os.posix_spawn``.

        Covers what the host call supports directly (process group,
        signal mask, signal defaults); ``cwd`` and ``umask`` are not in
        POSIX's attribute set and are handled by the strategy.
        """
        kwargs = {}
        if self.new_process_group:
            kwargs["setpgroup"] = 0
        if self.reset_signals:
            kwargs["setsigdef"] = _catchable_signals()
        if self.sigmask:
            kwargs["setsigmask"] = [int(s) for s in self.sigmask]
        return kwargs

    def apply_in_child(self) -> None:
        """Apply the attributes directly (between fork and exec)."""
        if self.new_process_group:
            os.setpgid(0, 0)
        if self.reset_signals:
            for signum in _catchable_signals():
                signal.signal(signum, signal.SIG_DFL)
        if self.sigmask:
            signal.pthread_sigmask(signal.SIG_BLOCK,
                                   [int(s) for s in self.sigmask])
        if self.umask is not None:
            os.umask(self.umask)
        if self.cwd is not None:
            os.chdir(self.cwd)


def check_argv(argv: Sequence) -> None:
    """Raise :class:`SpawnError` for an argv no exec could take: a NUL
    inside an element."""
    for arg in argv:
        if (b"\0" if isinstance(arg, bytes) else "\0") in arg:
            raise SpawnError(f"NUL in argv element {arg!r}")


def _catchable_signals() -> list:
    """Every signal whose disposition a process may change."""
    out = []
    for signum in range(1, signal.NSIG):
        if signum in (signal.SIGKILL, signal.SIGSTOP):
            continue
        try:
            signal.Signals(signum)
        except ValueError:
            continue
        out.append(signum)
    return out
