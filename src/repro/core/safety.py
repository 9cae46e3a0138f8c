"""Runtime fork-safety auditing: is it safe to fork *right now*?

The paper's composition argument is that no library can know whether its
caller (or its caller's other libraries) made fork unsafe.  This module
turns that from folklore into a checkable predicate: :func:`assess`
inspects the live interpreter for the classic hazards and returns typed
findings; :func:`guarded_fork` refuses (or warns) instead of forking
into a known-broken state.

Checked hazards:

* **threads** — other live threads exist; any lock one of them holds is
  held forever in the child.
* **stdio buffers** — unflushed user-space buffers on stdout/stderr are
  duplicated by fork and flushed twice (the doubled-output classic).
* **multiprocessing fork method** — the default start method on Linux is
  ``fork``, inheriting this process's hazards into every worker.
* **interactive/foreign state** — an active asyncio event loop whose
  selector fd would be shared with the child.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, List

from ..errors import ForkSafetyError

SEVERITY_ORDER = ("info", "warning", "fatal")


@dataclass(frozen=True)
class Hazard:
    """One fork-unsafety finding."""

    kind: str
    severity: str
    detail: str

    def __str__(self):
        return f"[{self.severity}] {self.kind}: {self.detail}"


def _check_threads() -> List[Hazard]:
    others = [t for t in threading.enumerate()
              if t is not threading.current_thread() and t.is_alive()
              and not t.daemon]
    daemons = [t for t in threading.enumerate()
               if t is not threading.current_thread() and t.is_alive()
               and t.daemon]
    hazards = []
    if others:
        names = ", ".join(t.name for t in others[:5])
        hazards.append(Hazard(
            "threads", "fatal",
            f"{len(others)} other live thread(s) ({names}): any lock "
            f"they hold is held forever in a forked child"))
    if daemons:
        names = ", ".join(t.name for t in daemons[:5])
        hazards.append(Hazard(
            "daemon-threads", "warning",
            f"{len(daemons)} daemon thread(s) ({names}) will silently "
            f"not exist in the child"))
    return hazards


def _check_stdio() -> List[Hazard]:
    hazards = []
    for name in ("stdout", "stderr"):
        stream = getattr(sys, name, None)
        buffer = getattr(stream, "buffer", None)
        raw_tell = None
        try:
            if buffer is not None and stream.writable():
                # A positive difference between the text layer's and the
                # OS position means user-space bytes fork would duplicate.
                raw_tell = len(getattr(buffer, "_write_buf", b""))
        except (OSError, ValueError, AttributeError):
            raw_tell = None
        if raw_tell:
            hazards.append(Hazard(
                "stdio-buffer", "warning",
                f"sys.{name} holds {raw_tell} unflushed byte(s); a forked "
                f"child flushes them again (doubled output)"))
    return hazards


def _check_multiprocessing() -> List[Hazard]:
    if "multiprocessing" not in sys.modules:
        return []
    import multiprocessing
    try:
        method = multiprocessing.get_start_method(allow_none=True)
    except Exception:
        return []
    if method == "fork":
        return [Hazard(
            "multiprocessing-fork", "warning",
            "multiprocessing start method is 'fork'; workers inherit "
            "every hazard of this process (use 'spawn' or 'forkserver')")]
    return []


def _check_asyncio() -> List[Hazard]:
    if "asyncio" not in sys.modules:
        return []
    import asyncio
    try:
        loop = asyncio.get_event_loop_policy().get_event_loop()
    except Exception:
        return []
    if loop is not None and loop.is_running():
        return [Hazard(
            "asyncio-loop", "fatal",
            "an asyncio event loop is running; its selector and timer "
            "state would be shared with the child")]
    return []


_CHECKS: List[Callable[[], List[Hazard]]] = [
    _check_threads, _check_stdio, _check_multiprocessing, _check_asyncio,
]


def assess() -> List[Hazard]:
    """Audit the live interpreter; returns hazards, worst first."""
    hazards: List[Hazard] = []
    for check in _CHECKS:
        hazards.extend(check())
    hazards.sort(key=lambda h: SEVERITY_ORDER.index(h.severity),
                 reverse=True)
    return hazards


def is_fork_safe() -> bool:
    """True when no fatal hazard is present."""
    return all(h.severity != "fatal" for h in assess())


def guarded_fork(policy: str = "raise") -> int:
    """``os.fork`` gated on the audit.

    ``policy`` is ``"raise"`` (refuse on any fatal hazard — default),
    ``"warn"`` (``warnings.warn`` and proceed), or ``"allow"`` (audit
    skipped entirely, for measurements).  Flushes stdio before forking
    regardless, because that mitigation is free.
    """
    if policy not in ("raise", "warn", "allow"):
        raise ForkSafetyError(f"bad policy {policy!r}")
    if policy != "allow":
        hazards = assess()
        fatal = [h for h in hazards if h.severity == "fatal"]
        if fatal and policy == "raise":
            raise ForkSafetyError(
                "refusing to fork: " + "; ".join(map(str, fatal)))
        for hazard in hazards:
            if policy == "warn" or hazard.severity != "fatal":
                warnings.warn(f"fork hazard {hazard}", stacklevel=2)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass
    # The audited fork the caller asked for; the caller owns the child.
    return os.fork()  # lint-ok: F002, F003
