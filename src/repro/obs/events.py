"""Per-spawn lifecycle traces: the paper's Figure 1, one request at a time.

A :class:`SpawnTrace` follows one process-creation request through its
lifecycle stages and emits a structured event per stage, so the cost
fork hides inside "it returned twice" becomes a timeline you can read:

========  ==========================================================
stage     stamped when
========  ==========================================================
build     the :class:`~repro.core.spawn.ProcessBuilder` was created
          (or the trace started, for direct service spawns)
dispatch  a strategy was chosen and its ``launch`` entered
framed    the forkserver request left this process (one ``sendmsg``)
forked    the helper's launch returned — its ``posix_spawn``, so the
          child's exec is done, a ``cwd`` request's too; the
          *helper's* clock, shipped back in the reply
          (CLOCK_MONOTONIC is system-wide on Linux, so the
          timestamps compose)
execed    the launch syscall that subsumes exec returned
          (``posix_spawn``, ``subprocess``); plain ``fork_exec``
          stops at ``forked`` because the parent never observes exec
reaped    the exit status came back through ``wait``/``poll``
========  ==========================================================

Direct strategies skip ``framed``/``forked``; forkserver spawns skip
``execed``.  Every event carries the trace id, which for forkserver
spawns also rides the wire protocol next to the correlation id — the
helper echoes it so client- and helper-side records join up.

When telemetry is disabled the module hands out :data:`NULL_TRACE`, a
shared do-nothing singleton that is falsy and allocation-free — the
entire disabled cost of the spawn path is a few no-op method calls.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Canonical stage order (used by docs and the ordering tests).
STAGES = ("build", "dispatch", "framed", "forked", "execed", "reaped")

#: Stages that mark the end of the *launch* (child exists and is on its
#: way to exec); the latest one present bounds the launch latency.
LAUNCH_STAGES = ("forked", "execed")

_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique id, pid-prefixed so parallel runs never collide."""
    return f"{os.getpid():x}-{next(_COUNTER):06x}"


class _NullTrace:
    """The disabled path: every operation is a no-op; truth value False."""

    __slots__ = ()
    trace_id: Optional[str] = None
    strategy = ""

    def __bool__(self) -> bool:
        return False

    def stage(self, name: str, t_ns: Optional[int] = None, **fields) -> None:
        pass

    def annotate(self, **fields) -> None:
        pass

    def success(self, pid: Optional[int] = None) -> None:
        pass

    def failure(self, error: BaseException) -> None:
        pass

    def reaped(self, returncode: Optional[int]) -> None:
        pass

    def __repr__(self):
        return "<NULL_TRACE>"


#: Shared no-op trace handed out whenever telemetry is off.
NULL_TRACE = _NullTrace()


class SpawnTrace:
    """One spawn request's timeline, wired to a sink and a registry.

    Created via :meth:`repro.obs.Telemetry.trace`; user code normally
    never constructs one.  The *owner* — whoever created the trace —
    calls :meth:`success` or :meth:`failure` exactly once after the
    launch resolves; layers the trace merely passes through only stamp
    stages.  :meth:`reaped` is idempotent, because pool spawns attach
    the same trace to both the inner and the rewrapped child handle.
    """

    __slots__ = ("trace_id", "strategy", "argv", "stages", "_sink",
                 "_metrics", "_meta", "_reaped")

    def __init__(self, trace_id: str, strategy: str,
                 argv: Sequence[str], sink, metrics, *,
                 start_ns: Optional[int] = None):
        self.trace_id = trace_id
        self.strategy = strategy
        self.argv = tuple(os.fspath(a) for a in argv)
        self.stages: List[Tuple[str, int]] = []
        self._sink = sink
        self._metrics = metrics
        self._meta: Dict[str, object] = {}
        self._reaped = False
        self.stage("build", t_ns=start_ns)

    def __bool__(self) -> bool:
        return True

    def _emit(self, event: dict) -> None:
        if self._sink is not None:
            self._sink.emit(event)

    # -- recording --------------------------------------------------------

    def stage(self, name: str, t_ns: Optional[int] = None, **fields) -> None:
        """Stamp a lifecycle stage (now, unless ``t_ns`` is supplied)."""
        t = int(t_ns) if t_ns is not None else time.monotonic_ns()
        self.stages.append((name, t))
        event = {"event": "stage", "trace": self.trace_id, "stage": name,
                 "t_ns": t, "strategy": self.strategy}
        event.update(fields)
        self._emit(event)

    def annotate(self, **fields) -> None:
        """Attach free-form fields to the final summary event."""
        self._meta.update(fields)

    # -- timeline queries -------------------------------------------------

    def stage_time(self, name: str) -> Optional[int]:
        """The (first) timestamp of ``name``, or ``None`` if not stamped."""
        for stage, t in self.stages:
            if stage == name:
                return t
        return None

    def launch_ns(self) -> Optional[int]:
        """build → child-exists latency, once a launch stage is stamped."""
        start = self.stage_time("build")
        if start is None:
            return None
        end = max((t for stage, t in self.stages
                   if stage in LAUNCH_STAGES), default=None)
        return None if end is None else end - start

    # -- outcomes ---------------------------------------------------------

    def success(self, pid: Optional[int] = None) -> None:
        """The launch produced a child: count it, record launch latency."""
        if pid is not None:
            self._meta.setdefault("pid", pid)
        if self._metrics is not None:
            self._metrics.counter("spawns", strategy=self.strategy).inc()
            latency = self.launch_ns()
            if latency is not None:
                self._metrics.histogram(
                    "spawn_latency_ns", strategy=self.strategy
                ).record(latency)

    def failure(self, error: BaseException) -> None:
        """The launch raised: count the failure and emit an error event."""
        if self._metrics is not None:
            self._metrics.counter(
                "spawn_failures", strategy=self.strategy).inc()
        self._emit({"event": "error", "trace": self.trace_id,
                    "strategy": self.strategy, "argv": list(self.argv),
                    "error": f"{type(error).__name__}: {error}"})

    def reaped(self, returncode: Optional[int]) -> None:
        """The exit status arrived: stamp ``reaped``, emit the summary."""
        if self._reaped:
            return
        self._reaped = True
        self.stage("reaped", returncode=returncode)
        start = self.stage_time("build")
        end = self.stage_time("reaped")
        if self._metrics is not None and start is not None:
            self._metrics.histogram(
                "child_lifetime_ns", strategy=self.strategy
            ).record(end - start)
        summary = {
            "event": "spawn", "trace": self.trace_id,
            "strategy": self.strategy, "argv": list(self.argv),
            "returncode": returncode,
            "stages": {name: t for name, t in self.stages},
            "launch_ns": self.launch_ns(),
            "total_ns": (end - start) if start is not None else None,
        }
        summary.update(self._meta)
        self._emit(summary)

    def __repr__(self):
        stamped = [name for name, _ in self.stages]
        return (f"<SpawnTrace {self.trace_id} {self.strategy} "
                f"stages={stamped}>")
