"""Syscall tracing: strace/perf for the simulated kernel.

Attach a :class:`Tracer` to a kernel and every executed syscall is
recorded with its virtual start time, duration, process/thread identity
and the work it performed.  The trace can be summarised (time per
syscall, like ``strace -c``), rendered as text, or exported in Chrome's
trace-event JSON format for chrome://tracing / Perfetto.

    kernel = Kernel()
    tracer = Tracer().attach(kernel)
    ... run programs ...
    print(tracer.trace.summary_table())
    tracer.trace.to_chrome_json("trace.json")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SimError
from .params import _PRICED, _tally
from .syscalls.base import Park

#: Where the counters a :class:`SyscallEvent` carries sit in a tally.
_PAGES, _PTES, _FAULTS = (_PRICED.index(name) for name in
                          ("pages_copied", "ptes_copied", "faults"))


@dataclass(frozen=True)
class SyscallEvent:
    """One executed syscall."""

    start_ns: float
    duration_ns: float
    pid: int
    tid: int
    process_name: str
    name: str
    outcome: str                      # "ok", "blocked", or an errno name
    pages_copied: int = 0
    ptes_copied: int = 0
    faults: int = 0

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


@dataclass
class Trace:
    """An ordered list of syscall events plus the queries over it."""

    events: List[SyscallEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def record(self, event: SyscallEvent) -> None:
        self.events.append(event)

    # -- queries -----------------------------------------------------------

    def for_pid(self, pid: int) -> List[SyscallEvent]:
        """Events from one process."""
        return [e for e in self.events if e.pid == pid]

    def for_syscall(self, name: str) -> List[SyscallEvent]:
        """Events of one syscall."""
        return [e for e in self.events if e.name == name]

    def total_ns(self) -> float:
        """Total virtual time spent in traced syscalls."""
        return sum(e.duration_ns for e in self.events)

    def summary(self) -> Dict[str, dict]:
        """Per-syscall aggregate: calls, total/max duration, errors.

        The ``strace -c`` view; sorted by total time descending.
        """
        rows: Dict[str, dict] = {}
        for event in self.events:
            row = rows.setdefault(event.name, {
                "calls": 0, "total_ns": 0.0, "max_ns": 0.0, "errors": 0})
            row["calls"] += 1
            row["total_ns"] += event.duration_ns
            row["max_ns"] = max(row["max_ns"], event.duration_ns)
            if event.outcome not in ("ok", "blocked"):
                row["errors"] += 1
        return dict(sorted(rows.items(),
                           key=lambda kv: -kv[1]["total_ns"]))

    def summary_table(self) -> str:
        """The summary rendered as fixed-width text."""
        lines = [f"{'syscall':16s} {'calls':>6s} {'total':>12s} "
                 f"{'max':>12s} {'errors':>6s}"]
        lines.append("-" * len(lines[0]))
        for name, row in self.summary().items():
            lines.append(
                f"{name:16s} {row['calls']:6d} {row['total_ns']:12.0f} "
                f"{row['max_ns']:12.0f} {row['errors']:6d}")
        lines.append(f"total traced time: {self.total_ns():.0f} ns over "
                     f"{len(self.events)} calls")
        return "\n".join(lines)

    # -- exports ---------------------------------------------------------

    def to_chrome_events(self) -> List[dict]:
        """Chrome trace-event objects (``ph: X`` complete events)."""
        out = []
        for event in self.events:
            out.append({
                "name": event.name,
                "cat": "syscall",
                "ph": "X",
                "ts": event.start_ns / 1000.0,     # microseconds
                "dur": max(event.duration_ns, 1.0) / 1000.0,
                "pid": event.pid,
                "tid": event.tid,
                "args": {
                    "outcome": event.outcome,
                    "process": event.process_name,
                    "pages_copied": event.pages_copied,
                    "ptes_copied": event.ptes_copied,
                    "faults": event.faults,
                },
            })
        return out

    def to_chrome_json(self, path: Optional[str] = None) -> str:
        """Serialize for chrome://tracing; optionally write to ``path``."""
        payload = json.dumps({"traceEvents": self.to_chrome_events(),
                              "displayTimeUnit": "ns"}, indent=1)
        if path is not None:
            with open(path, "w") as sink:
                sink.write(payload)
        return payload


class Tracer:
    """Attaches to a kernel and records every dispatched syscall.

    Implementation: wraps the kernel's ``_execute`` and ``timed_call``
    entry points.  Detach restores the originals; attaching twice or
    detaching while unattached is an error (it would corrupt the
    wrapping chain).
    """

    def __init__(self):
        self.trace = Trace()
        self._kernel = None
        self._original_execute = None
        self._original_timed_call = None

    @property
    def attached(self) -> bool:
        return self._kernel is not None

    def attach(self, kernel) -> "Tracer":
        if self.attached:
            raise SimError("tracer is already attached")
        self._kernel = kernel
        self._original_execute = kernel._execute
        self._original_timed_call = kernel.timed_call
        kernel._execute = self._traced_execute
        kernel.timed_call = self._traced_timed_call
        return self

    def detach(self) -> "Trace":
        if not self.attached:
            raise SimError("tracer is not attached")
        self._kernel._execute = self._original_execute
        self._kernel.timed_call = self._original_timed_call
        self._kernel = None
        return self.trace

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        if self.attached:
            self.detach()

    # -- wrappers -----------------------------------------------------------

    def _start(self):
        kernel = self._kernel
        return kernel.now_ns, _tally(kernel.counters)

    def _emit(self, thread, name: str, start_ns: float,
              before: tuple, outcome: str) -> None:
        kernel = self._kernel
        after = _tally(kernel.counters)
        self.trace.record(SyscallEvent(
            start_ns=start_ns,
            duration_ns=kernel.now_ns - start_ns,
            pid=thread.process.pid,
            tid=thread.tid,
            process_name=thread.process.name,
            name=name,
            outcome=outcome,
            pages_copied=after[_PAGES] - before[_PAGES],
            ptes_copied=after[_PTES] - before[_PTES],
            faults=after[_FAULTS] - before[_FAULTS],
        ))

    def _traced_execute(self, thread, request) -> None:
        start_ns, before = self._start()
        self._original_execute(thread, request)
        name = getattr(request, "name", "<bad-request>")
        if thread.state == "blocked":
            outcome = "blocked"
        elif isinstance(thread.throw_value, Exception):
            outcome = getattr(thread.throw_value, "errno_name", "error")
        else:
            outcome = "ok"
        self._emit(thread, name, start_ns, before, outcome)

    def _traced_timed_call(self, thread, name, *args, **kwargs):
        start_ns, before = self._start()
        try:
            result = self._original_timed_call(thread, name, *args,
                                               **kwargs)
        except Park:
            self._emit(thread, name, start_ns, before, "blocked")
            raise
        except Exception as exc:
            outcome = getattr(exc, "errno_name", "error")
            self._emit(thread, name, start_ns, before, outcome)
            raise
        self._emit(thread, name, start_ns, before, "ok")
        return result
