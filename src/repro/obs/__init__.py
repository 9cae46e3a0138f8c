"""repro.obs — tracing and metrics for the spawn service.

The paper's quantitative argument is that fork's cost is invisible at
the call site: ``fork()`` returns twice and the bill — address-space
copying, descriptor-table duplication, the exec that follows — is paid
somewhere you cannot see.  This package makes the spawn path legible
instead: every spawn can carry a :class:`SpawnTrace` that stamps
monotonic timestamps per lifecycle stage (``build → dispatch → framed →
forked → execed → reaped``) and emits structured JSON events to a
pluggable :class:`Sink`, while a :class:`MetricsRegistry` aggregates
counters and HDR-style latency histograms per strategy.

The switchboard is the module-global :data:`TELEMETRY`:

    >>> from repro.obs import TELEMETRY, RingBufferSink
    >>> sink = RingBufferSink()
    >>> TELEMETRY.enable(sink)
    >>> # ... spawn things; events land in sink, metrics in
    >>> # TELEMETRY.metrics ...
    >>> TELEMETRY.disable()

Disabled (the default), the spawn path costs a handful of no-op method
calls on a shared :data:`NULL_TRACE` singleton — no allocation, no
clock reads, no locks.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from .events import (LAUNCH_STAGES, NULL_TRACE, STAGES, SpawnTrace,
                     new_trace_id)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import JsonlSink, RingBufferSink, Sink, StderrSink, read_jsonl

__all__ = [
    "Counter", "Gauge", "Histogram", "JsonlSink", "LAUNCH_STAGES",
    "MetricsRegistry", "NULL_TRACE", "RingBufferSink", "STAGES", "Sink",
    "SpawnTrace", "StderrSink", "TELEMETRY", "Telemetry", "new_trace_id",
    "read_jsonl",
]

TraceLike = Union[SpawnTrace, type(NULL_TRACE)]


class Telemetry:
    """The process-wide telemetry switch: one sink, one registry.

    Instrumented code calls :meth:`trace` / :meth:`count` /
    :meth:`observe` / :meth:`gauge` unconditionally; all four collapse
    to (nearly) nothing while disabled.  Enabling is not thread-fenced —
    flip it before offering traffic, the way ``repro-bench`` does.
    """

    __slots__ = ("_enabled", "_sink", "metrics")

    def __init__(self):
        self._enabled = False
        self._sink: Optional[Sink] = None
        self.metrics = MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def sink(self) -> Optional[Sink]:
        return self._sink

    def enable(self, sink: Optional[Sink] = None, *,
               reset_metrics: bool = False) -> "Telemetry":
        """Turn telemetry on, optionally replacing the sink.

        ``sink=None`` keeps metrics-only operation: stage events are
        dropped, histograms and counters still aggregate.
        """
        if reset_metrics:
            self.metrics.reset()
        self._sink = sink
        self._enabled = True
        return self

    def disable(self) -> Optional[Sink]:
        """Turn telemetry off; returns the sink so the caller can close it.

        The registry keeps its aggregates — ``repro-bench metrics``
        reads them after the sampled workload is done.
        """
        sink, self._sink = self._sink, None
        self._enabled = False
        return sink

    # -- the hot-path entry points ---------------------------------------

    def trace(self, strategy: str, argv: Sequence[str] = (), *,
              start_ns: Optional[int] = None) -> TraceLike:
        """A live :class:`SpawnTrace`, or :data:`NULL_TRACE` when off."""
        if not self._enabled:
            return NULL_TRACE
        return SpawnTrace(new_trace_id(), strategy, argv, self._sink,
                          self.metrics, start_ns=start_ns)

    def now_ns(self) -> Optional[int]:
        """A monotonic stamp when enabled, else ``None`` (free)."""
        return time.monotonic_ns() if self._enabled else None

    def count(self, name: str, amount: int = 1, **labels: str) -> None:
        if self._enabled:
            self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        if self._enabled:
            self.metrics.histogram(name, **labels).record(value)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        if self._enabled:
            self.metrics.gauge(name, **labels).set(value)

    def event(self, kind: str, **fields) -> None:
        """Emit a free-form structured event to the sink (no-op when off).

        For non-spawn actors — the template registry's warm and evict
        decisions, the gateway's drains and restarts — whose actions are
        part of the service timeline but belong to no single spawn trace.
        """
        if self._enabled and self._sink is not None:
            payload = {"event": kind, "t_ns": time.monotonic_ns()}
            payload.update(fields)
            self._sink.emit(payload)


#: The process-wide instance every instrumented call site uses.
TELEMETRY = Telemetry()
