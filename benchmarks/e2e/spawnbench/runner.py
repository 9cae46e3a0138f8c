"""One workload in one interpreter: setup, timed phase(s), hygiene, metrics.

The driver (``run.py``) starts this in a fresh session-leading child
interpreter per measurement, so lazily booted singletons, RSS and the
leak ledger all start from zero.  Untraced runs do one timed phase and
report the end-to-end metrics; traced runs do an untraced *reference*
phase, then a phase with ``TELEMETRY`` on and harness spans recorded,
then the workload's layer probes, and report the per-layer metrics.
"""

from __future__ import annotations

import faulthandler
import os
import resource
import statistics
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import TELEMETRY, RingBufferSink

from . import procfs
from .catalog import PER_LAYER
from .ops import Op, op_stream
from .spans import PHASES, SpanLog
from .stats import FloorClock, p50, tail
from .workloads import REGISTRY, Workload, clock, p50_us, us

WARMUP_OPS = 200
#: Share of ``--seconds`` a traced run spends on its untraced reference phase.
REFERENCE_SHARE = 0.4
#: One floor probe after this many ops of caller 0, in every timed phase.
FLOOR_EVERY = 8
#: Seconds between RSS samples of the session during a timed phase.  Finding
#: the session's members means reading every /proc/<pid>/stat on the host, so
#: the sampler runs rarely and its own CPU is taken off the phase's.
RSS_EVERY = 0.5
#: Seconds past the measured time before the watchdog declares a hang.
WATCHDOG_SLACK = 90


class Phase:
    """What one timed phase produced."""

    def __init__(self):
        self.begin_ns = 0
        self.end_ns = 0
        self.children = 0
        self.attempted = 0
        self.failed = 0
        #: One ``(end_ns, latency_ns, reap, children)`` per finished op.
        self.done: List[tuple] = []
        #: The interleaved floor probes, ``(end_ns, duration_ns)``; see
        #: :meth:`Workload.floor_probe`.
        self.floors: List[Tuple[int, int]] = []
        self.errors: List[str] = []
        self.log: Optional[SpanLog] = None
        self.cpu_s = 0.0
        self.rss_bytes = 0

    def absorb(self, other: "Phase") -> None:
        self.children += other.children
        self.attempted += other.attempted
        self.failed += other.failed
        self.done += other.done
        self.floors += other.floors
        self.errors += other.errors
        if other.log is not None:
            self.log.merge(other.log)

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.begin_ns) / 1e9

    def latencies(self, reap: str) -> List[int]:
        """Latencies (ns) of the single ops reaped the given way."""
        return [lat for _, lat, how, _ in self.done if how == reap]


class ProbeGate:
    """Parks the other callers between ops while caller 0 takes a floor probe.

    A probe that races the other callers' spawns reads their contention, not
    the box's speed, and over-corrects: on ``pool_conc`` the contended floor
    moved 24 % between identical runs while throughput moved 7 %.
    """

    def __init__(self, callers: int):
        self.cond = threading.Condition()
        self.others = callers - 1  # callers other than 0 still in their loop
        self.parked = 0
        self.wanted = False

    def pause_point(self) -> None:
        """Other callers, between ops: wait out a probe if one is wanted."""
        if not self.wanted:
            return
        with self.cond:
            if self.wanted:
                self.parked += 1
                self.cond.notify_all()
                while self.wanted:
                    self.cond.wait()
                self.parked -= 1

    def leave(self) -> None:
        """Other callers, when their loop ends."""
        with self.cond:
            self.others -= 1
            self.cond.notify_all()

    def probe(self, wl: Workload) -> Tuple[int, int]:
        """Caller 0: one floor probe with every other caller parked or gone."""
        with self.cond:
            self.wanted = True
            while self.parked < self.others:
                self.cond.wait()
        try:
            return wl.floor_probe()
        finally:
            with self.cond:
                self.wanted = False
                self.cond.notify_all()


def caller_loop(wl: Workload, caller: int, stream: Iterator[Op], gate: ProbeGate, *,
                deadline: Optional[float] = None, max_ops: Optional[int] = None,
                traced: bool = False, floor: bool = False) -> Phase:
    """Closed loop of one caller: next op only after the previous one is reaped.

    With ``floor`` caller 0 interleaves one :meth:`Workload.floor_probe` after
    every :data:`FLOOR_EVERY` of its ops — the in-run yardstick every gated
    latency, throughput and CPU metric is divided by (:func:`run_phase` takes
    one more before the callers start, so even the shortest phase has one).
    """
    out = Phase()
    marks: List[int] = []
    if traced:
        out.log = SpanLog()

        def mark():
            marks.append(clock())
    else:
        def mark():
            pass
    try:
        while True:
            if max_ops is not None and out.attempted >= max_ops:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            op = next(stream)
            out.attempted += 1
            marks.clear()
            start = clock()
            try:
                reaped = wl.run_op(op, mark, caller)
            except Exception as exc:
                out.failed += 1
                if len(out.errors) < 3:
                    out.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            end = clock()
            out.children += reaped
            # Batches and whole xproc launches count for throughput and CPU only: they
            # are a different kind of op from the single creations the latencies describe.
            how = op.reap if op.kind in ("single", "sim") else op.kind
            out.done.append((end, end - start, how, reaped))
            if traced:
                out.log.add(f"{caller}:{op.index}", op.tags, start, end, marks)
            if caller:
                gate.pause_point()
            elif floor and out.attempted % FLOOR_EVERY == 0:
                t0, t1 = gate.probe(wl)
                out.floors.append((t1, t1 - t0))
                if traced:
                    out.log.add_sibling("floor", t0, t1)
    finally:
        if caller:
            gate.leave()
    return out


def _rss_sampler(sid: int, samples: List[int], cpu_s: List[float],
                 stop: threading.Event) -> None:
    """Sample the session's RSS until stopped; leaves this thread's CPU seconds in ``cpu_s``."""
    while not stop.wait(RSS_EVERY):
        samples.append(procfs.rss_bytes(procfs.session_pids(sid)))
    cpu_s.append(time.thread_time())


def run_phase(wl: Workload, streams: List[Iterator[Op]], *, seconds: Optional[float] = None,
              max_ops: Optional[int] = None, traced: bool = False,
              floor: Optional[bool] = None) -> Phase:
    """Run every caller to the deadline (or ``max_ops`` each) and fold the results.

    ``floor`` (default: in every time-bounded phase) interleaves the yardstick
    probes, after one taken before the clock starts so that a phase too short
    for caller 0 to reach :data:`FLOOR_EVERY` ops still has a floor; a
    time-bounded phase also samples the session's RSS as it runs.
    """
    sid = os.getpid()
    probing = seconds is not None if floor is None else floor
    first_floor = wl.floor_probe() if probing else None
    ticks_before = procfs.cpu_ticks(procfs.session_pids(sid))
    begin_ns = clock()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    kwargs = dict(deadline=deadline, max_ops=max_ops, traced=traced)
    rss_samples: List[int] = []
    sampler_cpu_s: List[float] = []
    stop = threading.Event()
    rss_thread = None
    if seconds is not None:
        rss_thread = threading.Thread(target=_rss_sampler, name="rss-sampler",
                                      args=(sid, rss_samples, sampler_cpu_s, stop))
        rss_thread.start()
    gate = ProbeGate(len(streams))
    if len(streams) == 1:
        parts = [caller_loop(wl, 0, streams[0], gate, floor=probing, **kwargs)]
    else:
        parts: List[Optional[Phase]] = [None] * len(streams)

        def work(i):
            parts[i] = caller_loop(wl, i, streams[i], gate, floor=probing, **kwargs)

        threads = [threading.Thread(target=work, args=(i,), name=f"caller-{i}")
                   for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    total = Phase()
    total.begin_ns, total.end_ns = begin_ns, clock()
    if rss_thread is not None:
        stop.set()
        rss_thread.join()
    total.log = SpanLog() if traced else None
    members = procfs.session_pids(sid)
    total.cpu_s = (procfs.cpu_seconds_between(ticks_before, procfs.cpu_ticks(members))
                   - sum(sampler_cpu_s))
    # Parked stock and in-flight children come and go; the median over the
    # phase is what the workload holds, not what it held at the last instant.
    total.rss_bytes = statistics.median(rss_samples) if rss_samples else procfs.rss_bytes(members)
    for part in parts:
        total.absorb(part)
    if first_floor is not None:
        t0, t1 = first_floor
        total.floors.append((t1, t1 - t0))
        if traced:
            total.log.add_sibling("floor", t0, t1)
    return total


def _sampler(wl: Workload, peaks: Dict[str, float], stop: threading.Event) -> None:
    while not stop.wait(wl.sample_every):
        try:
            wl.sample(peaks)
        except Exception:
            pass  # a sample lost to a busy daemon is not a failed op


def absolute(phase: Phase) -> Dict[str, float]:
    """The phase in wall-clock units: what a caller feels on this box, right now."""
    block, timed = phase.latencies("block"), phase.latencies("timed")
    p90, _ = tail(block, 0.90)
    p99, _ = tail(block, 0.99)
    p90_floors, _ = tail(over_floor(phase), 0.90)
    return {
        "e2e.ops_per_s": phase.children / phase.wall_s,
        "e2e.op_p50_us": us(p50(block)),
        "e2e.op_p90_us": us(p90),
        "e2e.op_p90_over_floor": p90_floors,
        "e2e.op_p99_us": us(p99),
        "e2e.op_timed_p50_us": us(p50(timed)) if timed else 0.0,
        "e2e.cpu_us_per_op": phase.cpu_s * 1e6 / phase.children,
        "e2e.samples_block": len(block),
        "e2e.samples_timed": len(timed),
        "floor.p50_us": us(p50([d for _, d in phase.floors])),
        "floor.samples": len(phase.floors),
    }


def over_floor(phase: Phase, reap: str = "block") -> List[float]:
    """Each op's latency as a multiple of the floor of its own moment."""
    floor = FloorClock(phase.floors)
    return [lat / floor.at(end) for end, lat, how, _ in phase.done if how == reap]


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    """The gated metrics: every time-like figure in local floors (see FloorClock)."""
    floors_elapsed = FloorClock(phase.floors).elapsed(phase.begin_ns, phase.end_ns)
    return {
        "setup_s": setup_s,
        "ops_per_floor": phase.children / floors_elapsed,
        "op_over_floor": p50(over_floor(phase)),
        # CPU seconds per child, in floors: cpu / children / (wall / floors_elapsed).
        "cpu_over_floor": phase.cpu_s / phase.wall_s * floors_elapsed / phase.children,
        "rss_mb": phase.rss_bytes / 2**20,
    }


#: Lifecycle order of the SpawnTrace stamps (the helper's ``forked`` clock can read
#: earlier than the client's ``framed``, so order by lifecycle, not by time).
STAGE_ORDER = ("build", "dispatch", "framed", "forked", "execed", "reaped")


def _stage_gaps(sink: RingBufferSink) -> Dict[str, float]:
    """p50 gap between consecutive SpawnTrace stamps, from the sink's summary events."""
    gaps: Dict[str, List[int]] = {}
    for event in sink.events():
        if event.get("event") != "spawn":
            continue
        stamps = [(name, event["stages"][name]) for name in STAGE_ORDER
                  if name in event["stages"]]
        for (a, t0), (b, t1) in zip(stamps, stamps[1:]):
            gaps.setdefault(f"obs.stage_us.{a}-{b}", []).append(t1 - t0)
    return {name: p50_us(values) for name, values in gaps.items()}


def layer_metrics(wl: Workload, reference: Phase, traced: Phase, sink: RingBufferSink,
                  peaks: Dict[str, float]) -> Dict[str, float]:
    """Everything the traced run knows, by catalogue name (absent = layer not exercised)."""
    log = traced.log
    singles = [op for op in log.ops if op[1]["kind"] != "batch"]
    op_us = us(sum(log.op_ns(singles)) / len(singles))
    out = {"span.op_us": op_us,
           "span.self_us": us(sum(log.self_ns(singles)) / len(singles))}
    for phase in PHASES:
        out[f"span.{phase}_us"] = us(sum(log.phase_ns(singles, phase)) / len(singles))
    out["span.self_ratio"] = out["span.self_us"] / op_us

    attempted = reference.attempted + traced.attempted
    out["e2e.fail_ratio"] = (reference.failed + traced.failed) / attempted
    out.update(absolute(reference))
    out["e2e.op_timed_over_floor"] = p50(over_floor(reference, "timed"))
    out["obs.traced_ratio"] = p50(over_floor(traced)) / p50(over_floor(reference))

    block = log.phase_ns([op for op in singles if op[1]["reap"] == "block"], "reap")
    timed = log.phase_ns([op for op in singles if op[1]["reap"] == "timed"], "reap")
    out["core.result.reap_block_us"] = p50_us(block)
    out["core.result.reap_timed_us"] = p50_us(timed)
    out["core.result.poll_quantum_us"] = p50_us(timed) - p50_us(block)
    out.update(_stage_gaps(sink))
    out.update(wl.probes(log, peaks))
    return out


def _leaked_procs(sid: int, grace: float = 2.0) -> int:
    """Session members other than us still alive after teardown (zombies count)."""
    limit = time.monotonic() + grace
    while True:
        others = [pid for pid in procfs.session_pids(sid) if pid != sid]
        if not others or time.monotonic() > limit:
            return len(others)
        time.sleep(0.05)


def run_workload(name: str, seed: int, seconds: float, *, trace: bool, results_dir: str,
                 started: float, setup_only: bool = False, warmup: int = WARMUP_OPS) -> dict:
    """The whole life of one workload interpreter; returns the child's report.

    ``started`` is ``time.perf_counter()`` taken at interpreter entry, so
    ``setup_s`` includes importing ``repro``.
    """
    faulthandler.dump_traceback_later(seconds + WATCHDOG_SLACK, exit=True)
    sid = os.getpid()
    fds_before = procfs.open_fds()
    wl = REGISTRY[name](seed, os.path.join(results_dir, f"run-{sid}"))
    report = {"workload": name, "seed": seed, "callers": wl.callers}
    reference = traced = None
    layers: Dict[str, float] = {}
    try:
        wl.boot()
        per_caller = -(-warmup // wl.callers)
        warm = run_phase(wl, [op_stream(name, seed, f"warm{i}") for i in range(wl.callers)],
                         max_ops=per_caller, floor=True)
        # Set-up is CPU-bound like the ops, so it is read on the same clock: wall
        # time in local floors, times the nominal floor (seconds on a box whose
        # floor probe reads exactly FLOOR_NOMINAL_NS; see README).
        setup_wall_s = time.perf_counter() - started
        setup_s = (FloorClock(warm.floors).elapsed(int(started * 1e9), warm.end_ns)
                   * wl.FLOOR_NOMINAL_NS / 1e9)
        report["setup_s"], report["setup_wall_s"] = setup_s, setup_wall_s
        if warm.failed:
            report["errors"] = warm.errors
        wl.begin_timed()
        if not setup_only:
            # Both reap paths in the traced run; blocking only where it is gated.
            streams = [op_stream(name, seed, i, mixed=trace) for i in range(wl.callers)]
            if not trace:
                reference = run_phase(wl, streams, seconds=seconds)
            else:
                reference = run_phase(wl, streams, seconds=seconds * REFERENCE_SHARE)
                sink = RingBufferSink(capacity=100_000)
                peaks: Dict[str, float] = {}
                stop = threading.Event()
                sampler = None
                if wl.sample_every:
                    sampler = threading.Thread(target=_sampler, args=(wl, peaks, stop),
                                               name="sampler")
                TELEMETRY.enable(sink, reset_metrics=True)
                try:
                    if sampler is not None:
                        sampler.start()
                    traced = run_phase(wl, streams, seconds=seconds * (1 - REFERENCE_SHARE),
                                       traced=True)
                finally:
                    stop.set()
                    if sampler is not None:
                        sampler.join()
                    TELEMETRY.disable()
                if not traced.failed and not reference.failed:
                    layers = layer_metrics(wl, reference, traced, sink, peaks)
    finally:
        wl.close()
    faulthandler.cancel_dump_traceback_later()

    leaked_procs = _leaked_procs(sid)
    leaked_fds = procfs.open_fds() - fds_before
    report["leaked_procs"], report["leaked_fds"] = leaked_procs, leaked_fds
    host_children = 0
    if not wl.real_os:
        # A reaped host child always leaves a non-zero peak RSS behind.
        host_children = int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0)
        report["host_children"] = host_children
    if setup_only:
        report["correct"] = warm.failed == 0 and not leaked_procs and not leaked_fds
        return report

    phases = [p for p in (warm, reference, traced) if p is not None]
    report["attempted"] = sum(p.attempted for p in phases)
    report["failed"] = sum(p.failed for p in phases)
    report["errors"] = [e for p in phases for e in p.errors][:5]
    report["correct"] = (report["failed"] == 0 and not leaked_procs and not leaked_fds
                         and not host_children)
    report["samples"] = {"block": len(reference.latencies("block")),
                         "timed": len(reference.latencies("timed")),
                         "children": reference.children, "floor": len(reference.floors)}
    if report["failed"]:
        return report
    if not trace:
        report["metrics"] = end_to_end(reference, setup_s)
        report["absolute"] = absolute(reference)
    else:
        layers["harness.leaked_procs"] = leaked_procs
        layers["harness.leaked_fds"] = leaked_fds
        if not wl.real_os:
            layers["sim.host_children"] = host_children
        # Every declared layer metric is always present: a layer this workload
        # never calls reads 0, which is what "no work there" means.
        report["metrics"] = {m.name: float(layers.get(m.name, 0.0)) for m in PER_LAYER}
        report["undeclared"] = sorted(set(layers) - {m.name for m in PER_LAYER})
        os.makedirs(results_dir, exist_ok=True)
        report["spans_written"] = traced.log.write_jsonl(
            os.path.join(results_dir, f"spans-{name}.jsonl"))
    return report

