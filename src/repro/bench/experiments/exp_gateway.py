"""T8 — the spawn gateway: multi-tenant fairness under overload.

The paper's closing argument is that process creation should be a
*service* with a clean API, not a syscall with fifty years of baggage.
The forkserver pool and the templates (T7) build that service inside
one process; T8 pushes it across a socket: N tenants, each with its own
auth token, bounded queue and weighted-fair share, all hammering one
daemon that multiplexes them over the same warm pools.

The measurement deliberately offers more load than the daemon will
take: each tenant drives more closed-loop client threads than its
queue will hold (``threads_per_tenant > max_queue``) against a small
``max_inflight``, so three things become visible at once:

* **fairness** — with equal weights, the max/min ratio of per-tenant
  completed throughput should stay near 1; the committed baseline
  gates ``fairness_score`` (= 1/ratio, higher is better) at 0.5, i.e.
  no tenant may sustain more than 2x another's share.
* **load shedding** — overload must surface as typed
  :class:`~repro.errors.Overloaded` refusals with Retry-After hints
  (the ``shed`` counter), never as queue bloat or stuck clients.
* **robustness** — the daemon's ``internal_errors`` counter must read
  zero after the storm: every failure a tenant caused came back as a
  typed protocol error, not an unhandled server exception.

Tail latency (p95/p99 of spawn-to-reaped round trips, queueing
included) is reported alongside, because fairness bought with a
collapsed tail is not worth having.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import List, Optional, Sequence

from ...errors import BenchError, GatewayError, Overloaded, RateLimited
from ...gateway import (GatewayClient, GatewayConfig, GatewayServer,
                        TenantConfig)
from ..render import render_table
from ..stats import format_ns, percentile
from .base import ExperimentResult, register

#: The child every tenant spawns: cheap and uniform, so throughput
#: differences are scheduling, not workload.
GATEWAY_CHILD = ("/bin/true",)


class _TenantLoad:
    """One tenant's side of the storm: counters plus latency samples."""

    def __init__(self, name: str, weight: float):
        self.name = name
        self.weight = weight
        self.completed = 0
        self.shed = 0
        self.rate_limited = 0
        self.errors = 0
        self.samples: List[float] = []
        self.lock = threading.Lock()


def _backoff(retry_after: Optional[float]) -> None:
    """Honour a Retry-After hint, bounded so a generous hint (or a
    drain grace) cannot stall the measurement."""
    time.sleep(min(max(retry_after or 0.0, 0.001), 0.05))


def _drive_tenant(load: _TenantLoad, address: str, token: str,
                  barrier: threading.Barrier, duration: float) -> None:
    """One closed-loop client thread: spawn, reap, repeat.

    Shed and rate-limited admissions are counted and retried after the
    daemon's Retry-After hint — the cooperative client the gateway's
    backpressure contract assumes.  Any *other* failure is an error.
    """
    try:
        client = GatewayClient(address, tenant=load.name,
                               token=token).connect()
    except GatewayError:
        with load.lock:
            load.errors += 1
        return
    try:
        barrier.wait()
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline:
            started = time.perf_counter_ns()
            try:
                child = client.spawn(GATEWAY_CHILD)
            except Overloaded as exc:
                with load.lock:
                    load.shed += 1
                _backoff(exc.retry_after)
                continue
            except RateLimited as exc:
                with load.lock:
                    load.rate_limited += 1
                _backoff(exc.retry_after)
                continue
            except GatewayError:
                with load.lock:
                    load.errors += 1
                continue
            child.wait(timeout=30)
            with load.lock:
                load.completed += 1
                load.samples.append(
                    float(time.perf_counter_ns() - started))
    finally:
        client.close()


def _run_storm(tenant_count: int, weights: Sequence[float],
               threads_per_tenant: int, duration: float,
               max_inflight: int, max_queue: int):
    """Boot a daemon, offer the storm, return (loads, stats, wall)."""
    tokens = {f"tenant-{i}": f"secret-{i}" for i in range(tenant_count)}
    tenants = {
        name: TenantConfig(name=name, token=token, max_queue=max_queue,
                           weight=weights[index])
        for index, (name, token) in enumerate(tokens.items())}
    tempdir = tempfile.mkdtemp(prefix="repro-bench-t8-")
    address = os.path.join(tempdir, "gateway.sock")
    server = GatewayServer(GatewayConfig(
        unix_path=address, tenants=tenants,
        max_inflight=max_inflight, drain_grace=5.0)).start()
    loads = [_TenantLoad(name, config.weight)
             for name, config in tenants.items()]
    try:
        barrier = threading.Barrier(tenant_count * threads_per_tenant + 1)
        threads = [
            threading.Thread(
                target=_drive_tenant,
                args=(load, address, tokens[load.name], barrier, duration),
                name=f"t8-{load.name}-{worker}")
            for load in loads for worker in range(threads_per_tenant)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        stats = server.stats()
    finally:
        server.stop()
        shutil.rmtree(tempdir, ignore_errors=True)
    return loads, stats, wall


@register("t8-gateway",
          "Spawn gateway: multi-tenant fairness under overload",
          "§5 spawn as a service",
          quick_kwargs={"duration": 1.0})
def run_t8_gateway(tenant_count: int = 4,
                   weights: Optional[Sequence[float]] = None,
                   threads_per_tenant: int = 4,
                   duration: float = 4.0,
                   max_inflight: int = 4,
                   max_queue: int = 2) -> ExperimentResult:
    """Fairness, shedding and tail latency of the gateway under storm.

    ``tenant_count`` tenants (equal weight unless ``weights`` is
    given), each driven by ``threads_per_tenant`` closed-loop client
    threads for ``duration`` seconds against a daemon capped at
    ``max_inflight`` concurrent spawns and ``max_queue`` queued
    requests per tenant — a deliberate overload
    (``threads_per_tenant`` must exceed ``max_queue`` or nothing is
    ever shed, because a closed-loop client has at most one request
    outstanding).  The summary row (keyed on ``concurrency``) carries
    ``fairness_score`` for ``repro-bench compare``.
    """
    if tenant_count < 2:
        raise BenchError("fairness needs at least two tenants")
    if weights is None:
        weights = [1.0] * tenant_count
    weights = [float(w) for w in weights]
    if len(weights) != tenant_count:
        raise BenchError(
            f"{tenant_count} tenants but {len(weights)} weights")
    loads, stats, wall = _run_storm(
        tenant_count, weights, threads_per_tenant, duration,
        max_inflight, max_queue)

    rows = []
    shares = []
    all_samples: List[float] = []
    for load in loads:
        per_second = load.completed / max(wall, 1e-9)
        # Normalise by weight so the fairness bar generalises to
        # weighted runs: WFQ promises *proportional* shares.
        shares.append(per_second / load.weight)
        all_samples.extend(load.samples)
        rows.append({
            "section": "tenant", "tenant": load.name,
            "weight": load.weight, "completed": load.completed,
            "shed": load.shed, "rate_limited": load.rate_limited,
            "errors": load.errors, "per_second": per_second,
            "p95_ns": (percentile(load.samples, 0.95)
                       if load.samples else None),
        })
    if not all_samples:
        raise BenchError("no tenant completed a single spawn — the "
                         "gateway shed everything")
    ratio = max(shares) / max(min(shares), 1e-9)
    concurrency = tenant_count * threads_per_tenant
    total = sum(load.completed for load in loads)
    summary = {
        "section": "overload", "concurrency": concurrency,
        "tenants": tenant_count, "requests": total,
        "per_second": total / max(wall, 1e-9),
        "fairness_ratio": ratio,
        "fairness_score": 1.0 / max(ratio, 1e-9),
        "shed": stats.get("shed_total", 0),
        "client_errors": sum(load.errors for load in loads),
        "internal_errors": stats.get("internal_errors", 0),
        "p95_ns": percentile(all_samples, 0.95),
        "p99_ns": percentile(all_samples, 0.99),
    }
    rows.append(summary)

    tenant_table = render_table(
        ["tenant", "weight", "spawns/sec", "shed", "p95"],
        [[row["tenant"], f"{row['weight']:g}",
          f"{row['per_second']:.0f}/s", str(row["shed"]),
          format_ns(row["p95_ns"]) if row["p95_ns"] else "-"]
         for row in rows if row["section"] == "tenant"],
        title=f"T8a: per-tenant service under overload "
              f"({concurrency} client threads, max_inflight="
              f"{max_inflight})")
    summary_table = render_table(
        ["spawns/sec", "fairness max/min", "shed", "internal errors",
         "p95", "p99"],
        [[f"{summary['per_second']:.0f}/s",
          f"{summary['fairness_ratio']:.2f}", str(summary["shed"]),
          str(summary["internal_errors"]),
          format_ns(summary["p95_ns"]), format_ns(summary["p99_ns"])]],
        title="T8b: the daemon's side of the storm")
    return ExperimentResult(
        "t8-gateway", "Spawn gateway under multi-tenant overload", rows,
        f"{tenant_table}\n\n{summary_table}", _notes(summary))


def _notes(summary: dict) -> str:
    shed = summary["shed"]
    verdict = ("load shedding engaged" if shed
               else "WARNING: the storm never overloaded the daemon — "
                    "shed counter is zero, raise burst or lower "
                    "max_inflight")
    robust = ("zero unhandled server exceptions"
              if not summary["internal_errors"]
              else f"WARNING: {summary['internal_errors']} internal "
                   f"server errors")
    return (f"{summary['tenants']} tenants offered "
            f"{summary['concurrency']} closed-loop client threads; the "
            f"weight-normalised throughput spread was "
            f"{summary['fairness_ratio']:.2f}x max/min "
            f"(fairness_score {summary['fairness_score']:.2f}, gate "
            f"floor 0.50 = no tenant above 2x another). {verdict} "
            f"({shed} refusals with Retry-After hints); {robust}. "
            f"overload cost tail latency, not correctness: p99 "
            f"{format_ns(summary['p99_ns'])} against p95 "
            f"{format_ns(summary['p95_ns'])}.")
