"""T9 — the availability gauntlet: the gateway under injected faults.

T8 proved the gateway is *fair* under overload; T9 asks the harder
question: is it *available* under failure?  The experiment boots the
daemon under a :class:`~repro.gateway.supervisor.GatewaySupervisor`,
offers a closed-loop multi-tenant storm through self-healing
:class:`~repro.gateway.client.GatewayClient` channels, and — mid-storm
— activates a :class:`~repro.faults.FaultPlan` drawn from the gateway
fault family: connections reset, frames sent by halves, replies
dropped or replaced with garbage, fresh connections refused, and the
daemon itself killed with requests in flight.

The contract under test is the cooperative one the stack already
assumes everywhere else: shed and rate-limited admissions back off and
retry (backpressure is not unavailability), and a request that dies of
a *fault* is retried a bounded number of times against the self-healed
channel.  A request counts as **failed** only when the entire recovery
stack — client reconnect with re-auth, supervisor restart, driver
retry — could not serve it.  Three gates:

* **availability** — served / (served + failed) over the non-shed
  traffic must stay >= 0.99 (committed baseline, tolerance 0.01);
* **zero orphans** — after teardown no child process the storm created
  may still be running (counted via /proc, not trusted accounting);
* **zero leaked fds** — the process's fd table must return to its
  pre-storm size.

``daemon_restarts`` must be >= 1 (the kill actually happened and the
supervisor actually recovered) or the gauntlet is vacuous.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import threading
import time
from typing import List, Optional

from ...core.policy import Backoff
from ...errors import (BenchError, GatewayError, Overloaded, RateLimited,
                       SpawnError)
from ...faults import FAULTS, FaultPlan
from ...gateway import (GatewayClient, GatewayConfig, GatewaySupervisor,
                        TenantConfig)
from ..render import render_table
from ..stats import format_ns, percentile
from .base import ExperimentResult, register

#: The child every request spawns (cheap and uniform, as in T8).
CHAOS_CHILD = ("/bin/true",)


def _open_fds() -> int:
    """The process's current fd-table size, via /proc."""
    return len(os.listdir("/proc/self/fd"))


def _live_children() -> List[int]:
    """Pids whose parent is this process, via /proc (zombies included)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap_zombies(pids: List[int]) -> List[int]:
    """Claim exited-but-unwaited children; return the pids still live.

    A ``/bin/true`` that died together with its waiter (the crashed
    daemon) is not an orphaned *process* — it is an unclaimed exit
    status, and this process is its parent, so claim it here.  A child
    actually still running stays in the returned list and trips the
    orphan gate.
    """
    alive = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "r") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # raced its own exit
        if state == "Z":
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    continue
            except OSError:
                continue
        alive.append(pid)
    return alive


def _gauntlet_plan(threads: int, kill_after: int) -> FaultPlan:
    """The default chaos schedule: every gateway fault kind, staggered.

    ``after`` counters are in *point fires*: ``gateway.frame`` fires
    per outgoing client frame (a request is a spawn frame plus a wait
    frame), ``gateway.accept`` per accepted connection (the first
    ``threads`` fires are the storm's initial dials, so the refusals
    are armed past them to land on reconnect dials), ``gateway.daemon``
    per dispatched frame — ``kill_after`` puts the crash mid-storm.
    """
    return (FaultPlan()
            .add("conn_reset", after=20, times=3)
            .add("partial_frame", after=45, times=2)
            .add("stall_conn", after=70, times=2, seconds=0.02)
            .add("drop_reply", after=30, times=2)
            .add("garbage_reply", after=60, times=2)
            .add("refuse_accept", after=threads, times=2)
            .add("kill_daemon", after=kill_after, times=1))


class _ChaosLoad:
    """One tenant's ledger through the gauntlet."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.retried = 0
        self.reconnects = 0
        self.samples: List[float] = []
        self.lock = threading.Lock()


def _backoff(retry_after: Optional[float]) -> None:
    time.sleep(min(max(retry_after or 0.0, 0.001), 0.05))


def _drive_chaos(load: _ChaosLoad, address: str, token: str,
                 barrier: threading.Barrier, duration: float,
                 request_retries: int, client_timeout: float) -> None:
    """One closed-loop driver: spawn, reap, repeat — through faults.

    Backpressure (shed / rate-limited) backs off and re-offers without
    consuming a retry; a fault casualty (typed gateway or spawn error,
    from either the spawn or its wait) consumes one of
    ``request_retries`` before the request is declared failed.
    """
    try:
        client = GatewayClient(
            address, tenant=load.name, token=token,
            timeout=client_timeout, reconnect=True, max_reconnects=8,
        ).connect()
    except GatewayError:
        with load.lock:
            load.failed += 1
        barrier.wait()
        return
    try:
        barrier.wait()
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline:
            with load.lock:
                load.attempted += 1
            started = time.perf_counter_ns()
            tries = 0
            while True:
                try:
                    child = client.spawn(CHAOS_CHILD)
                    code = child.wait(timeout=30)
                except (Overloaded, RateLimited) as exc:
                    with load.lock:
                        load.shed += 1
                    _backoff(exc.retry_after)
                    if time.perf_counter() >= deadline:
                        # Withdraw the request rather than blaming the
                        # clock's expiry on availability.
                        with load.lock:
                            load.attempted -= 1
                        break
                    continue
                except (GatewayError, SpawnError):
                    tries += 1
                    if tries > request_retries:
                        with load.lock:
                            load.failed += 1
                        break
                    with load.lock:
                        load.retried += 1
                    time.sleep(0.01)
                    continue
                with load.lock:
                    if code == 0:
                        load.completed += 1
                        load.samples.append(
                            float(time.perf_counter_ns() - started))
                    else:
                        load.failed += 1
                break
    finally:
        with load.lock:
            load.reconnects += client.reconnects
        client.close()


@register("t9-chaos",
          "Gateway availability under injected faults",
          "§5 spawn as a service",
          quick_kwargs={"duration": 2.0, "kill_after": 120})
def run_t9_chaos(tenant_count: int = 3,
                 threads_per_tenant: int = 4,
                 duration: float = 6.0,
                 max_inflight: int = 16,
                 max_queue: int = 64,
                 request_retries: int = 4,
                 client_timeout: float = 5.0,
                 kill_after: int = 300,
                 plan: Optional[FaultPlan] = None) -> ExperimentResult:
    """Offer a storm, injure the gateway, gate what the clients saw.

    ``tenant_count * threads_per_tenant`` closed-loop drivers run for
    ``duration`` seconds while the gauntlet plan (or ``plan``) fires;
    the summary row (keyed on ``concurrency``) carries ``availability``
    for ``repro-bench compare`` plus the orphan and fd ledgers.
    """
    threads = tenant_count * threads_per_tenant
    active_plan = plan if plan is not None else _gauntlet_plan(
        threads, kill_after)
    tokens = {f"tenant-{i}": f"secret-{i}" for i in range(tenant_count)}
    tenants = {
        name: TenantConfig(name=name, token=token, max_queue=max_queue,
                           strategy="posix_spawn")
        for name, token in tokens.items()}
    tempdir = tempfile.mkdtemp(prefix="repro-bench-t9-")
    address = os.path.join(tempdir, "gateway.sock")

    fds_before = _open_fds()
    children_before = set(_live_children())
    supervisor = GatewaySupervisor(
        GatewayConfig(unix_path=address, tenants=tenants,
                      max_inflight=max_inflight, drain_grace=5.0),
        check_interval=0.05, ping_timeout=2.0,
        backoff=Backoff(0.02, jitter=0.0), orphan_grace=5.0).start()
    loads = [_ChaosLoad(name) for name in tenants]
    try:
        barrier = threading.Barrier(threads + 1)
        workers = [
            threading.Thread(
                target=_drive_chaos,
                args=(load, address, tokens[load.name], barrier, duration,
                      request_retries, client_timeout),
                name=f"t9-{load.name}-{worker}")
            for load in loads for worker in range(threads_per_tenant)]
        for worker in workers:
            worker.start()
        with FAULTS.active(active_plan):
            barrier.wait()
            started = time.perf_counter()
            for worker in workers:
                worker.join()
            wall = time.perf_counter() - started
        restarts = supervisor.restarts
        orphans_reaped = supervisor.orphans_reaped
        gave_up = supervisor.gave_up
    finally:
        supervisor.stop()
        shutil.rmtree(tempdir, ignore_errors=True)

    # Post-teardown ledgers, via /proc rather than trusted counters.
    # Children the daemon spawned exit on their own (the child is
    # /bin/true); give stragglers a moment before declaring orphans.
    settle = time.monotonic() + 5.0
    while True:
        # A crashed daemon's event loop dies in reference cycles; its
        # sockets are reclaimable, just not yet reclaimed.  Collect
        # each pass so the ledgers converge on fds *nothing* can ever
        # close and children actually still running — real leaks and
        # real orphans — not collector or thread-exit latency.
        gc.collect()
        orphans = _reap_zombies([pid for pid in _live_children()
                                 if pid not in children_before])
        leaked_fds = max(0, _open_fds() - fds_before)
        if (not orphans and not leaked_fds) \
                or time.monotonic() >= settle:
            break
        time.sleep(0.05)

    rows = []
    all_samples: List[float] = []
    for load in loads:
        all_samples.extend(load.samples)
        rows.append({
            "section": "tenant", "tenant": load.name,
            "attempted": load.attempted, "completed": load.completed,
            "shed": load.shed, "failed": load.failed,
            "retried": load.retried, "reconnects": load.reconnects,
            "p95_ns": (percentile(load.samples, 0.95)
                       if load.samples else None),
        })
    completed = sum(load.completed for load in loads)
    failed = sum(load.failed for load in loads)
    if not completed:
        raise BenchError("no request survived the gauntlet — the gateway "
                         "never served anything")
    summary = {
        "section": "chaos", "concurrency": threads,
        "tenants": tenant_count,
        "attempted": sum(load.attempted for load in loads),
        "completed": completed, "failed": failed,
        "shed": sum(load.shed for load in loads),
        "retried": sum(load.retried for load in loads),
        "availability": completed / float(completed + failed),
        "per_second": completed / max(wall, 1e-9),
        "reconnects": sum(load.reconnects for load in loads),
        "daemon_restarts": restarts,
        "supervisor_gave_up": gave_up,
        "orphans": len(orphans),
        "orphans_reaped": orphans_reaped,
        "leaked_fds": leaked_fds,
        "faults": len(active_plan),
        "p95_ns": percentile(all_samples, 0.95),
        "p99_ns": percentile(all_samples, 0.99),
    }
    rows.append(summary)

    tenant_table = render_table(
        ["tenant", "completed", "failed", "shed", "retried", "reconnects",
         "p95"],
        [[row["tenant"], str(row["completed"]), str(row["failed"]),
          str(row["shed"]), str(row["retried"]), str(row["reconnects"]),
          format_ns(row["p95_ns"]) if row["p95_ns"] else "-"]
         for row in rows if row["section"] == "tenant"],
        title=f"T9a: per-tenant service through the gauntlet "
              f"({threads} drivers, {len(active_plan)} scheduled faults)")
    summary_table = render_table(
        ["availability", "failed", "retried", "restarts", "orphans",
         "leaked fds", "p99"],
        [[f"{summary['availability']:.4f}", str(failed),
          str(summary["retried"]), str(restarts), str(summary["orphans"]),
          str(leaked_fds), format_ns(summary["p99_ns"])]],
        title="T9b: what the chaos cost")
    return ExperimentResult(
        "t9-chaos", "Gateway availability under injected faults", rows,
        f"{tenant_table}\n\n{summary_table}", _notes(summary))


def _notes(summary: dict) -> str:
    recovered = ("the daemon was killed and the supervisor restarted it "
                 f"{summary['daemon_restarts']}x"
                 if summary["daemon_restarts"]
                 else "WARNING: the daemon was never restarted — the "
                      "kill_daemon fault did not land (raise duration or "
                      "lower kill_after)")
    hygiene = ("no orphaned children, no leaked fds"
               if not (summary["orphans"] or summary["leaked_fds"])
               else f"WARNING: {summary['orphans']} orphaned children, "
                    f"{summary['leaked_fds']} leaked fds after teardown")
    return (f"{summary['concurrency']} closed-loop drivers pushed "
            f"{summary['attempted']} requests through "
            f"{summary['faults']} scheduled faults; availability "
            f"{summary['availability']:.4f} (gate floor 0.99) with "
            f"{summary['failed']} hard failures after "
            f"{summary['retried']} driver retries and "
            f"{summary['reconnects']} client reconnects. {recovered}; "
            f"{hygiene}. recovery cost tail latency, not availability: "
            f"p99 {format_ns(summary['p99_ns'])} against p95 "
            f"{format_ns(summary['p95_ns'])}.")
