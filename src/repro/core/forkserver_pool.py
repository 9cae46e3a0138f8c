"""A pool of forkserver helpers: the spawn service, scaled out.

One pipelined :class:`~repro.core.forkserver.ForkServer` removes the
client-side serialisation, but every request still lands in one
single-threaded helper — the helper's fork loop becomes the ceiling.
:class:`ForkServerPool` shards requests across several helpers:

* **least-loaded dispatch** — each spawn goes to the helper with the
  fewest outstanding children and in-flight requests, and a *batch*
  lands as its full member count so one helper never silently absorbs
  a whole batch at single-spawn price;
* **request batching** — :meth:`ForkServerPool.spawn_batch` ships N
  spawns in one wire frame, through the same attempt loop a single
  :meth:`spawn` takes (a batch is a spawn of N);
* **lazy worker start** — helpers launch on demand as offered load
  grows, so an idle pool costs one process, not N;
* **dead-worker recovery** — a helper that dies (crash, SIGKILL) is
  detected on first contact, discarded, and replaced; the request
  retries on a live worker;
* **clean shutdown** — every helper is asked to exit and is reaped.

This is the shape of the real mitigations the paper points at: Android's
zygote and ``multiprocessing``'s forkserver are *services*, and a
service must sustain concurrent traffic.  The spawn-path ruler's
``pool_conc`` workload (``benchmarks/e2e``) measures exactly that.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence, Tuple

from ..errors import SpawnError
from ..faults import FAULTS
from ..obs import TELEMETRY
from .forkserver import ForkServer, SpawnRequest
from .policy import SpawnPolicy
from .result import ChildProcess
from .steps import Steps, run_steps

#: Helpers are cheap (one tiny interpreter each), so the default errs
#: toward overlap: even on few cores, idle helpers cost almost nothing
#: while letting children's runtimes overlap.
DEFAULT_WORKERS = 4


def _abort(servers) -> None:
    """Kill and reap retired helpers — never under the pool's lock."""
    for server in servers:
        try:
            server.abort()
        except Exception:
            pass


class _Slot:
    """One pool slot: a lazily started helper plus its load account."""

    __slots__ = ("server", "load", "strikes")

    def __init__(self):
        self.server: Optional[ForkServer] = None
        self.load = 0  # in-flight requests + spawned-but-unreaped children
        self.strikes = 0  # consecutive live-helper failures (breaker input)


class ForkServerPool:
    """Shard spawn requests across up to ``workers`` forkserver helpers.

    Usable as a context manager::

        with ForkServerPool(4) as pool:
            children = [pool.spawn(["/bin/true"]) for _ in range(100)]
            assert all(c.wait(timeout=30) == 0 for c in children)

    Thread-safe: the pool is designed to be hammered from many client
    threads at once.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS, *, prestart: int = 1,
                 policy: Optional[SpawnPolicy] = None):
        if workers < 1:
            raise SpawnError("need at least one worker")
        self._slots = tuple(_Slot() for _ in range(workers))
        self._prestart = max(1, min(prestart, workers))
        self._policy = policy
        self._lock = threading.Lock()
        self._closed = False
        self._respawns = 0

    # -- introspection ---------------------------------------------------

    @property
    def size(self) -> int:
        """The worker ceiling: the ``workers`` the pool was built with."""
        return len(self._slots)

    def queue_depth(self) -> int:
        """In-flight requests plus unreaped children, pool-wide (the
        same sum the ``pool_queue_depth`` gauge reports)."""
        with self._lock:
            return sum(s.load for s in self._slots)

    @property
    def started_workers(self) -> int:
        """Helpers actually launched so far (grows lazily with load)."""
        with self._lock:
            return sum(1 for s in self._slots if s.server is not None)

    @property
    def respawns(self) -> int:
        """Dead helpers detected and replaced over the pool's lifetime."""
        return self._respawns

    @property
    def policy(self) -> Optional[SpawnPolicy]:
        """The pool-wide :class:`SpawnPolicy` (``None`` = no resilience)."""
        return self._policy

    @property
    def closed(self) -> bool:
        return self._closed

    def helper_pids(self) -> List[int]:
        """Pids of the currently running helpers (tests, monitoring)."""
        with self._lock:
            return [s.server.helper_pid for s in self._slots
                    if s.server is not None and s.server.helper_pid]

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ForkServerPool":
        """Launch the first ``prestart`` helpers (idempotent)."""
        with self._lock:
            if self._closed:
                raise SpawnError("pool is closed")
            for slot in self._slots[:self._prestart]:
                if slot.server is None:
                    slot.server = ForkServer().start()
        return self

    def stop(self) -> None:
        """Shut every helper down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            servers = [s.server for s in self._slots if s.server is not None]
            for slot in self._slots:
                slot.server = None
        for server in servers:
            try:
                if server.healthy:
                    server.stop()
                else:
                    server.abort()
            except Exception:
                pass

    def __enter__(self) -> "ForkServerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- dispatch ----------------------------------------------------------

    def _retire_locked(self, slot: _Slot) -> ForkServer:
        """Detach a dead helper from its slot (caller holds the lock)
        and return it, for :func:`_abort` once the lock is released:
        killing and reaping a process, and waking every request
        stranded on it, is not work for a lock every pick takes."""
        dead, slot.server = slot.server, None
        slot.load = 0
        slot.strikes = 0  # the replacement helper starts with a clean record
        self._respawns += 1
        TELEMETRY.count("pool_retire")
        return dead

    def _pick_ready(self, weight: int) -> Optional[Tuple[_Slot, ForkServer]]:
        """The pick that cannot wait, or ``None``: an idle live helper,
        or — with no cold slot left to boot — the least-loaded one,
        charged ``weight`` as :meth:`_pick` would.  ``None`` where
        :meth:`_pick` would first retire or boot a helper, or wait out
        a boot."""
        with self._lock:
            if self._closed:
                raise SpawnError("pool is closed")
            live = [s for s in self._slots if s.server is not None]
            best = min(live, key=lambda s: s.load, default=None)
            if best is None or not all(s.server.healthy for s in live):
                return None
            if best.load and any(s.server is None and s.load == 0
                                 for s in self._slots):
                return None
            best.load += weight
            return best, best.server

    def _pick(self, weight: int) -> Tuple[_Slot, ForkServer]:
        """Choose a slot — and the helper in it, which is what the load
        is taken against: least-loaded live helper, growing lazily.

        An idle live helper wins outright; otherwise a not-yet-started
        slot is booted (load demands more overlap); otherwise the
        least-loaded live helper takes the request.  Dead helpers found
        along the way are retired in place.

        ``weight`` is the number of spawns this pick carries — 1 for a
        single request, the member count for a batch.  The chosen
        slot's load is bumped by the FULL weight, so least-loaded
        dispatch sees a batch as the N children it is: one
        slot cannot absorb batch after batch while its load account
        claims it is nearly idle.

        Booting a helper costs a fresh interpreter (~tens of ms), so it
        happens OUTSIDE the pool lock: the cold slot is reserved (load
        bumped while ``server`` is still ``None``) so no one else boots
        it, and concurrent picks keep flowing to live helpers meanwhile.
        """
        while True:
            boot_slot: Optional[_Slot] = None
            dead: List[ForkServer] = []
            try:
                with self._lock:
                    if self._closed:
                        raise SpawnError("pool is closed")
                    for slot in self._slots:
                        if (slot.server is not None
                                and not slot.server.healthy):
                            dead.append(self._retire_locked(slot))
                    live = [s for s in self._slots if s.server is not None]
                    best = min(live, key=lambda s: s.load, default=None)
                    if best is not None and best.load == 0:
                        best.load += weight
                        return best, best.server
                    cold = next((s for s in self._slots
                                 if s.server is None and s.load == 0), None)
                    if cold is not None:
                        cold.load += weight  # reserve: marks it as booting
                        boot_slot = cold
                    elif best is not None:
                        best.load += weight
                        return best, best.server
            finally:
                _abort(dead)  # the lock is released by now
            if boot_slot is None:
                time.sleep(0.001)  # every slot is mid-boot; one will land
                continue
            try:
                server = ForkServer().start()
                TELEMETRY.count("pool_worker_boot")
            except Exception:
                self._release(boot_slot, None, weight)
                raise
            with self._lock:
                if self._closed:
                    try:
                        server.stop()
                    except Exception:
                        pass
                    raise SpawnError("pool is closed")
                boot_slot.server = server
            return boot_slot, server

    def _release(self, slot: _Slot, server: Optional[ForkServer],
                 weight: int = 1) -> None:
        """Give back load taken against ``server`` in ``slot``.  A
        retired helper's load went with it: the slot's account is its
        successor's by now (the reservation that keeps a booting slot
        from being booted twice, at first) and is left alone."""
        with self._lock:
            if slot.server is server:
                slot.load = max(0, slot.load - weight)

    def _strike(self, slot: _Slot, server: ForkServer,
                threshold: Optional[int]) -> None:
        """Record a live-helper failure; retire the helper when it flaps.

        This is the pool's per-worker circuit breaker: ``threshold``
        consecutive failures (no intervening success) and the helper is
        judged flapping — retired and replaced rather than trusted with
        more traffic.
        """
        limit = threshold if threshold is not None else 3
        dead = []
        with self._lock:
            if slot.server is server:  # not already retired and replaced
                slot.strikes += 1
                if slot.strikes >= limit:
                    TELEMETRY.count("breaker_open",
                                    strategy="forkserver-pool")
                    dead.append(self._retire_locked(slot))
        _abort(dead)

    def _pool_reaper(self, slot: _Slot, server: ForkServer):
        """A reaper that also returns the slot's load unit when done."""
        def reaper(pid: int, flags: int,
                   timeout: Optional[float]) -> Optional[int]:
            try:
                status = server._reap(pid, flags, timeout)
            except SpawnError:
                self._release(slot, server)
                raise
            if status is not None:
                self._release(slot, server)
            return status
        return reaper

    def spawn(self, argv: Sequence[str], *,
              env=None, cwd=None,
              stdin: int = 0, stdout: int = 1, stderr: int = 2,
              policy: Optional[SpawnPolicy] = None,
              deadline: Optional[float] = None) -> ChildProcess:
        """Spawn through the least-loaded helper, under the pool's policy.

        Same contract as :meth:`ForkServer.spawn`, plus resilience:

        * a helper that turns out to be *dead* is replaced and the
          request fails over to a live worker within the same attempt
          (service-internal recovery costs the caller nothing);
        * a failure from a *live* helper (refusal, deadline expiry)
          consumes one policy attempt; with retries left the request
          backs off (exponential + jitter) and tries again, stamping a
          ``retry`` trace stage and a ``spawn_retry`` counter;
        * each live-helper failure is a strike against that worker; at
          ``breaker_threshold`` consecutive strikes the per-worker
          breaker opens (``breaker_open`` counter) and the helper is
          retired as flapping.

        ``policy`` overrides the pool-wide policy for this call;
        ``deadline`` likewise overrides the policy's per-attempt
        deadline.  With neither, behaviour is the historical
        no-retry, no-deadline dispatch.
        """
        member = SpawnRequest(argv, env=env, cwd=cwd, stdin=stdin,
                              stdout=stdout, stderr=stderr)
        return run_steps(self._unit_steps([member], None, policy,
                                          deadline))[0]

    def spawn_batch(self, requests, *,
                    policy: Optional[SpawnPolicy] = None,
                    deadline: Optional[float] = None) -> "BatchResult":
        """Spawn N children in ONE wire round-trip to one helper.

        ``requests`` is a :class:`~repro.core.batch.BatchRequest`.  The
        batch is dispatched to the least-loaded helper at its FULL
        weight (N load units, released one by one as children are
        reaped), through the attempt loop :meth:`spawn` takes and so
        with its resilience contract: dead-worker failover inside an
        attempt, whole-batch retries and deadlines per the
        :class:`SpawnPolicy`, strikes against flapping workers.
        All-or-nothing — on failure every member's error is the
        batch's error; no member is silently dropped.  A batch no
        helper could take (empty, more members than one SCM_RIGHTS
        grant carries) is refused before one is picked, and costs no
        helper a strike.
        """
        from .batch import BatchResult, batch_unit
        batch = batch_unit("ForkServerPool.spawn_batch", requests,
                           policy=policy, deadline=deadline)
        return BatchResult(
            run_steps(self._unit_steps(batch.members, None, batch.policy,
                                       batch.deadline)),
            strategy="forkserver-pool")

    def _unit_steps(self, reqs: List[SpawnRequest],
                    traces: Optional[Sequence],
                    policy: Optional[SpawnPolicy],
                    deadline: Optional[float]
                    ) -> "Steps[List[ChildProcess]]":
        """The one attempt loop, as resumable steps
        (:mod:`repro.core.steps`): one unit of work — ``reqs``, a single
        spawn's one member or a batch's N — under the policy's attempts,
        each yielding for its helper's reply and before its back-off.
        Returns the children in request order, all or none.

        A unit of more than one member is labelled a batch (fault
        point, counter label); ``traces`` is one per member owned by a
        caller further up — without live ones the pool starts and owns
        its own.
        """
        if policy is None:
            policy = self._policy
        if deadline is None and policy is not None:
            deadline = policy.deadline
        attempts = policy.attempts() if policy is not None else 1
        threshold = policy.breaker_threshold if policy is not None else None
        size = {"batch": len(reqs)} if len(reqs) > 1 else {}
        owns = not traces or not traces[0]
        if owns:
            traces = [TELEMETRY.trace("forkserver-pool", req.argv)
                      for req in reqs]
            for trace in traces:
                trace.stage("dispatch", **size)
        last_error: Optional[SpawnError] = None
        for attempt in range(attempts):
            if attempt:
                TELEMETRY.count("spawn_retry", strategy="forkserver-pool",
                                **({"op": "batch"} if size else {}))
                for trace in traces:
                    trace.stage("retry", attempt=attempt)
                delay = policy.backoff_delay(attempt - 1)
                if delay:
                    yield
                    time.sleep(delay)
            try:
                return (yield from self._attempt_steps(
                    reqs, traces, owns, deadline, threshold))
            except SpawnError as exc:
                last_error = exc
        if owns:
            for trace in traces:
                trace.failure(last_error)
        raise last_error

    def _attempt_steps(self, reqs: List[SpawnRequest], traces: Sequence,
                       owns: bool, deadline: Optional[float],
                       threshold: Optional[int]
                       ) -> "Steps[List[ChildProcess]]":
        """One policy attempt: dispatch with dead-worker failover, billed
        to one slot at the unit's full weight.

        A retried request stamps ``framed`` once per dispatch, so the
        trace shows the failover instead of hiding it.
        """
        weight = len(reqs)
        last_error: Optional[SpawnError] = None
        for _ in range(len(self._slots) + 1):
            picked = self._pick_ready(weight)
            if picked is None:
                yield  # a helper to retire or boot, or a boot to wait out
                picked = self._pick(weight)
            slot, server = picked
            try:
                if weight > 1:
                    FAULTS.fire("pool.batch", size=weight,
                                helper_pid=server.helper_pid)
                else:
                    FAULTS.fire("pool.dispatch", helper_pid=server.helper_pid)
            except Exception:
                self._release(slot, server, weight)
                raise
            if TELEMETRY.enabled:
                TELEMETRY.count("pool_dispatch")
                with self._lock:
                    depth = sum(s.load for s in self._slots)
                TELEMETRY.gauge("pool_queue_depth", depth)
            try:
                children = yield from server._unit_steps(
                    reqs, traces, deadline)
            except SpawnError as exc:
                self._release(slot, server, weight)
                if server.healthy:
                    # A live refusal: strike the worker, bill the policy.
                    self._strike(slot, server, threshold)
                    raise
                last_error = exc
                continue  # next _pick() retires it and tries elsewhere
            with self._lock:
                slot.strikes = 0
            wrapped = []
            for trace, child in zip(traces, children):
                if owns:
                    trace.success(child.pid)
                wrapped.append(ChildProcess(
                    child.pid, argv=child.argv, strategy="forkserver-pool",
                    reaper=self._pool_reaper(slot, server),
                    watch=server._watch, trace=trace))
            return wrapped
        raise SpawnError(
            f"no forkserver worker could spawn {reqs!r}: {last_error}")
