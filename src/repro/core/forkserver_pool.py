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
  spawns in one wire frame, through the same dispatch a single
  :meth:`spawn` takes (a batch is a spawn of N);
* **lazy worker start** — helpers launch on demand as offered load
  grows, so an idle pool costs one process, not N;
* **dead-worker recovery** — a helper that dies (crash, SIGKILL) is
  detected on first contact — nobody reads an idle helper's wire, so
  that is the next send to it, refused as ``unsent`` — discarded, and
  replaced; the request fails over to a live worker.  Retrying a *refusal* is not the pool's
  job but the ladder's (:mod:`repro.core.policy`);
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

from ..errors import ExecError, SpawnError
from ..faults import FAULTS
from ..obs import TELEMETRY
from .forkserver import ForkServer, SpawnRequest
from .result import ChildProcess
from .steps import Steps, run_steps

#: Helpers are cheap (one tiny interpreter each), so the default errs
#: toward overlap: even on few cores, idle helpers cost almost nothing
#: while letting children's runtimes overlap.
DEFAULT_WORKERS = 4

#: Consecutive live-helper failures after which a helper is judged
#: flapping and retired (the pool's per-worker breaker, ``slot.strikes``).
_STRIKE_LIMIT = 3


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

    def __init__(self, workers: int = DEFAULT_WORKERS, *, prestart: int = 1):
        if workers < 1:
            raise SpawnError("need at least one worker")
        self._slots = tuple(_Slot() for _ in range(workers))
        self._prestart = max(1, min(prestart, workers))
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

    def _pick(self, weight: int
              ) -> Tuple[Optional[_Slot], Optional[ForkServer],
                         List[ForkServer]]:
        """The one dispatch decision, under the lock: least-loaded live
        helper, growing lazily.

        Dead helpers are retired first.  An idle live helper then wins
        outright; otherwise a not-yet-started slot is reserved for the
        caller to boot (load demands more overlap); otherwise the
        least-loaded live helper takes the request.

        ``weight`` is the number of spawns this pick carries — 1 for a
        single request, the member count for a batch.  The chosen
        slot's load is bumped by the FULL weight, so least-loaded
        dispatch sees a batch as the N children it is: one slot cannot
        absorb batch after batch while its load account claims it is
        nearly idle.

        Returns ``(slot, server, dead)``.  ``dead`` are the helpers
        retired here, for :func:`_abort` once the lock is released.
        ``slot`` is charged ``weight``: with ``server``, its live helper,
        or with ``None`` when it is a cold slot the caller must boot —
        the load marks it as booting, so no one else boots it.  No slot
        at all means every slot is mid-boot.  Aborting, booting and
        waiting are the caller's, outside the lock (:meth:`_dispatch_steps`).
        """
        with self._lock:
            if self._closed:
                raise SpawnError("pool is closed")
            dead = [self._retire_locked(s) for s in self._slots
                    if s.server is not None and not s.server.healthy]
            best = min((s for s in self._slots if s.server is not None),
                       key=lambda s: s.load, default=None)
            if best is None or best.load:
                cold = next((s for s in self._slots
                             if s.server is None and s.load == 0), None)
                best = cold or best
            if best is not None:
                best.load += weight
                return best, best.server, dead
            return None, None, dead

    def _dispatch_steps(self, weight: int
                        ) -> "Steps[Tuple[_Slot, ForkServer]]":
        """A slot charged ``weight`` and the live helper in it, as
        resumable steps: :meth:`_pick`, then — after a ``yield`` — the
        work it names.  Booting costs a fresh interpreter (~tens of ms),
        so concurrent picks keep flowing to live helpers meanwhile.
        Steps closed at a ``yield`` still abort what was retired and
        give back what was charged."""
        while True:
            slot, server, dead = self._pick(weight)
            try:
                if dead:
                    yield  # killing and reaping retired helpers
                    _abort(dead)
                    dead = []
                if slot is None:
                    yield  # every slot is mid-boot; one will land
                    time.sleep(0.001)
                    continue
                if server is None:
                    yield  # booting the reserved cold slot
                    server = ForkServer().start()
                    TELEMETRY.count("pool_worker_boot")
                    with self._lock:
                        if self._closed:
                            try:
                                server.stop()
                            except Exception:
                                pass
                            raise SpawnError("pool is closed")
                        slot.server = server
                return slot, server
            except BaseException:
                _abort(dead)
                if slot is not None:
                    self._release(slot, server, weight)
                raise

    def _release(self, slot: _Slot, server: Optional[ForkServer],
                 weight: int = 1) -> None:
        """Give back load taken against ``server`` in ``slot``.  A
        retired helper's load went with it: the slot's account is its
        successor's by now (the reservation that keeps a booting slot
        from being booted twice, at first) and is left alone."""
        with self._lock:
            if slot.server is server:
                slot.load = max(0, slot.load - weight)

    def _strike(self, slot: _Slot, server: ForkServer) -> None:
        """Record a live-helper failure; retire the helper when it flaps.

        This is the pool's per-worker circuit breaker: three consecutive
        failures (no intervening success) and the helper is judged
        flapping — retired and replaced rather than trusted with more
        traffic.
        """
        dead = []
        with self._lock:
            if slot.server is server:  # not already retired and replaced
                slot.strikes += 1
                if slot.strikes >= _STRIKE_LIMIT:
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
              deadline: Optional[float] = None) -> ChildProcess:
        """Spawn through the least-loaded helper.

        Same contract as :meth:`ForkServer.spawn`, plus the service's
        own recovery:

        * a helper that turns out to be *dead* — crashed, or wedged past
          ``deadline`` — is replaced and the request fails over to a
          live worker (service-internal recovery costs the caller
          nothing);
        * a failure from a *live* helper (a refusal) is raised, and is a
          strike against that worker; at three consecutive strikes the
          helper is retired as flapping (``breaker_open`` counter) — but
          a program the helper cannot execute is the request's
          :class:`~repro.errors.ExecError`, raised and charged to no one.

        The pool does not retry a refusal: a caller that wants retries,
        back-off or degradation spawns through the ladder
        (``ProcessBuilder(...).strategy("forkserver-pool").policy(...)``).
        """
        member = SpawnRequest(argv, env=env, cwd=cwd, stdin=stdin,
                              stdout=stdout, stderr=stderr)
        return run_steps(self._unit_steps([member], None, deadline))[0]

    def spawn_batch(self, requests, *,
                    deadline: Optional[float] = None) -> "BatchResult":
        """Spawn N children in ONE wire round-trip to one helper.

        ``requests`` is a :class:`~repro.core.batch.BatchRequest`.  The
        batch is dispatched to the least-loaded helper at its FULL
        weight (N load units, released one by one as children are
        reaped), through the dispatch :meth:`spawn` takes and so with
        its recovery contract: dead-worker failover, the deadline,
        strikes against flapping workers.  All-or-nothing — on failure
        every member's error is the batch's error; no member is
        silently dropped.  A batch no helper could take (empty, more
        members than one SCM_RIGHTS grant carries) is refused before
        one is picked, and costs no helper a strike.  The batch's own
        ``policy``, the policy's deadline included, is read only by the
        ladder (:func:`repro.core.spawn_batch`): here only ``deadline=``
        (or the batch's own ``deadline``) bounds a wedged helper.
        """
        from .batch import BatchResult, batch_unit
        batch = batch_unit("ForkServerPool.spawn_batch", requests,
                           deadline=deadline)
        return BatchResult(
            run_steps(self._unit_steps(batch.members, None, batch.deadline)),
            strategy="forkserver-pool")

    def _unit_steps(self, reqs: List[SpawnRequest],
                    traces: Optional[Sequence],
                    deadline: Optional[float]
                    ) -> "Steps[List[ChildProcess]]":
        """One unit of work — ``reqs``, a single spawn's one member or a
        batch's N — dispatched with dead-worker failover and billed to
        one slot at its full weight, as resumable steps
        (:mod:`repro.core.steps`) that yield for the pick's work and
        the helper's reply.  Returns the children in request order,
        all or none.

        A unit of more than one member is labelled a batch (fault
        point, counter label); ``traces`` is one per member owned by a
        caller further up — without live ones the pool starts and owns
        its own.  A failed-over request stamps ``framed`` once per
        dispatch, so the trace shows the failover instead of hiding it.
        """
        weight = len(reqs)
        owns = not traces or not traces[0]
        if owns:
            size = {"batch": weight} if weight > 1 else {}
            traces = [TELEMETRY.trace("forkserver-pool", req.argv)
                      for req in reqs]
            for trace in traces:
                trace.stage("dispatch", **size)
        try:
            for _ in range(len(self._slots) + 1):
                slot, server = yield from self._dispatch_steps(weight)
                try:
                    if weight > 1:
                        FAULTS.fire("pool.batch", size=weight,
                                    helper_pid=server.helper_pid)
                    else:
                        FAULTS.fire("pool.dispatch",
                                    helper_pid=server.helper_pid)
                except Exception:
                    self._release(slot, server, weight)
                    raise
                if TELEMETRY.enabled:
                    TELEMETRY.count("pool_dispatch")
                    TELEMETRY.gauge("pool_queue_depth", self.queue_depth())
                try:
                    children = yield from server._unit_steps(
                        reqs, traces, deadline)
                except SpawnError as exc:
                    self._release(slot, server, weight)
                    if server.healthy:
                        if not isinstance(exc, ExecError):
                            self._strike(slot, server)  # a live refusal
                        raise
                    last_error = exc
                    continue  # the next pick retires it, tries elsewhere
                with self._lock:
                    slot.strikes = 0
                wrapped = []
                for trace, child in zip(traces, children):
                    if owns:
                        trace.success(child.pid)
                    wrapped.append(ChildProcess(
                        child.pid, argv=child.argv,
                        strategy="forkserver-pool",
                        reaper=self._pool_reaper(slot, server),
                        watch=server._watch, trace=trace))
                return wrapped
            raise SpawnError(
                f"no forkserver worker could spawn {reqs!r}: {last_error}")
        except SpawnError as exc:
            if owns:
                for trace in traces:
                    trace.failure(exc)
            raise
