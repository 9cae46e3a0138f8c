"""Real-OS process-creation workloads: the measured side of Figure 1.

Each workload creates one trivial child (``/bin/true``) and waits for it,
through a different mechanism:

* ``fork_exec`` — ``os.fork`` + ``os.execv``: the traditional pair.
* ``fork_only`` — ``os.fork`` + immediate ``os._exit`` in the child:
  isolates the fork syscall itself (no exec, no loader).
* ``posix_spawn`` — ``os.posix_spawn``.
* ``subprocess`` — the stdlib (itself vfork/posix_spawn-based).
* ``forkserver`` — a request to a pre-started pristine helper.

All of them measure creation *plus wait*, which is what an application
observes; ``fork_only`` children exit before exec so the pair
(``fork_exec`` − ``fork_only``) brackets the exec cost.

The second half of this module is the *service* axis (experiment
``t5-throughput``): :class:`ServiceWorkloads` exposes the same
spawn-and-wait operation through mechanisms that differ in how they
handle **concurrent** callers, and :func:`measure_spawn_throughput`
hammers one of them from N client threads and reports spawns/sec plus
per-request latency percentiles.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.autoscale import AutoscaleConfig, PoolAutoscaler
from ..core.batch import BatchRequest
from ..core.forkserver import ForkServer
from ..core.forkserver_pool import ForkServerPool
from ..core.templates import TemplateProfile, TemplateRegistry
from ..errors import BenchError
from .ballast import Ballast
from .stats import Summary
from .timing import measure

TRIVIAL_CHILD = "/bin/true"

#: The preload set for the template-zygote workloads: stdlib modules a
#: service worker plausibly needs, chosen because importing them cold
#: costs real time (parsing, bytecode, C extension init) — the cost a
#: specialised zygote pays once instead of per child.
PRELOAD_MODULES = ("json", "logging", "csv", "decimal", "argparse",
                   "email.parser", "ssl")

#: Default child for the throughput workloads: a process that does a
#: little "work" (here: 10ms of sleep standing in for I/O) before
#: exiting.  A service's children are rarely pure CPU from exec to exit,
#: and the sleep is what lets concurrent child runtimes overlap — the
#: axis the t5 experiment measures.
SERVICE_CHILD = ["/bin/sleep", "0.01"]


def _fork_exec_once() -> None:
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(TRIVIAL_CHILD, [TRIVIAL_CHILD])
        except BaseException:
            os._exit(127)
    os.waitpid(pid, 0)


def _fork_only_once() -> None:
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)


def _posix_spawn_once() -> None:
    pid = os.posix_spawn(TRIVIAL_CHILD, [TRIVIAL_CHILD], {})
    os.waitpid(pid, 0)


def _subprocess_once() -> None:
    subprocess.run([TRIVIAL_CHILD], check=True)


class Workloads:
    """The mechanism registry, owning the shared forkserver."""

    def __init__(self):
        self._forkserver: Optional[ForkServer] = None
        self._templates: Optional[TemplateRegistry] = None

    def close(self) -> None:
        if self._forkserver is not None:
            self._forkserver.stop()
            self._forkserver = None
        if self._templates is not None:
            self._templates.close()
            self._templates = None

    def __enter__(self) -> "Workloads":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _forkserver_once(self) -> None:
        if self._forkserver is None:
            # Started lazily but BEFORE ballast in the sweep below, so
            # the helper stays small — that is the whole trick.
            self._forkserver = ForkServer().start()
        child = self._forkserver.spawn([TRIVIAL_CHILD])
        child.wait(timeout=30)

    def start_forkserver(self) -> None:
        """Start the helper now (call before allocating ballast)."""
        if self._forkserver is None:
            self._forkserver = ForkServer().start()

    def start_templates(self) -> None:
        """Warm the template registry now (call before ballast).

        A ``template`` measurement is an argv lease plus wait: one
        round trip to a small specialized helper that ``posix_spawn``s
        the child — no page-table walk of *this* (possibly huge)
        process anywhere on the path, and no parked stock to keep fed.
        """
        if self._templates is None:
            registry = TemplateRegistry()
            registry.register(TemplateProfile("bench", stock=0), warm=True)
            self._templates = registry

    def _template_once(self) -> None:
        if self._templates is None:
            self.start_templates()
        child = self._templates.spawn("bench", [TRIVIAL_CHILD])
        child.wait(timeout=30)

    def mechanisms(self) -> Dict[str, Callable[[], None]]:
        """Name -> one-shot creation callable."""
        return {
            "fork_exec": _fork_exec_once,
            "fork_only": _fork_only_once,
            "posix_spawn": _posix_spawn_once,
            "subprocess": _subprocess_once,
            "forkserver": self._forkserver_once,
            "template": self._template_once,
        }

    def measure_mechanism(self, name: str, *, repeats: int = 20,
                          max_seconds: float = 10.0) -> Summary:
        """Latency summary for one mechanism at the current memory size."""
        mechanisms = self.mechanisms()
        if name not in mechanisms:
            raise BenchError(
                f"unknown mechanism {name!r}; have {sorted(mechanisms)}")
        return measure(mechanisms[name], repeats=repeats, warmup=2,
                       max_seconds=max_seconds)

    def measure_with_fds(self, name: str, nfds: int, *, repeats: int = 15,
                         max_seconds: float = 6.0) -> Summary:
        """Latency of one mechanism while holding ``nfds`` open files.

        The descriptor-table dimension of creation cost: fork copies
        every entry.  Descriptors are opened on ``/dev/null`` and closed
        before returning.
        """
        fds = [os.open(os.devnull, os.O_RDONLY) for _ in range(nfds)]
        try:
            return self.measure_mechanism(name, repeats=repeats,
                                          max_seconds=max_seconds)
        finally:
            for fd in fds:
                os.close(fd)

    def sweep(self, sizes: List[int], names: Optional[List[str]] = None, *,
              repeats: int = 15, max_seconds: float = 8.0) -> List[dict]:
        """The Figure-1 grid: ballast size × mechanism -> Summary.

        Returns one row per size: ``{"ballast_bytes": n, "results":
        {name: Summary}}``.  The forkserver is started before any
        ballast exists, exactly as a real application would.
        """
        names = names or ["fork_exec", "posix_spawn", "forkserver"]
        self.start_forkserver()
        if "template" in names:
            self.start_templates()
        rows = []
        for size in sizes:
            with Ballast(size):
                results = {}
                for name in names:
                    results[name] = self.measure_mechanism(
                        name, repeats=repeats, max_seconds=max_seconds)
                rows.append({"ballast_bytes": size, "results": results})
        return rows


# ---------------------------------------------------------------------------
# The service axis: spawn throughput under offered concurrency (T5).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThroughputResult:
    """One throughput measurement: a mechanism under offered concurrency.

    ``per_second`` is completed spawns per wall-clock second across all
    client threads; ``latency`` summarises individual spawn-and-wait
    round-trips in nanoseconds (median = p50).
    """

    mechanism: str
    concurrency: int
    requests: int
    errors: int
    wall_seconds: float
    per_second: float
    latency: Summary

    def as_dict(self) -> dict:
        return {
            "mechanism": self.mechanism, "concurrency": self.concurrency,
            "requests": self.requests, "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "per_second": self.per_second,
            "latency": self.latency.as_dict(),
        }


def measure_spawn_throughput(spawn_and_wait: Callable[[], None], *,
                             concurrency: int, requests_per_thread: int,
                             mechanism: str = "?",
                             children_per_call: int = 1) -> ThroughputResult:
    """Offer ``concurrency`` client threads, each spawning in a loop.

    All clients start together (barrier), each performs
    ``requests_per_thread`` spawn-and-wait calls, and the wall clock
    runs from the barrier to the last client's exit — so the number
    reported is sustained service throughput, not best-case latency
    inverted.  A failing call counts as an error and does not
    contribute a latency sample.

    ``children_per_call`` scales the accounting for batched mechanisms:
    one call that spawns N children counts as N completed spawns in
    ``requests`` and ``per_second`` (latency still summarises the whole
    call's round trip, which is what a batching caller experiences).
    """
    if concurrency < 1:
        raise BenchError("need at least one client thread")
    if requests_per_thread < 1:
        raise BenchError("need at least one request per thread")
    if children_per_call < 1:
        raise BenchError("need at least one child per call")
    barrier = threading.Barrier(concurrency + 1)
    samples_by_thread: List[List[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency

    def client(index: int) -> None:
        samples = samples_by_thread[index]
        barrier.wait()
        for _ in range(requests_per_thread):
            start = time.perf_counter_ns()
            try:
                spawn_and_wait()
            except Exception:
                errors[index] += 1
                continue
            samples.append(float(time.perf_counter_ns() - start))

    threads = [threading.Thread(target=client, args=(index,),
                                name=f"spawn-client-{index}")
               for index in range(concurrency)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    samples = [value for per_thread in samples_by_thread
               for value in per_thread]
    if not samples:
        raise BenchError(
            f"no spawn succeeded for mechanism {mechanism!r} "
            f"({sum(errors)} errors)")
    spawns = len(samples) * children_per_call
    return ThroughputResult(
        mechanism=mechanism, concurrency=concurrency,
        requests=spawns, errors=sum(errors),
        wall_seconds=wall, per_second=spawns / max(wall, 1e-9),
        latency=Summary.from_samples(samples))


class ServiceWorkloads:
    """Spawn-and-wait operations for the service-throughput axis.

    Every mechanism launches the same child and blocks until it exits —
    what a request handler inside a spawn service actually does — but
    they differ in how concurrent callers interact:

    * ``fork_exec`` / ``posix_spawn`` — direct creation per caller; the
      kernel is the only shared resource.
    * ``forkserver-locked`` — ONE helper behind one lock held across
      spawn *and* wait: the historical design, where every caller waits
      for every other caller's entire request *including child
      runtime*.  The lock is taken here, around an ordinary
      :class:`ForkServer` — the product has no such mode.
    * ``forkserver-pipelined`` — one helper, many in-flight requests on
      the shared socket (correlation ids).
    * ``forkserver-pool`` — pipelining plus N helpers with least-loaded
      dispatch: the full spawn service.
    * ``forkserver-pool-batch`` — the same pool, but each call ships
      ``batch_size`` spawn requests in ONE wire frame
      (:meth:`ForkServerPool.spawn_batch`): amortised framing, one
      ``sendmsg``, one helper fork loop.

    ``autoscale`` replaces the fixed-size pool with a
    :class:`~repro.core.autoscale.PoolAutoscaler`-managed one: the pool
    starts at ``min_workers`` and grows toward ``pool_workers`` (or the
    given config's ``max_workers``) as queue depth demands.  Pass
    ``True`` for bench-tuned defaults or an :class:`AutoscaleConfig`
    for full control.

    All servers start lazily and are shared across measurements; use as
    a context manager to get them torn down.
    """

    MECHANISMS = ("fork_exec", "posix_spawn", "forkserver-locked",
                  "forkserver-pipelined", "forkserver-pool",
                  "forkserver-pool-batch")

    def __init__(self, child_argv: Optional[Sequence[str]] = None, *,
                 pool_workers: int = 4, batch_size: int = 4,
                 autoscale=None):
        if batch_size < 1:
            raise BenchError(f"batch_size must be >= 1: {batch_size}")
        self.child_argv = [os.fspath(a) for a in (child_argv
                                                  or SERVICE_CHILD)]
        self._pool_workers = pool_workers
        self.batch_size = batch_size
        if autoscale is True:
            # Bench-tuned windows: react within a quick run's few
            # hundred milliseconds instead of production seconds.
            autoscale = AutoscaleConfig(
                min_workers=1, max_workers=pool_workers,
                high_watermark=1.5, sustain_seconds=0.05,
                idle_ttl=0.4, interval=0.02)
        self._autoscale_config: Optional[AutoscaleConfig] = autoscale or None
        self._autoscaler: Optional[PoolAutoscaler] = None
        self._init_lock = threading.Lock()
        self._roundtrip_lock = threading.Lock()
        self._locked: Optional[ForkServer] = None
        self._pipelined: Optional[ForkServer] = None
        self._pool: Optional[ForkServerPool] = None

    def close(self) -> None:
        if self._autoscaler is not None:
            self._autoscaler.stop()
            self._autoscaler = None
        for server in (self._locked, self._pipelined, self._pool):
            if server is not None:
                server.stop()
        self._locked = self._pipelined = self._pool = None

    @property
    def pool(self) -> Optional[ForkServerPool]:
        """The shared pool, if any mechanism has started it yet."""
        return self._pool

    @property
    def autoscaler(self) -> Optional[PoolAutoscaler]:
        """The running autoscaler (``autoscale`` mode only)."""
        return self._autoscaler

    def __enter__(self) -> "ServiceWorkloads":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one spawn-and-wait per mechanism --------------------------------

    def _fork_exec_once(self) -> None:
        pid = os.fork()
        if pid == 0:
            try:
                os.execv(self.child_argv[0], self.child_argv)
            except BaseException:
                os._exit(127)
        os.waitpid(pid, 0)

    def _posix_spawn_once(self) -> None:
        pid = os.posix_spawn(self.child_argv[0], self.child_argv, {})
        os.waitpid(pid, 0)

    def _locked_once(self) -> None:
        with self._init_lock:
            if self._locked is None:
                self._locked = ForkServer().start()
        with self._roundtrip_lock:
            self._locked.spawn(self.child_argv).wait()

    def _pipelined_once(self) -> None:
        with self._init_lock:
            if self._pipelined is None:
                self._pipelined = ForkServer().start()
        self._pipelined.spawn(self.child_argv).wait()

    def _ensure_pool(self) -> ForkServerPool:
        with self._init_lock:
            if self._pool is None:
                config = self._autoscale_config
                if config is not None:
                    # Start small and let the autoscaler earn capacity:
                    # the elasticity IS the measurement.
                    self._pool = ForkServerPool(
                        config.min_workers,
                        prestart=config.min_workers).start()
                    self._autoscaler = PoolAutoscaler(
                        self._pool, config).start()
                else:
                    # Pre-start every helper: a real spawn service warms
                    # its zygotes before taking traffic, and the
                    # measurement should see steady state, not
                    # interpreter boot time.
                    self._pool = ForkServerPool(
                        self._pool_workers,
                        prestart=self._pool_workers).start()
        return self._pool

    def _pool_once(self) -> None:
        self._ensure_pool().spawn(self.child_argv).wait()

    def _pool_batch_once(self) -> None:
        pool = self._ensure_pool()
        children = pool.spawn_batch(
            BatchRequest.of([self.child_argv] * self.batch_size))
        for child in children:
            child.wait()

    def mechanisms(self) -> Dict[str, Callable[[], None]]:
        """Name -> one blocking spawn-and-wait call (thread-safe)."""
        return {
            "fork_exec": self._fork_exec_once,
            "posix_spawn": self._posix_spawn_once,
            "forkserver-locked": self._locked_once,
            "forkserver-pipelined": self._pipelined_once,
            "forkserver-pool": self._pool_once,
            "forkserver-pool-batch": self._pool_batch_once,
        }

    def warm(self, names: Optional[Sequence[str]] = None) -> None:
        """Run each mechanism once: starts helpers, pages the binaries."""
        mechanisms = self.mechanisms()
        for name in (names or self.MECHANISMS):
            if name not in mechanisms:
                raise BenchError(
                    f"unknown mechanism {name!r}; have {sorted(mechanisms)}")
            mechanisms[name]()

    def measure(self, name: str, *, concurrency: int,
                requests_per_thread: int) -> ThroughputResult:
        """Throughput of one mechanism at one offered concurrency."""
        mechanisms = self.mechanisms()
        if name not in mechanisms:
            raise BenchError(
                f"unknown mechanism {name!r}; have {sorted(mechanisms)}")
        children = (self.batch_size if name == "forkserver-pool-batch"
                    else 1)
        return measure_spawn_throughput(
            mechanisms[name], concurrency=concurrency,
            requests_per_thread=requests_per_thread, mechanism=name,
            children_per_call=children)


# ---------------------------------------------------------------------------
# The specialisation axis: preload-heavy workers, generic vs template (T7).
# ---------------------------------------------------------------------------


class TemplateWorkloads:
    """Preload-heavy spawn throughput: generic pool vs specialised zygote.

    The job is the same for both mechanisms — "give me a Python worker
    with :data:`PRELOAD_MODULES` available, let it run, wait for it" —
    but they pay for the imports at different times:

    * ``forkserver-pool`` — the generic spawn service launches a *fresh*
      interpreter per request (``python -c 'import ...'``): every child
      pays interpreter boot plus the full import chain.
    * ``template-lease`` — a :class:`~repro.core.templates.TemplateServer`
      specialised with the same preloads keeps pre-forked children
      parked; a lease hands one of them the payload, which finds every
      module already in ``sys.modules``.

    The gap between the two is the provisioned-concurrency argument in
    one number.  Servers start lazily and are shared; use as a context
    manager for teardown.
    """

    MECHANISMS = ("forkserver-pool", "template-lease")

    def __init__(self, modules: Optional[Sequence[str]] = None, *,
                 pool_workers: int = 4, stock: int = 8,
                 max_stock: int = 32):
        self.modules = tuple(modules or PRELOAD_MODULES)
        if not self.modules:
            raise BenchError("need at least one preload module")
        self.code = "import " + ", ".join(self.modules)
        self.child_argv = [sys.executable, "-c", self.code]
        self._pool_workers = pool_workers
        self._stock = stock
        self._max_stock = max_stock
        self._init_lock = threading.Lock()
        self._pool: Optional[ForkServerPool] = None
        self._registry: Optional[TemplateRegistry] = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        if self._registry is not None:
            self._registry.close()
            self._registry = None

    def __enter__(self) -> "TemplateWorkloads":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def registry(self) -> Optional[TemplateRegistry]:
        """The shared registry, if the lease mechanism has started it."""
        return self._registry

    def _ensure_pool(self) -> ForkServerPool:
        with self._init_lock:
            if self._pool is None:
                self._pool = ForkServerPool(
                    self._pool_workers,
                    prestart=self._pool_workers).start()
        return self._pool

    def _ensure_registry(self) -> TemplateRegistry:
        with self._init_lock:
            if self._registry is None:
                registry = TemplateRegistry(autoscale=AutoscaleConfig(
                    idle_ttl=5.0, interval=0.005, step=4))
                registry.register(
                    TemplateProfile("preload", preload=self.modules,
                                    stock=self._stock,
                                    max_stock=self._max_stock), warm=True)
                self._registry = registry
        return self._registry

    def _pool_once(self) -> None:
        self._ensure_pool().spawn(self.child_argv).wait(timeout=60)

    def _lease_once(self) -> None:
        child = self._ensure_registry().spawn("preload", code=self.code)
        child.wait(timeout=60)

    def mechanisms(self) -> Dict[str, Callable[[], None]]:
        """Name -> one blocking spawn-and-wait call (thread-safe)."""
        return {
            "forkserver-pool": self._pool_once,
            "template-lease": self._lease_once,
        }

    def warm(self, names: Optional[Sequence[str]] = None) -> None:
        """Run each mechanism once: boots servers, pages the imports."""
        mechanisms = self.mechanisms()
        for name in (names or self.MECHANISMS):
            if name not in mechanisms:
                raise BenchError(
                    f"unknown mechanism {name!r}; have {sorted(mechanisms)}")
            mechanisms[name]()

    def measure(self, name: str, *, concurrency: int,
                requests_per_thread: int) -> ThroughputResult:
        """Throughput of one mechanism at one offered concurrency."""
        mechanisms = self.mechanisms()
        if name not in mechanisms:
            raise BenchError(
                f"unknown mechanism {name!r}; have {sorted(mechanisms)}")
        return measure_spawn_throughput(
            mechanisms[name], concurrency=concurrency,
            requests_per_thread=requests_per_thread, mechanism=name)
