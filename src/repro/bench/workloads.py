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
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.forkserver import ForkServer
from ..core.forkserver_pool import ForkServerPool
from ..core.templates import AutoscaleConfig, TemplateProfile, TemplateRegistry
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

#: The template-zygote workloads' capacity: helpers in the generic pool,
#: and the parked children the specialised template starts with and may
#: grow to.
TEMPLATE_POOL_WORKERS = 4
TEMPLATE_STOCK = 8
TEMPLATE_MAX_STOCK = 32


def _fork_exec_once() -> None:
    # The measured fork+exec baseline: the child execs or exits at once.
    pid = os.fork()  # lint-ok: F001, F003
    if pid == 0:
        try:
            os.execv(TRIVIAL_CHILD, [TRIVIAL_CHILD])
        except BaseException:
            os._exit(127)
    os.waitpid(pid, 0)


def _fork_only_once() -> None:
    # The measured bare-fork baseline: the child exits at once.
    pid = os.fork()  # lint-ok: F001, F003
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
# The specialisation axis: preload-heavy workers, generic vs template (T7).
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


def measure_spawn_throughput(spawn_and_wait: Callable[[], None], *,
                             concurrency: int, requests_per_thread: int,
                             mechanism: str = "?") -> ThroughputResult:
    """Offer ``concurrency`` client threads, each spawning in a loop.

    All clients start together (barrier), each performs
    ``requests_per_thread`` spawn-and-wait calls, and the wall clock
    runs from the barrier to the last client's exit — so the number
    reported is sustained service throughput, not best-case latency
    inverted.  A failing call counts as an error and does not
    contribute a latency sample.
    """
    if concurrency < 1:
        raise BenchError("need at least one client thread")
    if requests_per_thread < 1:
        raise BenchError("need at least one request per thread")
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
    spawns = len(samples)
    return ThroughputResult(
        mechanism=mechanism, concurrency=concurrency,
        requests=spawns, errors=sum(errors),
        wall_seconds=wall, per_second=spawns / max(wall, 1e-9),
        latency=Summary.from_samples(samples))


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

    def __init__(self, modules: Optional[Sequence[str]] = None):
        self.modules = tuple(modules or PRELOAD_MODULES)
        if not self.modules:
            raise BenchError("need at least one preload module")
        self.code = "import " + ", ".join(self.modules)
        self.child_argv = [sys.executable, "-c", self.code]
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

    def _ensure_pool(self) -> ForkServerPool:
        with self._init_lock:
            if self._pool is None:
                self._pool = ForkServerPool(
                    TEMPLATE_POOL_WORKERS,
                    prestart=TEMPLATE_POOL_WORKERS).start()
        return self._pool

    def _ensure_registry(self) -> TemplateRegistry:
        with self._init_lock:
            if self._registry is None:
                registry = TemplateRegistry(
                    autoscale=AutoscaleConfig(step=4))
                registry.register(
                    TemplateProfile("preload", preload=self.modules,
                                    stock=TEMPLATE_STOCK,
                                    max_stock=TEMPLATE_MAX_STOCK), warm=True)
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
