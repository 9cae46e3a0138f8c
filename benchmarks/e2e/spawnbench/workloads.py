"""The six workloads: boot, one op, teardown, and each one's layer probes.

An *op* is build -> spawn -> (drain) -> reap of one child (eight for a
batch), checked for return code and bytes.  ``run_op`` stamps the phase
boundaries through ``mark`` — a no-op in untraced phases — and raises on
any wrong outcome, so the caller loop counts it as failed and it never
contributes a latency sample.

Each workload's ``probes`` time direct calls into the public functions
of the layers *that workload exercises*; layers it never touches report
nothing (the runner fills zeros), which is the separation the README's
"control" argument rests on.
"""

from __future__ import annotations

import os
import shutil
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import (DEFAULT_FALLBACK, BatchRequest, FileActions, ForkServer, FrameCache,
                        ProcessBuilder, SpawnAttributes, SpawnPolicy, TemplateProfile,
                        TemplateRegistry, frame_key, get_strategy, spawn_batch)
from repro.gateway import (FrameDecoder, GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig, encode_frame)
from repro.obs import TELEMETRY
from repro.sim import GIB, MIB, Kernel, SimConfig
from repro.sim.syscalls.base import Park

from .ops import BATCH_SIZE, SIM_BALLAST_MIB, Op, bench_env
from .spans import SpanLog
from .stats import p50, percentile

clock = time.perf_counter_ns
Mark = Callable[[], None]

#: Threads / connections of the concurrent workloads.
CALLERS = min(os.cpu_count() or 1, 4)

TRUE = "/bin/true"
ECHO = "/bin/echo"
REAP_TIMEOUT = 30.0


class WrongOutcome(Exception):
    """A child came back with the wrong return code or the wrong bytes."""


def us(ns: float) -> float:
    return ns / 1e3


def p50_us(samples_ns) -> float:
    return us(p50(samples_ns)) if samples_ns else 0.0


def reap(child, op: Op) -> int:
    return child.wait() if op.reap == "block" else child.wait(timeout=REAP_TIMEOUT)


def check(op: Op, rc: int, out: Optional[bytes] = None) -> None:
    if rc != 0:
        raise WrongOutcome(f"op {op.index} ({op.shape}): rc={rc}")
    if out is not None and out != op.token.encode() + b"\n":
        raise WrongOutcome(f"op {op.index} ({op.shape}): stdout {out[:40]!r} != token {op.token}")


def abandon(child) -> None:
    """Best-effort cleanup of a child whose op already failed."""
    try:
        child.kill()
        child.wait(timeout=5)
    except Exception:
        pass


def drain(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def reap_now(child) -> None:
    child.wait()


def time_calls(fn: Callable[[], object], n: int, after: Callable[[object], None] = None
               ) -> List[int]:
    """ns around ``n`` calls of ``fn``; ``after(result)`` runs outside the timed region."""
    samples = []
    for _ in range(n):
        t0 = clock()
        result = fn()
        samples.append(clock() - t0)
        if after is not None:
            after(result)
    return samples


def time_pings(log: SpanLog, ping: Callable[[], object], n: int) -> List[int]:
    """ns around ``n`` ping round trips, each also kept as a ``ping`` sibling span."""
    samples = []
    for _ in range(n):
        t0 = clock()
        ping()
        t1 = clock()
        log.add_sibling("ping", t0, t1)
        samples.append(t1 - t0)
    return samples


def time_interleaved(calls: Dict[str, Callable[[], object]], n: int,
                     after: Callable[[object], None] = None) -> Dict[str, List[int]]:
    """Like :func:`time_calls` for several functions, one call of each per round.

    Figures that are *differences* of two timings (front = builder - strategy,
    dispatch = pool - helper, tax = gateway - pool) are only meaningful when
    both sides saw the same box, so their samples are taken side by side.
    """
    samples: Dict[str, List[int]] = {name: [] for name in calls}
    for _ in range(n):
        for name, fn in calls.items():
            t0 = clock()
            result = fn()
            samples[name].append(clock() - t0)
            if after is not None:
                after(result)
    return samples


def loop_ns(fn: Callable[[], object], n: int) -> float:
    """Mean ns per call of a sub-microsecond ``fn`` (one clock pair around the loop)."""
    t0 = clock()
    for _ in range(n):
        fn()
    return (clock() - t0) / n


def capture_spawn_us(spawn: Callable[[int], object], n: int = 150) -> float:
    """p50 of ``spawn(stdout_fd)`` for an echo child; drained and reaped outside the clock."""
    samples = []
    for _ in range(n):
        read_fd, write_fd = os.pipe()
        try:
            t0 = clock()
            child = spawn(write_fd)
            samples.append(clock() - t0)
            os.close(write_fd)
            write_fd = -1
            drain(read_fd)
            child.wait()
        finally:
            os.close(read_fd)
            if write_fd >= 0:
                os.close(write_fd)
    return p50_us(samples)


def wait_rtt_us(spawn: Callable[[], object], n: int = 50) -> float:
    """p50 of ``wait()`` on children that have already exited: the pure wire reap."""
    samples = []
    for _ in range(n):
        child = spawn()
        time.sleep(0.01)  # /bin/true is long gone; the helper holds its status
        t0 = clock()
        child.wait()
        samples.append(clock() - t0)
    return p50_us(samples)


class Workload:
    """Interface the runner drives; one instance per interpreter."""

    name = ""
    callers = 1
    #: False for the sim: it may not leave a single reaped child on the host.
    real_os = True
    #: Seconds between ``sample()`` calls in the traced phase (0 = never).
    sample_every = 0.0
    #: What one floor probe "should" cost; only scales ``setup_s`` into seconds.
    FLOOR_NOMINAL_NS = 1_000_000

    def __init__(self, seed: int, rundir: str):
        self.seed = seed
        self.rundir = rundir
        self.env = bench_env(seed)
        self.environ = dict(os.environ)

    def boot(self) -> None:
        """Start whatever the workload's strategy boots lazily."""

    def begin_timed(self) -> None:
        """Warm-up is over; the seeded sequence starts with the next op."""

    def run_op(self, op: Op, mark: Mark, caller: int) -> int:
        """Run one op to completion; returns the children reaped."""
        raise NotImplementedError

    def floor_probe(self) -> Tuple[int, int]:
        """One unit of the substrate this workload stands on, timed: ``(t0, t1)``.

        For real-OS workloads that is a raw ``os.posix_spawn("/bin/true")`` +
        ``waitpid`` — what the kernel charges for a process with none of our
        code in the way.  Interleaved with the ops, it reads the machine's
        speed *at the moment the ops ran*, which is what makes ratios to it
        repeatable on a box whose speed wanders.
        """
        t0 = clock()
        pid = os.posix_spawn(TRUE, [TRUE], os.environ)
        os.waitpid(pid, 0)
        return t0, clock()

    def sample(self, peaks: Dict[str, float]) -> None:
        """Fold one reading of the layer's public gauges into ``peaks`` (max)."""

    def probes(self, log: SpanLog, peaks: Dict[str, float]) -> Dict[str, float]:
        """Layer metrics of this workload (telemetry is off again by now)."""
        return {}

    def close(self) -> None:
        """Stop everything ``boot`` started."""

    # -- shared op bodies -------------------------------------------------

    def builder_op(self, op: Op, mark: Mark, strategy: Optional[str] = None,
                   policy: Optional[SpawnPolicy] = None) -> int:
        mark()
        if op.shape == "capture":
            builder = ProcessBuilder(ECHO, op.token).stdout_to_pipe()
        elif op.shape == "env":
            builder = ProcessBuilder(TRUE, op.token).env(self.env)
        else:
            builder = ProcessBuilder(TRUE)
        if strategy is not None:
            builder.strategy(strategy)
        if op.policy:
            builder.policy(policy)
        mark()
        child = builder.spawn()
        mark()
        try:
            out = builder.io.read_stdout() if op.shape == "capture" else None
            mark()
            rc = reap(child, op)
            mark()
        except BaseException:
            abandon(child)
            raise
        finally:
            builder.io.close()
        check(op, rc, out)
        return 1


def _max(peaks: Dict[str, float], key: str, value: float) -> None:
    if value > peaks.get(key, 0):
        peaks[key] = value


# ---------------------------------------------------------------------------
# direct_seq
# ---------------------------------------------------------------------------

class DirectSeq(Workload):
    name = "direct_seq"
    policy = SpawnPolicy(retries=1, fallback=DEFAULT_FALLBACK)

    def run_op(self, op, mark, caller):
        return self.builder_op(op, mark, policy=self.policy)

    def probes(self, log, peaks):
        out = {f"core.spawn.build_us.{shape}":
               p50_us(log.phase_ns(log.select(shape=shape), "build"))
               for shape in ("null", "capture", "env")}
        null = log.select(shape="null")
        wrapped = [op for op in null if "policy" in op[1]]
        bare = [op for op in null if "policy" not in op[1]]
        if wrapped and bare:
            out["core.policy.ladder_us"] = (p50_us(log.phase_ns(wrapped, "launch"))
                                            - p50_us(log.phase_ns(bare, "launch")))

        strategies = {name: get_strategy(name)
                      for name in ("posix_spawn", "fork_exec", "subprocess")}
        calls = {name: (lambda strategy=strategy:
                        strategy.launch([TRUE], FileActions(), SpawnAttributes()))
                 for name, strategy in strategies.items()}
        calls["front"] = lambda: ProcessBuilder(TRUE).spawn()
        samples = time_interleaved(calls, 150, reap_now)
        for name in strategies:
            out[f"core.strategies.launch_us.{name}"] = p50_us(samples[name])
        out["core.spawn.front_us"] = p50_us(samples["front"]) - p50_us(samples["posix_spawn"])
        return out


# ---------------------------------------------------------------------------
# wire_seq
# ---------------------------------------------------------------------------

def forkserver_spawn_probes(server: ForkServer, environ, env, n: int = 150) -> Dict[str, float]:
    """p50 of direct ``ForkServer.spawn`` calls, per request shape."""
    out = {}
    samples = time_calls(lambda: server.spawn([TRUE], env=environ), n, reap_now)
    out["core.forkserver.spawn_us.null"] = p50_us(samples)
    samples = time_calls(lambda: server.spawn([TRUE, "probe"], env=env), n, reap_now)
    out["core.forkserver.spawn_us.env"] = p50_us(samples)
    out["core.forkserver.spawn_us.capture"] = capture_spawn_us(
        lambda fd: server.spawn([ECHO, "probe"], env=environ, stdout=fd), n)
    return out


class WireSeq(Workload):
    name = "wire_seq"

    def boot(self):
        get_strategy("forkserver").server()

    def run_op(self, op, mark, caller):
        return self.builder_op(op, mark, strategy="forkserver")

    def probes(self, log, peaks):
        server = get_strategy("forkserver").server()
        cache = server.frame_cache
        out = {"core.framecache.hit_ratio": cache.hits / max(1, cache.hits + cache.misses)}

        boots = []
        for _ in range(5):
            t0 = clock()
            fresh = ForkServer().start()
            fresh.ping()
            boots.append(clock() - t0)
            fresh.stop()
        out["core.forkserver.boot_ms"] = p50(boots) / 1e6

        pings = time_pings(log, server.ping, 2000)
        out["core.forkserver.ping_us"] = p50_us(pings)
        out["core.forkserver.ping_p99_us"] = us(percentile(pings, 0.99))
        out.update(forkserver_spawn_probes(server, self.environ, self.env))
        side = time_interleaved(
            {"spawn": lambda: server.spawn([TRUE], env=self.environ), "ping": server.ping},
            150, lambda result: None if result is True else result.wait())
        out["core.forkserver.fork_exec_us"] = p50_us(side["spawn"]) - p50_us(side["ping"])
        out["core.forkserver.wait_rtt_us"] = wait_rtt_us(
            lambda: server.spawn([TRUE], env=self.environ))

        key = frame_key([TRUE], self.environ, None)
        out["core.framecache.key_ns"] = loop_ns(
            lambda: frame_key([TRUE], self.environ, None), 2000)
        scratch = FrameCache(256)
        scratch.store(key, b"tail")
        out["core.framecache.lookup_ns"] = loop_ns(lambda: scratch.lookup(key), 20000)
        return out

    def close(self):
        get_strategy("forkserver").shutdown()


# ---------------------------------------------------------------------------
# pool_conc
# ---------------------------------------------------------------------------

class PoolConc(Workload):
    name = "pool_conc"
    callers = CALLERS
    sample_every = 0.1

    def boot(self):
        self.pool = get_strategy("forkserver-pool").pool()

    def run_op(self, op, mark, caller):
        if op.kind != "batch":
            return self.builder_op(op, mark, strategy="forkserver-pool")
        mark()
        batch = BatchRequest.of([[TRUE]] * BATCH_SIZE)
        mark()
        children = spawn_batch(batch)
        mark()
        mark()
        codes = [child.wait() for child in children]
        mark()
        if any(codes):
            raise WrongOutcome(f"op {op.index} (batch): rcs={codes}")
        return len(codes)

    def sample(self, peaks):
        _max(peaks, "core.forkserver_pool.queue_depth_max", self.pool.queue_depth())

    def _null_rate(self, callers: int, seconds: float = 1.0) -> float:
        """Null singles per second through the pool strategy with ``callers`` threads."""
        counts = [0] * callers
        deadline = time.perf_counter() + seconds

        def loop(i):
            while time.perf_counter() < deadline:
                ProcessBuilder(TRUE).strategy("forkserver-pool").spawn().wait()
                counts[i] += 1

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(callers)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(counts) / (time.perf_counter() - t0)

    def probes(self, log, peaks):
        out = {"core.forkserver_pool.respawns": self.pool.respawns,
               "core.forkserver_pool.queue_depth_max":
                   peaks.get("core.forkserver_pool.queue_depth_max", 0)}
        with ForkServer() as bare:
            side = time_interleaved(
                {"pool": lambda: self.pool.spawn([TRUE], env=self.environ),
                 "bare": lambda: bare.spawn([TRUE], env=self.environ)}, 150, reap_now)
            batch = BatchRequest.of([[TRUE]] * BATCH_SIZE, env=self.environ)
            batches = time_calls(lambda: bare.spawn_batch(batch), 40,
                                 lambda children: [c.wait() for c in children])
        out["core.forkserver_pool.spawn_us"] = p50_us(side["pool"])
        out["core.forkserver.spawn_us.null"] = p50_us(side["bare"])
        out["core.forkserver.batch8_per_child_us"] = p50_us(batches) / BATCH_SIZE
        out["core.forkserver_pool.dispatch_us"] = (out["core.forkserver_pool.spawn_us"]
                                                   - out["core.forkserver.spawn_us.null"])
        out["core.forkserver_pool.conc_scaling"] = (self._null_rate(self.callers)
                                                    / self._null_rate(1))
        return out

    def close(self):
        get_strategy("forkserver-pool").shutdown()


# ---------------------------------------------------------------------------
# template_lease
# ---------------------------------------------------------------------------

class TemplateLease(Workload):
    name = "template_lease"
    profile = TemplateProfile("bench", preload=("json", "logging", "decimal"),
                              stock=4, max_stock=16)

    def boot(self):
        self.registry = TemplateRegistry()
        self.registry.register(self.profile, warm=True)

    def run_op(self, op, mark, caller):
        mark()
        if op.shape == "exec":
            request = {"argv": [TRUE, op.token]}
        else:
            # The roadmap's null zygote payload; the token keeps the input seeded.
            request = {"code": f"raise SystemExit(0)  # {op.token}"}
        mark()
        child = self.registry.spawn("bench", **request)
        mark()
        mark()
        try:
            rc = reap(child, op)
        except BaseException:
            abandon(child)
            raise
        mark()
        check(op, rc)
        return 1

    def probes(self, log, peaks):
        out = {f"core.templates.lease_us.{mode}":
               p50_us(log.phase_ns(log.select(shape=mode), "launch"))
               for mode in ("exec", "zygote")}
        metrics = TELEMETRY.metrics
        leases = metrics.counter("template_lease", profile="bench").value
        misses = metrics.counter("template_lease_miss", profile="bench").value
        out["core.templates.miss_ratio"] = misses / max(1, leases)

        warms = []
        for _ in range(3):
            fresh = TemplateRegistry()
            try:
                t0 = clock()
                fresh.register(self.profile, warm=True)
                warms.append(clock() - t0)
            finally:
                fresh.close()
        out["core.templates.warm_ms"] = p50(warms) / 1e6

        server = self.registry.server_for("bench")
        out["core.templates.park_us"] = p50_us(
            time_calls(server.park, 40, lambda pid: server.unpark()))
        out["core.forkserver.ping_us"] = p50_us(time_pings(log, server.ping, 1000))
        return out

    def close(self):
        self.registry.close()


# ---------------------------------------------------------------------------
# gateway_conc
# ---------------------------------------------------------------------------

class GatewayConc(Workload):
    name = "gateway_conc"
    callers = CALLERS
    sample_every = 1.0
    tenants = (("gold", 3.0), ("bronze", 1.0))

    def boot(self):
        os.makedirs(self.rundir, exist_ok=True)
        # AF_UNIX paths are capped near 108 bytes; a relative one stays short
        # however deep the checkout lives.
        self.address = os.path.relpath(os.path.join(self.rundir, "gw.sock"))
        if len(self.address) > 100:
            raise RuntimeError(f"socket path too long for AF_UNIX: {self.address}")
        tenants = {name: TenantConfig(name=name, token=f"{name}-token", weight=weight,
                                      strategy="forkserver-pool")
                   for name, weight in self.tenants}
        self.server = GatewayServer(GatewayConfig(unix_path=self.address,
                                                  tenants=tenants)).start()
        self.clients = [self._dial(i) for i in range(self.callers)]

    def _dial(self, i: int) -> GatewayClient:
        name = self.tenants[i % len(self.tenants)][0]
        return GatewayClient(self.address, tenant=name, token=f"{name}-token").connect()

    def run_op(self, op, mark, caller):
        client = self.clients[caller]
        mark()
        read_fd = write_fd = -1
        if op.shape == "capture":
            read_fd, write_fd = os.pipe()
        mark()
        try:
            if op.shape == "capture":
                child = client.spawn([ECHO, op.token], stdout=write_fd)
            else:
                child = client.spawn([TRUE])
            mark()
            try:
                out = None
                if op.shape == "capture":
                    os.close(write_fd)
                    write_fd = -1
                    out = drain(read_fd)
                mark()
                rc = reap(child, op)
                mark()
            except BaseException:
                abandon(child)
                raise
        finally:
            for fd in (read_fd, write_fd):
                if fd >= 0:
                    os.close(fd)
        check(op, rc, out)
        return 1

    def sample(self, peaks):
        stats = self.clients[0].stats()
        _max(peaks, "gateway.server.inflight_max", stats["inflight"])
        _max(peaks, "gateway.server.queued_max",
             max(tenant["queued"] for tenant in stats["tenants"].values()))

    def probes(self, log, peaks):
        client = self.clients[0]
        out = {"gateway.server.shed": client.stats()["shed_total"],
               "gateway.server.queued_max": peaks.get("gateway.server.queued_max", 0),
               "gateway.server.inflight_max": peaks.get("gateway.server.inflight_max", 0)}

        for label, env in (("small", None), ("4k", self.env)):
            request = {"op": "spawn", "id": 7, "argv": [TRUE], "env": env, "cwd": None,
                       "nfds": 3}
            frame = encode_frame(request)
            decoder = FrameDecoder()
            out[f"gateway.protocol.encode_ns.{label}"] = loop_ns(
                lambda: encode_frame(request), 5000)
            out[f"gateway.protocol.decode_ns.{label}"] = loop_ns(
                lambda: decoder.feed(frame), 5000)

        connects = []
        for _ in range(20):
            t0 = clock()
            extra = self._dial(0)
            connects.append(clock() - t0)
            extra.close()
        out["gateway.client.connect_ms"] = p50(connects) / 1e6

        pings = time_pings(log, client.ping, 1000)
        out["gateway.client.ping_us"] = p50_us(pings)
        out["gateway.client.ping_p99_us"] = us(percentile(pings, 0.99))
        pool = get_strategy("forkserver-pool").pool()
        side = time_interleaved(
            {"client": lambda: client.spawn([TRUE]),
             "pool": lambda: pool.spawn([TRUE], env=self.environ)}, 150, reap_now)
        out["gateway.client.spawn_us.null"] = p50_us(side["client"])
        out["core.forkserver_pool.spawn_us"] = p50_us(side["pool"])
        out["core.forkserver_pool.respawns"] = pool.respawns
        out["gateway.tax_us"] = (out["gateway.client.spawn_us.null"]
                                 - out["core.forkserver_pool.spawn_us"])
        out["gateway.client.spawn_us.capture"] = capture_spawn_us(
            lambda fd: client.spawn([ECHO, "probe"], stdout=fd))
        out["gateway.client.wait_rtt_us"] = wait_rtt_us(lambda: client.spawn([TRUE]))
        return out

    def close(self):
        for client in self.clients:
            client.close()
        self.server.stop()
        get_strategy("forkserver-pool").shutdown()
        shutil.rmtree(self.rundir, ignore_errors=True)


# ---------------------------------------------------------------------------
# sim_creation
# ---------------------------------------------------------------------------

IDLE = "/bin/idle"


def _trivial_main(sys):
    return iter(())


class SimMachine:
    """One sim kernel whose root process carries ``ballast_mib`` of populated memory."""

    def __init__(self, ballast_mib: int):
        self.kernel = kernel = Kernel(SimConfig(total_ram=32 * GIB))
        kernel.register_program(IDLE, _trivial_main)
        kernel.register_program(TRUE, _trivial_main)
        self.parent = kernel.spawn_root(IDLE)
        self.thread = self.parent.main_thread()
        addr, _ = kernel.timed_call(self.thread, "mmap", ballast_mib * MIB)
        kernel.timed_call(self.thread, "populate", addr, ballast_mib * MIB)
        # The first fork of a populated parent write-protects its pages and is
        # priced differently from every later one; pay it here, not in an op.
        self.retire(self.create("fork")[0])

    def create(self, mech: str):
        """One creation through ``mech``: ``(child pid, virtual ns)``."""
        kernel, thread = self.kernel, self.thread
        if mech == "fork":
            return kernel.timed_call(thread, "fork", _trivial_main)
        if mech == "spawn":
            return kernel.timed_call(thread, "spawn", TRUE)
        if mech == "xproc":
            handle, create_ns = kernel.timed_call(thread, "xproc_create")
            pid, start_ns = kernel.timed_call(thread, "xproc_start", handle, TRUE)
            return pid, create_ns + start_ns
        if mech == "vfork":
            before = kernel.now_ns
            try:
                kernel.timed_call(thread, "vfork", _trivial_main)
            except Park:
                # vfork suspends the parent until the child execs or exits; the
                # work is done and priced by the time the handler parks.
                return self.parent.children[-1], kernel.now_ns - before
            raise WrongOutcome("vfork did not park the parent")
        raise ValueError(f"unknown mechanism {mech!r}")

    def retire(self, pid: int) -> None:
        """Exit the child, wake a vfork-parked parent, and reap — like a real waitpid."""
        kernel, thread = self.kernel, self.thread
        kernel.exit_process(kernel.find_process(pid), 0)
        if thread.state != "ready":
            thread.state = "ready"
            thread.pending_call = None
            thread.wake_result = None
        kernel.timed_call(thread, "waitpid", pid)
        if kernel.find_process(pid).state != "reaped":
            raise WrongOutcome(f"sim pid {pid} not reaped")


class SimCreation(Workload):
    name = "sim_creation"
    real_os = False
    FLOOR_NOMINAL_NS = 100_000
    #: Ops whose virtual cost makes up ``sim.virtual_us_per_op`` — a fixed
    #: prefix of the seeded sequence, so the figure repeats bit for bit.
    VIRTUAL_PREFIX = 1000
    #: Ops after which the machines are retired for fresh ones, the way a sweep
    #: (t10, fig1-sim) boots one per point.  A Kernel's process table never
    #: shrinks and the xproc strategy scans all of it per launch, so without
    #: this both RSS and op cost would grow with how many ops the box managed
    #: in --seconds, i.e. with its speed; ``core.xproc.launch_aged_us``
    #: measures that growth on its own.
    RECYCLE_EVERY = 4000

    def boot(self):
        self.xproc = get_strategy("xproc")
        self._fresh_machines()
        self.virtual_ns: List[float] = []
        self.last_virtual: Dict[str, float] = {}

    def _fresh_machines(self) -> None:
        self.machines = {label: SimMachine(mib) for label, mib in SIM_BALLAST_MIB.items()}
        self.xproc.shutdown()
        self.xproc.kernel()

    def run_op(self, op, mark, caller):
        if op.index and op.index % self.RECYCLE_EVERY == 0:
            self._fresh_machines()
        if op.kind == "xproc":
            return self._launch_op(op, mark)
        machine = self.machines[op.ballast]
        mark()
        mark()
        pid, virtual = machine.create(op.shape)
        mark()
        mark()
        machine.retire(pid)
        mark()
        if not virtual > 0:
            raise WrongOutcome(f"op {op.index}: {op.shape} cost {virtual} virtual ns")
        if len(self.virtual_ns) < self.VIRTUAL_PREFIX:
            self.virtual_ns.append(virtual)
        self.last_virtual[f"{op.shape}.{op.ballast}"] = virtual
        return 1

    def _launch_op(self, op, mark):
        mark()
        builder = ProcessBuilder(TRUE).strategy("xproc")
        mark()
        child = builder.spawn()
        mark()
        mark()
        rc = reap(child, op)
        mark()
        check(op, rc)
        return 1

    def begin_timed(self):
        self.virtual_ns.clear()  # the prefix starts with the first timed op

    def floor_probe(self):
        # No host process may be spawned here: the simulator stands on the
        # interpreter, so its yardstick is a fixed slice of pure-Python work.
        t0 = clock()
        total = 0
        for i in range(2000):
            total += i * i
        return t0, clock()

    def virtual_us_per_op(self) -> float:
        return statistics.fmean(self.virtual_ns) / 1e3 if self.virtual_ns else 0.0

    def probes(self, log, peaks):
        out = {f"sim.kernel.virtual_ns.{key}": value
               for key, value in self.last_virtual.items()}
        out["sim.virtual_us_per_op"] = self.virtual_us_per_op()
        for ballast in SIM_BALLAST_MIB:
            out[f"sim.kernel.fork_host_us.{ballast}"] = p50_us(
                log.phase_ns(log.select(shape="fork", ballast=ballast), "launch"))
        out["core.xproc.launch_us"] = p50_us(log.phase_ns(log.select(kind="xproc"), "launch"))
        self.xproc.shutdown()
        kernel = self.xproc.kernel()
        before = kernel.now_ns
        ProcessBuilder(TRUE).strategy("xproc").spawn().wait()
        out["core.xproc.virtual_ns"] = kernel.now_ns - before
        launches = time_calls(lambda: ProcessBuilder(TRUE).strategy("xproc").spawn(), 1500,
                              lambda child: child.wait())
        out["core.xproc.launch_fresh_us"] = p50_us(launches[:200])
        out["core.xproc.launch_aged_us"] = p50_us(launches[-200:])
        out.update(self._kernel_call_probes())
        out["sim.kernel.steps_per_s"] = self._steps_per_s()
        return out

    def _kernel_call_probes(self, n: int = 300) -> Dict[str, float]:
        """Host time around single ``timed_call``s on a fresh 64 MiB machine."""
        machine = SimMachine(64)
        kernel, thread = machine.kernel, machine.thread
        samples: Dict[str, List[int]] = {call: [] for call in (
            "fork", "vfork", "spawn", "xproc_create", "xproc_start", "mmap", "populate", "exit")}
        for _ in range(n):
            for mech in ("fork", "vfork", "spawn"):
                t0 = clock()
                pid, _ = machine.create(mech)
                samples[mech].append(clock() - t0)
                machine.retire(pid)
            t0 = clock()
            handle, _ = kernel.timed_call(thread, "xproc_create")
            t1 = clock()
            pid, _ = kernel.timed_call(thread, "xproc_start", handle, TRUE)
            t2 = clock()
            samples["xproc_create"].append(t1 - t0)
            samples["xproc_start"].append(t2 - t1)
            child = kernel.find_process(pid)
            t0 = clock()
            kernel.exit_process(child, 0)
            samples["exit"].append(clock() - t0)
            kernel.timed_call(thread, "waitpid", pid)
            t0 = clock()
            addr, _ = kernel.timed_call(thread, "mmap", MIB)
            t1 = clock()
            kernel.timed_call(thread, "populate", addr, MIB)
            t2 = clock()
            samples["mmap"].append(t1 - t0)
            samples["populate"].append(t2 - t1)
            kernel.timed_call(thread, "munmap", addr, MIB)
        return {f"sim.kernel.host_us_per_call.{call}": p50_us(values)
                for call, values in samples.items()}

    @staticmethod
    def _steps_per_s(rounds: int = 300) -> float:
        kernel = Kernel()
        kernel.register_program(TRUE, _trivial_main)

        def init(sys):
            for _ in range(rounds):
                pid = yield sys.fork(_trivial_main)
                yield sys.waitpid(pid)

        kernel.register_program("/sbin/init", init)
        kernel.spawn_root("/sbin/init")
        t0 = time.perf_counter()
        steps = kernel.run()
        return steps / (time.perf_counter() - t0)

    def close(self):
        self.xproc.shutdown()
        self.machines = {}


REGISTRY = {cls.name: cls for cls in
            (DirectSeq, WireSeq, PoolConc, TemplateLease, GatewayConc, SimCreation)}
