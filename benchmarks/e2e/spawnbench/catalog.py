"""Names, units and intent of everything the benchmark reports.

``BENCHMARK.json`` at the repo root declares the same workloads and
metrics in the driver's fixed shape (``test_harness.py`` checks the two
agree); this module adds what that shape has no room for: how each
figure is measured and which end-to-end metric, on which workload, a
layer metric is expected to move.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    how: str
    #: End-to-end metric + workload this layer metric should move
    #: (empty for end-to-end metrics themselves).
    moves: str = ""


WORKLOADS: List[Workload] = [
    Workload("direct_seq",
             "1 caller, ProcessBuilder on default posix_spawn, null/capture/env 60/25/15, "
             "every 4th op under SpawnPolicy: the recommended path and the no-wire control"),
    Workload("wire_seq",
             "1 caller on the forkserver strategy, same 60/25/15 mix: latency-bound single "
             "round trips; cached-null vs fd-bearing vs big-env frames share one wire"),
    Workload("pool_conc",
             "T threads on forkserver-pool, 70% single null/capture + 30% spawn_batch of 8: "
             "pipelined dispatch, locking and batch amortisation over the same wire"),
    Workload("template_lease",
             "1 caller leasing from a warm TemplateRegistry, exec-mode and zygote-mode "
             "alternating: the park/lease/restock path with no fork on demand"),
    Workload("gateway_conc",
             "T GatewayClient connections over two weighted tenants on a private Unix socket, "
             "capture/null 50/50: client, protocol, admission, WFQ and executor over the pool"),
    Workload("sim_creation",
             "seeded fork/vfork/spawn/xproc creations on sim kernels with 1/64/512 MiB ballast "
             "plus every 10th op an xproc strategy launch: only sim and core.xproc do work"),
]

#: The bound lives in BENCHMARK.json; this table carries the definitions.
#:
#: The box this was built on flips between two speeds every few seconds (a raw
#: spawn reads ~0.97 ms or ~1.35 ms, a pure-Python loop moves with it), so a
#: 12 s run's wall-clock medians spread 10-20 % between identical runs.  Every
#: time-like gated metric is therefore a multiple of the *floor* — one unit of
#: the substrate (a raw posix_spawn + waitpid; for the sim a fixed slice of
#: Python work) probed after every 8 ops of the same run, so it shares the
#: ops' luck.  The wall-clock figures are still reported, as ``e2e.*`` layer
#: metrics.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "median over 3 fresh interpreters of: imports + lazy boots (helper, pool, template "
           "stock, daemon + hello, sim machines + ballast) + 200 warm-up ops"),
    Metric("ops_per_floor", "ratio", "higher",
           "verified children reaped per floor of elapsed time: the timed phase is integrated "
           "as dt / local floor (batch members count one each)"),
    Metric("op_over_floor", "ratio", "lower",
           "median op latency (build -> spawn -> drain -> reap -> verify) over single ops "
           "reaped with blocking child.wait(), each divided by the floor of its own moment"),
    Metric("cpu_over_floor", "ratio", "lower",
           "delta utime+stime+cutime+cstime of every process in the workload's session "
           "(/proc/<pid>/stat) over the timed phase / children reaped, in floors"),
    Metric("rss_mb", "MiB", "lower",
           "resident set of every process in the workload's session (workload, helpers, parked "
           "stock): median of samples taken every 0.5 s of the timed phase"),
]


_SIM_MECHS = ("fork", "vfork", "spawn", "xproc")
_SIM_BALLAST = ("1m", "64m", "512m")

PER_LAYER: List[Metric] = [
    # -- demoted end-to-end figures (reported, not gated) -------------------
    Metric("e2e.fail_ratio", "ratio", "lower",
           "ops that raised, timed out, wrong rc or wrong bytes / ops attempted (is 0, so it "
           "cannot be a gated ratio; the result line's failed/attempted carries it)",
           "must stay 0 on every workload"),
    Metric("e2e.ops_per_s", "1/s", "higher",
           "children reaped / wall second of the untraced phase (floor probes included)",
           "wall-clock face of ops_per_floor"),
    Metric("e2e.op_p50_us", "us", "lower", "blocking-reap op latency p50, wall clock",
           "wall-clock face of op_over_floor"),
    Metric("e2e.op_p90_us", "us", "lower", "blocking-reap op latency p90, wall clock",
           "wall-clock face of e2e.op_p90_over_floor"),
    Metric("e2e.op_p90_over_floor", "ratio", "lower",
           "p90 of the op_over_floor samples (>= 10 beyond it); not gated: a minute of a busy "
           "neighbour hits 10-20% of ops, which the median shrugs off and the p90 reads as +50%",
           "op tail on every workload"),
    Metric("e2e.op_p99_us", "us", "lower",
           "p99 of blocking-reap op latency (>= 1000 samples), else the highest qualifying "
           "percentile of 95/90/75; too few samples inside the run-time cap to gate",
           "op tail on every workload"),
    Metric("e2e.op_timed_p50_us", "us", "lower",
           "p50 latency of ops reaped with child.wait(timeout=30) (odd-indexed ops of the "
           "traced run's mixed stream), wall clock",
           "what a reap-path fix moves, on every real-OS workload"),
    Metric("e2e.op_timed_over_floor", "ratio", "lower",
           "the same in local floors; not gated: where the child exits inside one 0.5/1/2 ms "
           "poll sleep (direct_seq, template_lease) the latency is pinned by the sleep, so it "
           "neither follows the box's speed nor ignores it",
           "what a reap-path fix moves"),
    Metric("e2e.cpu_us_per_op", "us", "lower", "CPU us of the session per child reaped",
           "wall-clock face of cpu_over_floor"),
    Metric("e2e.samples_block", "count", "higher", "blocking-reap latency samples", ""),
    Metric("e2e.samples_timed", "count", "higher", "timed-reap latency samples", ""),
    Metric("harness.leaked_procs", "count", "lower",
           "processes left in the workload's session after teardown", "must stay 0"),
    Metric("harness.leaked_fds", "count", "lower",
           "open descriptors after teardown minus before setup", "must stay 0"),
    # -- yardstick ----------------------------------------------------------
    Metric("floor.p50_us", "us", "lower",
           "p50 of the floor probes of the untraced phase: raw os.posix_spawn('/bin/true') + "
           "waitpid (sim_creation: a fixed 2000-iteration Python loop), one after every 8 ops",
           "yardstick, not a target: every *_over_floor metric divides by it"),
    Metric("floor.samples", "count", "higher", "floor probes behind floor.p50_us", ""),
    # -- spans (means, so the rows sum) ----------------------------------------
    Metric("span.op_us", "us", "lower", "mean op span over traced single ops", "op_over_floor"),
    Metric("span.build_us", "us", "lower", "mean build child span", "op_over_floor"),
    Metric("span.launch_us", "us", "lower", "mean launch child span", "op_over_floor"),
    Metric("span.drain_us", "us", "lower", "mean drain child span", "op_over_floor (capture)"),
    Metric("span.reap_us", "us", "lower", "mean reap child span",
           "op_over_floor, e2e.op_timed_p50_us"),
    Metric("span.self_us", "us", "lower",
           "mean op span minus its child spans: verify, close, stamps (the unaccounted row)",
           "must stay < 5% of span.op_us"),
    Metric("span.self_ratio", "ratio", "lower", "span.self_us / span.op_us", ""),
    # -- core.spawn / policy / strategies / result -----------------------------
    Metric("core.spawn.build_us.null", "us", "lower", "p50 build span, null shape",
           "op_over_floor on direct_seq"),
    Metric("core.spawn.build_us.capture", "us", "lower", "p50 build span, capture shape",
           "op_over_floor on direct_seq"),
    Metric("core.spawn.build_us.env", "us", "lower", "p50 build span, env shape",
           "op_over_floor on direct_seq"),
    Metric("core.spawn.front_us", "us", "lower",
           "p50 ProcessBuilder.spawn() minus p50 direct get_strategy('posix_spawn').launch()",
           "op_over_floor, cpu_over_floor on direct_seq; wire workloads < 2%"),
    Metric("core.policy.ladder_us", "us", "lower",
           "p50 launch span of policy-wrapped null ops minus bare null ops",
           "op_over_floor on direct_seq (1/4 of ops)"),
    Metric("core.strategies.launch_us.posix_spawn", "us", "lower", "p50 direct Strategy.launch",
           "op_over_floor on direct_seq"),
    Metric("core.strategies.launch_us.fork_exec", "us", "lower", "p50 direct Strategy.launch",
           "none (strategy-diet evidence)"),
    Metric("core.strategies.launch_us.subprocess", "us", "lower", "p50 direct Strategy.launch",
           "none (strategy-diet evidence)"),
    Metric("core.result.reap_block_us", "us", "lower",
           "p50 reap span of ops reaped with child.wait()", "op_over_floor"),
    Metric("core.result.reap_timed_us", "us", "lower",
           "p50 reap span of ops reaped with child.wait(timeout=30)",
           "e2e.op_timed_p50_us on every real-OS workload"),
    Metric("core.result.poll_quantum_us", "us", "lower", "reap_timed_us - reap_block_us",
           "e2e.op_timed_p50_us on every real-OS workload, op_over_floor nowhere"),
    # -- core.framecache ---------------------------------------------------------
    Metric("core.framecache.key_ns", "ns", "lower", "frame_key() of the null request, loop",
           "cpu_over_floor on wire_seq (null shape)"),
    Metric("core.framecache.lookup_ns", "ns", "lower", "FrameCache.lookup hit, loop",
           "cpu_over_floor on wire_seq (null shape)"),
    Metric("core.framecache.hit_ratio", "ratio", "higher",
           "hits / (hits + misses) of the shared ForkServer.frame_cache after the run",
           "cpu_over_floor on wire_seq"),
    # -- core.forkserver ---------------------------------------------------------
    Metric("core.forkserver.boot_ms", "ms", "lower", "ForkServer().start() to first ping()",
           "setup_s on wire_seq, pool_conc, gateway_conc"),
    Metric("core.forkserver.ping_us", "us", "lower", "p50 ping() round trip",
           "op_over_floor on wire_seq/template_lease by <= 2 RTT per op; ops_per_floor on "
           "pool_conc"),
    Metric("core.forkserver.ping_p99_us", "us", "lower", "p99 ping() round trip",
           "op tail on wire_seq"),
    Metric("core.forkserver.spawn_us.null", "us", "lower", "p50 ForkServer.spawn, null shape",
           "op_over_floor, cpu_over_floor on wire_seq, pool_conc, gateway_conc"),
    Metric("core.forkserver.spawn_us.capture", "us", "lower",
           "p50 ForkServer.spawn, capture shape", "op_over_floor on wire_seq"),
    Metric("core.forkserver.spawn_us.env", "us", "lower", "p50 ForkServer.spawn, env shape",
           "op_over_floor on wire_seq"),
    Metric("core.forkserver.fork_exec_us", "us", "lower", "spawn_us.null - ping_us",
           "op_over_floor on wire_seq, pool_conc, gateway_conc; not template_lease"),
    Metric("core.forkserver.wait_rtt_us", "us", "lower",
           "p50 wait() on a child that already exited (pure wire reap)",
           "op_over_floor on wire_seq"),
    Metric("core.forkserver.batch8_per_child_us", "us", "lower",
           "p50 ForkServer.spawn_batch of 8, / 8", "ops_per_floor on pool_conc"),
    # -- core.forkserver_pool ------------------------------------------------------
    Metric("core.forkserver_pool.spawn_us", "us", "lower", "p50 ForkServerPool.spawn, null",
           "op_over_floor on pool_conc, gateway_conc"),
    Metric("core.forkserver_pool.dispatch_us", "us", "lower",
           "pool spawn_us - ForkServer.spawn null on a bare helper",
           "ops_per_floor, e2e.op_p90_over_floor on pool_conc, gateway_conc"),
    Metric("core.forkserver_pool.conc_scaling", "ratio", "higher",
           "null-op rate with T callers / with 1 caller", "ops_per_floor on pool_conc"),
    Metric("core.forkserver_pool.respawns", "count", "lower", "ForkServerPool.respawns",
           "must stay 0"),
    Metric("core.forkserver_pool.queue_depth_max", "count", "lower",
           "max ForkServerPool.queue_depth() sampled every 100 ms",
           "e2e.op_p90_over_floor on pool_conc"),
    # -- core.templates ----------------------------------------------------------
    Metric("core.templates.warm_ms", "ms", "lower",
           "TemplateRegistry.register(profile, warm=True) on a fresh registry",
           "setup_s on template_lease"),
    Metric("core.templates.lease_us.exec", "us", "lower",
           "p50 launch span of exec-mode leases (TemplateRegistry.spawn)",
           "op_over_floor on template_lease"),
    Metric("core.templates.lease_us.zygote", "us", "lower",
           "p50 launch span of zygote-mode leases", "op_over_floor on template_lease"),
    Metric("core.templates.park_us", "us", "lower", "p50 TemplateServer.park",
           "e2e.op_p90_over_floor (misses) on template_lease"),
    Metric("core.templates.miss_ratio", "ratio", "lower",
           "template_lease_miss / template_lease counters over the traced phase",
           "e2e.op_p90_over_floor on template_lease"),
    # -- gateway -----------------------------------------------------------------
    Metric("gateway.protocol.encode_ns.small", "ns", "lower", "encode_frame of a null spawn",
           "cpu_over_floor on gateway_conc"),
    Metric("gateway.protocol.encode_ns.4k", "ns", "lower", "encode_frame of a 4 KiB-env spawn",
           "cpu_over_floor on gateway_conc"),
    Metric("gateway.protocol.decode_ns.small", "ns", "lower", "FrameDecoder.feed, small frame",
           "cpu_over_floor on gateway_conc"),
    Metric("gateway.protocol.decode_ns.4k", "ns", "lower", "FrameDecoder.feed, 4 KiB frame",
           "cpu_over_floor on gateway_conc"),
    Metric("gateway.client.connect_ms", "ms", "lower", "GatewayClient.connect() incl. hello",
           "setup_s on gateway_conc"),
    Metric("gateway.client.ping_us", "us", "lower", "p50 GatewayClient.ping()",
           "op_over_floor on gateway_conc"),
    Metric("gateway.client.ping_p99_us", "us", "lower", "p99 GatewayClient.ping()",
           "op tail on gateway_conc"),
    Metric("gateway.client.spawn_us.null", "us", "lower", "p50 GatewayClient.spawn, null",
           "op_over_floor, ops_per_floor on gateway_conc"),
    Metric("gateway.client.spawn_us.capture", "us", "lower", "p50 GatewayClient.spawn, capture",
           "op_over_floor on gateway_conc"),
    Metric("gateway.client.wait_rtt_us", "us", "lower",
           "p50 wait() on a child that already exited", "op_over_floor on gateway_conc"),
    Metric("gateway.tax_us", "us", "lower",
           "gateway.client.spawn_us.null - core.forkserver_pool.spawn_us (same process)",
           "gateway_conc op_over_floor - pool_conc op_over_floor"),
    Metric("gateway.server.shed", "count", "lower", "shed_total from client.stats()",
           "failed ops on gateway_conc; must stay 0"),
    Metric("gateway.server.queued_max", "count", "lower",
           "max per-tenant queued, sampled every second",
           "e2e.op_p90_over_floor on gateway_conc"),
    Metric("gateway.server.inflight_max", "count", "lower",
           "max daemon inflight, sampled every second",
           "e2e.op_p90_over_floor on gateway_conc"),
    # -- sim ---------------------------------------------------------------------
    Metric("sim.virtual_us_per_op", "us", "lower",
           "mean virtual us per creation over the first 1000 ops of the seeded sequence; "
           "repeats bit-for-bit, so it is a count, not a gated time",
           "must stay exact across commits"),
    Metric("sim.host_children", "count", "lower",
           "host children the sim workload reaped (RUSAGE_CHILDREN)", "must stay 0"),
] + [
    Metric(f"sim.kernel.host_us_per_call.{call}", "us", "lower",
           f"host p50 around Kernel.timed_call('{call}') on the 64 MiB machine",
           "op_over_floor, ops_per_floor on sim_creation; never sim.virtual_us_per_op")
    for call in ("fork", "vfork", "spawn", "xproc_create", "xproc_start", "mmap", "populate",
                 "exit")
] + [
    Metric(f"sim.kernel.fork_host_us.{ballast}", "us", "lower",
           f"host p50 of the launch span of fork ops on the {ballast} machine",
           "op_over_floor on sim_creation")
    for ballast in _SIM_BALLAST
] + [
    Metric("sim.kernel.steps_per_s", "1/s", "higher",
           "scheduler steps / host second of Kernel.run on a fork+wait loop program",
           "ops_per_floor on sim_creation"),
] + [
    Metric(f"sim.kernel.virtual_ns.{mech}.{ballast}", "ns", "lower",
           "virtual ns of one steady-state creation (value returned by timed_call)",
           "sim.virtual_us_per_op; host metrics never")
    for mech in _SIM_MECHS for ballast in _SIM_BALLAST
] + [
    Metric("core.xproc.launch_us", "us", "lower",
           "host p50 of ProcessBuilder('/bin/true').strategy('xproc').spawn()",
           "op_over_floor on sim_creation (1/10 of ops)"),
    Metric("core.xproc.launch_fresh_us", "us", "lower",
           "host p50 of launches 1-200 on a freshly booted strategy machine",
           "op_over_floor on sim_creation"),
    Metric("core.xproc.launch_aged_us", "us", "lower",
           "host p50 of launches 1301-1500 on the same machine: a Kernel's process table "
           "never shrinks and XProcStrategy scans all of it per launch",
           "a long-lived xproc user; sim_creation recycles its machines every 4000 ops"),
    Metric("core.xproc.virtual_ns", "ns", "lower",
           "virtual ns the strategy's machine advanced for one launch", "none (must stay exact)"),
    # -- obs ---------------------------------------------------------------------
    Metric("obs.traced_ratio", "ratio", "lower",
           "blocking op p50 with TELEMETRY + spans on / p50 of the untraced reference phase of "
           "the same process", "roadmap guard: <= 1.05 disabled; this is the enabled cost"),
] + [
    Metric(f"obs.stage_us.{pair}", "us", "lower",
           "p50 gap between consecutive SpawnTrace stamps read from a RingBufferSink",
           "cross-check of the harness spans")
    for pair in ("build-dispatch", "dispatch-framed", "framed-forked", "forked-reaped",
                 "dispatch-execed", "execed-reaped", "dispatch-forked")
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]
