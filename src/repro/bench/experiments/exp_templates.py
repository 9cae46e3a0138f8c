"""T7 — template zygotes + snapshot spawn: provisioned concurrency.

The paper's fork tax is proportional to the *parent*: page tables,
descriptor entries, the write-protect sweep.  The forkserver dodges it
by keeping the forking parent pristine; this experiment measures the
next step — keeping the children themselves *pre-made*.  Three sections:

* **latency** (real OS) — the Figure-1 ballast sweep with a fourth
  mechanism: leasing ``/bin/true`` from a
  :class:`~repro.core.templates.TemplateRegistry`, i.e. a
  ``posix_spawn`` in a small specialized helper.  fork+exec climbs
  with the ballast; posix_spawn, the forkserver and the template lease
  must all stay flat.
* **sim** (modelled) — ``AddressSpace.snapshot()`` +
  the ``spawn_from_snapshot`` syscall: checkpoint a warm process once,
  then materialise children from the frozen image while the live
  parent balloons.  fork's cost tracks the parent; snapshot-restore
  tracks the (fixed) image.
* **throughput** (real OS) — the provisioned-concurrency payoff: a
  preload-heavy worker (``import json, logging, ssl, ...``) served at
  offered concurrency by the generic forkserver pool (fresh
  interpreter + imports per child) versus a specialised template
  (imports paid once, children parked in advance).  This row carries
  ``concurrency`` and is the one the CI baseline gates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...sim.kernel import Kernel
from ...sim.params import MIB, SimConfig
from ..render import render_table
from ..stats import format_ns
from ..workloads import TemplateWorkloads, Workloads
from .base import ExperimentResult, register

#: Real-OS latency sweep: mechanisms measured at each ballast size.
LATENCY_MECHANISMS = ("fork_exec", "posix_spawn", "forkserver", "template")


def _latency_rows(ballast_sizes: Sequence[int], repeats: int) -> list:
    rows = []
    with Workloads() as workloads:
        for sweep_row in workloads.sweep(list(ballast_sizes),
                                         list(LATENCY_MECHANISMS),
                                         repeats=repeats):
            row = {"section": "latency",
                   "ballast_mib": sweep_row["ballast_bytes"] // MIB}
            for name, summary in sweep_row["results"].items():
                row[f"{name}_ns"] = summary.median
            rows.append(row)
    return rows


#: Warm-image size for the simulated sweep: the snapshot is always taken
#: at this heap size, then the live parent grows to ``heap_mib`` — so a
#: restore walks the same fixed image at every point of the sweep while
#: fork's page-table walk tracks the ballooning parent.
SIM_IMAGE_MIB = 8


def _sim_row(heap_mib: int) -> dict:
    """Time fork vs spawn vs snapshot-restore at one parent heap size."""
    kernel = Kernel(SimConfig(total_ram=max(1024, heap_mib * 8) * MIB))
    kernel.register_program("/bin/true", lambda sys: iter(()))
    timings = {}
    growth = max(heap_mib - SIM_IMAGE_MIB, 0)

    def main(sys):
        addr = yield sys.mmap(SIM_IMAGE_MIB * MIB)
        yield sys.populate(addr, SIM_IMAGE_MIB * MIB)
        handle = yield sys.snapshot()
        if growth:
            extra = yield sys.mmap(growth * MIB)
            yield sys.populate(extra, growth * MIB)

        start = yield sys.clock()
        pid = yield sys.fork(lambda s: iter(()))
        timings["fork_ns"] = (yield sys.clock()) - start
        yield sys.waitpid(pid)

        start = yield sys.clock()
        pid = yield sys.spawn("/bin/true")
        timings["spawn_ns"] = (yield sys.clock()) - start
        yield sys.waitpid(pid)

        start = yield sys.clock()
        pid = yield sys.spawn_from_snapshot(handle, lambda s: iter(()))
        timings["snapshot_restore_ns"] = (yield sys.clock()) - start
        yield sys.waitpid(pid)
        yield sys.exit(0)

    kernel.register_program("/sbin/init", main)
    kernel.run_program("/sbin/init")
    return {"section": "sim", "heap_mib": heap_mib, **timings}


def _throughput_row(concurrency: int, requests_per_thread: int,
                    modules: Optional[Sequence[str]]) -> dict:
    with TemplateWorkloads(modules) as service:
        service.warm()
        results = {
            name: service.measure(name, concurrency=concurrency,
                                  requests_per_thread=requests_per_thread)
            for name in service.MECHANISMS}
    pool = results["forkserver-pool"]
    lease = results["template-lease"]
    return {
        "section": "throughput", "concurrency": concurrency,
        "forkserver-pool_per_sec": pool.per_second,
        "template-lease_per_sec": lease.per_second,
        "forkserver-pool_p95_ns": pool.latency.p95,
        "template-lease_p95_ns": lease.latency.p95,
        "errors": pool.errors + lease.errors,
        "speedup": lease.per_second / max(pool.per_second, 1e-9),
    }


@register("t7-templates",
          "Template zygotes + snapshot spawn: provisioned concurrency",
          "§4-5 warm spawn",
          quick_kwargs={"ballast_sizes": (0, 64 * MIB),
                        "repeats": 6, "heap_sizes_mib": (16, 64),
                        "requests_per_thread": 4})
def run_t7_templates(ballast_sizes: Sequence[int] = (0, 64 * MIB,
                                                     256 * MIB),
                     repeats: int = 12,
                     heap_sizes_mib: Sequence[int] = (16, 64, 256),
                     concurrency: int = 8,
                     requests_per_thread: int = 8,
                     modules: Optional[Sequence[str]] = None
                     ) -> ExperimentResult:
    """Latency, modelled cost and throughput of provisioned spawning.

    ``ballast_sizes`` drives the real-OS latency sweep (bytes),
    ``heap_sizes_mib`` the simulated snapshot sweep, and
    ``concurrency``/``requests_per_thread`` the preload-heavy
    throughput comparison whose row the CI baseline gates.
    """
    rows = _latency_rows(ballast_sizes, repeats)
    rows += [_sim_row(h) for h in heap_sizes_mib]
    rows.append(_throughput_row(concurrency, requests_per_thread, modules))

    latency = [r for r in rows if r["section"] == "latency"]
    sim = [r for r in rows if r["section"] == "sim"]
    throughput = rows[-1]
    tables = [
        render_table(
            ["ballast", *LATENCY_MECHANISMS],
            [[f"{row['ballast_mib']} MiB",
              *(format_ns(row[f"{name}_ns"])
                for name in LATENCY_MECHANISMS)]
             for row in latency],
            title="T7a: creation latency (median) vs parent ballast"),
        render_table(
            ["parent heap", "fork", "spawn", "snapshot-restore"],
            [[f"{row['heap_mib']} MiB", format_ns(row["fork_ns"]),
              format_ns(row["spawn_ns"]),
              format_ns(row["snapshot_restore_ns"])]
             for row in sim],
            title=f"T7b: simulated creation cost vs live parent heap "
                  f"(snapshot image fixed at {SIM_IMAGE_MIB} MiB)"),
        render_table(
            ["mechanism", "spawns/sec", "p95", "speedup"],
            [["forkserver-pool",
              f"{throughput['forkserver-pool_per_sec']:.0f}/s",
              format_ns(throughput["forkserver-pool_p95_ns"]), "1.0x"],
             ["template-lease",
              f"{throughput['template-lease_per_sec']:.0f}/s",
              format_ns(throughput["template-lease_p95_ns"]),
              f"{throughput['speedup']:.1f}x"]],
            title=f"T7c: preload-heavy worker throughput at offered "
                  f"concurrency {throughput['concurrency']}"),
    ]
    return ExperimentResult(
        "t7-templates",
        "Template zygotes + snapshot spawn", rows,
        "\n\n".join(tables), _notes(latency, sim, throughput))


def _notes(latency, sim, throughput) -> str:
    biggest = latency[-1]
    smallest = latency[0]
    fork_growth = (biggest["fork_exec_ns"]
                   / max(smallest["fork_exec_ns"], 1e-9))
    lease_growth = (biggest["template_ns"]
                    / max(smallest["template_ns"], 1e-9))
    restore_growth = (sim[-1]["snapshot_restore_ns"]
                      / max(sim[0]["snapshot_restore_ns"], 1e-9))
    return (f"from {smallest['ballast_mib']} to {biggest['ballast_mib']} "
            f"MiB of ballast, fork+exec slowed {fork_growth:.1f}x while "
            f"the template lease moved {lease_growth:.1f}x "
            f"(flat, like posix_spawn — which is what the specialized "
            f"helper runs for it). in the model, a snapshot restore "
            f"costs the same at every parent size "
            f"({restore_growth:.1f}x across the sweep) because it walks "
            f"the frozen image, never the live parent. at concurrency "
            f"{throughput['concurrency']} the specialised template "
            f"served the preload-heavy worker at "
            f"{throughput['speedup']:.1f}x the generic pool's "
            f"throughput — provisioned concurrency is the fork tax "
            f"paid once, in advance, by somebody else.")
