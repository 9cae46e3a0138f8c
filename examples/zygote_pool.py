#!/usr/bin/env python3
"""The zygote pattern: why big processes should not fork themselves.

This example builds the situation the paper's Figure 1 describes — a
parent holding hundreds of megabytes of dirty heap that needs to launch
many short-lived helpers — and shows four ways out, timing each:

* ``fork+exec`` directly from the big parent (pays for the heap every
  time),
* ``posix_spawn`` from the big parent (constant),
* a :class:`~repro.core.ForkServer` started *before* the heap grew
  (constant: the pristine helper forks, not us),
* a :class:`~repro.core.TemplateRegistry` lease (constant, and one step
  further: the children are *pre-forked and parked* before the ballast
  exists, so running a payload is a checkout, not a fork at all — the
  no-op payload here stands in for work that wants a warm interpreter;
  a lease of ``/bin/true`` itself would be a ``posix_spawn`` in the
  template's helper, the same price as the forkserver row).

Run with ``python examples/zygote_pool.py``; it allocates 256 MiB.
"""

import os

from repro.bench.ballast import Ballast
from repro.bench.stats import format_ns
from repro.bench.timing import measure
from repro.core import (AutoscaleConfig, ForkServer, TemplateProfile,
                        TemplateRegistry)

BALLAST_BYTES = 256 << 20
JOBS = 12


def fork_exec_once() -> None:
    pid = os.fork()
    if pid == 0:
        try:
            os.execv("/bin/true", ["true"])
        except BaseException:
            os._exit(127)
    os.waitpid(pid, 0)


def posix_spawn_once() -> None:
    pid = os.posix_spawn("/bin/true", ["true"], {})
    os.waitpid(pid, 0)


def main() -> None:
    # Start the zygote while this process is still small — that is the
    # entire trick, and why Android starts its zygote at boot.
    server = ForkServer().start()

    # The template registry goes one further: its helper pre-forks a
    # parked stock of children NOW, so later payloads just lease one;
    # each lease wakes the restock thread to park its replacement.
    registry = TemplateRegistry(autoscale=AutoscaleConfig(
        idle_ttl=5.0, step=2))
    registry.register(TemplateProfile("warm", stock=4, max_stock=32))

    def forkserver_once() -> None:
        server.spawn(["/bin/true"]).wait(timeout=30)

    def template_once() -> None:
        registry.spawn("warm", code="pass").wait(timeout=30)

    print(f"growing the parent by {BALLAST_BYTES >> 20} MiB of dirty heap...")
    with Ballast(BALLAST_BYTES):
        results = {
            "fork+exec (big parent)": measure(fork_exec_once,
                                              repeats=JOBS, warmup=2),
            "posix_spawn": measure(posix_spawn_once, repeats=JOBS,
                                   warmup=2),
            "forkserver (zygote)": measure(forkserver_once, repeats=JOBS,
                                           warmup=2),
            "template lease (parked)": measure(template_once, repeats=JOBS,
                                               warmup=2),
        }
    registry.close()
    server.stop()

    print(f"\nlaunching /bin/true x{JOBS}, parent holding "
          f"{BALLAST_BYTES >> 20} MiB dirty:")
    baseline = results["fork+exec (big parent)"].median
    for name, summary in results.items():
        ratio = baseline / summary.median
        print(f"  {name:26s} median {format_ns(summary.median):>10s}"
              f"   ({ratio:4.1f}x vs fork+exec)")
    print("\nthe fork line is the only one that grows with the parent —"
          "\nre-run with a larger Ballast to watch the gap widen.")


if __name__ == "__main__":
    main()
