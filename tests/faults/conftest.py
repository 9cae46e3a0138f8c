"""Chaos-suite hygiene: no hangs, no fd leaks, no orphaned children.

Every test in this directory runs under an autouse fixture that

* arms a local watchdog (``faulthandler.dump_traceback_later``) so a
  hung test kills the process with a traceback instead of wedging the
  whole run — CI layers ``pytest-timeout`` on top, but the suite must
  also be safe to run locally where that plugin is not installed;
* snapshots ``/proc/self/fd`` and the set of live child processes
  before the test, and asserts both are back to baseline after it —
  with a short drain window, because reader threads and helper
  processes shut down asynchronously;
* deactivates any leftover fault plan, shuts down the shared
  forkserver strategy singletons, and resets the shared circuit
  breakers, so no chaos leaks across tests (or into other suites).
"""

import faulthandler
import os
import time

import pytest

from repro.core import reset_breakers
from repro.core.strategies import _REGISTRY
from repro.faults import FAULTS

#: Seconds a single chaos test may run before the watchdog shoots it.
WATCHDOG_SECONDS = 90

#: Seconds to wait for fds/children to drain before calling them leaked.
DRAIN_SECONDS = 5.0


def open_fds():
    """The process's open descriptor numbers, via /proc."""
    return set(os.listdir("/proc/self/fd"))


def live_children():
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("latin-1")
        except OSError:
            continue  # raced with an exit
        # comm (field 2) may contain spaces; fields after the last ')'
        # are state, ppid, ...
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) >= 2 and int(fields[1]) == me:
            children.add(int(entry))
    return children


def _settle(snapshot, probe, deadline):
    """Wait until ``probe()`` has no extras over ``snapshot``."""
    while True:
        extras = probe() - snapshot
        if not extras or time.monotonic() >= deadline:
            return extras
        time.sleep(0.02)


@pytest.fixture(autouse=True)
def chaos_hygiene():
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    fds_before = open_fds()
    children_before = live_children()
    try:
        yield
    finally:
        FAULTS.deactivate()
        for name in ("gateway", "forkserver-pool", "forkserver"):
            _REGISTRY[name].shutdown()
        reset_breakers()
        faulthandler.cancel_dump_traceback_later()
    deadline = time.monotonic() + DRAIN_SECONDS
    leaked = _settle(fds_before, open_fds, deadline)
    assert not leaked, f"test leaked file descriptors: {sorted(leaked)}"
    orphans = _settle(children_before, live_children, deadline)
    assert not orphans, f"test leaked child processes: {sorted(orphans)}"
