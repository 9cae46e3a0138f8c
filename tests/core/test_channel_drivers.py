"""Who reads a helper's wire: the caller that waits, and nobody else.

A spawn's reply and its child's exit notice are routed by the thread
that asked for them.  A reader thread runs only for a callback nobody
waits for, and a change of driver — to a loop, to such a reader — wakes
the caller leading, so it never sleeps in ``poll`` past its own frame.
"""

import asyncio
import collections
import os
import select
import signal
import sys
import threading
import time

import pytest

from repro import wire
from repro.core import (ForkServer, ForkServerPool, TemplateProfile,
                        TemplateServer)
from repro.core.strategies import get_strategy
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)

SPAWNS = 300


def readers():
    return [thread for thread in threading.enumerate()
            if thread.name.endswith("-reader")]


def flat(launch_and_wait):
    """Run ``launch_and_wait`` SPAWNS times; whether no thread was ever
    started meanwhile, and no reader ran."""
    before = threading.active_count()
    peak = before
    for _ in range(SPAWNS):
        launch_and_wait()
        peak = max(peak, threading.active_count())
        assert not readers()
    return peak == before == threading.active_count()


class TestASpawnCrossesNoThread:
    def test_forkserver(self):
        with ForkServer() as server:
            assert flat(lambda: server.spawn(["/bin/true"]).wait(timeout=10) == 0)
            assert server._channel.reader is None

    def test_forkserver_pool(self):
        with ForkServerPool(4, prestart=4) as pool:
            assert flat(lambda: pool.spawn(["/bin/true"]).wait(timeout=10) == 0)

    def test_template_leases(self):
        server = TemplateServer(TemplateProfile("drivers", stock=1)).start()
        try:
            def lease():
                program = server.lease(["/bin/true"])
                payload = server.lease(code="raise SystemExit(0)")
                server.park()  # the stock the payload took
                assert program.wait(timeout=10) == payload.wait(timeout=10) == 0
            assert flat(lease)
        finally:
            server.stop()


class Loop:
    """An asyncio loop on a thread of its own."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()

    def run(self, fn, *args):
        done, out = threading.Event(), []
        self.loop.call_soon_threadsafe(
            lambda: (out.append(fn(*args)), done.set()))
        assert done.wait(5)
        return out[0]

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        self.loop.close()


class HeldPolls:
    """Stands in for ``select`` in :mod:`repro.wire`: once ``armed``, the
    first ``poll`` of a poller it made waits for ``go`` before it polls
    for real."""

    POLLIN = select.POLLIN

    def __init__(self):
        self.armed = False
        self.in_gap, self.go = threading.Event(), threading.Event()

    def poll(self):
        real, held = select.poll(), self

        class Poller:
            def register(self, fd, events):
                real.register(fd, events)

            def poll(self, timeout):
                if held.armed and not held.in_gap.is_set():
                    held.in_gap.set()
                    held.go.wait(5)
                return real.poll(timeout)

        return Poller()


@pytest.mark.parametrize("to", ["loop", "reader"])
def test_a_leading_waiter_is_woken_by_a_change_of_driver(to, monkeypatch):
    """A caller blocked in ``wait_exit`` leads: it is held between its
    check and its ``poll`` while the channel is handed to a loop, or a
    callback starts a reader, and the new driver routes the exit
    notice.  Let into ``poll`` with nothing left to read, the caller
    still gets its status at once, not never."""
    held = HeldPolls()
    monkeypatch.setattr(wire, "select", held)
    server = ForkServer().start()
    loop = Loop() if to == "loop" else None
    long = server.spawn(["/bin/sleep", "30"])
    try:
        child = server.spawn(["/bin/sh", "-c", "sleep 0.2; exit 7"])
        got = []
        waiter = threading.Thread(target=lambda: got.append(child.wait()),
                                  daemon=True)
        held.armed = True
        waiter.start()
        assert held.in_gap.wait(5)
        channel = server._channel
        if to == "loop":
            assert loop.run(channel.hand_over, loop.loop)
        else:
            long.on_exit(lambda handle: None)  # nobody waits: a reader
            assert channel.reader is not None
        deadline = time.monotonic() + 5
        while channel.exits[child.pid].status is None:  # the new driver
            assert time.monotonic() < deadline
            time.sleep(0.005)
        held.go.set()
        waiter.join(1.0)
        assert got == [7]
    finally:
        held.go.set()
        os.kill(long.pid, signal.SIGKILL)
        long.wait(timeout=10)
        if loop is not None:
            loop.run(server._channel.hand_over, None)
            loop.close()
        server.stop()


@pytest.mark.parametrize("to", ["loop", "reader"])
def test_the_wire_needs_no_eventfd(to, monkeypatch):
    """Python 3.9, which the package supports, has no ``os.eventfd``:
    a forkserver spawn and its wait, and a leader woken by a change of
    driver, work without it."""
    for name in ("eventfd", "eventfd_read", "eventfd_write",
                 "EFD_CLOEXEC", "EFD_NONBLOCK"):
        monkeypatch.delattr(os, name, raising=False)
    with ForkServer() as server:
        assert server.spawn(["/bin/sh", "-c", "exit 3"]).wait(timeout=10) == 3
    test_a_leading_waiter_is_woken_by_a_change_of_driver(to, monkeypatch)


def test_callers_and_callbacks_race_without_a_lost_wakeup():
    """More callers than cores on one helper, every third child watched
    too: leaders hand the lead on, readers start for the callbacks and
    hand the channel back, the interpreter switches threads every few
    bytecodes — and no status or callback is lost or doubled."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    server = ForkServer().start()
    fired, lock = collections.Counter(), threading.Lock()
    statuses = []

    def told(handle):
        with lock:
            fired[handle.pid] += 1

    def caller():
        for n in range(25):
            child = server.spawn(["/bin/sh", "-c", f"exit {n % 7}"])
            if n % 3 == 0:
                child.on_exit(told)
            statuses.append((child.wait(timeout=30), n % 7))

    try:
        threads = [threading.Thread(target=caller, daemon=True)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(statuses) == 8 * 25
        assert all(got == want for got, want in statuses)
        deadline = time.monotonic() + 5
        while sum(fired.values()) < 8 * 9 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(fired.values()) == 8 * 9 and set(fired.values()) == {1}
        assert server._channel._callbacks == 0
        # No callback is left: a reader notices as it routes its next
        # frame, and the callers read again.
        assert server.spawn(["/bin/true"]).wait(timeout=10) == 0
        assert server._channel.reader is None
    finally:
        sys.setswitchinterval(interval)
        server.stop()


def test_a_gateway_tenant_on_a_cold_pool_completes(tmp_path):
    """The shared pool starts cold, so a daemon's first launches boot
    helpers on executor threads, whose channels no loop drives: each
    exit is still pushed, by a reader its subscription started, until
    the loop takes the helper over."""
    shared = get_strategy("forkserver-pool")
    shared.shutdown()
    server = GatewayServer(GatewayConfig(
        unix_path=str(tmp_path / "gw.sock"),
        tenants={"t": TenantConfig(name="t", token="tok",
                                   strategy="forkserver-pool")})).start()
    try:
        with GatewayClient(server.unix_path, tenant="t",
                           token="tok") as client:
            done = 0
            while done < 50:  # rounds of five: cold slots boot meanwhile
                children = [client.spawn(["/bin/true"]) for _ in range(5)]
                assert [child.wait(timeout=10) for child in children] == [0] * 5
                done += len(children)
    finally:
        server.stop()
        shared.shutdown()
