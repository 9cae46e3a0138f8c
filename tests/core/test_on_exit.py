"""``ChildProcess.on_exit``: told of the exit once, by nobody's thread.

The primitive the gateway pushes exit notices from.  Forkserver-family
handles are called back by whoever routes the helper's notice (or its
death); our own children hand back a pidfd to watch.  Either way the
callback fires exactly once, at once if there is nothing to wait for,
and nothing ever parks a thread on the child.
"""

import os
import select
import signal
import threading
import time

import pytest

from repro.core import ForkServer, ForkServerPool, ProcessBuilder
from repro.errors import SpawnError
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)


class Fired:
    """A callback that counts its calls and remembers its thread."""

    def __init__(self):
        self.calls = []
        self.event = threading.Event()

    def __call__(self, child):
        self.calls.append((child, threading.current_thread()))
        self.event.set()


@pytest.fixture
def server():
    fs = ForkServer().start()
    yield fs
    fs.stop()


def own_child(*argv):
    return ProcessBuilder(*argv).strategy("posix_spawn").spawn()


def until(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class TestForkserverHandles:
    def test_already_exited_fires_at_once_on_the_calling_thread(
            self, server):
        child = server.spawn(["/bin/sh", "-c", "exit 3"])
        channel = server._channel  # its callers read it: this one pumps
        assert until(lambda: channel.pump() is not None
                     and channel.exits[child.pid].status is not None)
        fired = Fired()
        assert child.on_exit(fired) is None
        assert fired.calls == [(child, threading.current_thread())]
        assert child.poll() == 3

    def test_exits_later_fires_from_the_reader_thread(self, server):
        child = server.spawn(["/bin/sh", "-c", "sleep 0.2; exit 4"])
        assert server._channel.reader is None  # its callers read it
        fired = Fired()
        assert child.on_exit(fired) is None
        reader = server._channel.reader
        assert reader is not None and reader.name == "forkserver-reader"
        assert not fired.calls  # still running: nothing yet
        assert fired.event.wait(5.0)
        assert len(fired.calls) == 1 and fired.calls[0][1] is reader
        # No callback is left: the reader hands the channel back.
        reader.join(5.0)
        assert not reader.is_alive() and server._channel.reader is None
        assert child.poll() == 4  # the status is there to be had

    def test_fires_once_however_often_it_is_reaped(self, server):
        child = server.spawn(["/bin/sh", "-c", "sleep 0.1; exit 5"])
        fired = Fired()
        child.on_exit(fired)
        assert child.wait(timeout=5) == 5
        assert child.wait(timeout=5) == 5 and child.poll() == 5
        assert fired.event.wait(5.0)
        time.sleep(0.05)
        assert len(fired.calls) == 1
        # A finished handle calls a late subscriber straight back.
        late = Fired()
        child.on_exit(late)
        assert len(late.calls) == 1

    def test_a_second_subscription_is_refused(self, server):
        child = server.spawn(["/bin/sleep", "0.2"])
        child.on_exit(Fired())
        with pytest.raises(SpawnError, match="already has an on_exit"):
            child.on_exit(Fired())
        assert child.wait(timeout=5) == 0

    def test_helper_death_fires_and_poll_says_why(self, server):
        child = server.spawn(["/bin/sleep", "30"])
        try:
            fired = Fired()
            child.on_exit(fired)
            os.kill(server.helper_pid, signal.SIGKILL)
            assert fired.event.wait(5.0)
            assert len(fired.calls) == 1
            with pytest.raises(SpawnError, match="dead"):
                child.poll()
        finally:
            os.kill(child.pid, signal.SIGKILL)  # nobody's child now

    def test_stop_fires_what_is_still_waiting(self):
        fs = ForkServer().start()
        child = fs.spawn(["/bin/sleep", "0.3"])
        fired = Fired()
        child.on_exit(fired)
        fs.stop()
        assert fired.event.wait(5.0) and len(fired.calls) == 1

    def test_pool_handles_release_their_load_unit(self):
        with ForkServerPool(workers=1) as pool:
            child = pool.spawn(["/bin/sh", "-c", "sleep 0.1; exit 6"])
            fired = Fired()
            assert child.on_exit(fired) is None
            assert fired.event.wait(5.0)
            assert child.poll() == 6
            assert pool.queue_depth() == 0  # poll() gave the unit back
            assert len(fired.calls) == 1


class TestOwnChildren:
    def test_pidfd_reads_when_the_child_is_a_zombie(self):
        child = own_child("/bin/sh", "-c", "sleep 0.2; exit 7")
        fired = Fired()
        fd = child.on_exit(fired)
        try:
            assert fd is not None
            assert not select.select([fd], [], [], 0)[0]  # still running
            assert select.select([fd], [], [], 5.0)[0]
            assert not fired.calls  # nobody has reaped it yet
            assert child.poll() == 7
            assert fired.calls == [(child, threading.current_thread())]
            assert child.wait() == 7 and len(fired.calls) == 1
        finally:
            os.close(fd)

    def test_a_zombie_fires_at_once_and_needs_no_fd(self):
        child = own_child("/bin/true")
        pidfd = os.pidfd_open(child.pid)
        try:
            assert select.select([pidfd], [], [], 5.0)[0]
        finally:
            os.close(pidfd)
        fired = Fired()
        assert child.on_exit(fired) is None
        assert len(fired.calls) == 1 and child.returncode == 0

    def test_already_reaped_fires_at_once(self):
        child = own_child("/bin/true")
        assert child.wait() == 0
        fired = Fired()
        assert child.on_exit(fired) is None
        assert len(fired.calls) == 1

    def test_a_blocking_wait_elsewhere_fires_it(self):
        child = own_child("/bin/sleep", "0.1")
        fired = Fired()
        fd = child.on_exit(fired)
        try:
            with pytest.raises(SpawnError, match="already has an on_exit"):
                child.on_exit(Fired())
            assert child.wait(timeout=5) == 0
            assert len(fired.calls) == 1
        finally:
            os.close(fd)

    def test_sim_children_replay_their_status(self):
        child = ProcessBuilder("/bin/true").strategy("xproc").spawn()
        fired = Fired()
        assert child.on_exit(fired) is None
        assert len(fired.calls) == 1 and child.returncode == 0


class TestGatewayHandles:
    def test_the_daemons_child_is_refused_not_handed_a_pidfd(self, tmp_path):
        """A gateway child is the daemon's, and its exit notice is read
        only when some caller pumps the client: ``on_exit`` says "poll()
        it instead" rather than return a pidfd for a pid the caller does
        not own."""
        server = GatewayServer(GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            tenants={"t": TenantConfig(name="t", token="tok",
                                       strategy="posix_spawn")})).start()
        try:
            with GatewayClient(server.unix_path, tenant="t",
                               token="tok") as client:
                child = client.spawn(["/bin/sleep", "0.3"])
                fired = Fired()
                with pytest.raises(SpawnError, match=r"poll\(\) it instead"):
                    child.on_exit(fired)
                assert child.wait(timeout=10) == 0
                assert fired.calls == []
                child.on_exit(fired)  # a known status still fires at once
                assert len(fired.calls) == 1
        finally:
            server.stop()
