"""Tests for the multi-worker forkserver pool and its launch strategy."""

import os
import signal
import threading
import time

import pytest

from repro.core import ForkServerPool, ProcessBuilder, SpawnRequest
from repro.core.strategies import get_strategy
from repro.errors import SpawnError


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def pool():
    with ForkServerPool(4) as p:
        yield p


@pytest.fixture(autouse=True)
def _shared_strategy_pool_teardown():
    yield
    get_strategy("forkserver-pool").shutdown()


class TestLifecycle:
    def test_start_is_lazy(self, pool):
        # Only the prestart helper boots up front; the rest wait for load.
        assert pool.size == 4
        assert pool.started_workers == 1

    def test_prestart_all(self):
        with ForkServerPool(3, prestart=3) as p:
            assert p.started_workers == 3
            assert len(p.helper_pids()) == 3

    def test_stop_is_idempotent(self):
        p = ForkServerPool(2).start()
        p.stop()
        p.stop()
        assert p.closed

    def test_closed_pool_refuses(self):
        p = ForkServerPool(2).start()
        p.stop()
        with pytest.raises(SpawnError):
            p.spawn(["/bin/true"])

    def test_at_least_one_worker_required(self):
        with pytest.raises(SpawnError):
            ForkServerPool(0)


class TestSpawning:
    def test_exit_status_roundtrip(self, pool):
        child = pool.spawn(["/bin/sh", "-c", "exit 9"])
        assert child.wait(timeout=10) == 9
        assert child.strategy == "forkserver-pool"

    def test_empty_argv_rejected(self, pool):
        with pytest.raises(SpawnError):
            pool.spawn([])

    def test_stdout_via_fd_passing(self, pool):
        r, w = os.pipe()
        child = pool.spawn(["/bin/echo", "pooled"], stdout=w)
        os.close(w)
        assert os.read(r, 100) == b"pooled\n"
        os.close(r)
        assert child.wait(timeout=10) == 0

    def test_pool_grows_under_load(self, pool):
        children = [pool.spawn(["/bin/sleep", "0.2"]) for _ in range(4)]
        grown = pool.started_workers
        assert all(child.wait() == 0 for child in children)
        assert grown > 1  # concurrent load booted extra helpers


class TestStress:
    def test_concurrent_clients_no_fd_leak(self):
        with ForkServerPool(4, prestart=4) as p:
            # Warm everything (helpers, sockets) before the baseline
            # descriptor count, then hammer.
            assert p.spawn(["/bin/true"]).wait(timeout=10) == 0
            before = open_fd_count()
            statuses = []
            lock = threading.Lock()

            def client():
                for _ in range(10):
                    status = p.spawn(["/bin/sleep", "0.005"]).wait(timeout=30)
                    with lock:
                        statuses.append(status)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses == [0] * 80
            assert open_fd_count() <= before  # nothing leaked


class TestRecovery:
    def test_killed_worker_is_replaced(self):
        with ForkServerPool(2, prestart=2) as p:
            assert p.spawn(["/bin/true"]).wait(timeout=10) == 0
            victim = p.helper_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.05)
            # Every subsequent spawn must land on a live worker (the dead
            # one is retired on first contact and later replaced).
            for _ in range(6):
                assert p.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert p.respawns >= 1
            assert victim not in p.helper_pids()

    def test_steps_closed_at_a_yield_leave_nothing_charged(self):
        """A daemon that stops under a launch closes its steps.  Closed
        where the pick's work waits — a retired helper to abort, a
        reserved cold slot to boot — they still abort the one and give
        back the other."""
        with ForkServerPool(1) as p:
            (victim,) = p.helper_pids()
            os.kill(victim, signal.SIGKILL)
            # Nobody reads an idle helper's wire: its next contact finds
            # it dead.
            assert not p._slots[0].server.ping()
            assert not p._slots[0].server.healthy
            for _ in range(2):  # retired and reserved, then reserved
                steps = p._unit_steps([SpawnRequest(["/bin/true"])], None,
                                      None)
                assert next(steps) is None
                steps.close()
                assert p.queue_depth() == 0 and p.helper_pids() == []
            assert p.respawns == 1
            with pytest.raises(ChildProcessError):
                os.waitpid(victim, os.WNOHANG)     # aborted and reaped
            assert p.spawn(["/bin/true"]).wait(timeout=10) == 0


class TestStrategy:
    def test_builder_through_pool_strategy(self):
        builder = (ProcessBuilder("/bin/sh", "-c", "echo via-pool")
                   .strategy("forkserver-pool")
                   .stdout_to_pipe())
        child = builder.spawn()
        assert builder.io.read_stdout().strip() == b"via-pool"
        assert child.wait(timeout=10) == 0

    def test_env_and_cwd(self, tmp_path):
        builder = (ProcessBuilder("/bin/sh", "-c", "echo $MARK; pwd")
                   .strategy("forkserver-pool")
                   .env_add(MARK="pooled-env")
                   .cwd(str(tmp_path))
                   .stdout_to_pipe())
        builder.spawn().wait(timeout=10)
        lines = builder.io.read_stdout().split()
        assert lines == [b"pooled-env", str(tmp_path).encode()]

    def test_unsupported_attrs_rejected(self):
        builder = (ProcessBuilder("/bin/true")
                   .strategy("forkserver-pool")
                   .new_process_group())
        with pytest.raises(SpawnError):
            builder.spawn()

    def test_shutdown_then_relaunch(self):
        strategy = get_strategy("forkserver-pool")
        first = strategy.pool()
        strategy.shutdown()
        assert first.closed
        builder = (ProcessBuilder("/bin/true")
                   .strategy("forkserver-pool"))
        assert builder.spawn().wait(timeout=10) == 0
