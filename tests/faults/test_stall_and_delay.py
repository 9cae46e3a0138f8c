"""Slow-helper faults: stalled event loops and delayed SIGCHLD reaping."""

import time

import pytest

from repro.core import ForkServer, ForkServerPool
from repro.errors import SpawnError, SpawnTimeout
from repro.faults import FAULTS, FaultPlan


class TestStallHelper:
    def test_forkserver_deadline_expires_with_spawn_timeout(self):
        # The helper sleeps longer than the deadline before serving the
        # request; the client must not wait it out.
        with FAULTS.active(FaultPlan().add("stall_helper", seconds=30,
                                           times=None, after=1)):
            server = ForkServer().start()
            try:
                started = time.monotonic()
                with pytest.raises(SpawnTimeout):
                    server.spawn(["/bin/true"], deadline=0.5)
                assert time.monotonic() - started < 5
                assert not server.healthy  # poisoned, not trusted again
            finally:
                server.abort()

    def test_pool_policy_fails_over_past_stalled_helper(self):
        with FAULTS.active(FaultPlan().add("stall_helper", seconds=30,
                                           times=None, after=1)):
            pool = ForkServerPool(2, prestart=1).start()
        try:
            # Slot 0 is wedged; the deadline proves it and the request
            # fails over to a freshly booted (healthy) worker — the
            # pool's own recovery, no retry needed.
            child = pool.spawn(["/bin/echo", "ok"], deadline=0.5)
            assert child.wait(timeout=10) == 0
            assert pool.respawns >= 1
        finally:
            pool.stop()


class TestDelaySigchld:
    def test_wait_survives_late_reaping(self):
        # The helper dawdles before collecting zombies; a blocking wait
        # still completes once the delayed reap happens.
        with FAULTS.active(FaultPlan().add("delay_sigchld", seconds=0.3,
                                           times=None)):
            server = ForkServer().start()
        try:
            child = server.spawn(["/bin/true"])
            started = time.monotonic()
            assert child.wait(timeout=10) == 0
            # the delay was real but bounded
            assert time.monotonic() - started < 10
        finally:
            server.stop()

    def test_pool_spawns_keep_flowing_while_reaping_lags(self):
        with FAULTS.active(FaultPlan().add("delay_sigchld", seconds=0.2,
                                           times=None)):
            pool = ForkServerPool(2, prestart=2).start()
        try:
            children = [pool.spawn(["/bin/true"]) for _ in range(4)]
            assert all(c.wait(timeout=15) == 0 for c in children)
        finally:
            pool.stop()


class TestStallTimingBudget:
    def test_deadline_failure_is_prompt_not_additive(self):
        # Every dispatch stalls: the pool fails over once per slot plus
        # one under a 0.3s deadline each, nowhere near the stall.
        with FAULTS.active(FaultPlan().add("stall_helper", seconds=30,
                                           times=None, after=1)):
            pool = ForkServerPool(1, prestart=1).start()
        restall = FaultPlan().add("stall_helper", seconds=30, times=None,
                                  after=1)
        try:
            started = time.monotonic()
            with FAULTS.active(restall):  # replacements stall too
                with pytest.raises(SpawnError):
                    pool.spawn(["/bin/true"], deadline=0.3)
            assert time.monotonic() - started < 10
        finally:
            pool.stop()
