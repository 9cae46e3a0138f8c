"""refuse_exec and exhaust_fds: launch refusals across every strategy."""

import pytest

from repro.core import (ForkServer, ProcessBuilder, SpawnPolicy,
                        get_strategy, reset_breakers, strategies)
from repro.errors import SpawnError
from repro.faults import FAULTS, FaultPlan

ALL_STRATEGIES = sorted(strategies())


class TestRefuseExec:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_every_strategy_surfaces_the_refusal(self, name):
        plan = FaultPlan().add("refuse_exec", strategy=name)
        with FAULTS.active(plan):
            with pytest.raises(SpawnError):
                ProcessBuilder("/bin/true").strategy(name).spawn()
            assert ("strategy.launch", "refuse_exec") in FAULTS.fired

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_policy_retries_a_transient_refusal(self, name):
        plan = FaultPlan().add("refuse_exec", strategy=name, times=1)
        with FAULTS.active(plan):
            child = (ProcessBuilder("/bin/true").strategy(name)
                     .policy(SpawnPolicy(retries=2, backoff=0.01))
                     .spawn())
            assert child.wait(timeout=10) == 0

    def test_helper_side_refusal_is_a_live_error(self):
        # Pointed at the helper, the refusal happens on the far side of
        # the wire: the helper answers with an error instead of a pid,
        # and stays alive for the next request.
        plan = FaultPlan().add("refuse_exec", point="helper", times=1)
        with FAULTS.active(plan):
            server = ForkServer().start()
        try:
            with pytest.raises(SpawnError) as excinfo:
                server.spawn(["/bin/true"])
            assert "EACCES" in str(excinfo.value)
            assert server.healthy
            assert server.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()

    def test_pool_retries_helper_side_refusal(self):
        """The pool raises a live refusal; the ladder on its tier alone
        (no fallback) retries it on the same, still healthy helper."""
        shared = get_strategy("forkserver-pool")
        shared.shutdown()
        reset_breakers()
        plan = FaultPlan().add("refuse_exec", point="helper", times=1)
        with FAULTS.active(plan):
            pool = shared.pool()  # its first helper carries the fault
        try:
            helpers = pool.helper_pids()
            child = (ProcessBuilder("/bin/echo", "ok")
                     .strategy("forkserver-pool")
                     .policy(SpawnPolicy(retries=2, backoff=0.01)).spawn())
            assert child.wait(timeout=10) == 0
            assert pool.helper_pids() == helpers and pool.respawns == 0
        finally:
            shared.shutdown()
            reset_breakers()


class TestExhaustFds:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_launch_sees_emfile(self, name):
        plan = FaultPlan().add("exhaust_fds", strategy=name)
        with FAULTS.active(plan):
            with pytest.raises(OSError) as excinfo:
                ProcessBuilder("/bin/true").strategy(name).spawn()
            assert "descriptor" in str(excinfo.value)

    def test_builder_pipe_allocation_fails_cleanly(self):
        plan = FaultPlan().add("exhaust_fds", point="builder.pipe")
        with FAULTS.active(plan):
            builder = ProcessBuilder("/bin/cat")
            with pytest.raises(OSError):
                builder.stdout_to_pipe()
            builder.close()  # wired nothing; still releases cleanly

    def test_policy_retries_emfile_at_launch(self):
        plan = FaultPlan().add("exhaust_fds", strategy="posix_spawn",
                               times=1)
        with FAULTS.active(plan):
            child = (ProcessBuilder("/bin/true")
                     .policy(SpawnPolicy(retries=1, backoff=0.01))
                     .spawn())
            assert child.wait(timeout=10) == 0
