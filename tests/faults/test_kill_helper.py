"""kill_helper: the classic mid-request helper crash, every strategy.

The fault stops the helper before the request frame leaves and kills it
after, so the frame is provably on the wire and provably unanswered —
the helper's reply can never race the SIGKILL, however fast it is.
"""

import pytest

from repro.core import ForkServer, ForkServerPool, SpawnPolicy, run
from repro.errors import SpawnError
from repro.faults import FAULTS, FaultPlan


class TestForkServer:
    def test_spawn_fails_fast_and_channel_reports_dead(self):
        with ForkServer() as server:
            with FAULTS.active(FaultPlan().add("kill_helper")):
                with pytest.raises(SpawnError):
                    server.spawn(["/bin/true"])
            assert not server.healthy
            assert FAULTS.fired == [("forkserver.request", "kill_helper")]

    # One arm, its id kept: the locked arm went with the locked path.
    @pytest.mark.parametrize("pipelined", [True])
    def test_the_kill_always_beats_the_reply(self, pipelined):
        # Used to fail "DID NOT RAISE" about one run in ten: the fault
        # fired after the send and a quick helper had already answered.
        for _ in range(15):
            with ForkServer() as server:
                with FAULTS.active(FaultPlan().add("kill_helper")):
                    with pytest.raises(SpawnError):
                        server.spawn(["/bin/true"])
                assert not server.healthy

    def test_other_in_flight_requests_fail_not_hang(self):
        import threading
        with ForkServer() as server:
            slow = server.spawn(["/bin/sleep", "5"])
            errors = []

            def parked_wait():
                try:
                    slow.wait()
                except SpawnError as exc:
                    errors.append(exc)

            waiter = threading.Thread(target=parked_wait)
            waiter.start()
            with FAULTS.active(FaultPlan().add("kill_helper")):
                with pytest.raises(SpawnError):
                    server.spawn(["/bin/true"])
            waiter.join(timeout=10)
            assert not waiter.is_alive(), "parked wait hung after crash"
            assert errors, "parked wait should fail once the helper dies"
            # The sleep child was re-parented when the helper died; it is
            # not ours to leak (and not ours to reap).


class TestForkServerPool:
    def test_failover_replaces_dead_worker_without_policy(self):
        with ForkServerPool(2) as pool:
            with FAULTS.active(FaultPlan().add("kill_helper")):
                child = pool.spawn(["/bin/echo", "survived"])
                assert child.wait(timeout=10) == 0
            assert pool.respawns >= 1

    def test_policy_retry_returns_completed_child(self):
        # The acceptance scenario: kill a pool helper mid-request; with
        # SpawnPolicy(retries=2, deadline=...) the caller still gets a
        # successful CompletedChild.
        with FAULTS.active(FaultPlan().add("kill_helper")):
            done = run("/bin/echo", "alive", strategy="forkserver-pool",
                       policy=SpawnPolicy(retries=2, deadline=10.0))
        assert done.returncode == 0
        assert done.stdout == b"alive\n"

    def test_repeated_kills_exhaust_and_raise(self):
        plan = FaultPlan().add("kill_helper", times=None)
        with ForkServerPool(2) as pool:
            with FAULTS.active(plan):
                with pytest.raises(SpawnError):
                    pool.spawn(["/bin/true"])
