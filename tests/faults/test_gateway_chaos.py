"""The gateway fault family, kind by kind, through the real stack.

Each test activates a :class:`~repro.faults.FaultPlan` and proves the
recovery story the tentpole promises: client-side faults (connection
resets, half frames, stalls) heal through reconnect + re-auth;
server-side faults (dropped and garbage replies, refused accepts)
surface typed and bounded; and ``kill_daemon`` — the worst case — is
healed end to end by the supervisor restarting the daemon and the
``gateway`` *strategy*'s policy ladder absorbing the casualties.  The
``chaos_hygiene`` fixture asserts the non-negotiables afterwards: no
leaked fds, no leaked children, breakers reset.
"""

import gc
import os
import threading
import time

import pytest

from repro.core import GATEWAY_FALLBACK, Backoff, SpawnPolicy, run
from repro.core.strategies import get_strategy
from repro.errors import (GatewayConnectionLost, GatewayError, SpawnError,
                          SpawnTimeout)
from repro.faults import FAULTS, FaultPlan
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           GatewaySupervisor, TenantConfig)
from tests.gateway.fake_daemon import FakeDaemon

TOKEN = "chaos-token"


@pytest.fixture
def gateway(tmp_path):
    """A supervised daemon plus a resilient client, chaos-tuned."""
    supervisor = GatewaySupervisor(
        GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            tenants={"acme": TenantConfig(name="acme", token=TOKEN,
                                          strategy="posix_spawn")},
            drain_grace=3.0),
        check_interval=0.02, backoff=Backoff(0.01, jitter=0.0),
        orphan_grace=2.0).start()
    client = GatewayClient(supervisor.address, tenant="acme", token=TOKEN,
                           timeout=5.0, reconnect=True, max_reconnects=8,
                           backoff=Backoff(0.02)).connect()
    try:
        yield supervisor, client
    finally:
        client.close()
        supervisor.stop()


def spawn_ok(client, n=1):
    for _ in range(n):
        assert client.spawn(("/bin/true",)).wait(timeout=30) == 0


class TestClientSideKinds:
    def test_conn_reset_heals_transparently(self, gateway):
        _, client = gateway
        spawn_ok(client)
        plan = FaultPlan().add("conn_reset", times=2)
        with FAULTS.active(plan):
            spawn_ok(client, n=5)
            assert ("gateway.frame", "conn_reset") in FAULTS.fired
        assert client.reconnects >= 1

    def test_partial_frame_heals_transparently(self, gateway):
        """Half a frame can never be acted on, so the spawn is provably
        unsent and safe to re-issue after the reconnect."""
        _, client = gateway
        spawn_ok(client)
        plan = FaultPlan().add("partial_frame", times=1)
        with FAULTS.active(plan):
            spawn_ok(client, n=3)
            assert ("gateway.frame", "partial_frame") in FAULTS.fired
        assert client.reconnects >= 1

    def test_stall_conn_is_slow_not_broken(self, gateway):
        _, client = gateway
        plan = FaultPlan().add("stall_conn", times=2, seconds=0.1)
        with FAULTS.active(plan):
            spawn_ok(client, n=3)
            assert ("gateway.frame", "stall_conn") in FAULTS.fired
        assert client.reconnects == 0  # a stall is not a death

    def test_connect_fault_is_typed(self, tmp_path, gateway):
        supervisor, _ = gateway
        plan = FaultPlan().add("refuse_exec", point="gateway.connect")
        fresh = GatewayClient(supervisor.address, tenant="acme",
                              token=TOKEN, reconnect=False)
        with FAULTS.active(plan):
            with pytest.raises((GatewayError, SpawnError)):
                fresh.connect()


class TestServerSideKinds:
    def test_drop_reply_times_out_typed_then_recovers(self, gateway):
        """The daemon ate one reply: that request's deadline must save
        the caller, and the *channel* must still be usable."""
        _, client = gateway
        spawn_ok(client)
        plan = FaultPlan().add("drop_reply", times=1)
        with FAULTS.active(plan):
            with pytest.raises((SpawnTimeout, GatewayConnectionLost)):
                child = client.spawn(("/bin/true",), deadline=1.0)
                child.wait(timeout=1.0)
            assert ("gateway.reply", "drop_reply") in FAULTS.fired
            spawn_ok(client, n=2)

    def test_garbage_reply_poisons_one_connection_only(self, gateway):
        """Unframeable bytes from the daemon kill that connection with
        a typed error; the next op heals through reconnect."""
        _, client = gateway
        spawn_ok(client)
        plan = FaultPlan().add("garbage_reply", times=1)
        with FAULTS.active(plan):
            try:
                child = client.spawn(("/bin/true",), deadline=2.0)
                child.wait(timeout=5.0)
            except (GatewayError, SpawnError):
                pass  # the poisoned connection's casualty, typed
            assert ("gateway.reply", "garbage_reply") in FAULTS.fired
            spawn_ok(client, n=2)

    def test_refuse_accept_costs_a_dial_not_the_service(self, gateway):
        _, client = gateway
        spawn_ok(client)
        client._channel.sock.shutdown(2)  # force the next op to re-dial
        plan = FaultPlan().add("refuse_accept", times=1)
        with FAULTS.active(plan):
            # First re-dial is refused, the backoff retry gets through.
            spawn_ok(client, n=2)
            assert ("gateway.accept", "refuse_accept") in FAULTS.fired
        assert client.reconnects >= 1


class TestKillDaemon:
    def test_supervisor_restarts_and_clients_recover(self, gateway):
        supervisor, client = gateway
        spawn_ok(client, n=2)
        plan = FaultPlan().add("kill_daemon", times=1)
        with FAULTS.active(plan):
            # The kill fires on a dispatched frame; the request riding
            # it may die (ambiguous loss) but the service must heal.
            casualties = 0
            for _ in range(6):
                try:
                    assert client.spawn(("/bin/true",)).wait(timeout=30) == 0
                except (GatewayError, SpawnError):
                    casualties += 1
            assert ("gateway.daemon", "kill_daemon") in FAULTS.fired
            assert casualties <= 1
        assert supervisor.restarts >= 1
        assert not supervisor.gave_up
        spawn_ok(client, n=2)

    def test_a_crash_with_capture_launches_in_flight_leaks_no_fd(
            self, tmp_path):
        """Launches that finish while the loop stops.  Only the posted
        ``_job_done`` used to close a job's stdio triple, and a loop
        stopping between ``_post``'s check and its next turn never runs
        it: t9 read ``leaked_fds`` 0–21, every one a multiple of 3.
        Here three capture launches finish exactly then, every time."""
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        baseline = open_fds()
        server = GatewayServer(GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"), drain_grace=3.0,
            tenants={"acme": TenantConfig(name="acme", token=TOKEN,
                                          strategy="posix_spawn")})).start()
        client = GatewayClient(server.unix_path, tenant="acme", token=TOKEN,
                               reconnect=False).connect()
        release, finished = threading.Event(), []
        execute, finish = server._execute, server._finished

        def held(job):
            yield  # from here on an executor thread
            release.wait(10)
            return (yield from execute(job))

        def counted(*args):
            finish(*args)
            finished.append(args)

        def crash_as_they_finish():
            # The loop is busy in here: the results are posted behind
            # this callback, and the crash stops the loop first.
            release.set()
            deadline = time.monotonic() + 10
            while len(finished) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            server._crash_in_loop()

        server._execute, server._finished = held, counted
        pipes = [os.pipe() for _ in range(3)]
        lost = []

        def launch(write_fd):
            try:
                client.spawn(("/bin/echo", "x"), stdout=write_fd)
            except GatewayConnectionLost as exc:
                lost.append(exc)

        threads = [threading.Thread(target=launch, args=(write_fd,))
                   for _, write_fd in pipes]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while (server.stats()["inflight"] < 3
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            server._loop.call_soon_threadsafe(crash_as_they_finish)
            assert server._stopped.wait(10)
            for thread in threads:
                thread.join(10)
            assert len(finished) == 3 and len(lost) == 3
            for handle in server.take_orphans().values():
                assert handle.wait(timeout=10) == 0
        finally:
            client.close()
            server.stop()
            for read_fd, write_fd in pipes:
                os.close(read_fd)
                os.close(write_fd)
        gc.collect()
        assert open_fds() == baseline


class TestStrategyLadder:
    def test_unreachable_daemon_degrades_down_the_ladder(
            self, tmp_path, monkeypatch):
        """REPRO_GATEWAY pointing nowhere: the gateway tier fails typed
        and the policy ladder serves the spawn from the template tier —
        unavailability of the daemon costs latency, not the spawn."""
        monkeypatch.setenv("REPRO_GATEWAY", str(tmp_path / "nobody.sock"))
        get_strategy("gateway").shutdown()
        result = run("/bin/echo", "degraded", strategy="gateway",
                     timeout=30,
                     policy=SpawnPolicy(deadline=15.0, retries=0,
                                        backoff=0.01,
                                        fallback=GATEWAY_FALLBACK))
        assert (result.returncode, result.stdout) == (0, b"degraded\n")

    def test_kill_daemon_self_heals_through_the_strategy(
            self, monkeypatch):
        """The full integration: embedded supervised daemon, resilient
        client, policy ladder — kill_daemon mid-stream and every spawn
        still lands."""
        monkeypatch.delenv("REPRO_GATEWAY", raising=False)
        strategy = get_strategy("gateway")
        strategy.shutdown()
        # /bin/true is idempotent, so this workload opts into retrying
        # the ambiguous kill_daemon casualty (frame sent, no reply);
        # without the opt-in the ladder surfaces it typed instead.
        policy = SpawnPolicy(deadline=30.0, retries=2, backoff=0.05,
                             fallback=GATEWAY_FALLBACK,
                             retry_ambiguous=True)
        try:
            assert run("/bin/true", strategy="gateway", timeout=30,
                       policy=policy).returncode == 0
            plan = FaultPlan().add("kill_daemon", times=1)
            with FAULTS.active(plan):
                for _ in range(4):
                    assert run("/bin/true", strategy="gateway", timeout=60,
                               policy=policy).returncode == 0
                assert ("gateway.daemon", "kill_daemon") in FAULTS.fired
            supervisor = strategy._supervisor
            assert supervisor is not None and supervisor.restarts >= 1
        finally:
            strategy.shutdown()


class TestAmbiguousLossArbitration:
    """The ladder's 'spawns are only re-issued when it is safe'
    invariant: a loss after the frame reached the daemon may mean the
    child is already running, so by default the ladder surfaces it
    typed instead of retrying/degrading into a double execution."""

    @pytest.fixture
    def hangup_gateway(self, tmp_path, monkeypatch):
        fake = FakeDaemon(str(tmp_path / "hangup.sock"),
                          hangup_on_request=True)
        monkeypatch.setenv("REPRO_GATEWAY", fake.path)
        strategy = get_strategy("gateway")
        strategy.shutdown()
        try:
            yield fake
        finally:
            strategy.shutdown()
            fake.stop()

    def test_default_policy_surfaces_the_ambiguity(self, hangup_gateway):
        with pytest.raises(GatewayConnectionLost):
            run("/bin/true", strategy="gateway", timeout=30,
                policy=SpawnPolicy(deadline=10.0, retries=2, backoff=0.01,
                                   fallback=GATEWAY_FALLBACK))
        # Exactly one spawn frame ever reached the daemon: nothing was
        # re-issued and no fallback tier ran the command a second time.
        assert hangup_gateway.requests_seen == 1

    def test_retry_ambiguous_opts_into_the_ladder(self, hangup_gateway):
        result = run("/bin/echo", "idempotent", strategy="gateway",
                     timeout=30,
                     policy=SpawnPolicy(deadline=10.0, retries=0,
                                        backoff=0.01,
                                        fallback=GATEWAY_FALLBACK,
                                        retry_ambiguous=True))
        assert (result.returncode, result.stdout) == (0, b"idempotent\n")
        assert hangup_gateway.requests_seen >= 1
