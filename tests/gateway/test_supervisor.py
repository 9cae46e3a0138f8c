"""GatewaySupervisor: health checks, bounded restarts, orphan reaping.

The daemon is one process fronting every tenant's spawns; these tests
prove the supervision story around it: a wire-level ``ping`` that
detects a dead *or* silent daemon, a crash that turns into a restart
on the same address (so resilient clients just reconnect), a restart
budget that prevents crash-looping forever, and — the paper's pet
hazard — no daemon death may leak a child: stranded children are
claimed and reaped, escalating to SIGKILL past the grace period.
"""

import os
import time

import pytest

from repro.core import Backoff, ChildProcess
from repro.errors import GatewayError
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           GatewaySupervisor, TenantConfig, ping_gateway)

TOKEN = "supervised-token"


def make_config(tmp_path, **tenant_kwargs):
    tenant_kwargs.setdefault("strategy", "posix_spawn")
    return GatewayConfig(
        unix_path=str(tmp_path / "gw.sock"),
        tenants={"acme": TenantConfig(name="acme", token=TOKEN,
                                      **tenant_kwargs)},
        drain_grace=3.0)


def make_supervisor(tmp_path, **kwargs):
    kwargs.setdefault("check_interval", 0.02)
    kwargs.setdefault("backoff", Backoff(0.01, jitter=0.0))
    kwargs.setdefault("orphan_grace", 1.0)
    return GatewaySupervisor(make_config(tmp_path), **kwargs)


def wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestPing:
    def test_pong_from_a_live_daemon_without_a_token(self, tmp_path):
        server = GatewayServer(make_config(tmp_path)).start()
        try:
            assert ping_gateway(server.unix_path) is True
        finally:
            server.stop()

    def test_false_for_a_dead_address(self, tmp_path):
        assert ping_gateway(str(tmp_path / "nobody.sock"),
                            timeout=0.5) is False

    def test_false_after_the_daemon_stops(self, tmp_path):
        server = GatewayServer(make_config(tmp_path)).start()
        address = server.unix_path
        server.stop()
        assert ping_gateway(address, timeout=0.5) is False


class TestRestart:
    def test_crash_is_restarted_on_the_same_address(self, tmp_path):
        with make_supervisor(tmp_path) as supervisor:
            address = supervisor.address
            assert supervisor.healthy()
            supervisor.server.crash()
            wait_for(lambda: supervisor.restarts >= 1,
                     message="supervised restart")
            assert supervisor.address == address
            wait_for(lambda: ping_gateway(address, timeout=0.5),
                     message="restarted daemon answering pings")
            assert not supervisor.gave_up

    def test_clients_reconnect_through_the_restart(self, tmp_path):
        with make_supervisor(tmp_path) as supervisor:
            client = GatewayClient(supervisor.address, tenant="acme",
                                   token=TOKEN, reconnect=True,
                                   max_reconnects=8,
                                   backoff=Backoff(0.02)).connect()
            try:
                assert client.spawn(("/bin/true",)).wait(timeout=30) == 0
                supervisor.server.crash()
                wait_for(lambda: supervisor.restarts >= 1,
                         message="supervised restart")
                assert client.spawn(("/bin/true",)).wait(timeout=30) == 0
                assert client.reconnects >= 1
            finally:
                client.close()

    def test_exhausted_restart_budget_gives_up(self, tmp_path):
        supervisor = make_supervisor(tmp_path, max_restarts=0,
                                     healthy_reset=60.0)
        supervisor.start()
        try:
            # Stop the daemon out from under the supervisor: the first
            # restart attempt blows the (zero) budget.
            supervisor.server.crash()
            wait_for(lambda: supervisor.gave_up, message="give-up")
            assert supervisor.restarts == 0
        finally:
            supervisor.stop()

    def test_delays_are_the_backoffs_and_give_up_is_the_breaker(
            self, tmp_path):
        """A daemon that never comes back: each restart waits the
        ``Backoff``'s delay for its place in the run of failures, and
        failure ``max_restarts + 1`` opens the breaker — gave_up."""
        backoff = Backoff(0.004, multiplier=3.0, cap=0.03, jitter=0.0)
        supervisor = make_supervisor(tmp_path, max_restarts=3,
                                     healthy_reset=60.0, backoff=backoff)
        supervisor.start()
        try:
            waited = []
            wait = supervisor._stop_event.wait
            supervisor._stop_event.wait = (
                lambda delay: waited.append(delay) or wait(delay))

            def refuse():
                raise GatewayError("still down")
            supervisor.server.start = refuse
            supervisor.server.crash()
            wait_for(lambda: supervisor.gave_up, message="give-up")
            restart_waits = [d for d in waited
                             if d != supervisor._check_interval]
            assert restart_waits == [backoff.delay(i) for i in range(3)]
            assert restart_waits[-1] == 0.03  # capped, and not jittered
            assert supervisor._breaker.failures == 4
            assert supervisor.restarts == 0
            assert "gave-up" in repr(supervisor)
        finally:
            supervisor.stop()

    def test_stop_is_idempotent_and_final(self, tmp_path):
        supervisor = make_supervisor(tmp_path).start()
        address = supervisor.address
        supervisor.stop()
        supervisor.stop()
        assert ping_gateway(address, timeout=0.5) is False
        assert supervisor.server is None


class TestTcpOnlySupervision:
    def make_tcp_supervisor(self, **kwargs):
        kwargs.setdefault("check_interval", 0.02)
        kwargs.setdefault("backoff", Backoff(0.01, jitter=0.0))
        config = GatewayConfig(
            tcp_port=0,
            tenants={"acme": TenantConfig(name="acme", token=TOKEN,
                                          strategy="posix_spawn")},
            drain_grace=3.0)
        return GatewaySupervisor(config, **kwargs)

    def test_address_is_the_bound_tcp_endpoint(self):
        """A TCP-only config must yield a dialable (host, port) address
        — never None, which used to crash the monitor thread's probe
        and silently end supervision."""
        with self.make_tcp_supervisor() as supervisor:
            host, port = supervisor.address
            assert host == "127.0.0.1" and port > 0
            assert ping_gateway(supervisor.address, timeout=2.0) is True
            assert supervisor.healthy()

    def test_tcp_only_daemon_is_supervised_through_a_crash(self):
        with self.make_tcp_supervisor() as supervisor:
            assert supervisor.healthy()
            supervisor.server.crash()
            wait_for(lambda: supervisor.restarts >= 1,
                     message="tcp-only supervised restart")
            wait_for(lambda: supervisor.healthy(),
                     message="restarted tcp daemon answering pings")
            assert not supervisor.gave_up

    def test_monitor_survives_an_unexpected_probe_error(self, tmp_path):
        """An exception escaping a health probe must not kill the
        monitor thread: supervision reports it and keeps ticking."""
        supervisor = make_supervisor(tmp_path).start()
        try:
            real_healthy = supervisor.healthy
            blew_up = {"n": 0}

            def flaky_probe():
                if blew_up["n"] < 3:
                    blew_up["n"] += 1
                    raise TypeError("probe blew up")
                return real_healthy()
            supervisor.healthy = flaky_probe
            wait_for(lambda: blew_up["n"] >= 3,
                     message="the probe to blow up a few times")
            assert supervisor._monitor.is_alive()
            supervisor.server.crash()
            wait_for(lambda: supervisor.restarts >= 1,
                     message="supervision to survive the probe error")
        finally:
            supervisor.stop()


class TestOrphanReconciliation:
    def test_crash_with_a_running_child_reaps_it(self, tmp_path):
        """A long-running child stranded by the crash must be claimed
        and killed by the supervisor, not leaked."""
        with make_supervisor(tmp_path, orphan_grace=0.2) as supervisor:
            client = GatewayClient(supervisor.address, tenant="acme",
                                   token=TOKEN, reconnect=True,
                                   backoff=Backoff(0.02)).connect()
            try:
                child = client.spawn(("/bin/sh", "-c", "sleep 60"))
                pid = child.pid
                assert os.kill(pid, 0) is None  # alive
                supervisor.server.crash()
                wait_for(lambda: supervisor.orphans_reaped >= 1,
                         message="orphan reconciliation")

                def gone():
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        return True
                    return False
                wait_for(gone, message="the orphan to be killed")
            finally:
                client.close()

    def test_an_unreapable_handle_costs_no_grace_and_no_kill(
            self, tmp_path):
        """One handle whose service died with the daemon, listed before
        a child that has already exited: the dead handle is killed at
        once, and the exited child is reaped, not killed, well inside
        ``orphan_grace``."""
        class Unreapable:
            killed = False

            def poll(self):
                raise GatewayError("service died with the daemon")

            def wait(self, timeout=None):
                raise GatewayError("service died with the daemon")

            def kill(self):
                self.killed = True

        exited = ChildProcess(os.posix_spawn("/bin/true", ["true"], {}))
        os.waitid(os.P_PID, exited.pid, os.WEXITED | os.WNOWAIT)
        kills = []
        exited.kill = lambda: kills.append(exited.pid)
        dead = Unreapable()
        supervisor = make_supervisor(tmp_path, orphan_grace=2.0)
        began = time.monotonic()
        supervisor._reap([dead, exited])
        assert time.monotonic() - began < 1.0
        assert exited.returncode == 0 and kills == []
        assert dead.killed
        assert supervisor.orphans_reaped == 2

    def test_stop_reaps_children_the_daemon_still_held(self, tmp_path):
        supervisor = make_supervisor(tmp_path, orphan_grace=0.2).start()
        client = GatewayClient(supervisor.address, tenant="acme",
                               token=TOKEN).connect()
        child = client.spawn(("/bin/sh", "-c", "sleep 60"))
        pid = child.pid
        client.close()
        supervisor.stop()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        else:
            pytest.fail(f"child {pid} survived supervisor.stop()")
