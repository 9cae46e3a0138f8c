"""The self-healing client: typed failure, re-auth, re-issued waits.

The contract under test (docs/GATEWAY.md "failure modes"): a dead
channel surfaces as the typed
:class:`~repro.errors.GatewayConnectionLost` — never a hang, never a
bare ``OSError`` — and unless ``max_reconnects=0`` the next operation
re-dials, re-runs the ``hello`` re-auth, and re-issues idempotent ops
so an in-flight child's exit status survives the blip.  Alongside ride
the two hygiene regressions: the correlation map may not accumulate
stale entries on *any* exit path, and a clean close warns about
nothing.
"""

import socket
import threading
import time

import pytest

from repro.core import Backoff
from repro.errors import (GatewayConnectionLost, GatewayError,
                          GatewayProtocolError, RateLimited, SpawnTimeout)
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.wire import encode_frame

from .fake_daemon import FakeDaemon

TOKEN = "reconnect-token"


def make_server(tmp_path, **config_kwargs):
    tenants = {"acme": TenantConfig(name="acme", token=TOKEN,
                                    strategy="posix_spawn")}
    config_kwargs.setdefault("unix_path", str(tmp_path / "gw.sock"))
    config_kwargs.setdefault("drain_grace", 3.0)
    return GatewayServer(GatewayConfig(tenants=tenants,
                                       **config_kwargs)).start()


class TestTypedConnectionLoss:
    def test_channel_death_is_typed_not_a_hang(self, tmp_path):
        server = make_server(tmp_path)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN, max_reconnects=0).connect()
        try:
            assert client.ping()["pong"] is True
            server.stop()
            with pytest.raises((GatewayConnectionLost, GatewayError)):
                client.ping()
            # The channel is marked dead and stays typed on later ops.
            assert not client.healthy
            with pytest.raises(GatewayConnectionLost):
                client.stats()
        finally:
            client.close()

    def test_reconnect_disabled_says_so(self, tmp_path):
        server = make_server(tmp_path)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN, max_reconnects=0).connect()
        try:
            server.stop()
            with pytest.raises(GatewayError):
                client.ping()
            with pytest.raises(GatewayConnectionLost,
                               match="reconnect disabled"):
                client.stats()
        finally:
            client.close()

    def test_exhausted_reconnects_name_the_attempt_budget(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.01))
        server = make_server(tmp_path)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN, max_reconnects=2).connect()
        try:
            server.stop()
            # The socket path is gone for good: every re-dial fails and
            # the final error names the budget that was spent.
            with pytest.raises(GatewayError):
                client.ping()
            with pytest.raises(GatewayConnectionLost,
                               match="2 reconnect attempts"):
                client.stats()
        finally:
            client.close()

    def test_closed_client_stays_closed(self, tmp_path):
        server = make_server(tmp_path)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN).connect()
        client.close()
        try:
            with pytest.raises(GatewayError, match="closed"):
                client.ping()
        finally:
            server.stop()


class TestReconnectSemantics:
    def test_reauth_runs_before_the_retried_op(self, tmp_path, monkeypatch):
        """After a daemon restart the retried op must succeed — which is
        only possible if the hello re-auth ran first, because every
        authed op on a fresh connection is refused without it."""
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.02))
        server = make_server(tmp_path)
        address = server.unix_path
        client = GatewayClient(address, tenant="acme", token=TOKEN,
                               max_reconnects=8).connect()
        try:
            assert client.stats()["tenants"]["acme"] is not None
            server.stop()
            # Same socket path, brand-new daemon: the old auth is gone.
            server = make_server(tmp_path, unix_path=address)
            stats = client.stats()  # retryable: reconnects + re-auths
            assert stats["tenants"]["acme"]["completed"] == 0
            assert client.reconnects == 1
        finally:
            client.close()
            server.stop()

    def test_wait_reissued_after_reconnect_returns_real_status(
            self, tmp_path, monkeypatch):
        """A connection blip between spawn and wait must not lose the
        child: the re-issued wait reports its true exit status."""
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.02))
        server = make_server(tmp_path)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN).connect()
        try:
            child = client.spawn(("/bin/sh", "-c", "sleep 0.2; exit 7"))
            # Kill the transport under the client; the daemon (and the
            # child, which is the daemon's) are untouched.
            client._channel.sock.shutdown(socket.SHUT_RDWR)
            assert child.wait(timeout=30) == 7
            assert client.reconnects == 1
        finally:
            client.close()
            server.stop()

    def test_spawn_not_reissued_after_frame_was_sent(self, tmp_path,
                                                     monkeypatch):
        """An ambiguous loss (spawn frame fully sent, then the daemon
        vanished) must surface, not silently double-spawn."""
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.01))
        fake = FakeDaemon(str(tmp_path / "hangup.sock"),
                          hangup_on_request=True)
        client = GatewayClient(fake.path, tenant="acme", token=TOKEN,
                               max_reconnects=3).connect()
        try:
            with pytest.raises(GatewayConnectionLost):
                client.spawn(("/bin/true",))
            # Exactly one spawn frame ever reached a daemon: the loss
            # was ambiguous, so nothing was re-issued.
            assert fake.requests_seen == 1
        finally:
            client.close()
            fake.stop()


class TestRestartedDaemon:
    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_a_spawn_after_a_restart_is_reissued_not_lost(
            self, tmp_path, transport, monkeypatch):
        """The client reads nothing between calls, so a daemon that
        restarted is noticed by the next call's pump, before its frame
        goes out: the spawn is re-issued as ``unsent`` on a new
        connection, never sent into the dead one and lost ambiguously
        (over TCP that send would succeed)."""
        if transport == "unix":
            server = make_server(tmp_path)
            address = server.unix_path
        else:
            server = make_server(tmp_path, unix_path=None, tcp_port=0)
            server.config.tcp_port = server.tcp_port  # restart on it
            address = ("127.0.0.1", server.tcp_port)
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.01))
        client = GatewayClient(address, tenant="acme",
                               token=TOKEN).connect()
        try:
            assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            server.stop()
            server.start()
            spawns, handle = [], server._handle_frame

            def counting(conn, frame):
                if frame.get("op") == "spawn":
                    spawns.append(frame)
                return handle(conn, frame)

            server._handle_frame = counting
            assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert client.reconnects == 1 and len(spawns) == 1
        finally:
            client.close()
            server.stop()


class TestCloseInterruptsReconnect:
    def test_close_does_not_wait_out_the_reconnect_budget(self, tmp_path,
                                                          monkeypatch):
        """close() must interrupt an in-progress reconnect loop (which
        holds the connection lock across its backoff waits) instead of
        blocking for the whole multi-second budget."""
        monkeypatch.setattr(GatewayClient, "backoff",
                            Backoff(0.5, cap=0.5, jitter=0.0))
        server = make_server(tmp_path)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN, max_reconnects=40).connect()
        server.stop()  # the socket path is gone: every re-dial fails
        failures = []

        def op():
            try:
                client.stats()
            except GatewayError as exc:
                failures.append(exc)
        worker = threading.Thread(target=op)
        worker.start()
        time.sleep(0.2)  # let the op enter the reconnect loop's backoff
        started = time.monotonic()
        client.close()
        closed_in = time.monotonic() - started
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        # ~20s of backoff remained in the budget; close() cut through.
        assert closed_in < 2.0
        assert failures and isinstance(failures[0], GatewayError)


class _RateLimitingServer(FakeDaemon):
    """A fake daemon: answers hello, then rate-limits the first request
    with a Retry-After hint and serves the re-ask."""

    def __init__(self, path, retry_after):
        self.retry_after = retry_after
        self.refused = 0
        super().__init__(path)

    def answer(self, conn, frame):
        rid = frame.get("id")
        if not self.refused:
            self.refused += 1
            conn.sendall(encode_frame(
                {"id": rid, "error": {
                    "code": "rate_limited",
                    "message": "one moment",
                    "retry_after": self.retry_after}}))
        else:
            conn.sendall(encode_frame(
                {"id": rid, "stats": {"ok": True}}))
        return False


class TestARefusalReachesTheCallerAtOnce:
    """The client waits out nothing but its own re-dials: a Retry-After
    hint is the caller's (or its ladder's) to honour, inside the
    caller's own deadline."""

    def test_a_hint_is_handed_over_not_slept_out(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(cap=0.01))
        fake = _RateLimitingServer(str(tmp_path / "rl.sock"),
                                   retry_after=5.0)
        client = GatewayClient(fake.path, tenant="acme",
                               token=TOKEN).connect()
        try:
            started = time.monotonic()
            with pytest.raises(RateLimited) as refusal:
                client.stats()
            assert time.monotonic() - started < 1.0
            assert refusal.value.retry_after == 5.0
            assert fake.refused == 1
            assert client.stats() == {"ok": True}  # the caller's re-ask
        finally:
            client.close()
            fake.stop()

    def test_a_rate_limited_spawn_keeps_its_deadline(self, tmp_path):
        server = GatewayServer(GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            tenants={"acme": TenantConfig(
                name="acme", token=TOKEN, strategy="posix_spawn",
                rate=0.5, burst=1.0)})).start()
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN).connect()
        try:
            assert client.spawn(["/bin/true"],
                                deadline=0.3).wait(timeout=10) == 0
            started = time.monotonic()
            with pytest.raises(RateLimited) as refusal:
                client.spawn(["/bin/true"], deadline=0.3)
            assert time.monotonic() - started < 0.3
            assert refusal.value.retry_after > 0
        finally:
            client.close()
            server.stop()

    def test_the_gateway_strategy_hands_it_to_the_caller(self, tmp_path,
                                                         monkeypatch):
        """The strategy's own client used to sleep out two hints, a
        loop no ladder or deadline could see: 2 s for a 0.3 s spawn."""
        from repro.core import ProcessBuilder
        from repro.core.strategies import get_strategy
        server = GatewayServer(GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            tenants={"local": TenantConfig(
                name="local", token=TOKEN, strategy="posix_spawn",
                rate=0.5, burst=1.0)})).start()
        monkeypatch.setenv("REPRO_GATEWAY", server.unix_path)
        monkeypatch.setenv("REPRO_GATEWAY_TENANT", "local")
        monkeypatch.setenv("REPRO_GATEWAY_TOKEN", TOKEN)
        get_strategy("gateway").shutdown()
        try:
            def spawn():
                return (ProcessBuilder("/bin/true").strategy("gateway")
                        .deadline(0.3).spawn())
            assert spawn().wait(timeout=10) == 0
            started = time.monotonic()
            with pytest.raises(RateLimited):
                spawn()
            assert time.monotonic() - started < 0.3
        finally:
            get_strategy("gateway").shutdown()
            server.stop()


class TestCorrelationMapHygiene:
    def test_timeout_pops_the_pending_entry(self, tmp_path):
        fake = FakeDaemon(str(tmp_path / "silent.sock"))
        client = GatewayClient(fake.path, tenant="acme", token=TOKEN,
                               max_reconnects=0).connect()
        try:
            with pytest.raises(SpawnTimeout):
                client._roundtrip({"op": "stats"}, timeout=0.2)
            assert client._channel.pending == {}
        finally:
            client.close()
            fake.stop()

    def test_encode_failure_pops_the_pending_entry(self, tmp_path):
        """A frame the protocol refuses to encode (oversized) must not
        strand its correlation-map entry."""
        fake = FakeDaemon(str(tmp_path / "silent.sock"))
        client = GatewayClient(fake.path, tenant="acme", token=TOKEN,
                               max_reconnects=0).connect()
        try:
            huge = {"op": "stats", "pad": "x" * (5 * 1024 * 1024)}
            with pytest.raises(GatewayProtocolError):
                client._roundtrip_once(huge, timeout=1.0)
            assert client._channel.pending == {}
        finally:
            client.close()
            fake.stop()


class TestReaderJoin:
    def test_clean_close_does_not_warn(self, tmp_path):
        import warnings as warnings_module
        fake = FakeDaemon(str(tmp_path / "silent.sock"))
        client = GatewayClient(fake.path, tenant="acme",
                               token=TOKEN).connect()
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            client.close()
        fake.stop()
