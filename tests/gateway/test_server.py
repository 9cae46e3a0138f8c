"""The gateway daemon end to end: auth, admission, fairness plumbing,
drain semantics, and a server that malformed clients cannot crash.

Every test boots a real :class:`GatewayServer` on a tempdir Unix socket
(TCP where the transport matters) and talks to it through
:class:`GatewayClient` or a raw socket.  The recurring assertion is the
tentpole invariant: whatever a client does — wrong token, junk bytes,
oversized claims, spawning past every bound — the daemon answers with a
*typed* error and ``stats()["internal_errors"]`` stays zero.
"""

import array
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.core import (BatchRequest, ForkServer, SpawnPolicy, breaker_for,
                        get_strategy, reset_breakers)
from repro.errors import (AuthError, GatewayError, GatewayProtocolError,
                          Overloaded, RateLimited, SpawnError)
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.wire import FrameDecoder, encode_frame

TOKEN = "secret-token"

#: Direct-creation tenants keep these tests off the shared pool
#: singletons: children are still the daemon's children, just cheaper.
FAST = dict(token=TOKEN, strategy="posix_spawn",
            policy=SpawnPolicy(deadline=10.0, retries=0,
                               fallback=("fork_exec",)))


def make_server(tmp_path, tenants=None, **config_kwargs):
    if tenants is None:
        tenants = {"acme": TenantConfig(name="acme", **FAST)}
    config_kwargs.setdefault("unix_path", str(tmp_path / "gw.sock"))
    config_kwargs.setdefault("drain_grace", 3.0)
    return GatewayServer(GatewayConfig(tenants=tenants,
                                       **config_kwargs)).start()


def raw_exchange(address, payloads, replies_wanted=1, hello=None):
    """Speak raw bytes at the daemon; return decoded reply frames.

    ``payloads`` entries are either dicts (framed properly) or bytes
    (sent verbatim — the malformed case).  ``hello`` optionally runs a
    valid handshake first.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(address)
    sock.settimeout(5.0)
    decoder = FrameDecoder()
    replies = []
    try:
        if hello is not None:
            sock.sendall(encode_frame(
                {"op": "hello", "id": 0, "tenant": hello[0],
                 "token": hello[1]}))
            while not replies:
                replies += decoder.feed(sock.recv(65536))
            assert replies.pop(0).get("ok") is True
        for payload in payloads:
            sock.sendall(payload if isinstance(payload, bytes)
                         else encode_frame(payload))
        while len(replies) < replies_wanted:
            data = sock.recv(65536)
            if not data:
                break
            replies += decoder.feed(data)
    finally:
        sock.close()
    return replies


class TestSpawnPath:
    def test_spawn_with_stdio_grant(self, tmp_path):
        server = make_server(tmp_path)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                read_fd, write_fd = os.pipe()
                try:
                    child = client.spawn(["/bin/sh", "-c", "echo via-gw"],
                                         stdout=write_fd)
                finally:
                    os.close(write_fd)
                assert child.wait(timeout=10) == 0
                assert child.strategy == "gateway"
                with open(read_fd, "rb") as out:
                    assert out.read() == b"via-gw\n"
                assert server.stats()["internal_errors"] == 0
        finally:
            server.stop()

    def test_spawn_batch_statuses_in_order(self, tmp_path):
        server = make_server(tmp_path)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                result = client.spawn_batch(BatchRequest.of(
                    [["/bin/sh", "-c", f"exit {code}"]
                     for code in (3, 0, 7)]))
                assert len(result.pids) == 3
                assert [c.wait(timeout=10) for c in result] == [3, 0, 7]
        finally:
            server.stop()

    def test_nonblocking_wait_polls(self, tmp_path):
        server = make_server(tmp_path)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                child = client.spawn(["/bin/sleep", "0.2"])
                assert child.poll() is None  # still running
                assert child.wait(timeout=10) == 0
        finally:
            server.stop()

    def test_wait_for_foreign_pid_is_typed(self, tmp_path):
        server = make_server(tmp_path)
        try:
            replies = raw_exchange(
                server.unix_path,
                [{"op": "wait", "id": 5, "pid": 1}],
                hello=("acme", TOKEN))
            assert replies[0]["id"] == 5
            assert replies[0]["error"]["code"] == "gateway"
            assert "not a live child" in replies[0]["error"]["message"]
        finally:
            server.stop()

    def test_spawn_failure_is_a_reply_not_a_crash(self, tmp_path):
        # No fallback rung: posix_spawn's ENOENT must surface as a
        # typed wire error, not take down the executor.
        tenants = {"acme": TenantConfig(
            name="acme", token=TOKEN, strategy="posix_spawn",
            policy=SpawnPolicy(deadline=10.0, retries=0, fallback=()))}
        server = make_server(tmp_path, tenants=tenants)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                with pytest.raises(GatewayError):
                    client.spawn(["/no/such/binary/anywhere"])
                # The channel survives a failed spawn.
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            stats = server.stats()
            assert stats["internal_errors"] == 0
            assert stats["tenants"]["acme"]["failed"] == 1
        finally:
            server.stop()


class TestOneTenantsMistakeIsItsOwn:
    def test_a_typo_opens_no_shared_breaker(self, tmp_path):
        """Tenants on the defaults share the ladder's tier breakers.  A
        member no exec could take is refused before admission and
        charges none of them (it used to reach every tier: two typos
        from ``a`` opened all three, and ``b``'s next well-formed spawn
        failed on the open pool breaker)."""
        reset_breakers()
        server = make_server(tmp_path, {
            name: TenantConfig(name=name, token=TOKEN) for name in "ab"})
        refusals = []
        try:
            with GatewayClient(server.unix_path, tenant="a",
                               token=TOKEN) as client:
                for _ in range(2):
                    with pytest.raises(GatewayError) as refusal:
                        client.spawn(["/bin/true"], env={"": "x"})
                    refusals.append(refusal.value)
            with GatewayClient(server.unix_path, tenant="b",
                               token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            for name in ("forkserver-pool", "forkserver", "posix_spawn",
                         "gateway:a", "gateway:b"):
                assert breaker_for(name).failures == 0, name
            assert all(isinstance(error, GatewayProtocolError)
                       for error in refusals)
            assert server.stats()["tenants"]["a"]["admitted"] == 0
        finally:
            server.stop()
            reset_breakers()


class TestARequestATierCannotExpressCostsItNothing:
    """A tier whose declaration lacks what a unit needs is passed over,
    so one tenant's ``cwd`` spawns strike no breaker another tenant's
    spawns ride; a unit no tier of the tenant's ladder can express is
    refused at admission."""

    def test_one_tenants_cwd_leaves_the_shared_breaker_closed(self,
                                                              tmp_path):
        reset_breakers()
        server = make_server(tmp_path, {
            name: TenantConfig(name=name, token=TOKEN,
                               strategy="posix_spawn") for name in "ab"})
        served, finished = [], server._job_done

        def job_done(job, tenant, reply, error):
            served.append((job.tenant, error or reply["strategy"]))
            return finished(job, tenant, reply, error)

        server._job_done = job_done
        try:
            with GatewayClient(server.unix_path, tenant="a",
                               token=TOKEN) as client:
                for _ in range(2):
                    child = client.spawn(["/bin/pwd"], cwd="/")
                    assert child.wait(timeout=10) == 0
            with GatewayClient(server.unix_path, tenant="b",
                               token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert served == [("a", "forkserver"), ("a", "forkserver"),
                              ("b", "posix_spawn")]
            assert breaker_for("posix_spawn").failures == 0
        finally:
            server.stop()
            get_strategy("forkserver").shutdown()
            reset_breakers()

    def test_a_unit_no_tier_can_express_is_refused_at_admission(self,
                                                                tmp_path):
        reset_breakers()
        server = make_server(tmp_path, {"acme": TenantConfig(
            name="acme", token=TOKEN, strategy="posix_spawn",
            policy=SpawnPolicy(deadline=10.0, fallback=()))})
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                with pytest.raises(GatewayProtocolError,
                                   match="posix_spawn cannot express cwd"):
                    client.spawn(["/bin/pwd"], cwd="/")
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            for name in ("gateway:acme", "posix_spawn"):
                assert breaker_for(name).failures == 0, name
            stats = server.stats()
            assert stats["tenants"]["acme"]["admitted"] == 1
            assert stats["internal_errors"] == 0
        finally:
            server.stop()
            reset_breakers()


class TestATenantsStrategyServesItsSpawns:
    """The daemon walks every spawn — one member or N — from the
    tenant's own strategy (a batch used to start at the pool whatever
    the tenant named); ``fork_exec`` takes a unit through the member
    loop every strategy inherits."""

    @pytest.mark.parametrize("strategy",
                             ["posix_spawn", "forkserver", "fork_exec"])
    def test_one_member_and_three(self, tmp_path, strategy):
        server = make_server(tmp_path, {"acme": TenantConfig(
            name="acme", token=TOKEN, strategy=strategy,
            policy=SpawnPolicy(deadline=10.0, retries=0, fallback=()))})
        served, finished = [], server._job_done

        def job_done(job, tenant, reply, error):
            served.append(error or reply["strategy"])
            return finished(job, tenant, reply, error)

        server._job_done = job_done
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                for codes in ([3], [3, 0, 7]):
                    children = client.spawn_batch(BatchRequest.of(
                        [["/bin/sh", "-c", f"exit {code}"]
                         for code in codes]))
                    assert [c.wait(timeout=10) for c in children] == codes
                child = client.spawn(["/bin/sh", "-c", "exit 5"])
                assert child.wait(timeout=10) == 5
            assert served == [strategy] * 3
        finally:
            server.stop()


class TestHelperChannelsGoBack:
    """The loop pumps the channels of the helpers its tenants launch
    on; however it stops, each goes back to the callers that wait on
    it, so the shared pool stays usable by everyone else in the
    process."""

    @pytest.mark.parametrize("how", ["stop", "crash"])
    def test_a_pool_caller_outside_the_daemon_still_spawns_and_reaps(
            self, tmp_path, how):
        tenants = {"acme": TenantConfig(
            name="acme", **dict(FAST, strategy="forkserver-pool"))}
        server = make_server(tmp_path, tenants=tenants)
        client = GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN).connect()
        shared = get_strategy("forkserver-pool")
        try:
            for _ in range(3):
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            pumped = list(server._pumped)
            assert pumped and all(channel.reader is None
                                  for channel in pumped)
            client.close()
            server.stop() if how == "stop" else server.crash()
            for channel in pumped:  # no callback waits: no reader
                assert channel._loop is None and channel.reader is None
                assert channel._callers_read
            child = shared.pool().spawn(["/bin/sh", "-c", "exit 3"])
            assert child.wait(timeout=10) == 3
            # Each helper answers its goodbye: none waits out the
            # shutdown timeout for a reply nobody reads.
            started = time.monotonic()
            shared.shutdown()
            assert time.monotonic() - started < ForkServer.shutdown_timeout
        finally:
            client.close()
            server.stop()
            shared.shutdown()


class TestAuth:
    def test_wrong_token_is_auth_error_and_hangup(self, tmp_path):
        server = make_server(tmp_path)
        try:
            client = GatewayClient(server.unix_path, tenant="acme",
                                   token="let-me-in")
            with pytest.raises(AuthError):
                client.connect()
            client.close()
        finally:
            server.stop()

    def test_unknown_tenant_rejected(self, tmp_path):
        server = make_server(tmp_path)
        try:
            with pytest.raises(AuthError):
                GatewayClient(server.unix_path, tenant="evil",
                              token=TOKEN).connect()
        finally:
            server.stop()

    def test_ops_before_hello_refused(self, tmp_path):
        server = make_server(tmp_path)
        try:
            replies = raw_exchange(
                server.unix_path,
                [{"op": "spawn", "id": 1, "reqs": [{"argv": ["/bin/true"]}],
                  "nfds": 0}])
            assert replies[0]["error"]["code"] == "auth"
        finally:
            server.stop()


class TestAdmission:
    def test_rate_limit_with_retry_after(self, tmp_path):
        tenants = {"metered": TenantConfig(name="metered", rate=0.1,
                                           burst=2, **FAST)}
        server = make_server(tmp_path, tenants=tenants)
        try:
            with GatewayClient(server.unix_path, tenant="metered",
                               token=TOKEN) as client:
                children = [client.spawn(["/bin/true"]) for _ in range(2)]
                with pytest.raises(RateLimited) as excinfo:
                    client.spawn(["/bin/true"])
                assert excinfo.value.retry_after > 0
                for child in children:
                    assert child.wait(timeout=10) == 0
            assert (server.stats()["tenants"]["metered"]["rate_limited"]
                    >= 1)
        finally:
            server.stop()

    def test_lease_is_an_unknown_op_and_the_bucket_holds(self, tmp_path):
        """Protocol 4 has no ``lease``.  It reset a tenant's rate-exempt
        credits on every call, so three ``lease(60)`` calls let a
        1-req/s tenant through 180 spawns in 0.18 s."""
        tenants = {"metered": TenantConfig(name="metered", rate=1.0,
                                           burst=1.0, **FAST)}
        server = make_server(tmp_path, tenants=tenants)
        try:
            with GatewayClient(server.unix_path, tenant="metered",
                               token=TOKEN) as client:
                for _ in range(3):
                    with pytest.raises(GatewayProtocolError,
                                       match="unknown op 'lease'"):
                        client._roundtrip({"op": "lease", "count": 60,
                                           "ttl": 10.0}, timeout=10)
                started, children = time.monotonic(), []
                for _ in range(10):
                    try:
                        children.append(client.spawn(["/bin/true"]))
                    except RateLimited:
                        pass
                # The burst, plus what the bucket refilled meanwhile.
                assert len(children) <= 1 + (time.monotonic() - started)
                for child in children:
                    assert child.wait(timeout=10) == 0
        finally:
            server.stop()

    def test_oversized_batch_is_shed_with_hint(self, tmp_path):
        tenants = {"acme": TenantConfig(name="acme", max_queue=4, **FAST)}
        server = make_server(tmp_path, tenants=tenants)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                with pytest.raises(Overloaded) as excinfo:
                    client.spawn_batch(BatchRequest.of(
                        [["/bin/true"]] * 5))
                assert excinfo.value.retry_after > 0
            stats = server.stats()
            assert stats["shed_total"] == 1
            assert stats["internal_errors"] == 0
        finally:
            server.stop()

    def test_max_children_bound(self, tmp_path):
        tenants = {"acme": TenantConfig(name="acme", max_children=1,
                                        **FAST)}
        server = make_server(tmp_path, tenants=tenants)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                child = client.spawn(["/bin/sleep", "0.3"])
                with pytest.raises(Overloaded):
                    client.spawn(["/bin/true"])
                assert child.wait(timeout=10) == 0
                # Reaping released the slot.
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()


class TestDrain:
    def test_drain_refuses_new_finishes_old(self, tmp_path):
        server = make_server(tmp_path, drain_grace=2.5)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                child = client.spawn(["/bin/sleep", "0.3"])
                server.drain()
                deadline = time.monotonic() + 5.0
                while (not server.stats()["draining"]
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                with pytest.raises(Overloaded) as excinfo:
                    client.spawn(["/bin/true"])
                assert excinfo.value.retry_after == 2.5
                # In-flight service completes: the child spawned before
                # the drain is still waitable, stats still answer.
                assert child.wait(timeout=10) == 0
                assert server.stats()["draining"] is True
        finally:
            server.stop()

    def test_drain_op_over_the_wire(self, tmp_path):
        tenants = {"ops": TenantConfig(name="ops", admin=True, **FAST)}
        server = make_server(tmp_path, tenants=tenants)
        try:
            with GatewayClient(server.unix_path, tenant="ops",
                               token=TOKEN) as client:
                client.drain()
                with pytest.raises(Overloaded):
                    client.spawn(["/bin/true"])
                # The un-drain path: resume reopens admission.
                client.resume()
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()

    def test_drain_op_requires_admin(self, tmp_path):
        # One ordinary tenant must not be able to deny spawn service
        # to the whole fleet: drain is refused with a typed AuthError,
        # and the connection (it authenticated fine) keeps serving.
        server = make_server(tmp_path)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                with pytest.raises(AuthError):
                    client.drain()
                assert server.stats()["draining"] is False
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()

    def test_server_resume_reopens_admission(self, tmp_path):
        server = make_server(tmp_path)
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                server.drain()
                deadline = time.monotonic() + 5.0
                while (not server.stats()["draining"]
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                with pytest.raises(Overloaded):
                    client.spawn(["/bin/true"])
                server.resume()
                deadline = time.monotonic() + 5.0
                while (server.stats()["draining"]
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()

    def test_start_after_stop_serves_again(self, tmp_path):
        server = make_server(tmp_path)
        with GatewayClient(server.unix_path, tenant="acme",
                           token=TOKEN) as client:
            assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        server.stop()
        server.start()  # documented restartable: latches must reset
        try:
            assert server.stats()["draining"] is False
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()


class TestMalformedClients:
    """Satellite 4: malformed frames never crash the server and always
    yield typed protocol errors."""

    def test_junk_bytes_get_a_typed_error_and_hangup(self, tmp_path):
        server = make_server(tmp_path)
        try:
            replies = raw_exchange(server.unix_path,
                                   [struct.pack("!I", 4) + b"!!!!"])
            assert replies[0]["error"]["code"] == "protocol"
            assert "id" not in replies[0]
            # The daemon sheds that one connection and keeps serving.
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert server.stats()["internal_errors"] == 0
        finally:
            server.stop()

    def test_oversized_length_prefix(self, tmp_path):
        server = make_server(tmp_path)
        try:
            replies = raw_exchange(server.unix_path,
                                   [struct.pack("!I", 1 << 31)])
            assert replies[0]["error"]["code"] == "protocol"
            assert server.stats()["internal_errors"] == 0
        finally:
            server.stop()

    def test_unknown_op_keeps_connection_alive(self, tmp_path):
        server = make_server(tmp_path)
        try:
            replies = raw_exchange(
                server.unix_path,
                [{"op": "teleport", "id": 9}, {"op": "stats", "id": 10}],
                replies_wanted=2, hello=("acme", TOKEN))
            # An unknown op fails request validation before the id is
            # trusted, so the error frame is un-addressed — but the
            # connection itself keeps serving.
            assert replies[0]["error"]["code"] == "protocol"
            assert "teleport" in replies[0]["error"]["message"]
            assert replies[1]["id"] == 10  # same connection still works
            assert "stats" in replies[1]
        finally:
            server.stop()

    def test_lost_fd_grant_detected(self, tmp_path):
        server = make_server(tmp_path)
        try:
            # Claim 3 granted fds without granting any.
            replies = raw_exchange(
                server.unix_path,
                [{"op": "spawn", "id": 4, "reqs": [{"argv": ["/bin/true"]}],
                  "nfds": 3}],
                hello=("acme", TOKEN))
            assert replies[0]["error"]["code"] == "protocol"
            assert "grant" in replies[0]["error"]["message"]
            assert server.stats()["internal_errors"] == 0
        finally:
            server.stop()

    def test_rejected_spawn_does_not_strand_its_fd_grant(self, tmp_path):
        # A spawn whose validation fails after granting stdio must not
        # leave its fds in the connection's pending list for the *next*
        # request to claim FIFO: the follow-up spawn's pipe must carry
        # the follow-up's own output, and the rejected grant must be
        # closed, not wired into anyone's child.
        server = make_server(tmp_path)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(server.unix_path)
            sock.settimeout(10.0)
            decoder = FrameDecoder()
            replies = []

            def recv_until(count):
                while len(replies) < count:
                    data = sock.recv(65536)
                    if not data:
                        break
                    replies.extend(decoder.feed(data))

            def send_with_fds(frame, fds):
                sock.sendmsg([encode_frame(frame)],
                             [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                               array.array("i", fds).tobytes())])

            sock.sendall(encode_frame({"op": "hello", "id": 0,
                                       "tenant": "acme", "token": TOKEN}))
            recv_until(1)
            assert replies[0].get("ok") is True
            bad_r, bad_w = os.pipe()
            good_r, good_w = os.pipe()
            devnull = os.open(os.devnull, os.O_RDONLY)
            try:
                send_with_fds({"op": "spawn", "id": 1,
                               "reqs": [{"argv": []}],
                               "nfds": 3}, [devnull, bad_w, bad_w])
                send_with_fds({"op": "spawn", "id": 2, "reqs": [
                    {"argv": ["/bin/sh", "-c", "echo good"]}],
                               "nfds": 3}, [devnull, good_w, good_w])
                recv_until(3)
            finally:
                os.close(devnull)
                os.close(bad_w)
                os.close(good_w)
            by_id = {reply.get("id"): reply for reply in replies}
            assert by_id[1]["error"]["code"] == "protocol"
            (pid,) = by_id[2]["pids"]
            recv_until(4)  # the child's exit notice, pushed unasked
            assert replies[3] == {"exit": pid, "status": 0}
            with open(good_r, "rb") as out:
                assert out.read() == b"good\n"
            with open(bad_r, "rb") as out:
                assert out.read() == b""  # the rejected grant is closed
            assert server.stats()["internal_errors"] == 0
        finally:
            sock.close()
            server.stop()

    def test_short_fd_grant_hangs_up_the_connection(self, tmp_path):
        # Claiming 3 fds while granting only 2 leaves the grant/request
        # association unrecoverable: the daemon answers with a typed
        # protocol error, then drops the connection (which closes the
        # stranded fds) instead of letting a later request claim them.
        server = make_server(tmp_path)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(server.unix_path)
            sock.settimeout(10.0)
            decoder = FrameDecoder()
            replies = []
            sock.sendall(encode_frame({"op": "hello", "id": 0,
                                       "tenant": "acme", "token": TOKEN}))
            while not replies:
                replies.extend(decoder.feed(sock.recv(65536)))
            read_fd, write_fd = os.pipe()
            try:
                sock.sendmsg(
                    [encode_frame({"op": "spawn", "id": 1, "reqs": [
                        {"argv": ["/bin/true"]}], "nfds": 3})],
                    [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                      array.array("i", [read_fd, write_fd]).tobytes())])
            finally:
                os.close(read_fd)
                os.close(write_fd)
            error = None
            while True:
                data = sock.recv(65536)
                if not data:
                    break  # the daemon hung up, as it must
                for reply in decoder.feed(data):
                    if "error" in reply:
                        error = reply
            assert error is not None
            assert error["error"]["code"] == "protocol"
            assert "grant" in error["error"]["message"]
            assert server.stats()["internal_errors"] == 0
        finally:
            sock.close()
            server.stop()

    def test_malformed_op_payloads_are_protocol_errors(self, tmp_path):
        server = make_server(tmp_path)
        bad_requests = [
            {"op": "spawn", "id": 1, "reqs": [{"argv": []}], "nfds": 0},
            {"op": "spawn", "id": 2, "reqs": [{"argv": "/bin/true"}],
             "nfds": 0},
            {"op": "spawn", "id": 3, "reqs": [{"argv": ["/bin/true"]}],
             "nfds": 7},
            {"op": "spawn", "id": 4, "reqs": [{"argv": ["/bin/true"],
                                               "env": 5}], "nfds": 0},
            {"op": "spawn", "id": 5, "reqs": [], "nfds": 0},
            {"op": "spawn", "id": 6, "reqs": [{"no": "argv"}], "nfds": 0},
            # Protocol 3's lease op: unknown since protocol 4.
            {"op": "lease", "id": 7, "count": -2},
            {"op": "lease", "id": 8, "ttl": "forever"},
            {"op": "wait", "id": 9, "pid": "four"},
            # Protocol 2's launch shapes: refused typed, never guessed at.
            {"op": "spawn", "id": 10, "argv": ["/bin/true"], "nfds": 0},
            {"op": "spawn_batch", "id": 11, "reqs": [{"argv": ["/bin/true"]}],
             "nfds": 0},
        ]
        try:
            replies = raw_exchange(server.unix_path, bad_requests,
                                   replies_wanted=len(bad_requests),
                                   hello=("acme", TOKEN))
            assert len(replies) == len(bad_requests)
            for request, reply in zip(bad_requests, replies):
                assert reply["id"] == request["id"]
                assert reply["error"]["code"] == "protocol", reply
            assert server.stats()["internal_errors"] == 0
        finally:
            server.stop()


class TestTcpTransport:
    def test_spawn_over_tcp_without_stdio(self, tmp_path):
        server = make_server(tmp_path, unix_path=None, tcp_port=0)
        try:
            address = ("127.0.0.1", server.tcp_port)
            with GatewayClient(address, tenant="acme",
                               token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
                # stdio wiring cannot travel over TCP: refused locally.
                read_fd, write_fd = os.pipe()
                try:
                    with pytest.raises(GatewayError):
                        client.spawn(["/bin/echo", "x"], stdout=write_fd)
                finally:
                    os.close(read_fd)
                    os.close(write_fd)
        finally:
            server.stop()

    def test_fd_claim_over_tcp_is_a_protocol_error(self, tmp_path):
        server = make_server(tmp_path, unix_path=None, tcp_port=0)
        try:
            sock = socket.create_connection(("127.0.0.1",
                                             server.tcp_port), timeout=5)
            decoder = FrameDecoder()
            replies = []
            try:
                sock.sendall(encode_frame({"op": "hello", "id": 0,
                                           "tenant": "acme",
                                           "token": TOKEN}))
                sock.sendall(encode_frame({"op": "spawn", "id": 1, "reqs": [
                    {"argv": ["/bin/true"]}], "nfds": 3}))
                while len(replies) < 2:
                    replies += decoder.feed(sock.recv(65536))
            finally:
                sock.close()
            assert replies[1]["error"]["code"] == "protocol"
        finally:
            server.stop()


class TestStandaloneDaemon:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        config_path = tmp_path / "gateway.json"
        config_path.write_text(json.dumps({
            "unix_path": str(tmp_path / "daemon.sock"),
            "drain_grace": 5.0,
            "tenants": [{"name": "acme", "token": TOKEN,
                         "strategy": "posix_spawn"}],
        }))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.gateway", str(config_path)],
            stdout=subprocess.PIPE, env=env, cwd=os.getcwd(), text=True)
        try:
            assert "listening" in daemon.stdout.readline()
            with GatewayClient(str(tmp_path / "daemon.sock"),
                               tenant="acme", token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=15) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()


class TestConfig:
    def test_gateway_tenant_strategy_recursion_refused(self):
        with pytest.raises(GatewayError):
            TenantConfig(name="ouroboros", token="t", strategy="gateway")

    def test_config_needs_a_listener_and_a_tenant(self):
        with pytest.raises(GatewayError):
            GatewayConfig(unix_path=None, tcp_port=None,
                          tenants={"a": TenantConfig(name="a", token="t")})
        with pytest.raises(GatewayError):
            GatewayConfig(unix_path="/tmp/x.sock", tenants={})

    def test_from_dict_round_trip(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text(json.dumps({
            "unix_path": str(tmp_path / "gw.sock"),
            "max_inflight": 7,
            "accept_backlog": 9,
            "tenants": [{"name": "a", "token": "ta", "rate": 10,
                         "burst": 20, "weight": 2.0, "admin": True},
                        {"name": "b", "token": "tb"}],
        }))
        config = GatewayConfig.from_file(str(path))
        assert config.max_inflight == 7
        assert config.accept_backlog == 9
        assert config.tenants["a"].weight == 2.0
        assert config.tenants["a"].admin is True
        assert config.tenants["b"].rate is None
        assert config.tenants["b"].admin is False

    @pytest.mark.parametrize("tenant, key", [
        ({"name": "a"}, "token"),
        ({"name": "a", "token": "t", "max_queue": "lots"}, "max_queue"),
        ({"name": "a", "token": "t", "policy": {"jitter": 0.5}}, "jitter"),
        ({"name": "a", "token": "t", "policy": {"retries": -1}}, "retries"),
        ({"name": "a", "token": "t", "admin": "false"}, "admin"),
    ], ids=["no-token", "max-queue-not-a-number", "removed-policy-key",
            "negative-retries", "admin-not-a-bool"])
    def test_a_malformed_tenant_is_one_typed_error(self, tenant, key):
        with pytest.raises(GatewayError) as refusal:
            GatewayConfig.from_dict({"unix_path": "/tmp/x.sock",
                                     "tenants": [tenant]})
        assert type(refusal.value) is GatewayError
        assert "tenant 'a'" in str(refusal.value)
        assert key in str(refusal.value)

    def test_a_retired_key_in_an_old_config_still_loads(self):
        # executor_threads is gone (the executor is the failure
        # ladder's, sized by max_inflight); files that carry it load.
        config = GatewayConfig.from_dict({
            "unix_path": "/tmp/x.sock", "executor_threads": 4,
            "tenants": [{"name": "a", "token": "t"}]})
        assert not hasattr(config, "executor_threads")
        with pytest.raises(TypeError):
            GatewayConfig(unix_path="/tmp/x.sock", executor_threads=4,
                          tenants=config.tenants)

    def test_a_strategy_nobody_registered_fails_the_start(self, tmp_path):
        # A config in the wild may name a strategy that is gone: one
        # typed error at start() that names the known ones, not one per
        # spawn of that tenant charged to its breaker.
        def tenant(strategy):
            return {"acme": TenantConfig(name="acme", token=TOKEN,
                                         strategy=strategy)}

        with pytest.raises(GatewayError,
                           match="'acme'.*unknown strategy 'template'"
                                 ".*forkserver-pool"):
            make_server(tmp_path, tenant("template"))
        assert not os.path.exists(tmp_path / "gw.sock")
        server = make_server(tmp_path, tenant("forkserver"))
        try:
            with GatewayClient(server.unix_path, tenant="acme",
                               token=TOKEN) as client:
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
        finally:
            server.stop()
            get_strategy("forkserver").shutdown()

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(GatewayError):
            GatewayConfig.from_dict({
                "unix_path": "/tmp/x.sock",
                "tenants": [{"name": "a", "token": "1"},
                            {"name": "a", "token": "2"}]})


def test_spawn_error_maps_to_wire_spawn_error():
    # SpawnError is not a GatewayError; the daemon wraps ladder
    # failures so the wire never carries an unnamed exception type.
    assert not issubclass(SpawnError, GatewayError)
