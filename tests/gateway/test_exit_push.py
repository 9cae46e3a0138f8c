"""The gateway pushes exits: reaping costs no round trip and no thread.

The daemon subscribes every child with ``ChildProcess.on_exit`` right
after queueing its spawn reply and pushes ``{"exit": pid, "status":
rc}`` down the spawning connection the moment it exits; the client
reaps from a local per-pid slot.  What must hold:

* a notice never precedes the reply that hands out its pid, and no exit
  is ever lost — so an ordinary ``wait()`` sends nothing at all;
* the ``wait`` op is a non-blocking claim, used after a reconnect (the
  child's true status survives the blip) and once by a timed wait about
  to give up (a lost notice costs a timeout, not a hang);
* tenant B neither receives nor can claim tenant A's exits;
* a fire-and-forget client does not grow ``children`` without bound;
* no daemon thread is created per wait.
"""

import select
import socket
import sys
import threading
import time

import pytest

from repro.core import Backoff, SpawnPolicy
from repro.core.strategies import get_strategy
from repro.errors import GatewayError, Overloaded, SpawnError
from repro.faults import FAULTS, FaultPlan
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.wire import FrameDecoder, encode_frame

TOKEN = "push-token"

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


def dial(server, tenant="acme", **kwargs):
    return GatewayClient(server.unix_path, tenant=tenant, token=TOKEN,
                         **kwargs).connect()


def count_ops(server, op):
    """Count the ``op`` requests the daemon handles from here on."""
    seen = []
    handle = server._handle_frame

    def counting(conn, frame):
        if frame.get("op") == op:
            seen.append(frame)
        return handle(conn, frame)

    server._handle_frame = counting
    return seen


def drop_notices(server):
    """Lose every exit notice on its way out (replies still flow)."""
    push = server._push

    def dropping(conn, obj):
        if "exit" not in obj:
            push(conn, obj)

    server._push = dropping


def children_of(server, tenant="acme"):
    return server.stats()["tenants"][tenant]["children"]


def until(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestOrdering:
    @pytest.mark.parametrize("strategy, per_thread",
                             [("posix_spawn", 500),
                              ("forkserver-pool", 150)])
    def test_hammer_no_notice_before_its_reply_no_lost_exit(
            self, tmp_path, strategy, per_thread):
        """4 threads on one connection: every exit finds its slot open,
        every wait() is answered locally, nothing is ECHILD."""
        tenants = {"acme": TenantConfig(name="acme",
                                        **dict(FAST, strategy=strategy))}
        server = make_server(tmp_path, tenants=tenants)
        claims = count_ops(server, "wait")
        client = dial(server)
        channel = client._channel
        early, route = [], channel._route

        def checking(frame):
            if "exit" in frame and frame["exit"] not in channel.exits:
                early.append(frame)  # overtook the reply with its pid
            return route(frame)

        channel._route = checking
        errors = []

        def worker(index):
            try:
                for n in range(per_thread):
                    # Mostly gone before the daemon subscribes; every
                    # tenth still runs, so both paths stay exercised.
                    argv = (("/bin/sleep", "0.01") if n % 10 == index
                            else ("/bin/true",))
                    child = client.spawn(argv)
                    assert child.wait(timeout=30) == 0
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # more thread switches, more races
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert early == []
            assert claims == []  # not one wait op crossed the wire
            assert channel.exits == {} and channel.pending == {}
            stats = server.stats()
            assert stats["tenants"]["acme"]["completed"] == 4 * per_thread
            assert stats["tenants"]["acme"]["children"] == 0
            assert stats["internal_errors"] == 0
        finally:
            sys.setswitchinterval(interval)
            client.close()
            server.stop()
            get_strategy("forkserver-pool").shutdown()

    def test_reply_and_notices_of_the_already_gone_share_one_send(
            self, tmp_path):
        server = make_server(tmp_path)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(server.unix_path)
            sock.settimeout(10.0)
            sock.sendall(encode_frame({"op": "hello", "id": 0,
                                       "tenant": "acme", "token": TOKEN}))
            decoder = FrameDecoder()
            assert decoder.feed(sock.recv(65536))[0]["ok"] is True
            # The launch holds the job until the members are dead, so
            # the daemon finds all three gone when it subscribes.
            spawn = server._execute

            def slow(job):
                result = yield from spawn(job)
                time.sleep(0.3)
                return result

            server._execute = slow
            sock.sendall(encode_frame(
                {"op": "spawn", "id": 1, "nfds": 0,
                 "reqs": [{"argv": ["/bin/sh", "-c", f"exit {code}"]}
                          for code in (3, 0, 7)]}))
            frames = decoder.feed(sock.recv(65536))  # ONE recv
            assert len(frames) == 4
            pids = frames[0]["pids"]
            assert frames[0]["id"] == 1 and len(pids) == 3
            assert frames[1:] == [{"exit": pid, "status": code}
                                  for pid, code in zip(pids, (3, 0, 7))]
        finally:
            sock.close()
            server.stop()


class TestClaims:
    def test_child_spawned_before_a_conn_reset_keeps_its_status(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.02))
        server = make_server(tmp_path)
        claims = count_ops(server, "wait")
        client = dial(server)
        try:
            child = client.spawn(("/bin/sh", "-c", "sleep 0.3; exit 7"))
            with FAULTS.active(FaultPlan().add("conn_reset", times=1)):
                client.stats()  # reset mid-send, healed by a re-dial
                assert ("gateway.frame", "conn_reset") in FAULTS.fired
            assert client.reconnects == 1
            # Still running: the claim re-points its notice at the new
            # connection, and the notice brings the real status.
            assert child.wait(timeout=30) == 7
            assert [frame["pid"] for frame in claims] == [child.pid]
        finally:
            client.close()
            server.stop()

    def test_exit_during_the_blip_is_claimed_from_the_daemon(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(GatewayClient, "backoff", Backoff(0.02))
        server = make_server(tmp_path)
        client = dial(server)
        try:
            child = client.spawn(("/bin/sh", "-c", "sleep 0.2; exit 9"))
            client._channel.sock.shutdown(socket.SHUT_RDWR)
            # It dies with nobody connected to tell.
            assert until(lambda: children_of(server) == 0)
            assert child.poll() == 9  # even a poll claims after a blip
            assert client.reconnects == 1
        finally:
            client.close()
            server.stop()

    def test_a_filled_slot_outlives_its_connection(self, tmp_path):
        server = make_server(tmp_path)
        claims = count_ops(server, "wait")
        client = dial(server)
        try:
            child = client.spawn(("/bin/sh", "-c", "exit 4"))
            # Nobody reads the socket between calls: the notice is filed
            # already (it left with the reply) or, once the daemon has
            # pushed it, waits on the socket — the only frame that comes
            # unasked — for close() to file it before it hangs up.
            channel = client._channel
            assert (channel.exits[child.pid].status is not None
                    or select.select([channel.sock], [], [], 10.0)[0])
            client.close()
            assert child.wait(timeout=5) == 4  # no daemon needed
            assert claims == []
        finally:
            client.close()
            server.stop()

    def test_a_poll_sees_an_exit_already_pushed(self, tmp_path):
        """No reader thread files notices between calls: a WNOHANG
        ``poll()`` reads what has arrived before it looks."""
        server = make_server(tmp_path)
        claims = count_ops(server, "wait")
        client = dial(server)
        try:
            child = client.spawn(("/bin/sh", "-c", "sleep 0.05; exit 3"))
            channel = client._channel
            assert select.select([channel.sock], [], [], 10.0)[0]
            assert child.poll() == 3
            assert claims == []
        finally:
            client.close()
            server.stop()

    def test_lost_notice_costs_a_timed_wait_its_timeout_not_a_hang(
            self, tmp_path):
        server = make_server(tmp_path)
        drop_notices(server)
        claims = count_ops(server, "wait")
        client = dial(server)
        try:
            child = client.spawn(("/bin/sh", "-c", "exit 6"))
            assert until(lambda: children_of(server) == 0)
            assert child.poll() is None  # polls stay free: no claim
            assert claims == []
            started = time.monotonic()
            assert child.wait(timeout=0.4) == 6
            assert 0.35 <= time.monotonic() - started < 2.0
            assert len(claims) == 1
        finally:
            client.close()
            server.stop()

    def test_lost_notice_and_lost_claim_reply_still_honour_the_timeout(
            self, tmp_path):
        """The old reaper made its round trip with no deadline: a
        dropped ``wait`` reply hung ``wait(timeout=t)`` forever."""
        server = make_server(tmp_path)
        drop_notices(server)
        claims = count_ops(server, "wait")
        client = dial(server)
        try:
            child = client.spawn(("/bin/sh", "-c", "exit 6"))
            assert until(lambda: children_of(server) == 0)
            with FAULTS.active(FaultPlan().add("drop_reply", times=1)):
                started = time.monotonic()
                with pytest.raises(SpawnError):
                    child.wait(timeout=0.5)
                assert 0.45 <= time.monotonic() - started < 3.0
                assert ("gateway.reply", "drop_reply") in FAULTS.fired
            assert len(claims) == 1
            # The claim is idempotent: the status is still there.
            assert child.wait(timeout=0.2) == 6
            assert len(claims) == 2 and client._channel.pending == {}
        finally:
            client.close()
            server.stop()

    def test_drop_reply_spares_exit_notices(self, tmp_path):
        server = make_server(tmp_path)
        client = dial(server, timeout=1.0)
        try:
            plan = FaultPlan().add("drop_reply", after=1, times=1)
            with FAULTS.active(plan):
                child = client.spawn(("/bin/sh", "-c", "sleep 0.1; exit 2"))
                # The notice is the 2nd frame out, and it arrives...
                assert child.wait() == 2
                # ...because the fault waits for the next *reply*.
                with pytest.raises(SpawnError):
                    client.ping()
        finally:
            client.close()
            server.stop()

    def test_unknown_pid_claim_is_typed(self, tmp_path):
        server = make_server(tmp_path)
        client = dial(server)
        try:
            with pytest.raises(GatewayError, match="not a live child"):
                client._reap(1, 0, 1.0)
        finally:
            client.close()
            server.stop()


class TestTenantIsolation:
    def test_b_neither_receives_nor_claims_a_exits(self, tmp_path):
        tenants = {name: TenantConfig(name=name, **FAST)
                   for name in ("a", "b")}
        server = make_server(tmp_path, tenants=tenants)
        alice = dial(server, tenant="a")
        bob = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            bob.connect(server.unix_path)
            bob.settimeout(5.0)
            decoder = FrameDecoder()

            def ask(frame):
                bob.sendall(encode_frame(frame))
                return decoder.feed(bob.recv(65536))

            assert ask({"op": "hello", "id": 0, "tenant": "b",
                        "token": TOKEN})[0]["ok"] is True
            child = alice.spawn(("/bin/sh", "-c", "sleep 0.2; exit 5"))
            # Live: B's claim must not re-point A's notice.
            reply, = ask({"op": "wait", "id": 1, "pid": child.pid})
            assert reply["error"]["code"] == "gateway"
            assert child.wait(timeout=10) == 5  # A was told, not B
            # Exited: B cannot read A's remembered status either.
            reply, = ask({"op": "wait", "id": 2, "pid": child.pid})
            assert reply["error"]["code"] == "gateway"
            bob.settimeout(0.3)
            with pytest.raises(socket.timeout):
                bob.recv(65536)  # and no notice ever came B's way
            assert server.stats()["internal_errors"] == 0
        finally:
            bob.close()
            alice.close()
            server.stop()


class TestBounds:
    def test_fire_and_forget_children_leave_on_exit(self, tmp_path):
        """``children`` used to shrink only on ``wait``: a client that
        never waited grew it for ever and then tripped max_children."""
        tenants = {"acme": TenantConfig(name="acme", max_children=8,
                                        max_queue=256, **FAST)}
        server = make_server(tmp_path, tenants=tenants)
        client = dial(server)
        try:
            spawned = 0
            while spawned < 200:
                try:
                    client.spawn(("/bin/true",))
                    spawned += 1
                except Overloaded:  # 8 alive at once; they are brief
                    time.sleep(0.005)
            assert until(lambda: children_of(server) == 0)
            assert client.spawn(("/bin/true",)).wait(timeout=10) == 0
        finally:
            client.close()
            server.stop()

    def test_remembered_exits_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.gateway.server.EXITS_KEPT", 5)
        server = make_server(tmp_path)
        client = dial(server)
        try:
            for _ in range(12):
                assert client.spawn(("/bin/true",)).wait(timeout=10) == 0
            assert len(server._tenants["acme"].exited) == 5
        finally:
            client.close()
            server.stop()

    def test_thread_count_is_flat_across_300_blocking_waits(
            self, tmp_path):
        # One launch at a time: the executor is sized by max_inflight,
        # so the pool itself cannot add a thread after its first.  (An
        # idle worker is not always found idle: it posts its job's
        # result before the executor counts it as free.)  A
        # forkserver-pool tenant's launch makes no hop at all: the loop
        # pumps its helpers' channels, so neither the reply nor the exit
        # notice is posted to it from another thread; no helper it
        # drives has a reader thread, and no client has one.
        tenants = {"acme": TenantConfig(name="acme", **FAST),
                   "pool": TenantConfig(name="pool", **dict(
                       FAST, strategy="forkserver-pool"))}
        server = make_server(tmp_path, tenants=tenants, max_inflight=1)
        client, pooled = dial(server), dial(server, tenant="pool")
        posts, post = [], server._post
        server._post = lambda *args: (posts.append(args[0].__name__),
                                      post(*args))[1]
        try:
            for _ in range(5):  # ...once it has spun up
                assert client.spawn(("/bin/true",)).wait() == 0
                assert pooled.spawn(("/bin/true",)).wait() == 0
            pool = get_strategy("forkserver-pool").pool()
            helpers = [slot.server._channel for slot in pool._slots
                       if slot.server is not None]
            before = threading.active_count()
            peak = before
            del posts[:]
            for n in range(100):
                assert pooled.spawn(("/bin/true",)).wait() == 0
                peak = max(peak, threading.active_count())
                assert all(channel in server._pumped
                           and channel.reader is None
                           for channel in helpers)
                assert not any(thread.name == "gateway-reader"
                               for thread in threading.enumerate())
            assert posts == []
            for n in range(300):
                argv = (("/bin/sleep", "0.005") if n % 10 == 0
                        else ("/bin/true",))
                assert client.spawn(argv).wait() == 0
                peak = max(peak, threading.active_count())
            assert peak == before
            assert "waiting" not in server.stats()["tenants"]["acme"]
        finally:
            client.close()
            pooled.close()
            server.stop()
            get_strategy("forkserver-pool").shutdown()
