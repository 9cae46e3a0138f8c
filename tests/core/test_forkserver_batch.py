"""Batched spawning: one wire frame, N children, honest load accounting."""

import os
import time

import pytest

from repro.core import (BatchRequest, ForkServer, ForkServerPool,
                        ProcessBuilder, SpawnPolicy, SpawnPool, SpawnRequest,
                        breaker_for, reset_breakers, spawn_batch)
from repro.core.batch import batch_unit
from repro.core.spawn import _spawn_batch_steps
from repro.core.steps import run_steps
from repro.core.strategies import get_strategy
from repro.errors import ExecError, GatewayProtocolError, SpawnError
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.obs import TELEMETRY


class TestForkServerBatch:
    def test_statuses_in_request_order(self):
        with ForkServer() as server:
            children = server.spawn_batch(BatchRequest.of(
                [["/bin/sh", "-c", f"exit {code}"] for code in (3, 0, 7)]))
            assert [c.wait(timeout=10) for c in children] == [3, 0, 7]

    def test_per_member_stdio(self):
        with ForkServer() as server:
            read_fd, write_fd = os.pipe()
            children = server.spawn_batch(BatchRequest([
                SpawnRequest(["/bin/echo", "batched"], stdout=write_fd),
                SpawnRequest(["/bin/true"]),
            ]))
            os.close(write_fd)
            assert [c.wait(timeout=10) for c in children] == [0, 0]
            with open(read_fd, "rb") as out:
                assert out.read() == b"batched\n"

    def test_members_with_cwd_and_without_share_a_batch(self, tmp_path):
        with ForkServer() as server:
            pipes = [os.pipe() for _ in range(2)]
            children = server.spawn_batch(BatchRequest([
                SpawnRequest(["/bin/pwd"], cwd=str(tmp_path),
                             stdout=pipes[0][1]),
                SpawnRequest(["/bin/pwd"], stdout=pipes[1][1])]))
            for _, w in pipes:
                os.close(w)
            outs = []
            for r, _ in pipes:
                with open(r, "rb") as out:
                    outs.append(out.read().strip())
            assert [c.wait(timeout=10) for c in children] == [0, 0]
            assert outs[0] == str(tmp_path).encode()
            assert outs[1] != outs[0]

    def test_empty_batch_rejected(self):
        with ForkServer() as server:
            with pytest.raises(SpawnError):
                server.spawn_batch(BatchRequest([]))

    def test_batch_larger_than_old_ancillary_cap(self):
        # Regression: 3 fds per member crosses 16 total at 6 members;
        # the helper's ancillary buffer must hold a full batch grant,
        # not silently truncate it into an EPROTO refusal.
        with ForkServer() as server:
            children = server.spawn_batch(
                BatchRequest.of([["/bin/true"]] * 10))
            assert [c.wait(timeout=10) for c in children] == [0] * 10

    def test_batch_past_scm_rights_limit_is_refused_loudly(self):
        # One SCM_RIGHTS message carries at most 253 fds (84 members);
        # a bigger batch fails with a clear error before hitting the
        # wire, and the channel stays healthy.
        with ForkServer() as server:
            with pytest.raises(SpawnError) as excinfo:
                server.spawn_batch(
                    BatchRequest.of([["/bin/true"]] * 85))
            assert "split the batch" in str(excinfo.value)
            assert server.healthy
            assert server.spawn(["/bin/true"]).wait(timeout=10) == 0


class TestPoolBatch:
    def test_exit_codes_in_order(self):
        with ForkServerPool(2) as pool:
            children = pool.spawn_batch(BatchRequest.of(
                [["/bin/sh", "-c", f"exit {code}"] for code in range(5)]))
            assert [c.wait(timeout=10) for c in children] == list(range(5))

    def test_batch_billed_at_member_count(self):
        # Load accounting is the pool's dispatch signal: a batch of 4
        # sleeping children must weigh 4, not 1, while they run.
        with ForkServerPool(2) as pool:
            children = pool.spawn_batch(
                BatchRequest.of([["/bin/sleep", "0.4"]] * 4))
            assert pool.queue_depth() == 4
            for child in children:
                assert child.wait(timeout=10) == 0
            deadline = 50
            while pool.queue_depth() > 0 and deadline > 0:
                time.sleep(0.05)
                deadline -= 1
            # Each reaped child releases exactly one unit.
            assert pool.queue_depth() == 0


class TestACallersMistakeCostsNoHelper:
    """A unit no helper could take — an oversized batch, or a member no
    exec could take — is refused at the front door, before a tier is
    tried or a helper picked: no strike, no retry, no breaker failure,
    no helper retired.  (Three oversized batches used to kill the
    pool's healthy helper, and one malformed member charged every tier
    of the ladder and retired a pool helper.)"""

    OVERSIZED = BatchRequest.of([["/bin/true"]] * 100)
    #: Members no exec could take; ``SpawnAttributes.validate`` and the
    #: builder's argv check name each.
    MALFORMED = [
        dict(env={"": "x"}),
        dict(env={"A=B": "x"}),
        dict(env={"A\0B": "x"}),
        dict(env={"A": "x\0y"}),
        dict(env={"A": 1}),
        dict(argv=["/bin/true", "a\0b"]),
    ]
    POLICY = SpawnPolicy(retries=2, backoff=0.01,
                         fallback=("forkserver", "posix_spawn"))
    TIERS = ("forkserver-pool", "forkserver", "posix_spawn")

    def mistakes(self):
        """Each mistake as a ``BatchRequest``, behind a good member."""
        yield self.OVERSIZED
        for bad in self.MALFORMED:
            yield BatchRequest([
                SpawnRequest(["/bin/true"]),
                SpawnRequest(bad.get("argv", ["/bin/true"]),
                             env=bad.get("env"))])

    def refused_three_times(self, entry, requests, error=SpawnError,
                            **kwargs):
        TELEMETRY.enable(sink=None, reset_metrics=True)
        try:
            for _ in range(3):
                with pytest.raises(error, match="split the batch|"
                                   "environment entr|NUL in argv"):
                    entry(requests, **kwargs)
            return [name for name, _, _ in TELEMETRY.metrics.counters()]
        finally:
            TELEMETRY.disable()

    def test_on_the_pool(self):
        with ForkServerPool(1) as pool:
            held = pool.spawn(["/bin/sleep", "0.3"])
            helpers = pool.helper_pids()
            for requests in self.mistakes():
                counted = self.refused_three_times(pool.spawn_batch,
                                                   requests)
                assert "spawn_retry" not in counted
            assert pool.helper_pids() == helpers and pool.respawns == 0
            assert [slot.strikes for slot in pool._slots] == [0]
            # ...so the exit notice of a child it held still arrives.
            assert held.wait(timeout=10) == 0

    def test_on_the_ladder(self):
        """The module ``spawn_batch`` and a builder under a policy: the
        two front doors of the one ladder walker."""
        def built(requests, policy):
            (member,) = requests
            builder = (ProcessBuilder(*member.argv).policy(policy)
                       .strategy("forkserver-pool"))
            if member.env is not None:
                builder.env(member.env)
            return builder.spawn()

        reset_breakers()
        try:
            pool = get_strategy("forkserver-pool").pool()
            helpers = pool.helper_pids()
            for requests in self.mistakes():
                counted = self.refused_three_times(spawn_batch, requests,
                                                   policy=self.POLICY)
                assert not {"spawn_retry", "fallback"} & set(counted)
                if len(requests) < 3:
                    counted = self.refused_three_times(
                        built, BatchRequest(requests.members[1:]),
                        policy=self.POLICY)
                    assert not {"spawn_retry", "fallback"} & set(counted)
            assert pool.helper_pids() == helpers and pool.respawns == 0
            for tier in self.TIERS:
                assert breaker_for(tier).failures == 0
        finally:
            get_strategy("forkserver-pool").shutdown()
            reset_breakers()

    def test_on_a_gateway_tenant(self, tmp_path):
        """A raw member reaches the daemon, whose ``from_wire`` answers
        a typed protocol error before admission; ``spawn_batch`` is
        refused by the client's own front door first."""
        token = "mistake-token"
        server = GatewayServer(GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            tenants={"acme": TenantConfig(name="acme", token=token,
                                          policy=self.POLICY)})).start()
        reset_breakers()
        try:
            pool = get_strategy("forkserver-pool").pool()
            helpers = pool.helper_pids()
            with GatewayClient(server.unix_path, tenant="acme",
                               token=token) as client:
                for requests in self.mistakes():
                    self.refused_three_times(client.spawn_batch, requests)
                    if len(requests) < 3:
                        member = requests.members[1]
                        self.refused_three_times(
                            client.spawn, member.argv,
                            error=GatewayProtocolError, env=member.env)
                assert client.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert pool.helper_pids() == helpers and pool.respawns == 0
            for tier in self.TIERS + ("gateway:acme",):
                assert breaker_for(tier).failures == 0
            stats = server.stats()["tenants"]["acme"]
            assert stats["admitted"] == 1 and stats["failed"] == 0
        finally:
            server.stop()
            get_strategy("forkserver-pool").shutdown()
            reset_breakers()


class TestAMemberNoTierCanExecute:
    """A batch holding a member that cannot be executed fails whole on
    every tier, through the ladder, with the typed error: no sibling
    left running, no descriptor left open, no tier charged."""

    @pytest.mark.parametrize("tier", ["forkserver-pool", "forkserver",
                                      "posix_spawn", "fork_exec",
                                      "gateway"])
    def test_the_batch_fails_whole(self, monkeypatch, tier):
        monkeypatch.delenv("REPRO_GATEWAY", raising=False)
        policy = SpawnPolicy(retries=2, backoff=0.01)

        def batch(members):
            return run_steps(_spawn_batch_steps(batch_unit(
                "test", BatchRequest(members), policy=policy), tier))

        reset_breakers()
        try:
            # Boot any service, at the width the failing batch needs: a
            # per-member tier's pool grows a helper behind a live child.
            for child in batch([SpawnRequest(["/bin/sleep", "0.2"]),
                                SpawnRequest(["/bin/true"])]).children:
                assert child.wait(timeout=30) == 0
            before = set(os.listdir("/proc/self/fd"))
            r, w = os.pipe()
            try:
                with pytest.raises(ExecError):
                    batch([SpawnRequest(["/bin/sleep", "30"], stdout=w),
                           SpawnRequest(["/no/such/binary"]),
                           SpawnRequest(["/bin/true"])])
            finally:
                os.close(w)
            with open(r, "rb") as stream:  # EOF: the sleeper was killed
                assert stream.read() == b""
            deadline = time.monotonic() + 5
            while set(os.listdir("/proc/self/fd")) != before:
                assert time.monotonic() < deadline, "a descriptor leaked"
                time.sleep(0.01)
            assert breaker_for(tier).failures == 0
        finally:
            for service in ("forkserver-pool", "forkserver", "gateway"):
                get_strategy(service).shutdown()
            reset_breakers()


class TestSpawnPoolBatchBoot:
    def test_workers_boot_through_one_batch(self):
        try:
            with SpawnPool(3, strategy="forkserver-pool") as pool:
                assert len(pool.worker_pids()) == 3
                assert pool.map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
                pids = pool.add_workers(2)
                assert len(pids) == 2 and pool.size == 5
        finally:
            get_strategy("forkserver-pool").shutdown()

    def test_default_strategy_still_sequential(self):
        with SpawnPool(2) as pool:
            assert pool.map(abs, [-5, 5]) == [5, 5]

    def test_forkserver_workers_share_one_spawn_frame(self, monkeypatch):
        """Any strategy over a helper's wire boots the pool's workers
        as one unit: one ``spawn`` frame, both workers' pipes in it."""
        sent, real = [], ForkServer._send

        def spy(self, obj, *args, **kwargs):
            sent.append(obj)
            return real(self, obj, *args, **kwargs)

        monkeypatch.setattr(ForkServer, "_send", spy)
        get_strategy("forkserver").shutdown()
        try:
            with SpawnPool(2, strategy="forkserver") as pool:
                assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
            spawns = [obj for obj in sent if obj["op"] == "spawn"]
            assert len(spawns) == 1 and len(spawns[0]["reqs"]) == 2
        finally:
            get_strategy("forkserver").shutdown()


class TestLadderBatch:
    def test_module_function_spawns_via_pool(self):
        try:
            children = spawn_batch(
                BatchRequest.of([["/bin/sh", "-c", "exit 4"],
                                 ["/bin/true"]]))
            assert [c.wait(timeout=10) for c in children] == [4, 0]
        finally:
            get_strategy("forkserver-pool").shutdown()
