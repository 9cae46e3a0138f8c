"""Both ways the daemon launches a spawn, through the same assertions.

A tenant whose strategy launches over a helper's wire
(``forkserver-pool``, the default) is launched by the daemon's *loop*:
it puts the spawn on the wire itself and the helper's reply calls back.
Every other tenant — and whatever a loop launch stops for: a helper to
boot, a back-off, a retry — runs on the *executor*.  The ladder is one
set of resumable steps (``repro.core.steps``) either way, so each case
here runs on both and must read the same: the functional ones against a
``posix_spawn`` tenant for the executor's side, the helper-fault ones
against the pool with its steps form hidden, so the same helpers and the
same policy are driven by blocking calls instead.

(The exit-notice ordering hammer is parametrized the same way in
``tests/gateway/test_exit_push.py``.)
"""

import functools
import importlib
import os
import threading
import time

import pytest

from repro.core import (BatchRequest, ForkServerPool, SpawnPolicy,
                        SpawnRequest, breaker_for)
from repro.core.strategies import _REGISTRY, Strategy, get_strategy
from repro.errors import GatewayError, Overloaded, SpawnError
from repro.faults import FAULTS, FaultPlan
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.gateway.server import _Job
from repro.obs import NULL_TRACE

TOKEN = "paths-token"
BLOCKING_POOL = "forkserver-pool-blocking"


class _BlockingPool(Strategy):
    """``forkserver-pool`` minus its steps form: same pool, same
    helpers, but all the daemon can do with it is call ``launch``."""

    name = BLOCKING_POOL

    def launch(self, argv, actions, attrs, trace=NULL_TRACE):
        return get_strategy("forkserver-pool").launch(argv, actions, attrs,
                                                      trace=trace)


@pytest.fixture
def blocking_pool():
    _REGISTRY[BLOCKING_POOL] = _BlockingPool()
    try:
        yield BLOCKING_POOL
    finally:
        del _REGISTRY[BLOCKING_POOL]


def executor_threads():
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("gateway-spawn")]


def make_server(tmp_path, strategy, policy=None, max_children=None,
                **kwargs):
    tenant = TenantConfig(
        name="acme", token=TOKEN, strategy=strategy, max_queue=256,
        max_children=max_children,
        policy=policy or SpawnPolicy(deadline=10.0, retries=0,
                                     fallback=("fork_exec",)))
    kwargs.setdefault("drain_grace", 3.0)
    return GatewayServer(GatewayConfig(
        unix_path=str(tmp_path / "gw.sock"), tenants={"acme": tenant},
        **kwargs)).start()


def dial(server, **kwargs):
    return GatewayClient(server.unix_path, tenant="acme", token=TOKEN,
                         **kwargs).connect()


def spawn_ok(client, n=1):
    for _ in range(n):
        assert client.spawn(("/bin/true",)).wait(timeout=30) == 0


def in_background(fn):
    """Run ``fn`` on a thread; returns (thread, outcome list)."""
    outcome = []

    def target():
        try:
            outcome.append(fn())
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    return thread, outcome


def slow_launches(strategy, seconds):
    """A plan under which every launch of ``strategy`` takes ``seconds``
    *while in flight*: inside the helper for the pool (boot the pool
    under it), inside the launch call for a direct strategy."""
    if strategy == "posix_spawn":
        return FaultPlan().add("stall_helper", point="strategy.launch",
                               strategy=strategy, seconds=seconds,
                               times=None)
    return FaultPlan().add("stall_helper", seconds=seconds, times=None,
                           after=1)  # the boot ping answers at once


@pytest.fixture(params=["forkserver-pool", "posix_spawn"],
                ids=["loop", "executor"])
def strategy(request):
    """The tenant strategy that puts a launch on each path; the pool is
    warm, because a cold slot's boot is the executor's either way."""
    get_strategy("forkserver-pool").pool()
    return request.param


class TestEveryLaunchOnItsPath:
    def test_200_spawns_and_which_threads_served_them(self, tmp_path,
                                                      strategy):
        server = make_server(tmp_path, strategy)
        try:
            with dial(server) as client:
                spawn_ok(client, n=200)
            stats = server.stats()
            assert stats["tenants"]["acme"]["completed"] == 200
            assert stats["inflight"] == 0 and stats["internal_errors"] == 0
            if strategy == "forkserver-pool":
                assert executor_threads() == []
            else:
                assert executor_threads() != []
        finally:
            server.stop()

    def test_stdio_capture(self, tmp_path, strategy):
        server = make_server(tmp_path, strategy)
        try:
            with dial(server) as client:
                for n in range(20):
                    read_fd, write_fd = os.pipe()
                    try:
                        child = client.spawn(("/bin/echo", f"token-{n}"),
                                             stdout=write_fd)
                    finally:
                        os.close(write_fd)
                    with open(read_fd, "rb") as out:
                        assert out.read() == f"token-{n}\n".encode()
                    assert child.wait(timeout=10) == 0
        finally:
            server.stop()

    def test_max_inflight_is_never_exceeded(self, tmp_path, strategy):
        server = make_server(tmp_path, strategy, max_inflight=2)
        started, finished = server._execute, server._job_done
        live, peaks = set(), []

        def execute(job):  # loop thread, as the job is dispatched
            live.add(job)
            peaks.append(len(live))
            return started(job)

        def job_done(job, *rest):  # loop thread, as it completes
            live.discard(job)
            return finished(job, *rest)

        server._execute, server._job_done = execute, job_done
        try:
            with dial(server) as client:
                workers = [in_background(lambda: spawn_ok(client, n=40))
                           for _ in range(4)]
                for thread, outcome in workers:
                    thread.join(timeout=120)
                    assert not thread.is_alive() and outcome == [None]
            stats = server.stats()
            assert max(peaks) == 2 and len(peaks) == 160
            assert stats["inflight"] == 0 and stats["shed_total"] == 0
            assert stats["tenants"]["acme"]["completed"] == 160
        finally:
            server.stop()

    def test_a_handed_over_child_is_counted_once(self, tmp_path, strategy):
        """``max_children`` used to see a child twice between its launch
        and its reply — among the tenant's children *and* still in
        flight — and shed a request that fitted."""
        server = make_server(tmp_path, strategy, max_children=2)
        finished, verdicts = server._job_done, []

        def job_done(job, *rest):
            # One child launched, its reply not yet queued, one asking.
            try:
                server._admit(job.conn, 1)
                verdicts.append("admitted")
            except Overloaded:
                verdicts.append("shed")
            return finished(job, *rest)

        server._job_done = job_done
        try:
            with dial(server) as client:
                first = client.spawn(("/bin/sleep", "0.5"))
                assert verdicts == ["admitted"]
                server._job_done = finished
                second = client.spawn(("/bin/sleep", "0.5"))
                with pytest.raises(Overloaded):  # the bound still binds
                    client.spawn(("/bin/true",))
                assert first.wait(timeout=10) == second.wait(timeout=10) == 0
                spawn_ok(client)
        finally:
            server.stop()

    def test_open_tenant_breaker_answers_overloaded(self, tmp_path,
                                                    strategy):
        policy = SpawnPolicy(deadline=10.0, retries=0, fallback=(),
                             breaker_threshold=1, breaker_cooldown=60.0)
        # The refusal lands where the unit goes: at the posix_spawn
        # tenant's launch, inside the pool tenant's helper (booted under
        # the plan, past the warm-up spawn).
        plan = FaultPlan().add("refuse_exec", point="strategy.launch",
                               strategy="posix_spawn")
        if strategy == "forkserver-pool":
            get_strategy("forkserver-pool").shutdown()
            with FAULTS.active(FaultPlan().add("refuse_exec", point="helper",
                                               after=1)):
                get_strategy("forkserver-pool").pool()
        server = make_server(tmp_path, strategy, policy)
        try:
            with dial(server) as client:
                spawn_ok(client)
                with FAULTS.active(plan):
                    with pytest.raises(GatewayError, match="refused"):
                        client.spawn(("/bin/true",))
                with pytest.raises(Overloaded) as excinfo:
                    client.spawn(("/bin/true",))
                assert "breaker is open" in str(excinfo.value)
                assert excinfo.value.retry_after == 60.0
            stats = server.stats()
            assert stats["tenants"]["acme"]["failed"] == 2
            assert stats["inflight"] == 0 and stats["internal_errors"] == 0
        finally:
            server.stop()


class TestLaunchesInFlight:
    """Drain, stop and crash while a launch is between its request and
    its reply — held there by a stall inside the launch itself."""

    @pytest.fixture
    def slow(self, tmp_path, strategy):
        get_strategy("forkserver-pool").shutdown()
        plan = slow_launches(strategy, 0.4)
        with FAULTS.active(plan):
            get_strategy("forkserver-pool").pool()  # helpers carry the stall
            server = make_server(tmp_path, strategy)
            try:
                yield server
            finally:
                server.stop()

    def in_flight(self, server):
        return server.stats()["inflight"]

    def test_drain_finishes_them_and_refuses_new_ones(self, slow):
        with dial(slow) as client:
            thread, outcome = in_background(
                lambda: client.spawn(("/bin/true",)).wait(timeout=30))
            while not self.in_flight(slow):
                time.sleep(0.005)
            slow.drain()
            with pytest.raises(Overloaded):
                client.spawn(("/bin/true",))
            thread.join(timeout=30)
            assert outcome == [0]
            assert slow._drained.wait(5.0)

    def test_stop_waits_for_them(self, slow):
        client = dial(slow)
        try:
            thread, outcome = in_background(
                lambda: client.spawn(("/bin/true",)).pid)
            while not self.in_flight(slow):
                time.sleep(0.005)
            slow.stop()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert isinstance(outcome[0], int)  # replied to before the hangup
            assert self.in_flight(slow) == 0
            try:  # stop() polls its children once; this one may outlive that
                os.waitpid(outcome[0], 0)
            except ChildProcessError:
                pass  # the helper's child, or reaped by stop()
        finally:
            client.close()

    def test_crash_between_reply_and_job_done_orphans_the_child(self, slow):
        """The child exists, the daemon dies before telling anyone: a
        supervisor must still find it to reap."""
        launched = threading.Event()

        def lost(job, tenant, reply, error):
            # What carries a finished launch back to the loop — from
            # the pool's reader thread or the executor — gets no
            # further than this.
            slow._close_job_fds(job)
            launched.set()

        slow._finished = lost
        client = dial(slow, timeout=5.0)
        try:
            thread, outcome = in_background(
                lambda: client.spawn(("/bin/sleep", "0.2")))
            assert launched.wait(10.0)
            slow.crash()
            orphans = slow.take_orphans()
            assert len(orphans) == 1
            (pid, handle), = orphans.items()
            assert handle.pid == pid and handle.wait(timeout=10) == 0
            assert slow.take_orphans() == {}
            thread.join(timeout=30)
            assert isinstance(outcome[0], (GatewayError, SpawnError))
        finally:
            client.close()


class TestJobClosedMidLaunch:
    def test_a_probe_without_a_verdict_frees_the_tenants_breaker(
            self, tmp_path):
        """``_hand_over`` closes a job's steps when the daemon stops
        under it.  If that job was its tenant's half-open probe, the
        slot goes back: the breaker lives in the process-wide registry,
        so a taken one would refuse the tenant across restarts."""
        policy = SpawnPolicy(breaker_threshold=1, breaker_cooldown=0)
        server = make_server(tmp_path, "posix_spawn", policy=policy)
        try:
            breaker = breaker_for("gateway:acme", policy)
            breaker.record_failure()  # open; no cooldown, so probe at once
            job = _Job(None, 1, BatchRequest.of([["/bin/true"]]), [], "acme")
            steps = server._execute(job)
            next(steps)  # admitted as the probe, its launch not yet made
            assert not breaker.allow()
            steps.close()
            assert breaker.allow()
        finally:
            server.stop()


#: What the helper-fault cases run under: two attempts on the pool,
#: then the floor.
LADDER = SpawnPolicy(deadline=0.5, retries=1, backoff=0.01,
                     fallback=("posix_spawn",))


class TestHelperFaultsMidLaunch:
    """A helper that dies, wedges or refuses under a launch: the same
    policy arithmetic whether the loop or the executor drives it."""

    @pytest.fixture(params=["loop", "executor"])
    def path(self, request, blocking_pool):
        return ("forkserver-pool" if request.param == "loop"
                else blocking_pool)

    def serve(self, tmp_path, path, helper_plan=None):
        """A warm daemon on ``path``; the pool's first helper boots
        under ``helper_plan`` and so carries its helper-side faults."""
        get_strategy("forkserver-pool").shutdown()
        with FAULTS.active(helper_plan or FaultPlan()):
            get_strategy("forkserver-pool").pool()
        server = make_server(tmp_path, path, LADDER)
        client = dial(server)
        spawn_ok(client, n=2)
        return server, client

    def check_path(self, path):
        assert (executor_threads() == []) == (path == "forkserver-pool")

    @pytest.fixture
    def one_helper(self, monkeypatch):
        """A pool of one slot, so concurrent launches share a helper."""
        monkeypatch.setattr(importlib.import_module("repro.core.strategies"),
                            "ForkServerPool",
                            functools.partial(ForkServerPool, 1))
        yield
        get_strategy("forkserver-pool").shutdown()  # the usual pool next

    def test_kill_helper_fails_over_inside_the_attempt(self, tmp_path, path):
        server, client = self.serve(tmp_path, path)
        try:
            pool = get_strategy("forkserver-pool").pool()
            self.check_path(path)
            with FAULTS.active(FaultPlan().add("kill_helper", times=1)):
                spawn_ok(client)
                assert ("forkserver.request", "kill_helper") in FAULTS.fired
            # A dead helper is the pool's to replace, not an attempt.
            assert pool.respawns == 1
            assert breaker_for(path).failures == 0
            spawn_ok(client, n=2)
            assert server.stats()["internal_errors"] == 0
        finally:
            client.close()
            server.stop()

    def test_stall_helper_costs_one_deadline(self, tmp_path, path):
        # The ping and the two warm-ups pass; the next request wedges.
        plan = FaultPlan().add("stall_helper", seconds=30, times=1, after=3)
        server, client = self.serve(tmp_path, path, plan)
        try:
            pool = get_strategy("forkserver-pool").pool()
            self.check_path(path)
            started = time.monotonic()
            spawn_ok(client)
            assert 0.45 <= time.monotonic() - started < 5.0
            assert pool.respawns == 1  # aborted as wedged, replaced
            assert breaker_for(path).failures == 0
            spawn_ok(client, n=2)
            assert server.stats()["internal_errors"] == 0
        finally:
            client.close()
            server.stop()

    def test_refusals_consume_exactly_the_policys_attempts(self, tmp_path,
                                                           path):
        # Past the warm-ups the helper refuses as many spawns as the
        # policy has attempts: one spawn must use them all up — on the
        # same helper, struck each time — and land on the floor.
        plan = FaultPlan().add("refuse_exec", point="helper",
                               times=LADDER.attempts(), after=2)
        server, client = self.serve(tmp_path, path, plan)
        try:
            pool = get_strategy("forkserver-pool").pool()
            self.check_path(path)
            spawn_ok(client)
            # A refusal is the failure ladder's, whoever launched: the
            # helper's reader thread finishes nothing but a child.
            assert executor_threads() != []
            assert breaker_for(path).failures == LADDER.attempts()
            assert [slot.strikes for slot in pool._slots
                    if slot.server is not None] == [LADDER.attempts()]
            assert pool.respawns == 0
            # Nothing is left to refuse: the pool serves the next one.
            spawn_ok(client)
            assert breaker_for(path).failures == 0
            stats = server.stats()
            assert stats["tenants"]["acme"]["completed"] == 4
            assert stats["internal_errors"] == 0
        finally:
            client.close()
            server.stop()

    def test_a_flapping_helper_is_retired_under_concurrent_launches(
            self, tmp_path, path, one_helper):
        """The strike that retires a helper kills its channel with other
        launches still waiting on it.  Each of those resumes as a loss —
        on a thread of its own, never on the one that took the strike
        (it resumed there once, under the pool's lock, and wanted it)."""
        policy = SpawnPolicy(deadline=5.0, retries=3, backoff=0.0,
                             fallback=("posix_spawn",))
        plan = FaultPlan().add("refuse_exec", point="helper", times=None,
                               after=2)
        get_strategy("forkserver-pool").shutdown()
        with FAULTS.active(plan):
            pool = get_strategy("forkserver-pool").pool()
        server = make_server(tmp_path, path, policy)
        client = dial(server)
        try:
            spawn_ok(client, n=2)
            callers = [in_background(lambda: spawn_ok(client))
                       for _ in range(6)]
            for thread, outcome in callers:
                thread.join(timeout=30)
            free = pool._lock.acquire(timeout=5)
            pool._lock.release()  # held or not: teardown must not hang
            assert free
            assert [outcome for _, outcome in callers] == [[None]] * 6
            # Three refusals in a row retired it; its replacement (booted
            # under no plan) served whoever was still asking.
            assert pool.respawns == 1
            spawn_ok(client, n=2)
            stats = server.stats()
            assert stats["inflight"] == 0 and stats["internal_errors"] == 0
        finally:
            client.close()
            server.stop()

    def test_a_wedged_helper_with_a_full_socket_costs_one_deadline(
            self, tmp_path, path, one_helper):
        """A helper that stops reading fills its socket; the launches
        behind it must find that out without waiting — the deadline that
        gets the helper aborted runs on the thread that dispatches them."""
        plan = FaultPlan().add("stall_helper", seconds=30, times=1, after=3)
        server, client = self.serve(tmp_path, path, plan)
        try:
            pool = get_strategy("forkserver-pool").pool()
            env = dict(os.environ, BALLAST="x" * 20_000)
            oversize = dict(env, BALLAST="x" * 40_000)  # never sent unwaited

            def launch(env):
                child = client.spawn(("/bin/true",), env=env, deadline=20.0)
                assert child.wait(timeout=20) == 0

            started = time.monotonic()
            callers = [in_background(lambda: launch(env)) for _ in range(14)]
            callers += [in_background(lambda: launch(oversize))
                        for _ in range(2)]
            for thread, outcome in callers:
                thread.join(timeout=30)
            assert [outcome for _, outcome in callers] == [[None]] * 16
            assert 0.45 <= time.monotonic() - started < 8.0
            assert pool.respawns == 1  # aborted as wedged, replaced
            spawn_ok(client, n=2)
            stats = server.stats()
            assert stats["inflight"] == 0 and stats["internal_errors"] == 0
        finally:
            client.close()
            server.stop()


class TestABatchLaunchesLikeASingle:
    """A ``spawn_batch`` is the same steps with N members: the loop puts
    it on the pool's wire itself, and only a failure meets a thread."""

    def batch_of_3(self, seconds):
        pipes = [os.pipe() for _ in range(3)]
        batch = BatchRequest([
            SpawnRequest(["/bin/sh", "-c",
                          f"echo member-{n}; sleep {seconds}; exit {n}"],
                         stdout=write_fd)
            for n, (_, write_fd) in enumerate(pipes)])
        return batch, pipes

    def outputs(self, pipes):
        outs = []
        for read_fd, _ in pipes:
            with open(read_fd, "rb") as out:
                outs.append(out.read())
        return outs

    def test_stdio_max_children_and_no_thread(self, tmp_path):
        get_strategy("forkserver-pool").pool()
        server = make_server(tmp_path, "forkserver-pool", max_children=3)
        batch, pipes = self.batch_of_3(0.5)
        try:
            with dial(server) as client:
                try:
                    children = client.spawn_batch(batch)
                finally:
                    for _, write_fd in pipes:
                        os.close(write_fd)
                assert children.strategy == "gateway" and len(children) == 3
                # Three live members are three against the bound.
                with pytest.raises(Overloaded):
                    client.spawn(("/bin/true",))
                assert self.outputs(pipes) == [
                    f"member-{n}\n".encode() for n in range(3)]
                assert [c.wait(timeout=10) for c in children] == [0, 1, 2]
                spawn_ok(client)  # ...and none once they are gone
            assert executor_threads() == []
            stats = server.stats()
            assert stats["tenants"]["acme"]["completed"] == 2
            assert stats["inflight"] == 0 and stats["internal_errors"] == 0
        finally:
            server.stop()

    def test_kill_helper_mid_launch_is_all_or_a_typed_error(self, tmp_path):
        pool = get_strategy("forkserver-pool").pool()
        server = make_server(tmp_path, "forkserver-pool", LADDER)
        batch, pipes = self.batch_of_3(0)
        try:
            with dial(server) as client:
                spawn_ok(client, n=2)
                assert executor_threads() == []
                with FAULTS.active(FaultPlan().add("kill_helper", times=1)):
                    try:
                        children = client.spawn_batch(batch)
                    except GatewayError:
                        children = []  # typed, and then no member at all
                    finally:
                        for _, write_fd in pipes:
                            os.close(write_fd)
                    assert FAULTS.fired == [
                        ("forkserver.request", "kill_helper")]
                # Never a subset: every member ran, or none did.
                ran = [out for out in self.outputs(pipes) if out]
                assert len(ran) == len(children) and len(ran) in (0, 3)
                assert [c.wait(timeout=10) for c in children] == (
                    [0, 1, 2][:len(children)])
                # A dead helper is the pool's to replace inside the
                # attempt, so in fact the ladder delivers all three.
                assert len(children) == 3 and pool.respawns == 1
                spawn_ok(client, n=2)
            stats = server.stats()
            assert stats["tenants"]["acme"]["children"] == 0
            assert stats["inflight"] == 0 and stats["internal_errors"] == 0
        finally:
            server.stop()
