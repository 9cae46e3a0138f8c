"""SpawnPolicy, CircuitBreaker, and the degradation ladder end to end."""

import time
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core import (DEFAULT_FALLBACK, GATEWAY_FALLBACK, Backoff,
                        BatchRequest, CircuitBreaker, ProcessBuilder,
                        SpawnPolicy, Strategy, TemplateProfile,
                        TemplateRegistry, breaker_for, register_strategy,
                        reset_breakers, run, spawn_batch)
from repro.core.strategies import _REGISTRY
from repro.errors import ExecError, SpawnError
from repro.faults import FAULTS, FaultPlan
from repro.obs import TELEMETRY


def counter_value(name, **labels):
    return TELEMETRY.metrics.counter(name, **labels).value


class TestSpawnPolicyShape:
    def test_validation(self):
        with pytest.raises(SpawnError):
            SpawnPolicy(deadline=0)
        with pytest.raises(SpawnError):
            SpawnPolicy(retries=-1)
        with pytest.raises(SpawnError):
            SpawnPolicy(breaker_threshold=0)
        with pytest.raises(SpawnError):
            SpawnPolicy(backoff=-1)  # the Backoff's base validates it
        # The four back-off numbers are the Backoff's to validate.
        for bad in ({"base": -1}, {"cap": -1}, {"multiplier": 0.5},
                    {"jitter": 1.5}):
            with pytest.raises(SpawnError):
                Backoff(**bad)

    def test_attempts_counts_the_first_try(self):
        assert SpawnPolicy().attempts() == 1
        assert SpawnPolicy(retries=3).attempts() == 4

    @given(base=st.floats(0.0, 10.0), multiplier=st.floats(1.0, 8.0),
           cap=st.floats(0.0, 60.0), jitter=st.floats(0.0, 1.0),
           index=st.integers(0, 40), u=st.floats(0.0, 1.0))
    def test_the_one_schedule(self, base, multiplier, cap, jitter, index, u):
        """Capped, exponential, symmetrically jittered, non-decreasing
        — and the policy's delay is the default ``Backoff`` from its
        ``backoff``."""
        schedule = Backoff(base, multiplier, cap, jitter)
        delay = schedule.delay(index, lambda: u)
        assert 0.0 <= delay <= cap * (1.0 + jitter)
        bare = min(base * multiplier ** index, cap)
        assert schedule.delay(index, lambda: 0.5) == bare
        assert Backoff(base, multiplier, cap, 0.0).delay(index) == bare
        # The jitter's two edges sit the same distance either side.
        assert schedule.delay(index, lambda: 0.0) == pytest.approx(
            bare * (1.0 - jitter))
        assert schedule.delay(index, lambda: 1.0) == pytest.approx(
            bare * (1.0 + jitter))
        assert schedule.delay(index + 1, lambda: u) >= delay
        assert SpawnPolicy(backoff=base).backoff_delay(index, lambda: u) == (
            Backoff(base).delay(index, lambda: u))


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # just opened
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_strike_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=60)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # back to one strike

    def test_half_open_admits_one_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=10,
                                 clock=lambda: now[0])
        breaker.record_failure()
        assert not breaker.allow()          # still cooling down
        now[0] = 11.0
        assert breaker.allow()              # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()          # second caller rejected
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=10,
                                 clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # re-opened
        now[0] = 12.0
        assert not breaker.allow()  # new cooldown from the re-open

    def test_probe_closed_mid_launch_frees_its_slot(self):
        # Steps closed under a half-open probe (the daemon stopped
        # under the job) end with no verdict; the slot must not stay
        # taken, refusing every later caller for good.
        reset_breakers()
        policy = SpawnPolicy(breaker_threshold=1, breaker_cooldown=0)
        breaker = breaker_for("posix_spawn", policy)
        breaker.record_failure()  # open; no cooldown, so probe at once
        steps = ProcessBuilder("/bin/true").policy(policy)._spawn_steps()
        next(steps)  # the probe is admitted, its launch not yet made
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()
        steps.close()
        assert breaker.allow()

    def test_breaker_for_is_shared_by_name(self):
        reset_breakers()
        a = breaker_for("posix_spawn", SpawnPolicy(breaker_threshold=2))
        b = breaker_for("posix_spawn")
        assert a is b
        reset_breakers()
        assert breaker_for("posix_spawn") is not a


class TestFallbackChain:
    def test_degrades_to_next_tier_when_breaker_opens(self):
        # posix_spawn refuses every attempt; threshold=2 opens its
        # breaker mid-tier and the request degrades to fork_exec.
        TELEMETRY.enable(reset_metrics=True)
        try:
            plan = FaultPlan().add("refuse_exec", strategy="posix_spawn",
                                   times=None)
            policy = SpawnPolicy(retries=3, backoff=0.01,
                                 breaker_threshold=2,
                                 fallback=("fork_exec",))
            with FAULTS.active(plan):
                child = (ProcessBuilder("/bin/true")
                         .policy(policy).spawn())
                assert child.wait(timeout=10) == 0
                assert child.strategy == "fork_exec"
            assert counter_value("spawn_retry", strategy="posix_spawn") >= 1
            assert counter_value("breaker_open", strategy="posix_spawn") == 1
            assert counter_value("fallback", strategy="fork_exec") == 1
        finally:
            TELEMETRY.disable()

    def test_open_breaker_skips_the_tier_outright(self):
        reset_breakers()
        policy = SpawnPolicy(breaker_threshold=1, breaker_cooldown=300,
                             fallback=("fork_exec",))
        breaker_for("posix_spawn", policy).record_failure()  # force open
        child = ProcessBuilder("/bin/true").policy(policy).spawn()
        assert child.wait(timeout=10) == 0
        assert child.strategy == "fork_exec"

    def test_whole_chain_failing_names_every_tier(self):
        plan = FaultPlan().add("refuse_exec", times=None)
        policy = SpawnPolicy(retries=1, backoff=0.01,
                             breaker_threshold=10,
                             fallback=("fork_exec", "subprocess"))
        with FAULTS.active(plan):
            with pytest.raises(SpawnError) as excinfo:
                ProcessBuilder("/bin/true").policy(policy).spawn()
        message = str(excinfo.value)
        for name in ("posix_spawn", "fork_exec", "subprocess"):
            assert name in message

    def test_pool_to_forkserver_to_posix_spawn_ladder(self):
        # The paper's architecture as a ladder: pool first, single
        # helper second, direct constant-cost spawn as the floor.
        plan = (FaultPlan()
                .add("refuse_exec", strategy="forkserver-pool", times=None)
                .add("refuse_exec", strategy="forkserver", times=None))
        policy = SpawnPolicy(retries=0, breaker_threshold=1,
                             fallback=("forkserver", "posix_spawn"))
        with FAULTS.active(plan):
            done = run("/bin/echo", "floor", strategy="forkserver-pool",
                       policy=policy)
        assert done.returncode == 0 and done.stdout == b"floor\n"


def _builder_single(policy):
    return (ProcessBuilder("/bin/true").strategy("forkserver-pool")
            .policy(policy).spawn())


def _module_spawn_batch(policy):
    return spawn_batch(BatchRequest.of([["/bin/true"]] * 2), policy=policy)


def _template_degrade(policy):
    # The template tier is the head; what the others start on is its
    # first fallback.  A cold profile with no grace degrades at once.
    policy = replace(policy, fallback=("forkserver-pool",) + policy.fallback)
    with mock.patch.object(TemplateRegistry, "miss_grace", 0.0), \
            TemplateRegistry(policy=policy) as registry:
        registry.register(TemplateProfile("dry", stock=0))
        return registry.spawn("dry", code="pass")


class TestTheLadderIsOne:
    """A builder's child, a batch and a template's degraded lease walk
    the same ladder: same tier reached, same counters moved."""

    POLICY = SpawnPolicy(retries=1, backoff=0.01,
                         fallback=("forkserver", "posix_spawn"))

    @pytest.mark.parametrize("launch, extra", [
        (_builder_single, {}),
        (_module_spawn_batch, {}),
        # The one stated difference: leaving the template tier for the
        # head of its fallback chain is itself counted as a step down.
        (_template_degrade, {("fallback", "forkserver-pool"): 1}),
    ], ids=["builder-single", "module-spawn_batch", "template-degrade"])
    def test_open_first_tier_and_one_refusal_on_the_second(self, launch,
                                                           extra):
        reset_breakers()
        breaker_for("forkserver-pool", SpawnPolicy(
            breaker_threshold=1, breaker_cooldown=300)).record_failure()
        # Named: a template's code lease passes this point too.
        plan = FaultPlan().add("refuse_exec", point="forkserver.spawn",
                               strategy="forkserver", times=1)
        TELEMETRY.enable(reset_metrics=True)
        try:
            with FAULTS.active(plan):
                made = launch(self.POLICY)
                assert FAULTS.fired == [("forkserver.spawn", "refuse_exec")]
            moved = {(name, labels["strategy"]): counter.value
                     for name, labels, counter
                     in TELEMETRY.metrics.counters()
                     if name in ("fallback", "spawn_retry", "breaker_open")}
        finally:
            TELEMETRY.disable()
        children = [made] if hasattr(made, "pid") else list(made)
        assert {child.strategy for child in children} == {"forkserver"}
        assert [child.wait(timeout=30) for child in children] == (
            [0] * len(children))
        # Skipped the open tier, retried the refusing one once under
        # its own breaker, never reached the floor, opened nothing.
        assert moved == {("fallback", "forkserver"): 1,
                         ("spawn_retry", "forkserver"): 1, **extra}
        assert breaker_for("forkserver").failures == 0
        assert breaker_for("posix_spawn").failures == 0


    def test_every_tier_is_entered_attempts_times_by_one_walker(
            self, monkeypatch):
        # Nothing below the walker may walk a ladder of its own: with
        # every tier refusing, one spawn enters each exactly
        # policy.attempts() times, and the shared breakers it creates
        # have the caller's shape, not some inner policy's.
        head, *rest = GATEWAY_FALLBACK
        policy = SpawnPolicy(retries=1, backoff=0, breaker_threshold=100,
                             fallback=tuple(rest))
        plan = FaultPlan().add("refuse_exec", point="helper", times=None)
        for tier in ("forkserver-pool", "forkserver", "posix_spawn"):
            plan.add("refuse_exec", strategy=tier, times=None)
        entered = Counter()
        fire_launch = Strategy._fire_launch

        def counting(strategy, argv):
            entered[strategy.name] += 1
            fire_launch(strategy, argv)

        monkeypatch.setattr(Strategy, "_fire_launch", counting)
        reset_breakers()
        with FAULTS.active(plan):
            with pytest.raises(SpawnError, match="every strategy"):
                (ProcessBuilder("/bin/true").strategy(head)
                 .policy(policy).spawn())
        assert entered == dict.fromkeys(GATEWAY_FALLBACK, policy.attempts())
        for tier in GATEWAY_FALLBACK:
            breaker = breaker_for(tier)
            assert breaker._threshold == policy.breaker_threshold
            assert (breaker.failures, breaker.state) == (
                policy.attempts(), "closed")


class TestATierThatCannotExpressARequestIsPassedOver:
    """The ladder reads each tier's declaration: a request a tier cannot
    express costs that tier nothing — no attempt, no back-off, no
    breaker verdict — as if it were not ``available()``."""

    def test_a_process_group_opens_no_shared_wire_breaker(self):
        policy = SpawnPolicy(fallback=DEFAULT_FALLBACK)
        for _ in range(3):
            child = (ProcessBuilder("/bin/true").new_process_group()
                     .strategy("forkserver-pool").policy(policy).spawn())
            assert child.wait(timeout=10) == 0
            assert child.strategy == "posix_spawn"
        for tier in ("forkserver-pool", "forkserver"):
            assert breaker_for(tier).failures == 0, tier
        child = (ProcessBuilder("/bin/true").strategy("forkserver-pool")
                 .policy(policy).spawn())
        assert child.wait(timeout=10) == 0
        assert child.strategy == "forkserver-pool"

    def test_a_cwd_request_sleeps_no_back_off(self):
        TELEMETRY.enable(reset_metrics=True)
        try:
            started = time.monotonic()
            child = (ProcessBuilder("/bin/pwd").cwd("/")
                     .strategy("posix_spawn")
                     .policy(SpawnPolicy(retries=2, fallback=("fork_exec",)))
                     .stdout_to_devnull().spawn())
            assert time.monotonic() - started < 0.05
            assert child.wait(timeout=10) == 0
            assert child.strategy == "fork_exec"
            assert counter_value("spawn_retry", strategy="posix_spawn") == 0
            assert breaker_for("posix_spawn").failures == 0
        finally:
            TELEMETRY.disable()

    def test_a_request_no_tier_can_express_enters_none(self, monkeypatch):
        entered = []
        monkeypatch.setattr(Strategy, "_fire_launch",
                            lambda strategy, argv: entered.append(strategy))
        chain = ("posix_spawn", "forkserver", "subprocess")
        policy = SpawnPolicy(retries=2, fallback=chain[1:])
        started = time.monotonic()
        with pytest.raises(SpawnError) as refusal:
            (ProcessBuilder("/bin/true").cwd("/").new_process_group()
             .strategy(chain[0]).policy(policy).spawn())
        assert time.monotonic() - started < 0.05
        for lacks in ("posix_spawn cannot express cwd",
                      "forkserver cannot express process_group",
                      "subprocess cannot express process_group"):
            assert lacks in str(refusal.value)
        assert entered == []
        for tier in chain:
            assert breaker_for(tier).failures == 0, tier

    def test_a_launcher_that_declares_nothing_is_offered_everything(self):
        """A strategy that declares nothing, like a third-party one, is
        tried, refuses inside its own ``launch``, and takes the strike."""
        @register_strategy("test-undeclared")
        class Undeclared(Strategy):
            def launch(self, argv, actions, attrs, trace=None):
                raise SpawnError("no cwd here")
        try:
            child = (ProcessBuilder("/bin/true").cwd("/")
                     .strategy("test-undeclared")
                     .policy(SpawnPolicy(fallback=("fork_exec",))).spawn())
            assert child.wait(timeout=10) == 0
            assert child.strategy == "fork_exec"
            assert breaker_for("test-undeclared").failures == 1
        finally:
            _REGISTRY.pop("test-undeclared", None)


class TestAnExecFailureCostsNoOne:
    """A program the request cannot execute fails the same way on every
    tier, so it is raised at once and charged to no one: no retry, no
    fallback, no breaker verdict, no strike, no tenant charge."""

    POLICY = SpawnPolicy(retries=2, fallback=("fork_exec",))

    def test_the_ladder_raises_it_at_once(self):
        TELEMETRY.enable(reset_metrics=True)
        try:
            for _ in range(3):
                started = time.monotonic()
                with pytest.raises(ExecError):
                    (ProcessBuilder("/no/such/binary").policy(self.POLICY)
                     .spawn())
                assert time.monotonic() - started < 0.05
            counted = {name for name, _, _ in TELEMETRY.metrics.counters()}
            assert not {"spawn_retry", "fallback"} & counted
        finally:
            TELEMETRY.disable()
        assert breaker_for("posix_spawn").failures == 0
        child = ProcessBuilder("/bin/true").policy(self.POLICY).spawn()
        assert child.wait(timeout=10) == 0
        assert child.strategy == "posix_spawn"

    def test_a_resource_errno_is_still_the_tiers(self, monkeypatch):
        import errno
        import os

        def no_pids(*args, **kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "posix_spawn", no_pids)
        child = ProcessBuilder("/bin/true").policy(self.POLICY).spawn()
        assert child.wait(timeout=10) == 0
        assert child.strategy == "fork_exec"
        assert breaker_for("posix_spawn").failures == 3

    def test_the_pool_strikes_no_helper(self):
        from repro.core import ForkServerPool
        with ForkServerPool(2) as pool:
            helpers = pool.helper_pids()
            for _ in range(5):
                with pytest.raises(ExecError):
                    pool.spawn(["/no/such/binary"])
            assert pool.respawns == 0 and pool.helper_pids() == helpers
            assert [slot.strikes for slot in pool._slots] == [0, 0]
            assert pool.spawn(["/bin/true"]).wait(timeout=10) == 0

    def test_the_gateway_charges_no_tenant_and_no_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_GATEWAY", raising=False)
        for _ in range(3):
            with pytest.raises(ExecError) as failure:
                (ProcessBuilder("/no/such/binary").strategy("gateway")
                 .policy(self.POLICY).spawn())
            assert failure.value.path == "/no/such/binary"
        for breaker in ("gateway:local", "gateway"):
            assert breaker_for(breaker).failures == 0, breaker
        child = (ProcessBuilder("/bin/true").strategy("gateway")
                 .policy(self.POLICY).spawn())
        assert child.wait(timeout=10) == 0
        assert child.strategy == "gateway"


class TestADaemonThatCannotExpressARequestIsPassedOver:
    def test_an_external_daemons_refusal_opens_no_caller_breaker(
            self, monkeypatch, tmp_path):
        """The ``gateway`` declaration covers every daemon, but this
        one's tenant runs ``posix_spawn`` alone: its admission refusal
        is typed, and the caller's ladder passes over the tier for that
        request instead of charging it."""
        from repro.core.strategies import get_strategy
        from repro.gateway import GatewayConfig, GatewayServer, TenantConfig
        server = GatewayServer(GatewayConfig(
            unix_path=str(tmp_path / "gw.sock"),
            tenants={"local": TenantConfig(
                name="local", token="tok", strategy="posix_spawn",
                policy=SpawnPolicy())})).start()
        monkeypatch.setenv("REPRO_GATEWAY", server.unix_path)
        monkeypatch.setenv("REPRO_GATEWAY_TENANT", "local")
        monkeypatch.setenv("REPRO_GATEWAY_TOKEN", "tok")
        get_strategy("gateway").shutdown()
        policy = SpawnPolicy(fallback=("fork_exec",))
        try:
            for _ in range(3):
                child = (ProcessBuilder("/bin/pwd").cwd("/")
                         .strategy("gateway").policy(policy)
                         .stdout_to_devnull().spawn())
                assert child.wait(timeout=10) == 0
                assert child.strategy == "fork_exec"
            assert breaker_for("gateway").failures == 0
            child = (ProcessBuilder("/bin/true").strategy("gateway")
                     .policy(policy).spawn())
            assert child.wait(timeout=10) == 0
            assert child.strategy == "gateway"
        finally:
            get_strategy("gateway").shutdown()
            server.stop()


class TestFlappingWorkerRetiredUnderLoad:
    def test_late_releases_do_not_boot_the_replacement_twice(self):
        """Retiring a helper strands the other requests on it; their
        load went with the helper.  They used to give it back to the
        slot anyway — by then the reservation of whoever was booting
        the replacement — so a second caller booted one too and the
        first was orphaned, reader thread, socket and all."""
        import os
        import threading
        from repro.core import ForkServerPool

        def children():
            pids = set()
            for task in os.listdir("/proc/self/task"):
                with open(f"/proc/self/task/{task}/children") as listing:
                    pids.update(listing.read().split())
            return pids

        before = children()
        plan = FaultPlan().add("refuse_exec", point="helper", times=None)
        with FAULTS.active(plan):  # only the first helper carries it
            pool = ForkServerPool(workers=1).start()
        outcomes = []

        def caller():
            for _ in range(6):  # a refusal is the caller's to retry
                try:
                    child = pool.spawn(["/bin/true"], deadline=5.0)
                except SpawnError as exc:
                    error = exc
                    continue
                outcomes.append(child.wait(timeout=30))
                return
            outcomes.append(error)

        try:
            threads = [threading.Thread(target=caller) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert outcomes == [0] * 8
            assert pool.respawns == 1 and pool.started_workers == 1
        finally:
            pool.stop()
        # An orphaned helper would outlive stop() as a child of ours; no
        # helper's channel has a reader thread (nothing subscribed).
        assert children() <= before
        assert not any(thread.name == "forkserver-reader"
                       for thread in threading.enumerate())


class TestResilienceCountersVisible:
    def test_retry_counter_appears_in_the_registry(self):
        TELEMETRY.enable(reset_metrics=True)
        try:
            plan = FaultPlan().add("refuse_exec", strategy="posix_spawn",
                                   times=1)
            with FAULTS.active(plan):
                child = (ProcessBuilder("/bin/true")
                         .policy(SpawnPolicy(retries=1, backoff=0.01))
                         .spawn())
                assert child.wait(timeout=10) == 0
            names = [name for name, labels, counter
                     in TELEMETRY.metrics.counters()]
            assert "spawn_retry" in names
        finally:
            TELEMETRY.disable()
