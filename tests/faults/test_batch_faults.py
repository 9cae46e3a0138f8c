"""Chaos inside a batch: the all-or-nothing contract under injected faults.

A batch must never partially succeed in silence — a damaged frame, a
lost fd grant, or a murdered helper fails (or fails over) the WHOLE batch,
and the degradation ladder keeps working when whole tiers go dark.

The frame and helper faults are the cells of ``fault_table.py`` for its
:data:`BATCH_OF_3` unit — the rows ``test_frame_faults.py`` runs for a single
spawn, on the one pool dispatch both take (a refusal retried by the
ladder on the pool's tier).
"""

import pytest

from fault_table import BATCH_OF_3, on_a_bare_server, on_a_pool
from repro.core import BatchRequest, SpawnPolicy, breaker_for, spawn_batch
from repro.core.strategies import get_strategy
from repro.errors import SpawnError
from repro.faults import FAULTS, FaultPlan
from repro.obs import TELEMETRY

BATCH = BatchRequest.of([["/bin/sh", "-c", "exit 1"], ["/bin/true"],
                         ["/bin/sh", "-c", "exit 2"]])


class TestTruncatedBatchFrame:
    def test_whole_batch_fails_loudly(self):
        on_a_bare_server("truncate_frame", BATCH_OF_3)

    def test_pool_with_policy_retries_whole_batch(self):
        # Under the row's deadline the pool fails the whole batch over
        # to a fresh helper: every member arrives, in order.
        on_a_pool("truncate_frame", BATCH_OF_3)


class TestCorruptedBatchFrame:
    def test_whole_batch_fails_loudly(self):
        on_a_bare_server("corrupt_frame", BATCH_OF_3)

    def test_pool_fails_over_whole_batch(self):
        on_a_pool("corrupt_frame", BATCH_OF_3)


class TestDroppedBatchGrant:
    def test_helper_refuses_with_eproto(self):
        # nfds arithmetic covers batches: 3 members expect 9 fds, the
        # fault strips them all, the helper refuses instead of wiring
        # children to its own stdio.
        on_a_bare_server("drop_fd_grant", BATCH_OF_3)

    def test_pool_with_policy_retries_past_it(self):
        on_a_pool("drop_fd_grant", BATCH_OF_3)


class TestKilledHelperMidBatch:
    def test_forkserver_batch_dies_loudly(self):
        on_a_bare_server("kill_helper", BATCH_OF_3)

    def test_pool_recovers_whole_batch(self):
        on_a_pool("kill_helper", BATCH_OF_3)

    def test_pool_batch_point_is_injectable(self):
        # The dedicated pool.batch fault point: the helper is shot at
        # batch-dispatch time, before the frame hits the wire.
        on_a_pool("kill_helper", BATCH_OF_3,
                  point=BATCH_OF_3.point)


class TestDegradationLadder:
    def _drain(self, children, codes):
        assert [c.wait(timeout=10) for c in children] == codes

    def test_open_pool_breaker_degrades_to_forkserver(self):
        policy = SpawnPolicy(breaker_threshold=1, breaker_cooldown=60.0,
                             fallback=("forkserver", "posix_spawn"))
        breaker_for("forkserver-pool", policy).record_failure()
        try:
            TELEMETRY.enable(sink=None, reset_metrics=True)
            children = spawn_batch(BATCH, policy=policy)
            self._drain(children, [1, 0, 2])
            fallbacks = {labels.get("strategy"): counter.value
                         for name, labels, counter
                         in TELEMETRY.metrics.counters()
                         if name == "fallback"}
            assert fallbacks.get("forkserver", 0) >= 1
        finally:
            TELEMETRY.disable()
            get_strategy("forkserver").shutdown()

    def test_ladder_bottoms_out_at_posix_spawn(self):
        policy = SpawnPolicy(breaker_threshold=1, breaker_cooldown=60.0,
                             fallback=("forkserver", "posix_spawn"))
        breaker_for("forkserver-pool", policy).record_failure()
        breaker_for("forkserver", policy).record_failure()
        children = spawn_batch(BATCH, policy=policy)
        self._drain(children, [1, 0, 2])

    def test_exhausted_ladder_raises(self):
        policy = SpawnPolicy(breaker_threshold=1, breaker_cooldown=60.0,
                             fallback=("forkserver",))
        breaker_for("forkserver-pool", policy).record_failure()
        breaker_for("forkserver", policy).record_failure()
        with pytest.raises(SpawnError) as excinfo:
            spawn_batch(BATCH, policy=policy)
        assert "forkserver" in str(excinfo.value)

    def test_ladder_survives_chaos_end_to_end(self):
        # Frames truncating AND helpers dying, repeatedly: the batch
        # still lands via whichever tier survives, members intact.
        policy = SpawnPolicy(retries=1, deadline=2.0, backoff=0.01,
                             breaker_threshold=2,
                             fallback=("forkserver", "posix_spawn"))
        plan = (FaultPlan()
                .add("truncate_frame", times=2)
                .add("kill_helper", times=1, after=1))
        try:
            # Warm the ladder first: chaos strikes a *running* system,
            # not the boot handshakes (those are covered by the bounded
            # start_timeout, but a 10s ping stall has no place here).
            self._drain(spawn_batch(BATCH, policy=policy), [1, 0, 2])
            with FAULTS.active(plan):
                children = spawn_batch(BATCH, policy=policy)
                self._drain(children, [1, 0, 2])
        finally:
            get_strategy("forkserver-pool").shutdown()
            get_strategy("forkserver").shutdown()
