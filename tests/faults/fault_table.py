"""One table of wire damage, for both shapes of the one unit of work.

``ForkServer`` has one request path and ``ForkServerPool`` one dispatch;
a single spawn and a batch differ there in the wire op, a fault point's
name and a weight.  So the chaos cases are written once —
:data:`ROWS` (fault x what it must cost) and the two checkers below —
and run per :class:`Unit`: :data:`SINGLE` from ``test_frame_faults.py``,
:data:`BATCH_OF_3` from ``test_batch_faults.py``, each cell under the name
the suite has always printed for it.
"""

import pytest

from repro.core import (BatchRequest, ForkServer, ForkServerPool,
                        ProcessBuilder, SpawnPolicy, get_strategy,
                        reset_breakers, spawn_batch)
from repro.errors import SpawnError
from repro.faults import FAULTS, FaultPlan


class Unit:
    """One shape of the unit of work: how to launch it on a server or a
    pool, the exit statuses it must come back with (in order, all or
    none), and the name the pool's dispatch fault point has for it."""

    def __init__(self, launch, statuses, point):
        self.launch = launch
        self.statuses = statuses
        self.point = point

    def lands(self, target, **terms):
        children = self.launch(target, **terms)
        assert [c.wait(timeout=10) for c in children] == self.statuses


SINGLE = Unit(
    lambda target, **terms: [target.spawn(["/bin/sh", "-c", "exit 3"],
                                          **terms)],
    [3], "pool.dispatch")

BATCH_OF_3 = Unit(
    lambda target, **terms: target.spawn_batch(BatchRequest.of(
        [["/bin/sh", "-c", "exit 1"], ["/bin/true"],
         ["/bin/sh", "-c", "exit 2"]]), **terms),
    [1, 0, 2], "pool.batch")

#: fault -> what it costs.  ``deadline``: the only thing that can prove
#: a wedged (not dead) helper is gone.  ``refusal``: the helper answers
#: no and lives (the error carries this text); otherwise the fault costs
#: the helper its life.  The pool fails a dead helper over by itself,
#: noticing it by EOF alone; a wedged one only under ``pool_deadline``
#: (the deadline the pool is given), and a refusal is retried by the
#: ladder (:class:`PoolTier`).
ROWS = {
    "truncate_frame": dict(deadline=1.0, pool_deadline=1.0),
    "corrupt_frame": dict(),
    "drop_fd_grant": dict(refusal="EPROTO"),
    "kill_helper": dict(deadline=5.0),
}


class PoolTier:
    """The ladder on the shared pool's tier alone (no fallback): what
    retries a live refusal, which the pool raises rather than retries."""

    policy = SpawnPolicy(retries=2, backoff=0.01, fallback=())

    def spawn(self, argv):
        return (ProcessBuilder(*argv).strategy("forkserver-pool")
                .policy(self.policy).spawn())

    def spawn_batch(self, batch):
        return spawn_batch(batch, policy=self.policy)


def on_a_bare_server(fault, unit):
    """No pool, no policy: the whole unit fails, loudly and typed."""
    row = ROWS[fault]
    terms = {"deadline": row["deadline"]} if "deadline" in row else {}
    with ForkServer() as server:
        with FAULTS.active(FaultPlan().add(fault)):
            with pytest.raises(SpawnError) as excinfo:
                unit.launch(server, **terms)
        if "refusal" in row:
            # A refusal is not a crash: the helper stays usable.
            assert row["refusal"] in str(excinfo.value)
            assert server.healthy
            unit.lands(server)
        else:
            assert not server.healthy


def on_a_pool(fault, unit, point=None):
    """The same fault on a pool: the whole unit arrives, in order, at
    the price the row names — a dead helper failed over within the
    pool (under the row's ``pool_deadline``, if it names one), a refusal
    retried on the pool tier."""
    row = ROWS[fault]
    shared = get_strategy("forkserver-pool")
    shared.shutdown()
    reset_breakers()
    if "refusal" in row:
        pool, target, terms = shared.pool(), PoolTier(), {}
    else:
        pool = target = ForkServerPool(2).start()
        terms = ({"deadline": row["pool_deadline"]}
                 if "pool_deadline" in row else {})
    try:
        helpers = pool.helper_pids()
        with FAULTS.active(FaultPlan().add(fault, point=point)):
            unit.lands(target, **terms)
            assert len(FAULTS.fired) == 1
            if point is not None:
                assert FAULTS.fired == [(point, fault)]
        if "refusal" in row:
            assert pool.respawns == 0 and pool.helper_pids() == helpers
        else:
            assert pool.respawns == 1 and pool.helper_pids() != helpers
        unit.lands(pool)
        assert pool.queue_depth() == 0
    finally:
        pool.stop()
        shared.shutdown()
        reset_breakers()
