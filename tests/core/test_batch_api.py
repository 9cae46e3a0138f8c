"""The unified batch API: one request shape, one result shape, and no
other way in.

``BatchRequest`` is the only batch vocabulary (coercion, wire round
trip, override semantics), ``BatchResult`` is a drop-in ``Sequence``
for every caller that treats it as a list, and every ``spawn_batch``
refuses anything else by the same front door — the 1.x bare-sequence
shapes, loose ``env=``/``cwd=`` kwargs, ``SpawnPool.spawn_batch(n)``
and the ``STRATEGIES`` dict went with 2.0.
"""

import sys

import pytest

import repro.core
from repro.core import (BatchRequest, BatchResult, ForkServer,
                        ForkServerPool, SpawnPool, SpawnPolicy,
                        SpawnRequest, spawn_batch)
from repro.core.result import ChildProcess
from repro.errors import SpawnError
from repro.gateway import GatewayClient


class TestBatchRequest:
    def test_of_coerces_bare_argv_sequences(self):
        batch = BatchRequest.of([["/bin/true"], ("/bin/echo", "hi")],
                                env={"K": "V"}, cwd="/tmp")
        assert len(batch) == 2
        assert all(isinstance(m, SpawnRequest) for m in batch)
        assert batch.members[1].argv == ["/bin/echo", "hi"]
        assert batch.members[0].env == {"K": "V"}
        assert batch.members[0].cwd == "/tmp"

    def test_of_keeps_ready_members_as_is(self):
        member = SpawnRequest(["/bin/true"], env={"OWN": "1"})
        batch = BatchRequest.of([member, ["/bin/false"]],
                                env={"DEFAULT": "1"})
        assert batch.members[0] is member
        assert batch.members[0].env == {"OWN": "1"}  # not overwritten
        assert batch.members[1].env == {"DEFAULT": "1"}

    def test_of_passes_a_batch_through_unchanged(self):
        batch = BatchRequest.of([["/bin/true"]])
        assert BatchRequest.of(batch) is batch

    def test_of_overrides_terms_without_mutating_the_original(self):
        policy = SpawnPolicy(deadline=5.0)
        batch = BatchRequest.of([["/bin/true"]], deadline=1.0)
        rebuilt = BatchRequest.of(batch, policy=policy, deadline=9.0)
        assert rebuilt is not batch
        assert rebuilt.members == batch.members
        assert (rebuilt.policy, rebuilt.deadline) == (policy, 9.0)
        assert (batch.policy, batch.deadline) == (None, 1.0)

    def test_empty_batch_is_falsy(self):
        assert not BatchRequest([])
        assert BatchRequest.of([["/bin/true"]])

    def test_constructor_rejects_non_members(self):
        with pytest.raises(SpawnError) as excinfo:
            BatchRequest([["/bin/true"]])  # bare argv needs .of()
        assert "BatchRequest.of()" in str(excinfo.value)

    def test_wire_round_trip(self):
        batch = BatchRequest.of(
            [["/bin/sh", "-c", "exit 1"], ["/bin/true"]],
            env={"A": "B"}, cwd="/tmp")
        again = BatchRequest.from_wire(batch.wire())
        assert [m.argv for m in again] == [m.argv for m in batch]
        assert again.members[0].env == {"A": "B"}
        assert again.members[1].cwd == "/tmp"

    def test_from_wire_rejects_malformed_members(self):
        with pytest.raises(SpawnError):
            BatchRequest.from_wire([{"no": "argv"}])
        with pytest.raises(SpawnError):
            BatchRequest.from_wire(["not-an-object"])


class TestBatchResult:
    def fake_children(self, n):
        return [ChildProcess(1000 + i, argv=["/bin/true"],
                             strategy="fake", reaper=lambda p, f, t: 0)
                for i in range(n)]

    def test_sequence_protocol(self):
        children = self.fake_children(3)
        result = BatchResult(children, strategy="forkserver-pool")
        assert len(result) == 3
        assert result[1] is children[1]
        assert list(result) == children
        assert [(a.pid, b.pid) for a, b in zip(children, result)] == [
            (1000, 1000), (1001, 1001), (1002, 1002)]  # zip-able
        assert result.pids == [1000, 1001, 1002]
        assert result.strategy == "forkserver-pool"

    def test_slicing_keeps_the_strategy_tag(self):
        result = BatchResult(self.fake_children(4), strategy="forkserver")
        tail = result[2:]
        assert isinstance(tail, BatchResult)
        assert tail.strategy == "forkserver"
        assert tail.pids == [1002, 1003]

    def test_equality_with_plain_lists_and_results(self):
        children = self.fake_children(2)
        result = BatchResult(children, strategy="posix_spawn")
        assert result == children  # the historical plain-list contract
        assert result == tuple(children)
        assert result == BatchResult(children, strategy="posix_spawn")
        assert result != BatchResult(children, strategy="forkserver")
        assert result != children[:1]


class TestTheOneFrontDoor:
    """Every ``spawn_batch`` takes a ``BatchRequest`` and nothing else,
    and says how to build one — before a helper is started, picked or
    dialed (none of these objects is running)."""

    @pytest.mark.parametrize("entry", [
        ForkServer().spawn_batch,
        ForkServerPool(1).spawn_batch,
        GatewayClient("/nonexistent.sock", tenant="t",
                      token="t").spawn_batch,
        spawn_batch,
    ], ids=["forkserver", "pool", "gateway-client", "module"])
    def test_a_bare_sequence_is_refused_by_name(self, entry):
        with pytest.raises(SpawnError, match=r"BatchRequest\.of\(\)"):
            entry([["/bin/true"]] * 2)
        with pytest.raises(SpawnError, match="empty batch"):
            entry(BatchRequest([]))

    def test_the_loose_kwargs_are_gone(self):
        batch = BatchRequest.of([["/bin/true"]])
        for entry in (ForkServerPool(1).spawn_batch, spawn_batch):
            with pytest.raises(TypeError):
                entry(batch, env={"K": "V"})

    def test_the_1x_aliases_are_gone(self):
        assert not hasattr(SpawnPool, "spawn_batch")  # add_workers()
        # (the package's strategies() shadows the submodule attribute)
        for module in (repro.core, sys.modules["repro.core.strategies"]):
            assert not hasattr(module, "STRATEGIES")  # strategies()
        assert "STRATEGIES" not in repro.core.__all__
