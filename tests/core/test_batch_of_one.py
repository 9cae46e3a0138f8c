"""A spawn is a batch of one: the conformance table.

Every layer that offers both ``spawn(argv)`` and
``spawn_batch(BatchRequest.of([argv]))`` runs them as the same unit of
work — one member — over the same wire op.  So the child must be the
same child: each row below is one observable (exit code, captured
stdout, a replaced environment, a working directory, the set of open
descriptors) and each column one layer, run both ways; return code and
bytes must be identical, and identical to what the row expects.  The
last column pairs the module-level ``spawn_batch`` ladder with a
``ProcessBuilder`` on the tier it starts from.

The wire half: with ``Channel.send`` recorded, the two methods of
``ForkServer`` put the same request on the helper's wire, and the two
of ``GatewayClient`` the same on the daemon's, apart from the
correlation and trace ids.
"""

import os

import pytest

from repro.core import (BatchRequest, ForkServer, ForkServerPool,
                        ProcessBuilder, SpawnPolicy, SpawnRequest,
                        get_strategy, reset_breakers, spawn_batch)
from repro.gateway import (GatewayClient, GatewayConfig, GatewayServer,
                           TenantConfig)
from repro.wire import Channel

TOKEN = "batch-of-one"

ROWS = {
    "exit-code": dict(argv=["/bin/sh", "-c", "exit 3"], want=(3, b"")),
    "stdout-pipe": dict(argv=["/bin/echo", "captured"],
                        want=(0, b"captured\n")),
    "env-replaced": dict(
        argv=["/bin/sh", "-c", "echo ${ONLY-unset} ${HOME-unset}"],
        env={"ONLY": "this", "PATH": "/usr/bin:/bin"},
        want=(0, b"this unset\n")),
    "cwd": dict(argv=["/bin/pwd"], cwd="/", want=(0, b"/\n")),
    # 0-2 are the grant; 3 is the listing's own directory handle.
    "open-fds": dict(argv=["/bin/ls", "/proc/self/fd"],
                     want=(0, b"0\n1\n2\n3\n")),
}


def observed(launch) -> tuple:
    """``launch(write_fd)`` -> (rc, stdout bytes), child reaped."""
    r, w = os.pipe()
    try:
        child = launch(w)
    finally:
        os.close(w)
    with open(r, "rb") as stream:
        data = stream.read()
    return child.wait(timeout=30), data


def member(row, w) -> SpawnRequest:
    return SpawnRequest(row["argv"], env=row.get("env"), cwd=row.get("cwd"),
                        stdout=w)


def as_spawn(target):
    return lambda row, w: target.spawn(row["argv"], env=row.get("env"),
                                       cwd=row.get("cwd"), stdout=w)


def as_batch(target):
    return lambda row, w: target.spawn_batch(
        BatchRequest.of([member(row, w)]))[0]


def built(row, w):
    builder = (ProcessBuilder(*row["argv"]).strategy("forkserver-pool")
               .stdout_to_fd(w))
    if row.get("env") is not None:
        builder.env(row["env"])
    if row.get("cwd") is not None:
        builder.cwd(row["cwd"])
    return builder.spawn()


def the_ladder(row, w):
    return spawn_batch(BatchRequest.of([member(row, w)]))[0]


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    """One daemon, a tenant on the pool and one on ``posix_spawn`` (which
    has no ``cwd`` attribute: that row lands on its ``fork_exec``
    fallback, both ways)."""
    reset_breakers()
    direct = SpawnPolicy(deadline=10.0, fallback=("fork_exec",))
    server = GatewayServer(GatewayConfig(
        unix_path=str(tmp_path_factory.mktemp("gw") / "gw.sock"),
        tenants={"pool": TenantConfig(name="pool", token=TOKEN),
                 "direct": TenantConfig(name="direct", token=TOKEN,
                                        strategy="posix_spawn",
                                        policy=direct)})).start()
    clients = {name: GatewayClient(server.unix_path, tenant=name,
                                   token=TOKEN).connect()
               for name in ("pool", "direct")}
    yield clients
    for client in clients.values():
        client.close()
    server.stop()
    get_strategy("forkserver-pool").shutdown()
    reset_breakers()


@pytest.fixture(scope="module")
def columns(gateway):
    """column -> (the spawn way, the batch way)."""
    server, pool = ForkServer().start(), ForkServerPool(1).start()
    yield {
        "ForkServer": (as_spawn(server), as_batch(server)),
        "ForkServerPool": (as_spawn(pool), as_batch(pool)),
        "gateway-pool-tenant": (as_spawn(gateway["pool"]),
                                as_batch(gateway["pool"])),
        "gateway-posix_spawn-tenant": (as_spawn(gateway["direct"]),
                                       as_batch(gateway["direct"])),
        "spawn_batch-vs-builder": (built, the_ladder),
    }
    server.stop()
    pool.stop()


COLUMNS = ["ForkServer", "ForkServerPool", "gateway-pool-tenant",
           "gateway-posix_spawn-tenant", "spawn_batch-vs-builder"]


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_a_spawn_and_a_batch_of_one_make_the_same_child(columns, column,
                                                        row):
    one, batch = columns[column]
    assert observed(lambda w: one(row, w)) == row["want"]
    assert observed(lambda w: batch(row, w)) == row["want"]


@pytest.fixture
def sent(monkeypatch):
    """Every ``spawn`` put on a channel's wire, minus its ids, by dialect
    (the daemon's own pool speaks the forkserver one in this process)."""
    seen = {"forkserver": [], "gateway": []}
    real = Channel.send

    def recording(self, obj, *args, **kwargs):
        if obj.get("op") == "spawn":
            seen[self.name].append({key: value for key, value in obj.items()
                                    if key not in ("id", "trace")})
        return real(self, obj, *args, **kwargs)

    monkeypatch.setattr(Channel, "send", recording)
    return seen


def test_forkserver_sends_one_request_both_ways(sent):
    with ForkServer() as server:
        assert server.spawn(["/bin/true"]).wait(timeout=30) == 0
        assert server.spawn_batch(BatchRequest.of(
            [["/bin/true"]]))[0].wait(timeout=30) == 0
    one, batch = sent["forkserver"]
    assert one == batch and len(one["reqs"]) == 1


def test_gateway_client_sends_one_request_both_ways(gateway, sent):
    client = gateway["pool"]
    assert client.spawn(["/bin/true"]).wait(timeout=30) == 0
    assert client.spawn_batch(BatchRequest.of(
        [["/bin/true"]]))[0].wait(timeout=30) == 0
    one, batch = sent["gateway"]
    assert one == batch and len(one["reqs"]) == 1
