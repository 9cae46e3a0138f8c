"""T9 — the availability gauntlet, asserted rather than eyeballed.

pytest-benchmark times the recovery primitive itself (one supervised
daemon crash: detect, restart, reconnect, spawn again), then a plain
test runs the full chaos storm and asserts the T9 acceptance
properties directly: availability >= 0.99, the daemon actually died
and came back, zero orphaned children and zero leaked fds after
teardown.  ``repro-bench run t9-chaos`` prints the full gauntlet;
``repro-bench compare benchmarks/baselines/t9_baseline.json`` gates
its availability.
"""

import os
import shutil
import tempfile
import time

import pytest

from repro.bench.experiments import run
from repro.core import Backoff
from repro.gateway import (GatewayClient, GatewayConfig, GatewaySupervisor,
                           TenantConfig)


@pytest.fixture
def supervised():
    """One supervised daemon + resilient client, torn down cleanly."""
    tempdir = tempfile.mkdtemp(prefix="repro-bench-t9-smoke-")
    address = os.path.join(tempdir, "gateway.sock")
    supervisor = GatewaySupervisor(
        GatewayConfig(
            unix_path=address,
            tenants={"bench": TenantConfig(name="bench",
                                           token="bench-token",
                                           strategy="posix_spawn",
                                           max_queue=256)},
            max_inflight=8, drain_grace=5.0),
        check_interval=0.02,
        backoff=Backoff(0.01, jitter=0.0)).start()
    client = GatewayClient(address, tenant="bench", token="bench-token",
                           reconnect=True, max_reconnects=8).connect()
    try:
        yield supervisor, client
    finally:
        client.close()
        supervisor.stop()
        shutil.rmtree(tempdir, ignore_errors=True)


def test_crash_recovery_round_trip(benchmark, supervised):
    """Time one full self-heal: crash -> restart -> reconnect -> spawn."""
    supervisor, client = supervised

    def recover():
        before = supervisor.restarts
        supervisor.server.crash()
        deadline = time.monotonic() + 30.0
        while supervisor.restarts == before:
            if time.monotonic() > deadline:  # pragma: no cover
                raise AssertionError("supervisor never restarted")
            time.sleep(0.005)
        child = client.spawn(("/bin/true",))
        return child.wait(timeout=30)

    code = benchmark.pedantic(recover, rounds=3, warmup_rounds=1,
                              iterations=1)
    assert code == 0
    assert supervisor.restarts >= 1
    assert not supervisor.gave_up


def test_gauntlet_availability_and_hygiene():
    """The T9 acceptance bar."""
    result = run("t9-chaos", quick=True)
    summary = result.rows[-1]
    assert summary["section"] == "chaos"
    assert summary["availability"] >= 0.99
    assert summary["daemon_restarts"] >= 1, "kill_daemon never landed"
    assert not summary["supervisor_gave_up"]
    assert summary["orphans"] == 0
    assert summary["leaked_fds"] == 0
    assert summary["reconnects"] > 0, "no client ever had to reconnect"
