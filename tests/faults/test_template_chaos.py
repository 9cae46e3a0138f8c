"""Template chaos: helper death, dead parked children, drained stock.

The registry's promise under fire: every spawn still returns a working
child (riding the degradation ladder when it must), the template
re-warms itself in the background, and — enforced by this directory's
autouse hygiene fixture — nothing orphans a process or leaks an fd.
"""

import os
import signal
import time

import pytest

from repro.core import TemplateProfile, TemplateRegistry
from repro.core.templates import AutoscaleConfig, TemplateMiss, TemplateServer
from repro.faults import FAULTS, FaultPlan

SNAPPY = AutoscaleConfig(step=2)

FALLBACK_TIERS = {"forkserver-pool", "forkserver", "posix_spawn"}


class TestHelperDeath:
    def test_sigkill_mid_service_degrades_then_rewarns(self, monkeypatch):
        monkeypatch.setattr(TemplateRegistry, "miss_grace", 0.05)
        with TemplateRegistry(autoscale=SNAPPY) as registry:
            registry.register(TemplateProfile("p", stock=2, max_stock=4))
            os.kill(registry.server_for("p")._pid, signal.SIGKILL)

            # The request racing the crash must still come back with a
            # working child, whichever rung of the ladder served it.
            child = registry.spawn("p", ["/bin/echo", "survived"])
            assert child.wait(timeout=30) == 0
            assert child.strategy in {"template"} | FALLBACK_TIERS

            # ...and the miss told the restock thread to re-warm: the
            # template must come back on its own, no operator involved.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                child = registry.spawn("p", ["/bin/true"])
                assert child.wait(timeout=30) == 0
                if child.strategy == "template":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("registry never re-warmed after helper death")

    def test_dead_parked_child_is_skipped_not_leased(self):
        # Kill the OLDEST parked child; whether the helper's reap pass
        # pruned the corpse or its lease walk trips over it, a payload
        # must reach the next live one.
        server = TemplateServer(TemplateProfile("p", stock=0, max_stock=4))
        server.start()
        try:
            doomed = server.park()
            server.park()
            os.kill(doomed, signal.SIGKILL)
            deadline = time.monotonic() + 5
            while _alive(doomed) and time.monotonic() < deadline:
                time.sleep(0.01)
            child = server.lease(code="pass")
            assert child.wait(timeout=30) == 0
            assert child.pid != doomed
            assert server.healthy
        finally:
            server.stop()


class TestDrainedStock:
    def test_no_grace_falls_back_then_miss_pressure_provisions(
            self, monkeypatch):
        monkeypatch.setattr(TemplateRegistry, "miss_grace", 0.0)
        with TemplateRegistry(autoscale=SNAPPY) as registry:
            registry.register(TemplateProfile("dry", stock=0, max_stock=2))
            # A program needs no stock: the dry template still serves it.
            spawned = registry.spawn("dry", ["/bin/true"])
            assert spawned.wait(timeout=30) == 0
            assert spawned.strategy == "template"
            first = registry.spawn("dry", code="pass")
            assert first.wait(timeout=30) == 0
            assert first.strategy in FALLBACK_TIERS
            # That miss raised the stock target above the zero floor;
            # the restock thread must provision warm children for the
            # traffic that proved the demand.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                child = registry.spawn("dry", code="pass")
                assert child.wait(timeout=30) == 0
                if child.strategy == "template":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("miss pressure never provisioned warm stock")

    def test_direct_lease_miss_leaves_the_helper_healthy(self):
        server = TemplateServer(TemplateProfile("dry", stock=0,
                                                max_stock=2))
        server.start()
        try:
            with pytest.raises(TemplateMiss):
                server.lease(code="pass")
            assert server.healthy
            assert server.lease(["/bin/true"]).wait(timeout=30) == 0
            server.park()
            assert server.lease(code="pass").wait(timeout=30) == 0
        finally:
            server.stop()


class TestInjectedRefusal:
    def test_helper_side_lease_refusal_rides_the_full_ladder(
            self, monkeypatch):
        # point="helper" plants the refusal inside every helper booted
        # while the plan is active: the template lease refuses (EACCES,
        # not a miss), and each generic fallback helper refuses its
        # first exec too — the request must still land, even if only
        # the posix_spawn floor will take it.
        plan = FaultPlan().add("refuse_exec", point="helper", times=1)
        monkeypatch.setattr(TemplateRegistry, "miss_grace", 0.0)
        with FAULTS.active(plan):
            with TemplateRegistry(autoscale=SNAPPY) as registry:
                registry.register(TemplateProfile("p", stock=1,
                                                  max_stock=2))
                child = registry.spawn("p", ["/bin/echo", "landed"])
                assert child.wait(timeout=30) == 0
                assert child.strategy in FALLBACK_TIERS


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
