"""PoolAutoscaler decisions, driven with a stub pool and a fake clock."""

import threading
import time

import pytest

from repro.core import ForkServerPool
from repro.core.autoscale import AutoscaleConfig, PoolAutoscaler
from repro.errors import SpawnError
from repro.obs import RingBufferSink, TELEMETRY


class StubPool:
    """A pool with scriptable depth and purely arithmetic grow/shrink."""

    def __init__(self, size=1, depth=0):
        self.size = size
        self.depth = depth
        self.grown = 0
        self.shrunk = 0

    def queue_depth(self):
        return self.depth

    def grow(self, count=1):
        self.size += count
        self.grown += count
        return self.size

    def shrink(self, count=1):
        removed = min(count, self.size - 1)
        self.size -= removed
        self.shrunk += removed
        return removed


CONFIG = AutoscaleConfig(min_workers=1, max_workers=4,
                         high_watermark=2.0, low_watermark=0.5,
                         sustain_seconds=1.0, idle_ttl=5.0)


class TestConfigValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(SpawnError):
            AutoscaleConfig(min_workers=0)
        with pytest.raises(SpawnError):
            AutoscaleConfig(min_workers=4, max_workers=2)
        with pytest.raises(SpawnError):
            AutoscaleConfig(step=0)
        with pytest.raises(SpawnError):
            AutoscaleConfig(low_watermark=3.0, high_watermark=2.0)


class TestScaleUp:
    def test_needs_sustained_pressure(self):
        pool = StubPool(size=1, depth=10)
        scaler = PoolAutoscaler(pool, CONFIG)
        assert scaler.poll_once(now=0.0) is None   # opens the window
        assert scaler.poll_once(now=0.5) is None   # not sustained yet
        assert scaler.poll_once(now=1.1) == "up"
        assert pool.size == 2
        assert scaler.scale_ups == 1

    def test_blip_resets_the_window(self):
        pool = StubPool(size=1, depth=10)
        scaler = PoolAutoscaler(pool, CONFIG)
        scaler.poll_once(now=0.0)
        pool.depth = 0                              # pressure vanished
        scaler.poll_once(now=0.9)
        pool.depth = 10
        assert scaler.poll_once(now=1.5) is None    # fresh window
        assert pool.size == 1

    def test_each_growth_earns_its_own_window(self):
        pool = StubPool(size=1, depth=100)
        scaler = PoolAutoscaler(pool, CONFIG)
        scaler.poll_once(now=0.0)
        assert scaler.poll_once(now=1.1) == "up"
        assert scaler.poll_once(now=1.2) is None    # window restarted
        assert scaler.poll_once(now=2.3) == "up"
        assert pool.size == 3

    def test_never_past_max(self):
        pool = StubPool(size=4, depth=100)
        scaler = PoolAutoscaler(pool, CONFIG)
        for now in (0.0, 1.1, 2.2, 3.3):
            assert scaler.poll_once(now=now) is None
        assert pool.size == 4


class TestScaleDown:
    def test_needs_idle_ttl(self):
        pool = StubPool(size=4, depth=0)
        scaler = PoolAutoscaler(pool, CONFIG)
        assert scaler.poll_once(now=0.0) is None
        assert scaler.poll_once(now=4.0) is None
        assert scaler.poll_once(now=5.1) == "down"
        assert pool.size == 3
        assert scaler.scale_downs == 1

    def test_never_below_min(self):
        pool = StubPool(size=1, depth=0)
        scaler = PoolAutoscaler(pool, CONFIG)
        for now in (0.0, 6.0, 12.0, 18.0):
            assert scaler.poll_once(now=now) is None
        assert pool.size == 1

    def test_traffic_resets_the_ttl(self):
        pool = StubPool(size=4, depth=0)
        scaler = PoolAutoscaler(pool, CONFIG)
        scaler.poll_once(now=0.0)
        pool.depth = 10                             # burst interrupts
        scaler.poll_once(now=4.0)
        pool.depth = 0
        assert scaler.poll_once(now=6.0) is None    # TTL restarted
        assert pool.size == 4


class TestLatencyPressure:
    def test_stale_histogram_is_not_pressure(self):
        config = AutoscaleConfig(max_workers=4, sustain_seconds=0.0,
                                 latency_target_ns=1)
        pool = StubPool(size=1, depth=0)            # no queue pressure
        TELEMETRY.enable(sink=None, reset_metrics=True)
        try:
            hist = TELEMETRY.metrics.histogram(
                "spawn_latency_ns", strategy="forkserver-pool")
            scaler = PoolAutoscaler(pool, config)
            hist.record(10_000_000)
            scaler.poll_once(now=0.0)               # fresh sample: pressure
            hist.record(10_000_000)
            assert scaler.poll_once(now=1.0) == "up"
            # No new samples since: the stale p95 proves nothing.
            assert scaler.poll_once(now=2.0) is None
            assert scaler.poll_once(now=3.0) is None
            assert pool.size == 2
        finally:
            TELEMETRY.disable()


def wait_for(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


class TestLifecycle:
    def test_background_thread_scales_a_real_pool(self):
        """The shape of elasticity: a burst grows the pool, idle shrinks it.

        Structural only — no throughput figure — so no box speed can
        flip it.
        """
        config = AutoscaleConfig(min_workers=1, max_workers=2,
                                 high_watermark=1.0, sustain_seconds=0.0,
                                 idle_ttl=0.2, interval=0.01)
        with ForkServerPool(1, prestart=1) as pool:
            with PoolAutoscaler(pool, config) as scaler:
                assert scaler.running
                children = [pool.spawn(["/bin/sleep", "0.3"])
                            for _ in range(4)]
                assert wait_for(lambda: pool.size == 2, 5)
                assert scaler.scale_ups >= 1
                for child in children:
                    assert child.wait(timeout=10) == 0
                assert wait_for(lambda: pool.size == 1
                                and scaler.scale_downs >= 1, 5)
            assert not scaler.running

    def test_stop_is_idempotent(self):
        scaler = PoolAutoscaler(StubPool(), CONFIG)
        scaler.start()
        scaler.stop()
        scaler.stop()
        assert not scaler.running


class TestStopHardening:
    """stop() must be idempotent, bounded, and safe from any thread."""

    def test_stop_returns_true_on_clean_shutdown(self):
        scaler = PoolAutoscaler(StubPool(), CONFIG)
        scaler.start()
        assert scaler.stop() is True
        assert scaler.stop() is True  # second stop: nothing to join
        assert not scaler.running

    def test_stop_without_start_is_a_noop(self):
        scaler = PoolAutoscaler(StubPool(), CONFIG)
        assert scaler.stop() is True
        assert not scaler.running

    def test_wedged_poll_cannot_hang_stop(self):
        release = threading.Event()
        entered = threading.Event()

        class WedgedPool(StubPool):
            def queue_depth(self):
                entered.set()
                release.wait(30)  # the poll thread jams in here
                return 0

        config = AutoscaleConfig(min_workers=1, max_workers=4,
                                 interval=0.01)
        scaler = PoolAutoscaler(WedgedPool(), config)
        scaler.start()
        assert entered.wait(5)
        sink = RingBufferSink()
        TELEMETRY.enable(sink, reset_metrics=True)
        try:
            started = time.monotonic()
            assert scaler.stop(timeout=0.1) is False
            elapsed = time.monotonic() - started
        finally:
            TELEMETRY.disable()
            release.set()
        assert elapsed < 1.0  # bounded: did not wait out the wedge
        assert not scaler.running
        assert any(e.get("action") == "stop_timeout"
                   for e in sink.events())

    def test_stop_from_inside_the_poll_thread(self):
        results = []

        class SelfStoppingPool(StubPool):
            def __init__(self):
                super().__init__()
                self.scaler = None

            def queue_depth(self):
                # A pool callback stopping its own scaler must not
                # self-join (deadlock) — it just signals and returns.
                results.append(self.scaler.stop())
                return 0

        pool = SelfStoppingPool()
        config = AutoscaleConfig(min_workers=1, max_workers=4,
                                 interval=0.01)
        scaler = PoolAutoscaler(pool, config)
        pool.scaler = scaler
        scaler.start()
        deadline = time.monotonic() + 5
        while not results and time.monotonic() < deadline:
            time.sleep(0.01)
        assert results and results[0] is True
        assert not scaler.running

    def test_concurrent_stops_both_return(self):
        scaler = PoolAutoscaler(StubPool(), CONFIG)
        scaler.start()
        outcomes = []
        stoppers = [threading.Thread(target=lambda:
                                     outcomes.append(scaler.stop()))
                    for _ in range(2)]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join(timeout=5)
        assert len(outcomes) == 2 and all(outcomes)
        assert not scaler.running

    def test_restart_after_stop(self):
        scaler = PoolAutoscaler(StubPool(), CONFIG)
        scaler.start()
        assert scaler.stop() is True
        scaler.start()
        assert scaler.running
        assert scaler.stop() is True
