"""Tests for the real-OS workload registry."""

import pytest

from repro.bench.workloads import Workloads, measure_spawn_throughput
from repro.errors import BenchError


@pytest.fixture(scope="module")
def workloads():
    with Workloads() as registry:
        yield registry


class TestRegistry:
    def test_all_mechanisms_present(self, workloads):
        assert set(workloads.mechanisms()) == {
            "fork_exec", "fork_only", "posix_spawn", "subprocess",
            "forkserver", "template"}

    def test_unknown_mechanism_rejected(self, workloads):
        with pytest.raises(BenchError):
            workloads.measure_mechanism("carrier-pigeon")

    def test_each_mechanism_runs_once(self, workloads):
        workloads.start_forkserver()
        for name, operation in workloads.mechanisms().items():
            operation()  # must not raise or leak a zombie

    def test_measure_returns_summary(self, workloads):
        summary = workloads.measure_mechanism("posix_spawn", repeats=3,
                                              max_seconds=5.0)
        assert summary.n >= 3
        assert summary.median > 0

    def test_measure_with_fds_closes_descriptors(self, workloads):
        import os
        def open_fds():
            # Count our open descriptors via /proc.
            return len(os.listdir("/proc/self/fd"))
        before = open_fds()
        workloads.measure_with_fds("posix_spawn", 64, repeats=3,
                                   max_seconds=5.0)
        assert open_fds() <= before + 2  # no leak (allowing tmp noise)

    def test_sweep_rows_have_all_mechanisms(self, workloads):
        rows = workloads.sweep([1 << 20], ["posix_spawn", "fork_only"],
                               repeats=3, max_seconds=3.0)
        (row,) = rows
        assert set(row["results"]) == {"posix_spawn", "fork_only"}
        assert row["ballast_bytes"] == 1 << 20

    def test_close_is_idempotent(self):
        registry = Workloads()
        registry.start_forkserver()
        registry.close()
        registry.close()


class TestMeasureSpawnThroughput:
    def test_counts_and_rate(self):
        calls = []

        def fake_spawn():
            calls.append(1)

        result = measure_spawn_throughput(fake_spawn, concurrency=3,
                                          requests_per_thread=4,
                                          mechanism="fake")
        assert result.mechanism == "fake"
        assert result.requests == 12
        assert result.errors == 0
        assert len(calls) == 12
        assert result.per_second > 0
        assert result.latency.n == 12

    def test_errors_counted_not_raised(self):
        flags = iter([True, False] * 10)

        def flaky():
            if next(flags):
                raise RuntimeError("boom")

        result = measure_spawn_throughput(flaky, concurrency=1,
                                          requests_per_thread=6)
        assert result.errors == 3
        assert result.requests == 3

    def test_all_failures_raise(self):
        def always_fails():
            raise RuntimeError("boom")

        with pytest.raises(BenchError):
            measure_spawn_throughput(always_fails, concurrency=2,
                                     requests_per_thread=2)

    def test_bad_args_rejected(self):
        with pytest.raises(BenchError):
            measure_spawn_throughput(lambda: None, concurrency=0,
                                     requests_per_thread=1)
        with pytest.raises(BenchError):
            measure_spawn_throughput(lambda: None, concurrency=1,
                                     requests_per_thread=0)
