"""Unit tests for the counters, gauges and HDR-style histograms, and
the metric table in ``docs/OBSERVABILITY.md`` that names them."""

import ast
import pathlib
import re
import threading

import pytest

import repro
from repro.errors import ObsError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative_amounts(self):
        with pytest.raises(ObsError):
            Counter().inc(-1)

    def test_thread_safety(self):
        counter = Counter()

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2

    def test_high_water_mark_survives_drops(self):
        gauge = Gauge()
        gauge.set(9)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.maximum == 9


class TestHistogram:
    def test_small_values_are_exact(self):
        histogram = Histogram()
        for value in (0, 1, 7, 31):
            histogram.record(value)
        assert histogram.percentile(0.0) == 0
        assert histogram.percentile(1.0) == 31
        assert histogram.count == 4

    def test_percentiles_within_relative_error(self):
        histogram = Histogram()
        for i in range(1, 1001):
            histogram.record(i * 1000)  # 1us .. 1ms in ns
        for fraction, expected in ((0.50, 500_000), (0.95, 950_000),
                                   (0.99, 990_000)):
            got = histogram.percentile(fraction)
            assert abs(got - expected) / expected < 2 ** -Histogram.SUB_BITS

    def test_percentile_clamped_to_observed_extremes(self):
        histogram = Histogram()
        histogram.record(1_000_003)
        assert histogram.percentile(0.0) == 1_000_003
        assert histogram.percentile(1.0) == 1_000_003

    def test_empty_histogram_raises(self):
        with pytest.raises(ObsError):
            Histogram().percentile(0.5)
        with pytest.raises(ObsError):
            _ = Histogram().mean

    def test_fraction_out_of_range(self):
        histogram = Histogram()
        histogram.record(1)
        with pytest.raises(ObsError):
            histogram.percentile(1.5)

    def test_quantile_summary_shape(self):
        histogram = Histogram()
        for i in range(100):
            histogram.record(i)
        summary = histogram.quantile_summary()
        assert set(summary) == {"count", "min", "p50", "p90", "p95",
                                "p99", "max"}
        assert summary["count"] == 100
        assert summary["min"] == 0
        assert summary["max"] == 99

    def test_mean_uses_unclamped_values(self):
        histogram = Histogram()
        histogram.record(10)
        histogram.record(20)
        assert histogram.mean == 15

    def test_bucket_count_stays_small(self):
        histogram = Histogram()
        for i in range(1, 100_000):
            histogram.record(i)
        # Log-bucketing: ~16 buckets per octave, not one per value.
        assert len(histogram._buckets) < 300


class TestMetricsRegistry:
    def test_same_name_and_labels_share_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("spawns", strategy="posix_spawn")
        b = registry.counter("spawns", strategy="posix_spawn")
        assert a is b

    def test_different_labels_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("spawns", strategy="posix_spawn")
        b = registry.counter("spawns", strategy="fork_exec")
        assert a is not b

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("spawns")
        with pytest.raises(ObsError):
            registry.histogram("spawns")

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("spawns", strategy="x").inc(2)
        registry.gauge("depth").set(3)
        registry.histogram("lat", strategy="x").record(5)
        snapshot = registry.snapshot()
        assert snapshot["counters"][0]["value"] == 2
        assert snapshot["gauges"][0]["max"] == 3
        assert snapshot["histograms"][0]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("spawns").inc()
        registry.reset()
        assert registry.counters() == []
        # After reset the name is free to be a different kind.
        registry.histogram("spawns").record(1)


def documented_metrics() -> set:
    """Every backticked name in the first cell of the table under
    ``## Metrics`` whose first column is ``metric``."""
    text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split("## Metrics", 1)[1]
    names, seen_table = set(), False
    for line in section.splitlines():
        if not line.startswith("|"):
            if seen_table:
                break
            continue
        first = line.strip("|").split("|")[0].strip()
        if not seen_table:
            seen_table = first == "metric"
            continue
        names.update(re.findall(r"`([a-z_0-9]+)`", first))
    assert names, "no metric table under '## Metrics' in OBSERVABILITY.md"
    return names


def emitted_metrics() -> set:
    """The names ``src/`` records: the literal first argument of every
    ``TELEMETRY.count``/``gauge``/``observe`` call, and of the tracer's
    own ``self._metrics.counter``/``histogram`` calls."""
    names = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            owner = ast.unparse(node.func.value)
            if ((owner, node.func.attr) in
                    {("TELEMETRY", "count"), ("TELEMETRY", "gauge"),
                     ("TELEMETRY", "observe")}):
                name = node.args[0]
                assert isinstance(name, ast.Constant), (
                    f"{path.name}:{node.lineno}: a metric name the docs "
                    f"cannot be checked against: {ast.unparse(name)}")
                names.add(name.value)
            elif (owner == "self._metrics"
                  and node.func.attr in {"counter", "gauge", "histogram"}):
                names.add(node.args[0].value)
    return names


def test_observability_md_names_exactly_the_emitted_metrics():
    emitted = emitted_metrics()
    assert {"spawns", "spawn_failures", "spawn_latency_ns",
            "child_lifetime_ns"} <= emitted  # the tracer's, found too
    documented = documented_metrics()
    assert documented - emitted == set(), "documented, never emitted"
    assert emitted - documented == set(), "emitted, not documented"
