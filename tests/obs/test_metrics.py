"""Metrics registry: concurrency, quantile edges, exposition round-trip."""

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("requests_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("requests_total").inc(-1)

    def test_labelled_series_are_independent(self):
        counter = Counter("requests_total", labels=("endpoint",))
        counter.inc(endpoint="rank")
        counter.inc(3, endpoint="score")
        assert counter.value(endpoint="rank") == 1.0
        assert counter.value(endpoint="score") == 3.0

    def test_rejects_invalid_names(self):
        with pytest.raises(ValueError):
            Counter("9starts-with-digit")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value() == 4.0

    def test_can_go_negative(self):
        gauge = Gauge("drift")
        gauge.dec(2)
        assert gauge.value() == -2.0


class TestHistogramQuantiles:
    def test_empty_histogram_quantile_is_nan(self):
        histogram = Histogram("latency_seconds")
        assert math.isnan(histogram.quantile(0.5))

    def test_single_sample(self):
        histogram = Histogram("latency_seconds", buckets=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        # The only sample sits in the (1, 2] bucket at every quantile.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert 1.0 <= histogram.quantile(q) <= 2.0

    def test_out_of_range_quantile_rejected(self):
        histogram = Histogram("latency_seconds")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.1)

    def test_overflow_observations_clamp_to_largest_bound(self):
        histogram = Histogram("latency_seconds", buckets=(1.0, 2.0))
        histogram.observe(100.0)  # beyond every finite bucket
        assert histogram.quantile(0.5) == 2.0
        assert histogram.count() == 1
        assert histogram.sum() == 100.0

    def test_p50_p99_separate_under_skew(self):
        histogram = Histogram("latency_seconds", buckets=DEFAULT_BUCKETS)
        for _ in range(99):
            histogram.observe(0.001)
        histogram.observe(5.0)
        assert histogram.quantile(0.5) <= 0.005
        assert histogram.quantile(0.99) >= 0.0005
        assert histogram.quantile(1.0) >= 2.5

    def test_sum_and_count_track_observations(self):
        histogram = Histogram("latency_seconds")
        for value in (0.001, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(0.111)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total")
        second = registry.counter("requests_total")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("endpoint",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labels=("side",))

    def test_reset_forgets_everything(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.reset()
        assert registry.names() == []


class TestConcurrency:
    """Many threads hammering one family must lose no updates."""

    THREADS = 8
    PER_THREAD = 2000

    def test_concurrent_counter_increments(self):
        counter = Counter("hits_total", labels=("worker",))

        def work(worker: int) -> None:
            for _ in range(self.PER_THREAD):
                counter.inc(worker=str(worker % 2))

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == self.THREADS * self.PER_THREAD

    def test_concurrent_histogram_observations(self):
        histogram = Histogram("latency_seconds", buckets=(0.5, 1.0, 2.0))

        def work() -> None:
            for i in range(self.PER_THREAD):
                histogram.observe(0.25 + (i % 3) * 0.5)  # 0.25 / 0.75 / 1.25

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = self.THREADS * self.PER_THREAD
        assert histogram.count() == expected

    def test_concurrent_get_or_create(self):
        registry = MetricsRegistry()
        instances = []

        def work() -> None:
            instances.append(registry.counter("shared_total"))

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, instances))) == 1


class TestWorkerMerge:
    """The shm-pool merge path: worker-measured amounts, merged with labels."""

    def test_merge_counters_applies_labels(self):
        registry = MetricsRegistry()
        registry.merge_counters(
            {"worker_chunks_total": 2.0},
            labels={"pool": "engine", "worker": "0"},
            help_texts={"worker_chunks_total": "Chunks scored"},
        )
        registry.merge_counters(
            {"worker_chunks_total": 3.0},
            labels={"pool": "engine", "worker": "1"},
        )
        counter = registry.counter(
            "worker_chunks_total", labels=("pool", "worker")
        )
        assert counter.value(pool="engine", worker="0") == 2.0
        assert counter.value(pool="engine", worker="1") == 3.0
        assert "# HELP worker_chunks_total Chunks scored" in registry.render()

    def test_merge_counters_accumulates_across_calls(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.merge_counters(
                {"busy_seconds_total": 0.5}, labels={"worker": "0"}
            )
        counter = registry.counter("busy_seconds_total", labels=("worker",))
        assert counter.value(worker="0") == 1.5

    def test_merge_counters_skips_non_positive_deltas(self):
        registry = MetricsRegistry()
        registry.merge_counters(
            {"good_total": 1.0, "zero_total": 0.0, "bad_total": -2.0},
            labels={"worker": "0"},
        )
        assert registry.names() == ["good_total"]

    def test_merge_without_labels_hits_plain_counters(self):
        registry = MetricsRegistry()
        registry.merge_counters({"events_total": 2.0})
        assert registry.counter("events_total").value() == 2.0


class TestExposition:
    def test_render_contains_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served").inc(3)
        text = registry.render()
        assert "# HELP requests_total Requests served" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text

    def test_histogram_buckets_are_cumulative_and_end_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            histogram.observe(value)
        samples = parse_prometheus(registry.render())
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "2"),))] == 2
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("lat_seconds_count", ())] == 3
        assert samples[("lat_seconds_sum", ())] == pytest.approx(11.0)

    def test_round_trip_counters_gauges_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "by endpoint", labels=("endpoint",))
        counter.inc(2, endpoint="rank")
        counter.inc(5, endpoint="score")
        registry.gauge("up").set(1)
        samples = parse_prometheus(registry.render())
        assert samples[("req_total", (("endpoint", "rank"),))] == 2
        assert samples[("req_total", (("endpoint", "score"),))] == 5
        assert samples[("up", ())] == 1

    def test_label_values_escape_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("odd_total", labels=("path",))
        tricky = 'a"b\\c\nd'
        counter.inc(path=tricky)
        samples = parse_prometheus(registry.render())
        assert samples[("odd_total", (("path", tricky),))] == 1

    def test_families_render_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zzz_total").inc()
        registry.counter("aaa_total").inc()
        text = registry.render()
        assert text.index("aaa_total") < text.index("zzz_total")
