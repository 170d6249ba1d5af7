"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert registry.counter("x").value == 5

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_set_and_set_max(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        gauge.set_max(1)
        assert gauge.value == 3
        gauge.set_max(9)
        assert gauge.value == 9
        gauge.set(2)
        assert gauge.value == 2


class TestHistogram:
    def test_bucket_assignment_le_semantics(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5, 10.0, 99, 1000):
            histogram.observe(value)
        # counts: <=1, <=10, <=100, overflow
        assert histogram.counts == [2, 2, 1, 1]
        assert histogram.count == 6
        assert histogram.sum == pytest.approx(0.5 + 1 + 5 + 10 + 99 + 1000)
        assert histogram.mean == pytest.approx(histogram.sum / 6)

    def test_boundaries_must_be_ascending_and_unique(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_quantile_interpolates_within_buckets(self):
        histogram = Histogram("h", buckets=(10.0, 20.0, 40.0))
        for value in (5, 5, 15, 15, 15, 15, 30, 30, 30, 30):
            histogram.observe(value)
        # ranks: q*10 observations; bucket populations 2/4/4/0
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(0.2) == pytest.approx(10.0)
        # rank 5 sits 3/4 through the (10, 20] bucket
        assert histogram.quantile(0.5) == pytest.approx(17.5)
        assert histogram.quantile(1.0) == pytest.approx(40.0)

    def test_quantile_edge_cases(self):
        empty = Histogram("h", buckets=(1.0, 2.0))
        assert empty.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            empty.quantile(1.5)
        overflow = Histogram("h", buckets=(1.0, 2.0))
        overflow.observe(100.0)
        # everything past the last boundary clamps to that boundary —
        # the histogram cannot see further
        assert overflow.quantile(0.99) == 2.0

    def test_fraction_le_is_quantile_inverse(self):
        histogram = Histogram("h", buckets=(10.0, 20.0, 40.0))
        for value in (5, 15, 15, 30):
            histogram.observe(value)
        assert histogram.fraction_le(10.0) == pytest.approx(0.25)
        assert histogram.fraction_le(20.0) == pytest.approx(0.75)
        assert histogram.fraction_le(15.0) == pytest.approx(0.5)  # interpolated
        assert histogram.fraction_le(40.0) == 1.0
        assert histogram.fraction_le(1000.0) == 1.0
        assert Histogram("h", buckets=(1.0,)).fraction_le(0.5) == 1.0  # empty

    def test_merge_requires_identical_boundaries(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.sum == pytest.approx(11.0)
        with pytest.raises(ValueError):
            a.merge(Histogram("h", buckets=(1.0, 3.0)))


class TestRegistry:
    def test_same_name_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_collisions_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_boundary_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        registry.histogram("h", buckets=(1.0, 2.0))  # identical is fine
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=DEFAULT_SIZE_BUCKETS)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        assert len(registry) == 3
