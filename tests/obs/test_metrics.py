"""Unit and property tests for the metrics registry."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)


def test_histogram_bucketing_is_le_inclusive():
    histogram = Histogram((1.0, 2.0))
    for value in (0.5, 1.0, 1.5, 2.0, 99.0):
        histogram.observe(value)
    # le semantics: a sample equal to a bound lands in that bound's
    # bucket, and values above the last bound land in the overflow slot.
    assert histogram.counts == [2, 2, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(104.0)


def test_family_label_schema_is_enforced():
    registry = MetricsRegistry()
    family = registry.counter("x_total", "help", ("op",))
    with pytest.raises(ValueError):
        family.labels()
    with pytest.raises(ValueError):
        family.labels(op="a", extra="b")
    with pytest.raises(ValueError):
        registry.gauge("x_total", "help")  # kind mismatch
    # Idempotent re-registration returns the same family.
    assert registry.counter("x_total", "help", ("op",)) is family


def test_quantile_interpolates_and_clamps():
    histogram = Histogram((1.0, 2.0, 4.0))
    for value in (0.5, 0.5, 1.5, 1.5, 3.0, 100.0):
        histogram.observe(value)
    child = histogram.data()
    # Median rank 3 (of 6) falls halfway through the (1, 2] bucket.
    assert histogram_quantile(child, 0.5) == pytest.approx(1.5)
    # The overflow bucket clamps to the last finite bound.
    assert histogram_quantile(child, 1.0) == pytest.approx(4.0)
    assert histogram_quantile({"bounds": [1.0], "counts": [0, 0],
                               "sum": 0.0, "count": 0}, 0.5) == 0.0


def test_quantile_of_an_empty_histogram_is_zero():
    child = {"bounds": [1.0, 2.0], "counts": [0, 0, 0],
             "sum": 0.0, "count": 0}
    for q in (0.0, 0.5, 1.0):
        assert histogram_quantile(child, q) == 0.0


def test_quantile_with_all_samples_in_the_first_bucket():
    histogram = Histogram((1.0, 2.0))
    for _ in range(5):
        histogram.observe(0.5)
    child = histogram.data()
    # Every quantile interpolates inside (0, 1]; q=0 is its lower edge.
    assert histogram_quantile(child, 0.0) == pytest.approx(0.0)
    assert histogram_quantile(child, 0.5) == pytest.approx(0.5)
    assert histogram_quantile(child, 1.0) == pytest.approx(1.0)


def test_quantile_with_all_samples_in_the_overflow_bucket():
    histogram = Histogram((1.0, 2.0))
    for _ in range(3):
        histogram.observe(99.0)
    child = histogram.data()
    # No finite upper edge to interpolate toward: clamp to the last
    # finite bound at every quantile.
    for q in (0.0, 0.5, 1.0):
        assert histogram_quantile(child, q) == pytest.approx(2.0)


def test_quantile_with_no_finite_bounds_at_all():
    child = {"bounds": [], "counts": [4], "sum": 8.0, "count": 4}
    assert histogram_quantile(child, 0.5) == 0.0


def test_quantile_q_zero_skips_empty_leading_buckets():
    histogram = Histogram((1.0, 2.0, 4.0))
    histogram.observe(3.0)
    child = histogram.data()
    # The first occupied bucket is (2, 4]; q=0 is its lower edge.
    assert histogram_quantile(child, 0.0) == pytest.approx(2.0)


def test_quantile_clamps_q_outside_the_unit_interval():
    histogram = Histogram((1.0,))
    histogram.observe(0.5)
    child = histogram.data()
    assert histogram_quantile(child, -3.0) == \
        histogram_quantile(child, 0.0)
    assert histogram_quantile(child, 7.0) == \
        histogram_quantile(child, 1.0)


#: Latency-like samples: non-negative, spanning below the first bound
#: to far beyond the last.
_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    max_size=60,
)


@given(samples=_samples)
def test_bucket_counts_always_total_to_count(samples):
    histogram = Histogram(DEFAULT_LATENCY_BOUNDS)
    for value in samples:
        histogram.observe(value)
    assert sum(histogram.counts) == histogram.count == len(samples)
