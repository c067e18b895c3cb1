"""Unit tests for the service-side metric collectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    DepthGauge,
    EventCounter,
    LatencyRecorder,
    SizeHistogram,
    quantile,
)
from repro.telemetry.metrics import LATENCY_WINDOW


class TestQuantile:
    def test_empty_returns_zero(self):
        assert quantile([], 0.5) == 0.0

    def test_single_value(self):
        assert quantile([7.0], 0.0) == 7.0
        assert quantile([7.0], 1.0) == 7.0

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            quantile([1.0], 1.5)

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_linear_percentile(self, values, q):
        expected = float(np.percentile(values, q * 100.0))
        assert quantile(values, q) == pytest.approx(expected, abs=1e-6)


class TestEventCounter:
    def test_all_names_present_from_the_start(self):
        c = EventCounter("a", "b")
        assert c.snapshot() == {"a": 0, "b": 0}
        c.bump("a")
        c.bump("b", 3)
        assert c["a"] == 1 and c["b"] == 3

    def test_unknown_name_is_an_error(self):
        c = EventCounter("a")
        with pytest.raises(KeyError, match="typo"):
            c.bump("typo")

    def test_snapshot_is_a_copy(self):
        c = EventCounter("a")
        snap = c.snapshot()
        snap["a"] = 99
        assert c["a"] == 0


class TestDepthGauge:
    def test_tracks_value_and_peak(self):
        g = DepthGauge()
        assert g.snapshot() == {"depth": 0, "peak": 0}
        g.set(5)
        g.set(2)
        assert g.snapshot() == {"depth": 2, "peak": 5}


class TestSizeHistogram:
    def test_empty(self):
        h = SizeHistogram()
        assert h.mean() == 0.0
        assert h.snapshot() == {
            "count": 0,
            "total": 0,
            "mean_occupancy": 0.0,
            "occupancy_hist": {},
        }

    def test_mean_occupancy_and_histogram(self):
        h = SizeHistogram()
        for size in (1, 8, 8, 3):
            h.record(size)
        assert h.count == 4 and h.total == 20
        assert h.mean() == 5.0
        snap = h.snapshot()
        assert snap["mean_occupancy"] == 5.0
        assert snap["occupancy_hist"] == {"1": 1, "3": 1, "8": 2}


class TestLatencyRecorder:
    def test_summary_quantiles(self):
        r = LatencyRecorder()
        for s in (0.010, 0.020, 0.030, 0.040):
            r.record(s)
        summary = r.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(25.0)
        assert summary["p50"] == pytest.approx(25.0)
        assert summary["max"] == pytest.approx(40.0)

    def test_window_drops_the_oldest_past_LATENCY_WINDOW(self):
        r = LatencyRecorder()
        for i in range(LATENCY_WINDOW):
            r.record(float(i))
        assert r._window[0] == 0.0 and len(r._window) == LATENCY_WINDOW
        r.record(float(LATENCY_WINDOW))
        assert r._window[0] == 1.0 and len(r._window) == LATENCY_WINDOW
        assert r._window[-1] == float(LATENCY_WINDOW)

    def test_window_is_bounded_but_count_is_not(self):
        r = LatencyRecorder()
        n = LATENCY_WINDOW + 90
        for i in range(n):
            r.record(i / 1000.0)  # 0 .. n - 1 ms
        assert r.count == n
        assert len(r._window) == LATENCY_WINDOW
        summary = r.summary()
        # Quantiles see only the newest samples (from 90 ms on) ...
        assert summary["p50"] >= 90.0 + LATENCY_WINDOW / 2 - 1
        # ... while the mean covers the full history.
        assert summary["mean"] == pytest.approx((n - 1) / 2)

    def test_empty_summary(self):
        summary = LatencyRecorder().summary()
        assert summary == {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
