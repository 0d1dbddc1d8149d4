"""Metrics registry: instruments, exporters, adapters."""

import math

import pytest

from repro.ckpt.metrics import RuntimeMetrics, StageCounter
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    register_runtime_metrics,
    register_stage_counter,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("ops_total", "ops")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_are_independent_cells(self, reg):
        c = reg.counter("ops_total")
        c.inc(direction="compress")
        c.inc(3, direction="decompress")
        assert c.value(direction="compress") == 1.0
        assert c.value(direction="decompress") == 3.0
        assert c.value() == 0.0

    def test_label_order_irrelevant(self, reg):
        c = reg.counter("ops_total")
        c.inc(a=1, b=2)
        assert c.value(b=2, a=1) == 1.0

    def test_negative_rejected(self, reg):
        with pytest.raises(MetricError):
            reg.counter("ops_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6.0

    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_callback_evaluated_at_read(self, reg, kind):
        state = {"v": 1.0}
        g = getattr(reg, kind)("live")
        g.set_function(lambda: state["v"])
        assert g.value() == 1.0
        state["v"] = 7.0
        assert g.value() == 7.0
        assert f"# TYPE live {kind}\nlive 7" in reg.render_prometheus()

    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_callback_rebind_replaces(self, reg, kind):
        g = getattr(reg, kind)("live")
        g.set_function(lambda: 1.0)
        g.set_function(lambda: 2.0)
        assert g.value() == 2.0

    @pytest.mark.parametrize("kind", ["counter", "gauge"])
    def test_dead_callback_yields_nan_in_samples(self, reg, kind):
        g = getattr(reg, kind)("live")
        g.set_function(lambda: 1 / 0)
        ((labels, value),) = g.samples()
        assert labels == {}
        assert math.isnan(value)
        assert "live NaN" in reg.render_prometheus()


class TestHistogram:
    def test_observe_and_value(self, reg):
        h = reg.histogram("latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99.0)
        cell = h.value()
        assert cell["count"] == 3
        assert cell["sum"] == pytest.approx(99.55)
        assert cell["counts"] == [1, 1, 1]  # one per bucket incl. +Inf

    def test_inf_bucket_appended(self, reg):
        h = reg.histogram("latency", buckets=(1.0,))
        assert h.buckets == (1.0, math.inf)

    def test_callback_binding_refused(self, reg):
        with pytest.raises(MetricError, match="callback"):
            reg.histogram("latency").set_function(lambda: 1.0)

    def test_default_buckets_end_at_inf(self):
        assert DEFAULT_BUCKETS[-1] == math.inf

    def test_prometheus_renders_cumulative(self, reg):
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render_prometheus()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text


class TestRegistry:
    def test_get_or_create_shares_instrument(self, reg):
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_type_clash_raises(self, reg):
        reg.counter("x_total")
        with pytest.raises(MetricError, match="counter"):
            reg.gauge("x_total")

    def test_invalid_name_rejected(self, reg):
        with pytest.raises(MetricError):
            reg.counter("bad name!")

    def test_names_sorted(self, reg):
        reg.gauge("b")
        reg.counter("a_total")
        assert reg.names() == ["a_total", "b"]

    def test_reset_zeroes_but_keeps_handles(self, reg):
        c = reg.counter("x_total")
        c.inc(5)
        reg.reset()
        assert c.value() == 0.0
        c.inc()
        assert c.value() == 1.0
        assert reg.counter("x_total") is c

    def test_snapshot_shape(self, reg):
        reg.counter("x_total", "things").inc(2, mode="ndp")
        snap = reg.snapshot()
        assert snap["x_total"]["type"] == "counter"
        assert snap["x_total"]["help"] == "things"
        assert snap["x_total"]["samples"] == [
            {"labels": {"mode": "ndp"}, "value": 2.0}
        ]

    def test_prometheus_text_format(self, reg):
        reg.counter("x_total", "things").inc(mode="ndp")
        reg.gauge("depth").set(3)
        text = reg.render_prometheus()
        assert "# HELP x_total things" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{mode="ndp"} 1' in text
        assert "depth 3" in text

    def test_prometheus_inf_value(self, reg):
        reg.gauge("rate").set(math.inf)
        assert "rate +Inf" in reg.render_prometheus()

    def test_global_registry_exists(self):
        assert obs_metrics.get_registry() is obs_metrics.REGISTRY


class TestAdapters:
    def test_stage_counter_gauges(self, reg):
        stage = StageCounter()
        register_stage_counter(stage, "drain_compress", reg, app="a")
        stage.add(1000, 0.5)
        assert reg.counter("drain_compress_bytes_total").value(app="a") == 1000
        assert reg.gauge("drain_compress_bytes_per_second").value(app="a") == 2000.0
        assert reg.counter("drain_compress_ops_total").value(app="a") == 1

    def test_runtime_metrics_gauges(self, reg):
        m = RuntimeMetrics()
        register_runtime_metrics(m, reg, app="x")
        m.checkpoints = 4
        m.blocked_seconds["local"] = 1.25
        assert reg.counter("cr_checkpoints_total").value(app="x") == 4
        assert reg.gauge("cr_blocked_seconds").value(activity="local", app="x") == 1.25
        assert reg.gauge("cr_blocked_seconds").value(activity="io", app="x") == 0.0

    def test_drain_stats_gauges(self, reg):
        from repro.ckpt.ndp_daemon import DrainStats

        stats = DrainStats()
        obs_metrics.register_drain_stats(stats, reg, app="d")
        stats.bytes_in = 100
        stats.bytes_out = 40
        stats.stalls = 2
        stats.compress.add(100, 0.1)
        assert reg.gauge("ndp_bytes_in").value(app="d") == 100
        assert reg.counter("ndp_backpressure_stalls_total").value(app="d") == 2
        assert reg.gauge("ndp_achieved_factor").value(app="d") == pytest.approx(0.6)
        assert reg.counter("ndp_compress_bytes_total").value(app="d") == 100

    def test_adapters_report_live_in_snapshot(self, reg):
        stage = StageCounter()
        register_stage_counter(stage, "s", reg)
        before = reg.snapshot()["s_bytes_total"]["samples"][0]["value"]
        stage.add(10, 0.1)
        after = reg.snapshot()["s_bytes_total"]["samples"][0]["value"]
        assert (before, after) == (0, 10)


class TestHistogramBisect:
    def test_bisect_matches_linear_scan_semantics(self, reg):
        """``value <= edge`` picks the first qualifying bucket — exactly
        what the old linear scan did, for every edge and in-between."""
        h = reg.histogram("lat_seconds", "latency")
        edges = h.buckets

        def linear_bucket(value):
            for i, edge in enumerate(edges):
                if value <= edge:
                    return i
            raise AssertionError("+Inf edge always matches")

        probes = [0.0, -1.0, 1e12, math.inf]
        for e in edges[:-1]:
            probes += [e, e * 0.999, e * 1.001]
        for value in probes:
            h2 = MetricsRegistry().histogram("x_seconds", "x")
            h2.observe(value)
            counts = h2.value()["counts"]
            assert counts[linear_bucket(value)] == 1, value
            assert sum(counts) == 1


class TestHistogramQuantile:
    def test_uniform_distribution_interpolates(self, reg):
        h = reg.histogram("q_seconds", "q", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0):  # one observation per finite bucket
            h.observe(v)
        # rank 1.5 of 3 falls mid-bucket-2: 1.0 + (2.0-1.0) * 0.5
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_known_percentiles(self, reg):
        h = reg.histogram("p_seconds", "p", buckets=(0.01, 0.1, 1.0))
        for _ in range(90):
            h.observe(0.005)  # bucket 1
        for _ in range(10):
            h.observe(0.05)  # bucket 2
        # p50: rank 50 of 100 falls 50/90 into bucket 1's span
        assert h.quantile(0.5) == pytest.approx(0.01 * (50 / 90))
        # p95: rank 95 -> 5 observations into bucket 2's 10
        assert h.quantile(0.95) == pytest.approx(0.01 + 0.09 * 0.5)

    def test_inf_bucket_returns_highest_finite_edge(self, reg):
        h = reg.histogram("inf_seconds", "inf", buckets=(1.0,))
        h.observe(50.0)  # lands in +Inf
        assert h.quantile(0.9) == 1.0

    def test_empty_histogram_is_nan(self, reg):
        h = reg.histogram("e_seconds", "e")
        assert math.isnan(h.quantile(0.5))

    def test_out_of_range_q_rejected(self, reg):
        h = reg.histogram("r_seconds", "r")
        with pytest.raises(MetricError):
            h.quantile(1.5)
        with pytest.raises(MetricError):
            h.quantile(-0.1)

    def test_labelled_cells_independent(self, reg):
        h = reg.histogram("lbl_seconds", "l", buckets=(1.0, 10.0))
        h.observe(0.5, endpoint="fast")
        h.observe(9.0, endpoint="slow")
        assert h.quantile(0.99, endpoint="fast") <= 1.0
        assert h.quantile(0.99, endpoint="slow") > 1.0


class TestExemplars:
    def test_observe_attaches_exemplar_to_bucket(self, reg):
        h = reg.histogram("ex_seconds", "ex", buckets=(1.0,))
        h.observe(0.5, exemplar="trace-a")
        h.observe(0.7, exemplar="trace-b")  # same bucket: last writer wins
        h.observe(0.2)  # no exemplar: does not clobber
        ex = h.value()["exemplars"]
        assert ex[0] == ("trace-b", 0.7)

    def test_no_exemplars_key_without_exemplars(self, reg):
        h = reg.histogram("plain_seconds", "p")
        h.observe(0.5)
        assert "exemplars" not in h.value()

    def test_prometheus_renders_openmetrics_exemplar(self, reg):
        h = reg.histogram("lat_seconds", "latency", buckets=(1.0,))
        h.observe(0.5, exemplar="abc123")
        text = reg.render_prometheus()
        assert 'lat_seconds_bucket{le="1"} 1 # {trace_id="abc123"} 0.5' in text
        # The +Inf line carries no exemplar.
        inf_line = next(l for l in text.splitlines() if '+Inf' in l)
        assert "#" not in inf_line
