"""SLO parsing, rolling windows, burn rates, metric export."""

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.slo import (
    WINDOWS,
    SLOError,
    SLOTarget,
    SLOTracker,
    parse_duration,
    parse_slo,
)


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("50ms", 0.05),
            ("1.5s", 1.5),
            ("250us", 250e-6),
            ("2m", 120.0),
            ("0.25", 0.25),  # bare seconds
            (" 10 ms ", 0.01),
        ],
    )
    def test_units(self, text, want):
        assert parse_duration(text) == pytest.approx(want)

    @pytest.mark.parametrize("text", ["", "ms", "50 hours", "1h", "-3ms"])
    def test_rejects_garbage(self, text):
        with pytest.raises(SLOError):
            parse_duration(text)


class TestParseSlo:
    def test_canonical_spec(self):
        t = parse_slo("simulate=50ms:0.99")
        assert t == SLOTarget("simulate", 0.05, 0.99)

    def test_bare_seconds_threshold(self):
        assert parse_slo("sweep=0.25:0.95").threshold_s == 0.25

    @pytest.mark.parametrize(
        "spec",
        [
            "simulate",  # no '='
            "=50ms:0.99",  # empty route
            "simulate=50ms",  # no target
            "simulate=0ms:0.99",  # zero threshold
            "simulate=50ms:1.0",  # target not in (0,1)
            "simulate=50ms:0",
            "simulate=50ms:huge",
        ],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(SLOError):
            parse_slo(spec)


class TestTracker:
    def _tracker(self):
        clock = FakeClock()
        return SLOTracker((parse_slo("simulate=50ms:0.99"),), clock=clock), clock

    def test_untracked_route_returns_none(self):
        tracker, _ = self._tracker()
        assert tracker.record("sweep", 0.001) is None
        assert tracker.snapshot() == {"simulate": tracker.snapshot()["simulate"]}

    def test_good_and_bad_classification(self):
        tracker, _ = self._tracker()
        assert tracker.record("simulate", 0.01) is True
        assert tracker.record("simulate", 0.50) is False  # too slow
        assert tracker.record("simulate", 0.01, ok=False) is False  # errored
        snap = tracker.snapshot()["simulate"]
        assert (snap["good"], snap["bad"]) == (1, 2)

    def test_burn_rate_math(self):
        # 1% errors at a 99% target burns the budget exactly at rate 1.
        assert SLOTracker.burn_rate(99, 1, 0.99) == pytest.approx(1.0)
        assert SLOTracker.burn_rate(0, 10, 0.99) == pytest.approx(100.0)
        assert SLOTracker.burn_rate(10, 0, 0.99) == 0.0
        assert SLOTracker.burn_rate(0, 0, 0.99) == 0.0

    def test_snapshot_windows_and_objective(self):
        tracker, _ = self._tracker()
        tracker.record("simulate", 0.01)
        snap = tracker.snapshot()["simulate"]
        assert snap["objective"] == "50ms:0.99"
        assert set(snap["windows"]) == {name for name, _ in WINDOWS}
        assert snap["windows"]["5m"] == {"good": 1, "bad": 0, "burn_rate": 0.0}

    def test_short_window_forgets_old_bad_requests(self):
        tracker, clock = self._tracker()
        for _ in range(5):
            tracker.record("simulate", 9.9)  # all bad
        clock.advance(400.0)  # > 5m, < 1h
        tracker.record("simulate", 0.01)
        snap = tracker.snapshot()["simulate"]
        assert snap["windows"]["5m"] == {"good": 1, "bad": 0, "burn_rate": 0.0}
        assert snap["windows"]["1h"]["bad"] == 5
        assert snap["windows"]["1h"]["burn_rate"] > 1.0
        # Lifetime totals never forget.
        assert (snap["good"], snap["bad"]) == (1, 5)

    def test_long_window_expires_after_an_hour(self):
        tracker, clock = self._tracker()
        tracker.record("simulate", 9.9)
        clock.advance(3700.0)
        snap = tracker.snapshot()["simulate"]
        assert snap["windows"]["1h"] == {"good": 0, "bad": 0, "burn_rate": 0.0}

    def test_ring_slot_reuse_resets_stale_epochs(self):
        tracker, clock = self._tracker()
        tracker.record("simulate", 0.01)
        clock.advance(3600.0)  # exactly one ring revolution: same slot index
        tracker.record("simulate", 9.9)
        snap = tracker.snapshot()["simulate"]
        assert (snap["windows"]["5m"]["good"], snap["windows"]["5m"]["bad"]) == (0, 1)
        assert snap["windows"]["5m"]["burn_rate"] == pytest.approx(100.0)

    def test_register_metrics_exports_gauges(self):
        tracker, _ = self._tracker()
        reg = obs_metrics.MetricsRegistry()
        tracker.register_metrics(reg)
        tracker.record("simulate", 0.01)
        tracker.record("simulate", 9.9)
        text = reg.render_prometheus()
        assert 'repro_slo_requests_total{route="simulate",verdict="good"} 1' in text
        assert 'repro_slo_requests_total{route="simulate",verdict="bad"} 1' in text
        assert 'repro_slo_target{route="simulate"} 0.99' in text
        assert 'repro_slo_burn_rate{route="simulate",window="5m"} 50' in text
        assert "# TYPE repro_slo_requests_total counter" in text
        assert "# TYPE repro_slo_rejected_total counter" in text
        assert "# TYPE repro_slo_target gauge" in text
        assert "# TYPE repro_slo_burn_rate gauge" in text
