"""The multilevel C/R performance model — including paper-shape regressions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import model
from repro.core.configs import (
    HOST_GZIP1,
    NDP_GZIP1,
    NO_COMPRESSION,
    paper_parameters,
)


class TestSingleLevel:
    def test_local_only_hits_90pct_design_point(self, params):
        # The system is provisioned so single-level-to-local reaches ~90%.
        res = model.single_level(params, level="local")
        assert res.efficiency == pytest.approx(0.90, abs=0.02)

    def test_io_only_is_poor(self, params):
        res = model.io_only(params)
        assert 0.05 < res.efficiency < 0.25

    def test_io_only_compression_helps(self, params):
        plain = model.io_only(params).efficiency
        comp = model.io_only(params, HOST_GZIP1).efficiency
        assert comp > 2 * plain

    def test_breakdown_sums_to_one(self, params):
        b = model.io_only(params).breakdown
        assert b.total == pytest.approx(1.0, abs=1e-9)

    def test_io_components_on_io_side(self, params):
        b = model.io_only(params).breakdown
        assert b.checkpoint_local == 0.0
        assert b.rerun_local == 0.0
        assert b.checkpoint_io > 0 and b.rerun_io > 0

    def test_local_components_on_local_side(self, params):
        b = model.single_level(params, level="local").breakdown
        assert b.checkpoint_io == 0.0
        assert b.checkpoint_local > 0

    def test_local_label_never_claims_compression(self, params):
        # The local level stores checkpoints as written: a compression
        # spec changes neither the label nor the efficiency.
        res = model.predict("local-only", params, NDP_GZIP1)
        assert res.config == "Local Only"
        assert res.efficiency == model.single_level(params, level="local").efficiency
        assert res.efficiency == pytest.approx(0.9079, abs=5e-5)
        assert model.io_only(params, NDP_GZIP1).config == "I/O Only + compression(73%)"

    def test_unknown_level_rejected(self, params):
        with pytest.raises(ValueError):
            model.single_level(params, level="tape")

    def test_explicit_tau_respected(self, params):
        res = model.io_only(params, tau=500.0)
        assert res.tau == 500.0


class TestMultilevelHost:
    def test_ratio_one_required(self, params):
        with pytest.raises(ValueError):
            model.multilevel_host(params, 0)

    def test_breakdown_sums_to_one(self, params):
        b = model.multilevel_host(params, 20).breakdown
        assert b.total == pytest.approx(1.0, abs=1e-9)

    def test_beats_io_only(self, params):
        assert (
            model.multilevel_host(params, 20).efficiency
            > model.io_only(params).efficiency
        )

    def test_compression_helps(self, params):
        plain = model.multilevel_host(params, 20).efficiency
        comp = model.multilevel_host(params, 20, HOST_GZIP1).efficiency
        assert comp > plain

    def test_interior_optimum_in_ratio(self, params):
        effs = [model.multilevel_host(params, r).efficiency for r in (1, 24, 500)]
        assert effs[1] > effs[0] and effs[1] > effs[2]

    def test_higher_p_local_helps(self, params):
        lo = model.multilevel_host(params.with_(p_local_recovery=0.2), 20).efficiency
        hi = model.multilevel_host(params.with_(p_local_recovery=0.96), 20).efficiency
        assert hi > lo

    def test_staleness_accounting_strictly_worse(self, params):
        a = model.multilevel_host(params, 20, rerun_accounting="paper")
        b = model.multilevel_host(params, 20, rerun_accounting="staleness")
        assert b.efficiency < a.efficiency

    def test_unknown_accounting_rejected(self, params):
        with pytest.raises(ValueError):
            model.multilevel_host(params, 20, rerun_accounting="magic")

    def test_infeasible_configuration_reports_zero(self, params):
        # Tiny MTTI: recovery costs exceed the MTTI, no forward progress.
        bad = params.with_(mtti=30.0)
        res = model.multilevel_host(bad, 50)
        assert res.efficiency == 0.0
        assert math.isinf(res.slowdown)
        assert not res.feasible


class TestNDPInterval:
    def test_uncompressed_interval(self, params):
        n, interval, t_raw = model.ndp_io_interval(params)
        assert t_raw == pytest.approx(1120.0)
        # 1120 s of drain at ~95% duty cycle -> 8 cycles of 157.47 s.
        assert n == 8
        assert interval == pytest.approx(n * params.cycle_time)

    def test_compressed_interval(self, params):
        n, interval, t_raw = model.ndp_io_interval(params, NDP_GZIP1)
        assert t_raw == pytest.approx(112e9 * 0.272 / 100e6, rel=1e-3)
        assert n == 3  # ~305 s of drain -> 3 cycles

    def test_pause_increases_interval(self, params):
        n_pause, _, _ = model.ndp_io_interval(params, pause_during_local=True)
        n_free, _, _ = model.ndp_io_interval(params, pause_during_local=False)
        assert n_pause >= n_free

    def test_compression_rate_bound(self, params):
        # An NDP slower than I/O demands becomes the bottleneck.
        slow = NDP_GZIP1.with_factor(0.728)
        slow = type(slow)(
            factor=0.728, compress_rate=50e6, decompress_rate=16e9, name="slow"
        )
        _, _, t_raw = model.ndp_io_interval(params, slow)
        assert t_raw == pytest.approx(112e9 / 50e6)


class TestMultilevelNDP:
    def test_beats_host_at_same_compression(self, params):
        host = model.multilevel_host(params, 15, HOST_GZIP1).efficiency
        ndp = model.multilevel_ndp(params, NDP_GZIP1).efficiency
        assert ndp > host

    def test_no_checkpoint_io_component(self, params):
        b = model.multilevel_ndp(params, NDP_GZIP1).breakdown
        assert b.checkpoint_io == 0.0

    def test_breakdown_sums_to_one(self, params):
        b = model.multilevel_ndp(params).breakdown
        assert b.total == pytest.approx(1.0, abs=1e-9)

    def test_compression_reduces_rerun_io(self, params):
        plain = model.multilevel_ndp(params).breakdown.rerun_io
        comp = model.multilevel_ndp(params, NDP_GZIP1).breakdown.rerun_io
        assert comp < plain

    def test_ratio_reflects_drain_cadence(self, params):
        res = model.multilevel_ndp(params, NDP_GZIP1)
        n, interval, _ = model.ndp_io_interval(params, NDP_GZIP1)
        assert res.ratio == n
        assert res.io_interval == pytest.approx(interval)


class TestPaperShapeRegressions:
    """Quantitative anchors from the paper's evaluation (tolerant bands)."""

    def test_figure7_ndp_rerun_io_band(self, params):
        p = params.with_(p_local_recovery=0.96)
        ndp = model.multilevel_ndp(p).breakdown.rerun_io
        ndpc = model.multilevel_ndp(p, NDP_GZIP1).breakdown.rerun_io
        assert ndp == pytest.approx(0.012, abs=0.006)  # paper: 1.2%
        assert ndpc == pytest.approx(0.006, abs=0.004)  # paper: 0.6%

    def test_figure8_anchor_112gb(self, params):
        # Paper: HC ~65%, NC ~87% at 112 GB, p_local 85%.
        from repro.core.optimizer import optimal_host

        hc = optimal_host(params, HOST_GZIP1).efficiency
        nc = model.multilevel_ndp(params, NDP_GZIP1).efficiency
        assert hc == pytest.approx(0.65, abs=0.07)
        assert nc == pytest.approx(0.87, abs=0.03)

    def test_section_6_3_headline(self, params):
        from repro.core.optimizer import optimal_host

        host, ndp = [], []
        for p in (0.2, 0.4, 0.6, 0.8):
            pp = params.with_(p_local_recovery=p)
            host.append(optimal_host(pp, HOST_GZIP1).efficiency)
            ndp.append(model.multilevel_ndp(pp, NDP_GZIP1).efficiency)
        assert sum(host) / 4 == pytest.approx(0.51, abs=0.05)  # paper: 51%
        assert sum(ndp) / 4 == pytest.approx(0.78, abs=0.04)  # paper: 78%

    def test_ndp_without_compression_vs_host_with(self, params):
        # Section 6.3 claims NDP-without-compression beats host-multilevel-
        # with-compression on average.  In our model the claim holds
        # pointwise at high p_local but host+compression's cheap compressed
        # I/O *restores* win at low p_local, leaving the averages within a
        # few points (documented deviation in EXPERIMENTS.md).  Assert the
        # robust parts: NDP-no-comp always beats host-no-comp, wins
        # decisively at p_local >= 60%, and the averages stay close.
        from repro.core.optimizer import optimal_host

        ndp, host_c = [], []
        for p in (0.2, 0.4, 0.6, 0.8):
            pp = params.with_(p_local_recovery=p)
            ndp_eff = model.multilevel_ndp(pp).efficiency
            ndp.append(ndp_eff)
            host_c.append(optimal_host(pp, HOST_GZIP1).efficiency)
            assert ndp_eff > optimal_host(pp).efficiency  # vs host no-comp
            if p >= 0.6:
                assert ndp_eff > host_c[-1] - 0.01  # ~tie at 60%, win at 80%
        assert ndp[-1] > host_c[-1] + 0.05
        assert abs(sum(ndp) / 4 - sum(host_c) / 4) < 0.10


class TestDescribe:
    def test_includes_key_quantities(self, params):
        text = model.multilevel_ndp(params, NDP_GZIP1).describe()
        assert "Local + I/O-NDP" in text
        assert "87" in text  # the efficiency
        assert "compression" in text
        assert "every 3 local" in text

    def test_infeasible_flagged(self, params):
        bad = params.with_(mtti=30.0)
        text = model.multilevel_host(bad, 50).describe()
        assert "INFEASIBLE" in text

    def test_no_compression_line_when_uncompressed(self, params):
        text = model.multilevel_ndp(params).describe()
        assert "compression " not in text


@given(
    p_local=st.floats(min_value=0.0, max_value=1.0),
    ratio=st.integers(min_value=1, max_value=400),
    factor=st.floats(min_value=0.0, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_property_efficiency_bounded(p_local, ratio, factor):
    """Any admissible configuration yields efficiency in [0, 1]."""
    params = paper_parameters().with_(p_local_recovery=p_local)
    comp = NO_COMPRESSION if factor == 0 else HOST_GZIP1.with_factor(factor)
    for res in (
        model.multilevel_host(params, ratio, comp),
        model.multilevel_ndp(params, comp),
    ):
        assert 0.0 <= res.efficiency <= 1.0
        assert res.breakdown.total == pytest.approx(1.0, abs=1e-6)
