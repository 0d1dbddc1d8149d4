"""Ratio / interval optimizers over the performance model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.configs import HOST_GZIP1, NO_COMPRESSION, paper_parameters
from repro.core.units import minutes
from repro.core.model import multilevel_host
from repro.core.optimizer import (
    golden_section_max,
    optimal_host,
    optimal_local_interval,
    optimal_ratio,
    sweep_ratio,
)


class TestSweep:
    def test_sweep_returns_one_point_per_ratio(self, params):
        pts = sweep_ratio(params, [1, 8, 64])
        assert [p.ratio for p in pts] == [1, 8, 64]
        assert all(0 <= p.efficiency <= 1 for p in pts)

    def test_sweep_matches_direct_evaluation(self, params):
        pt = sweep_ratio(params, [16])[0]
        direct = multilevel_host(params, 16)
        assert pt.efficiency == direct.efficiency


class TestOptimalRatio:
    def test_is_global_optimum_vs_linear_scan(self, params):
        best = optimal_ratio(params)
        scan = max(
            range(1, 200), key=lambda r: multilevel_host(params, r).efficiency
        )
        assert multilevel_host(params, best).efficiency == pytest.approx(
            multilevel_host(params, scan).efficiency, rel=1e-9
        )

    def test_compression_lowers_optimal_ratio(self, params):
        plain = optimal_ratio(params)
        comp = optimal_ratio(params, HOST_GZIP1)
        assert comp < plain

    def test_higher_p_local_raises_optimal_ratio(self, params):
        lo = optimal_ratio(params.with_(p_local_recovery=0.2))
        hi = optimal_ratio(params.with_(p_local_recovery=0.96))
        assert hi > lo

    def test_optimal_host_uses_best_ratio(self, params):
        res = optimal_host(params)
        assert res.ratio == optimal_ratio(params)


class TestGoldenSection:
    def test_finds_parabola_maximum(self):
        x = golden_section_max(lambda t: -(t - 3.7) ** 2, 0.0, 10.0)
        assert x == pytest.approx(3.7, abs=1e-2)

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            golden_section_max(lambda t: t, 5.0, 1.0)


class TestLocalInterval:
    def test_default_is_daly_seed(self, params):
        tau = optimal_local_interval(params)
        assert 100.0 < tau < 250.0

    def test_refined_interval_does_not_hurt(self, params):
        def evaluate(p):
            return multilevel_host(p, 20)

        tau = optimal_local_interval(params, evaluate)
        refined = multilevel_host(params.with_(local_interval=tau), 20).efficiency
        seeded = multilevel_host(
            params.with_(local_interval=optimal_local_interval(params)), 20
        ).efficiency
        assert refined >= seeded - 1e-6


class TestOptimalRatioProperty:
    """optimal_ratio must equal the exhaustive-sweep argmax (Figure 5's
    construction) across paper-configuration variations, not just the
    Table 4 defaults — the memoized bracket/ternary search is an
    optimization of the sweep, never an approximation of it."""

    @given(
        mtti_minutes=st.floats(min_value=5.0, max_value=240.0),
        p_local=st.floats(min_value=0.05, max_value=0.99),
        spec=st.sampled_from([NO_COMPRESSION, HOST_GZIP1,
                              HOST_GZIP1.with_factor(0.1),
                              HOST_GZIP1.with_factor(0.7)]),
    )
    # Ratios below 27 make no progress at all here (efficiency 0).
    @example(mtti_minutes=5.0, p_local=0.96875, spec=NO_COMPRESSION)
    @settings(max_examples=20, deadline=None)
    def test_matches_exhaustive_argmax(self, mtti_minutes, p_local, spec):
        p = paper_parameters().with_(
            mtti=minutes(mtti_minutes), p_local_recovery=p_local
        )
        best = optimal_ratio(p, spec, max_ratio=300)
        scan_eff = max(
            multilevel_host(p, r, spec).efficiency for r in range(1, 301)
        )
        assert multilevel_host(p, best, spec).efficiency == pytest.approx(
            scan_eff, rel=1e-12
        )


class TestSharedMemo:
    """sweep_ratio/optimal_ratio/optimal_host share one scenario memo, so
    the fig4 -> fig5 pipeline never re-evaluates a bracketed ratio."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.core import optimizer

        optimizer.clear_cache()
        yield
        optimizer.clear_cache()

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.core import optimizer

        calls: list[int] = []
        real = optimizer.multilevel_host

        def counting(params, ratio, *a, **kw):
            calls.append(ratio)
            return real(params, ratio, *a, **kw)

        monkeypatch.setattr(optimizer, "multilevel_host", counting)
        return calls

    def test_sweep_then_optimal_reuses_evaluations(self, counted):
        from repro.core import optimizer

        p = paper_parameters().with_(p_local_recovery=0.85)
        optimizer.sweep_ratio(p, range(1, 65))
        assert len(counted) == 64
        # A repeated sweep and the bracketed search both hit the memo:
        # every ratio the optimizer probes was already swept.
        optimizer.sweep_ratio(p, range(1, 65))
        assert len(counted) == 64
        best = optimizer.optimal_ratio(p, max_ratio=64)
        assert len(counted) == 64
        assert 1 <= best <= 64

    def test_clear_cache_forces_reevaluation(self, counted):
        from repro.core import optimizer

        p = paper_parameters()
        optimizer.sweep_ratio(p, [8])
        optimizer.sweep_ratio(p, [8])
        assert len(counted) == 1
        optimizer.clear_cache()
        optimizer.sweep_ratio(p, [8])
        assert len(counted) == 2

    def test_distinct_scenarios_not_conflated(self, counted):
        from repro.core import optimizer

        p = paper_parameters()
        a = optimizer.sweep_ratio(p, [8])[0]
        b = optimizer.sweep_ratio(p, [8], HOST_GZIP1)[0]
        c = optimizer.sweep_ratio(p, [8], rerun_accounting="staleness")[0]
        d = optimizer.sweep_ratio(p.with_(p_local_recovery=0.5), [8])[0]
        assert len(counted) == 4
        assert len({x.efficiency for x in (a, b, c, d)}) == 4

    def test_memoized_results_equal_direct_model(self):
        from repro.core import optimizer

        p = paper_parameters()
        pt = optimizer.sweep_ratio(p, [12])[0]
        again = optimizer.sweep_ratio(p, [12])[0]
        assert pt.result is again.result  # served from the memo
        assert pt.result == multilevel_host(p, 12)

    def test_clear_cache_exported_from_core(self):
        from repro.core import clear_cache

        clear_cache()
