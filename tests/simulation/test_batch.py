"""Monte-Carlo batch statistics and paired comparisons."""

import pytest

from repro.core.configs import NDP_GZIP1, NO_COMPRESSION
from repro.simulation import SimConfig, compare_strategies, mc_run
from repro.simulation.stats import _t95


def cfg(params, **kw):
    defaults = dict(params=params, strategy="ndp", work=params.mtti * 30, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestT95:
    def test_exact_table_entries(self):
        assert _t95(1) == 12.706
        assert _t95(20) == 2.086
        assert _t95(30) == 2.042

    def test_gap_uses_nearest_lower_entry(self):
        # The table is sparse above 20: 21..24 fall back to dof 20,
        # 26..29 to dof 25 (conservative: the lower dof's value is larger).
        assert _t95(21) == 2.086
        assert _t95(29) == 2.060

    def test_beyond_table_is_normal_limit(self):
        # Docstring promise: beyond dof 30 the normal 1.96 applies, not
        # the last tabulated value forever.
        assert _t95(31) == 1.96
        assert _t95(1000) == 1.96

    def test_degenerate_dof(self):
        assert _t95(0) == float("inf")


class TestMCRun:
    def test_summary_statistics(self, params):
        res = mc_run(cfg(params), seeds=range(5))
        assert res.n == 5
        assert len(res.samples) == 5
        assert res.mean == pytest.approx(sum(res.samples) / 5)
        assert res.ci95 > 0

    def test_single_seed_infinite_ci(self, params):
        res = mc_run(cfg(params), seeds=[3])
        assert res.ci95 == float("inf")

    def test_seed_overrides_config_seed(self, params):
        res = mc_run(cfg(params, seed=999), seeds=[1, 2])
        # Different seeds must produce different samples.
        assert res.samples[0] != res.samples[1]

    def test_empty_seeds_rejected(self, params):
        with pytest.raises(ValueError):
            mc_run(cfg(params), seeds=[])


class TestPairedComparison:
    def test_ndp_beats_host_significantly(self, params):
        host = cfg(params, strategy="host", ratio=15, compression=NDP_GZIP1)
        ndp = cfg(params, strategy="ndp", compression=NDP_GZIP1)
        comp = compare_strategies(host, ndp, seeds=range(6))
        assert comp.mean_diff > 0.10
        assert comp.significant

    def test_identical_configs_not_significant(self, params):
        a = cfg(params)
        comp = compare_strategies(a, a, seeds=range(4))
        assert comp.mean_diff == 0.0
        assert not comp.significant

    def test_pairing_no_worse_than_unpaired(self, params):
        """The paired difference CI must not exceed the unpaired-difference
        CI (common random numbers can only cancel shared noise)."""
        host = cfg(params, strategy="host", ratio=15, compression=NDP_GZIP1)
        ndp = cfg(params, strategy="ndp", compression=NDP_GZIP1)
        seeds = range(6)
        paired = compare_strategies(host, ndp, seeds=seeds)
        ci_a = mc_run(host, seeds=seeds).ci95
        ci_b = mc_run(ndp, seeds=seeds).ci95
        unpaired_diff_ci = (ci_a**2 + ci_b**2) ** 0.5
        assert paired.ci95_diff <= unpaired_diff_ci * 1.2

    def test_needs_two_seeds(self, params):
        with pytest.raises(ValueError):
            compare_strategies(cfg(params), cfg(params), seeds=[1])

    def test_custom_metric(self, params):
        a = cfg(params, compression=NO_COMPRESSION)
        b = cfg(params, compression=NDP_GZIP1)
        comp = compare_strategies(
            a, b, seeds=range(3), transform=lambda r: float(r.io_checkpoints)
        )
        # Compression drains more checkpoints per unit time.
        assert comp.mean_diff > 0


class TestFailureTraceReplay:
    def test_exact_replay(self, params):
        from repro.simulation import simulate

        times = (1000.0, 2500.0, 7000.0)
        res = simulate(cfg(params, failure_times=times, work=params.mtti * 6))
        assert res.failures == len(times)

    def test_replay_deterministic_regardless_of_seed(self, params):
        from repro.simulation import simulate

        times = (1000.0, 2500.0)
        a = simulate(cfg(params, failure_times=times, seed=1, work=params.mtti * 4))
        b = simulate(cfg(params, failure_times=times, seed=1, work=params.mtti * 4))
        assert a.wall_time == b.wall_time

    def test_trace_validation(self, params):
        with pytest.raises(ValueError):
            cfg(params, failure_times=(5.0, 1.0))
        with pytest.raises(ValueError):
            cfg(params, failure_times=(-1.0,))

    def test_adversarial_schedule_hurts(self, params):
        """Failures placed just before each checkpoint completes maximize
        lost work; the same number of failures spread harmlessly early
        loses less."""
        from repro.simulation import simulate

        cycle = params.cycle_time
        work = params.mtti * 4
        adversarial = tuple((i + 1) * 10 * cycle - 0.5 for i in range(4))
        benign = tuple((i + 1) * 10 * cycle - 0.9 * cycle for i in range(4))
        bad = simulate(cfg(params, failure_times=adversarial, work=work))
        good = simulate(cfg(params, failure_times=benign, work=work))
        assert bad.efficiency < good.efficiency