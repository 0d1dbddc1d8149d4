"""simulate_grid: whole strategy x parameter grids in one vectorized pass."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.configs import NDP_GZIP1, NO_COMPRESSION
from repro.simulation import (
    GridResult,
    ResultCache,
    SimConfig,
    mc_run,
    simulate_fast,
    simulate_grid,
)

SHORT = 4.3


def cfg(params, **kw):
    defaults = dict(
        params=params, strategy="ndp", compression=NDP_GZIP1, work=params.mtti * SHORT, seed=0
    )
    defaults.update(kw)
    return SimConfig(**defaults)


@pytest.fixture
def grid2x2(params):
    return [
        [cfg(params), cfg(params, strategy="local-only", compression=NO_COMPRESSION)],
        [cfg(params, strategy="host", ratio=15), cfg(params, strategy="io-only")],
    ]


class TestShapes:
    def test_2d_grid(self, params, grid2x2):
        g = simulate_grid(grid2x2, seeds=(0, 1, 2))
        assert isinstance(g, GridResult)
        assert g.shape == (2, 2)
        assert g.seeds == (0, 1, 2)
        assert g.efficiency.shape == (2, 2)
        assert g.ci95.shape == (2, 2)
        assert g.results.shape == (2, 2, 3)
        assert g.n_cells == 4
        assert all(arr.shape == (2, 2) for arr in g.breakdown.values())

    def test_scalar_config(self, params):
        g = simulate_grid(cfg(params), seeds=(5,))
        assert g.shape == ()
        assert g.results.shape == (1,)
        assert float(g.ci95) == math.inf  # one draw: no variance information

    def test_flat_list(self, params):
        g = simulate_grid([cfg(params), cfg(params, strategy="io-only")], seeds=(0, 1))
        assert g.shape == (2,)
        assert g.results.shape == (2, 2)

    def test_ragged_grid_rejected(self, params):
        with pytest.raises(ValueError, match="ragged"):
            simulate_grid([[cfg(params)], [cfg(params), cfg(params)]])

    def test_empty_axis_rejected(self, params):
        with pytest.raises(ValueError, match="empty"):
            simulate_grid([])

    def test_empty_seeds_rejected(self, params):
        with pytest.raises(ValueError, match="seed"):
            simulate_grid(cfg(params), seeds=())


class TestEquivalence:
    """One grid pass == one simulate_fast call per (cell, seed)."""

    def test_cellwise_identical(self, params, grid2x2):
        seeds = (0, 1, 2)
        g = simulate_grid(grid2x2, seeds=seeds)
        for i in range(2):
            for j in range(2):
                for k, s in enumerate(seeds):
                    want = simulate_fast(dataclasses.replace(grid2x2[i][j], seed=s))
                    assert g.results[i, j, k] == want, (i, j, s)

    def test_grid_seed_axis_overrides_config_seed(self, params):
        g = simulate_grid(cfg(params, seed=999), seeds=(3,))
        assert g.results[0] == simulate_fast(cfg(params, seed=3))

    def test_stats_match_mc_run(self, params):
        seeds = range(6)
        config = cfg(params, strategy="host", ratio=15)
        g = simulate_grid(config, seeds=seeds)
        mc = mc_run(dataclasses.replace(config, engine="fast"), seeds=seeds)
        assert float(g.efficiency) == mc.mean
        assert float(g.ci95) == mc.ci95

    def test_engine_override(self, params):
        config = cfg(params, strategy="host", ratio=15, engine="des")
        fast = simulate_grid(config, seeds=(0, 1))  # default forces "fast"
        des = simulate_grid(config, seeds=(0, 1), engine=None)
        # host is exact, so the engine changes the path, not the answer.
        np.testing.assert_allclose(fast.efficiency, des.efficiency, rtol=1e-9)

    def test_jobs_invariant(self, params, grid2x2):
        baseline = simulate_grid(grid2x2, seeds=(0, 1))
        fanned = simulate_grid(grid2x2, seeds=(0, 1), jobs=2)
        assert list(baseline.results.reshape(-1)) == list(fanned.results.reshape(-1))

    def test_cache_roundtrip(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        grid = [cfg(params), cfg(params, strategy="io-only")]
        first = simulate_grid(grid, seeds=(0, 1), cache=cache)
        assert cache.misses == 4
        again = simulate_grid(grid, seeds=(0, 1), cache=cache)
        assert cache.hits == 4
        assert list(first.results.reshape(-1)) == list(again.results.reshape(-1))


class TestDerivedMetrics:
    def test_map_and_mean_of(self, params, grid2x2):
        g = simulate_grid(grid2x2, seeds=(0, 1))
        fails = g.map(lambda r: r.failures)
        assert fails.shape == (2, 2, 2)
        np.testing.assert_allclose(g.mean_of(lambda r: r.failures), fails.mean(axis=-1))

    def test_breakdown_components_sum_to_one(self, params, grid2x2):
        g = simulate_grid(grid2x2, seeds=(0, 1))
        total = sum(g.breakdown.values())
        np.testing.assert_allclose(total, np.ones((2, 2)), rtol=1e-9)

    def test_efficiency_is_seed_mean(self, params):
        g = simulate_grid(cfg(params), seeds=(0, 1, 2, 3))
        effs = [r.efficiency for r in g.results.reshape(-1)]
        assert float(g.efficiency) == pytest.approx(np.mean(effs), rel=1e-12)
