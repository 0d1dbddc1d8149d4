"""DES <-> fastpath equivalence: the vectorized engine against the oracle.

Layered evidence, mirroring the engine's exactness contract:

* the RNG stream-compatibility property the whole design rests on
  (block draws consume named streams identically to scalar draws),
* bit-level equivalence on failure-free runs for all four strategies,
* matched-seed exact equivalence for ``host``/``io-only``/``local-only``
  (and deep-drain ``ndp``), where the closed form is exact,
* the per-slot ring model: ``nvm_capacity`` 1/2/3, the stale-drain
  transient, and drain-lock stalls reproduce the DES bit-for-bit,
* closed-form partner-copy charging: ``partner_every > 0`` is exact on
  every strategy that supports it,
* a paired 95%-CI distribution suite over >= 200 matched seeds for every
  strategy and every breakdown component, plus ndp bit-exactness on every
  seed at ``nvm_capacity`` 2 and 8 (at capacity 1 the segment walker's
  sub-ulp drain-clock association leaves last-ulp float differences, so
  there the counters are equal and the floats agree to 1e-12),
* Hypothesis property tests over random ``CRParameters``,
* fallback + wiring behavior: only timeline tracing still runs the DES,
  the pool batches fast configs per chunk, the cache keys on the engine.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import NDP_GZIP1, NO_COMPRESSION, CRParameters
from repro.simulation import (
    ENGINES,
    ResultCache,
    SimConfig,
    StreamFactory,
    compare_strategies,
    config_key,
    mc_run,
    run_simulations,
    simulate,
    simulate_batch,
    simulate_fast,
    unsupported_reason,
)
from repro.simulation.simulator import CRSimulation
from repro.simulation.stats import cell_stats
from repro.simulation.trace import TimelineRecorder

#: Work targets deliberately avoid exact multiples of the 150 s interval:
#: at ``work % tau == 0`` the DES's position arithmetic can drift by one
#: ulp at the final boundary and add a zero-length micro-interval, which
#: is a float artifact of the oracle, not an engine divergence.
SHORT, MEDIUM, LONG = 4.3, 20.3, 60.7


def des(config: SimConfig):
    return CRSimulation(config).run()


def assert_results_match(a, b, rel=1e-9):
    """Field-for-field equivalence of two SimulationResults."""
    assert a.failures == b.failures
    assert a.recoveries_local == b.recoveries_local
    assert a.recoveries_io == b.recoveries_io
    assert a.io_checkpoints == b.io_checkpoints
    assert a.local_checkpoints == b.local_checkpoints
    assert a.wall_time == pytest.approx(b.wall_time, rel=rel)
    assert a.efficiency == pytest.approx(b.efficiency, rel=rel)
    for name, val in a.breakdown.as_dict().items():
        assert val == pytest.approx(
            getattr(b.breakdown, name), rel=rel, abs=1e-12
        ), name


class TestStreamCompatibility:
    """Block draws must consume the named streams exactly like scalars."""

    def test_exponential_block_equals_scalars(self):
        block = StreamFactory(7).get("failures").exponential(1800.0, size=16)
        scalar_rng = StreamFactory(7).get("failures")
        scalars = [scalar_rng.exponential(1800.0) for _ in range(16)]
        assert list(block) == scalars

    def test_weibull_block_equals_scalars(self):
        block = StreamFactory(11).get("failures").weibull(0.7, size=16)
        scalar_rng = StreamFactory(11).get("failures")
        scalars = [scalar_rng.weibull(0.7) for _ in range(16)]
        assert list(block) == scalars

    def test_uniform_block_equals_scalars(self):
        block = StreamFactory(3).get("recovery").random(16)
        scalar_rng = StreamFactory(3).get("recovery")
        scalars = [scalar_rng.random() for _ in range(16)]
        assert list(block) == scalars

    def test_streams_independent_by_name(self):
        f = StreamFactory(5)
        assert not np.allclose(
            f.get("failures").random(4), f.get("recovery").random(4)
        )


def cfg(params, **kw):
    defaults = dict(params=params, strategy="ndp", work=params.mtti * SHORT, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


ALL_STRATEGIES = (
    dict(strategy="host", ratio=15, compression=NDP_GZIP1),
    dict(strategy="io-only", compression=NDP_GZIP1),
    dict(strategy="local-only"),
    dict(strategy="ndp", compression=NDP_GZIP1),
)


class TestFailureFreeExact:
    """With mtti = inf the schedule is deterministic: bit-level agreement."""

    @pytest.mark.parametrize(
        "kw", ALL_STRATEGIES, ids=[s["strategy"] for s in ALL_STRATEGIES]
    )
    def test_matches_des(self, kw):
        params = CRParameters(mtti=math.inf)
        config = cfg(params, work=7 * 150.0 + 33.0, **kw)
        assert_results_match(simulate_fast(config), des(config))

    def test_ndp_pause_off(self):
        params = CRParameters(mtti=math.inf)
        config = cfg(
            params,
            work=1234.5,
            strategy="ndp",
            compression=NDP_GZIP1,
            pause_ndp_during_local=False,
        )
        assert_results_match(simulate_fast(config), des(config))


class TestMatchedSeedExact:
    """Strategies with exact closed forms agree run-for-run with the DES."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "kw",
        [
            dict(strategy="host", ratio=15, compression=NDP_GZIP1),
            dict(strategy="host", ratio=3),
            dict(strategy="io-only", compression=NDP_GZIP1),
            dict(strategy="io-only"),
            dict(strategy="local-only"),
            # Deep-drain regime: one drain spans many cycles, so the DES
            # never picks a stale NVM record and the closed form is exact.
            dict(strategy="ndp", compression=NO_COMPRESSION),
        ],
        ids=["host-gzip", "host-r3", "io-gzip", "io-raw", "local", "ndp-raw"],
    )
    def test_matches_des(self, params, kw, seed):
        config = cfg(params, seed=seed, work=params.mtti * MEDIUM, **kw)
        assert_results_match(simulate_fast(config), des(config))

    @pytest.mark.parametrize("shape", [0.7, 1.5])
    def test_weibull_failures(self, params, shape):
        config = cfg(
            params,
            strategy="host",
            ratio=15,
            compression=NDP_GZIP1,
            failure_shape=shape,
            seed=3,
        )
        assert_results_match(simulate_fast(config), des(config))

    def test_replayed_failure_times(self, params):
        times = (100.0, 400.0, 401.0, 2500.0, 7777.7)
        for kw in ALL_STRATEGIES:
            config = cfg(params, failure_times=times, work=6000.0, **kw)
            assert_results_match(simulate_fast(config), des(config))

    def test_restart_overhead_and_odd_interval(self, params):
        p = params.with_(restart_overhead=30.0, local_interval=97.3)
        config = cfg(p, strategy="host", ratio=7, seed=2, work=p.mtti * SHORT)
        assert_results_match(simulate_fast(config), des(config))

    def test_daly_interval(self, params):
        p = params.with_(local_interval=None)
        config = cfg(p, strategy="local-only", seed=4, work=p.mtti * SHORT)
        assert_results_match(simulate_fast(config), des(config))

    def test_batch_equals_singletons(self, params):
        """One vectorized batch == one call per config."""
        configs = [
            cfg(params, seed=s, **kw) for s in range(3) for kw in ALL_STRATEGIES
        ]
        batched = simulate_batch(configs)
        for config, result in zip(configs, batched):
            assert result == simulate_fast(config)


@pytest.mark.slow
class TestPairedDistribution:
    """The ISSUE's acceptance gate: >= 200 matched seeds per strategy, the
    mean efficiency and every breakdown component inside the paired 95% CI.

    At the default ring every strategy, ndp included, matches seed for
    seed, so the differences are zero up to last-ulp rounding."""

    N_SEEDS = 200

    @pytest.mark.parametrize(
        "kw", ALL_STRATEGIES, ids=[s["strategy"] for s in ALL_STRATEGIES]
    )
    def test_paired_ci(self, params, kw):
        configs = [
            cfg(params, seed=s, work=params.mtti * MEDIUM, **kw)
            for s in range(self.N_SEEDS)
        ]
        fast = simulate_batch(configs)
        slow = [des(c) for c in configs]

        def check(name, f):
            d = np.array([f(a) - f(b) for a, b in zip(slow, fast)])
            mean, ci = cell_stats(d)
            # The 1e-12 floor absorbs last-ulp rounding on the exact
            # strategies, where the per-seed differences are ~1e-16 and
            # one-signed (different but equivalent operation order), so
            # the CI itself collapses to ~0.
            assert abs(mean) <= max(ci, 1e-12), (
                f"{name}: paired mean diff {mean:+.3e} outside 95% CI "
                f"{ci:.3e} over {len(d)} seeds"
            )

        check("efficiency", lambda r: r.efficiency)
        for comp in slow[0].breakdown.component_names():
            check(comp, lambda r, c=comp: getattr(r.breakdown, c))

    @staticmethod
    def _ndp_seeds(params, capacity):
        configs = [
            cfg(params, seed=s, compression=NDP_GZIP1, work=params.mtti * MEDIUM,
                nvm_capacity=capacity)
            for s in range(100)
        ]
        return simulate_batch(configs), [des(c) for c in configs]

    @pytest.mark.parametrize("capacity", [2, 8])
    def test_ndp_bit_exact(self, params, capacity):
        """Not just close in distribution: at capacity 2 and at the
        default ring every ndp seed returns the oracle's exact result."""
        fast, slow = self._ndp_seeds(params, capacity)
        assert fast == slow

    def test_ndp_capacity_one_last_ulp(self, params):
        """``nvm_capacity=1`` is the one remaining gap: the counters are
        equal, but the stall and breakdown floats may differ in the last
        ulp (sub-ulp drain-clock association)."""
        for a, b in zip(*self._ndp_seeds(params, 1)):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, int):
                    assert x == y, field.name
                elif isinstance(x, float):
                    assert x == pytest.approx(y, rel=1e-12, abs=0), field.name
            for name, val in a.breakdown.as_dict().items():
                assert val == pytest.approx(
                    getattr(b.breakdown, name), rel=1e-12, abs=0), name


class TestPropertyRandomParameters:
    """Hypothesis: exactness holds over the whole parameter space for the
    strategies with exact closed forms."""

    @given(
        mtti=st.floats(min_value=900.0, max_value=7200.0),
        size=st.floats(min_value=5e9, max_value=50e9),
        bw_l=st.floats(min_value=2e9, max_value=30e9),
        bw_io=st.floats(min_value=100e6, max_value=1e9),
        p=st.floats(min_value=0.0, max_value=1.0),
        ratio=st.integers(min_value=1, max_value=40),
        overhead=st.floats(min_value=0.0, max_value=60.0),
        strategy=st.sampled_from(["host", "io-only", "local-only"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_strategies_match_des(
        self, mtti, size, bw_l, bw_io, p, ratio, overhead, strategy, seed
    ):
        params = CRParameters(
            mtti=mtti,
            checkpoint_size=size,
            local_bandwidth=bw_l,
            io_bandwidth=bw_io,
            local_interval=None,
            p_local_recovery=p,
            restart_overhead=overhead,
        )
        config = SimConfig(
            params=params,
            strategy=strategy,
            ratio=ratio,
            compression=NDP_GZIP1,
            work=mtti * SHORT,
            seed=seed,
        )
        assert_results_match(simulate_fast(config), des(config), rel=1e-7)

    @given(
        size=st.floats(min_value=5e9, max_value=200e9),
        bw_l=st.floats(min_value=2e9, max_value=30e9),
        p=st.floats(min_value=0.0, max_value=1.0),
        interval=st.floats(min_value=50.0, max_value=500.0),
        pause=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_ndp_failure_free_matches_des(self, size, bw_l, p, interval, pause):
        params = CRParameters(
            mtti=math.inf,
            checkpoint_size=size,
            local_bandwidth=bw_l,
            local_interval=interval,
            p_local_recovery=p,
        )
        config = SimConfig(
            params=params,
            strategy="ndp",
            compression=NDP_GZIP1,
            work=interval * 9.7,
            pause_ndp_during_local=pause,
        )
        assert_results_match(simulate_fast(config), des(config), rel=1e-7)


class TestExactRing:
    """The per-slot NVM ring model: small capacities, eviction under
    drain-lock, and the stale-drain transient reproduce the DES."""

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_small_capacity_matches_des(self, params, capacity, seed):
        config = cfg(
            params,
            compression=NDP_GZIP1,
            nvm_capacity=capacity,
            seed=seed,
            work=params.mtti * MEDIUM,
        )
        assert unsupported_reason(config) is None
        assert_results_match(simulate_fast(config), des(config))

    @pytest.mark.parametrize("seed", range(3))
    def test_stale_drain_transient_matches_des(self, params, seed):
        # A small checkpoint drains faster than the 150 s interval, so the
        # ring accumulates completed records and a failure mid-drain makes
        # ``NVMBuffer.newest_undrained`` pick a *stale* snapshot — the
        # corner the old closed form approximated.
        p = params.with_(checkpoint_size=14e9)
        config = cfg(
            p, compression=NDP_GZIP1, seed=seed, work=p.mtti * MEDIUM
        )
        assert_results_match(simulate_fast(config), des(config))

    def test_capacity_one_pins_host_stall_time(self, params):
        # Deep-drain regime with a single slot: the drain lock blocks every
        # admission, so the writer accumulates real stall seconds.  The old
        # engine hardcoded ``host_stall_time=0.0``.
        config = cfg(
            params,
            compression=NDP_GZIP1,
            nvm_capacity=1,
            seed=1,
            work=params.mtti * MEDIUM,
        )
        fast, slow = simulate_fast(config), des(config)
        assert slow.host_stall_time > 0.0
        assert fast.host_stall_time == pytest.approx(slow.host_stall_time, rel=1e-9)
        assert_results_match(fast, slow)


class TestPartnerExact:
    """Closed-form partner-copy charging consumes the ``"recovery"``
    stream in DES order: matched seeds are bit-exact."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "kw",
        [
            dict(
                strategy="host",
                ratio=15,
                compression=NDP_GZIP1,
                partner_every=1,
                p_partner_recovery=0.9,
            ),
            dict(strategy="host", ratio=15, compression=NDP_GZIP1, partner_every=2),
            dict(strategy="local-only", partner_every=4, p_partner_recovery=0.5),
            dict(
                strategy="ndp",
                compression=NDP_GZIP1,
                partner_every=2,
                p_partner_recovery=0.9,
            ),
        ],
        ids=["host-p1", "host-p2", "local-p4", "ndp-p2"],
    )
    def test_partner_matches_des(self, params, kw, seed):
        config = cfg(params, seed=seed, work=params.mtti * MEDIUM, **kw)
        assert unsupported_reason(config) is None
        assert_results_match(simulate_fast(config), des(config))

    def test_partner_recoveries_exercised(self, params):
        """The equivalence above must actually cover partner restores."""
        configs = [
            cfg(
                params,
                seed=s,
                strategy="host",
                ratio=15,
                compression=NDP_GZIP1,
                partner_every=1,
                p_partner_recovery=0.9,
                work=params.mtti * MEDIUM,
            )
            for s in range(3)
        ]
        fast = simulate_batch(configs)
        assert sum(r.recoveries_partner for r in fast) > 0
        assert sum(r.partner_checkpoints for r in fast) > 0
        for config, got in zip(configs, fast):
            want = des(config)
            assert got.recoveries_partner == want.recoveries_partner
            assert got.partner_checkpoints == want.partner_checkpoints


class TestDegenerateAccounting:
    """ISSUE satellite: degenerate state must fail exactly like the DES
    instead of yielding NaN/inf breakdowns."""

    def _drained_batch(self, params):
        from repro.simulation.fastpath import _DONE, _FastBatch

        batch = _FastBatch([cfg(params, strategy="local-only", work=1.0)])
        batch.state[:] = _DONE
        batch.acct[:] = 0.0
        return batch

    def test_zero_wall_time_raises_like_des(self, params):
        batch = self._drained_batch(params)
        batch.t[:] = 0.0
        with pytest.raises(ZeroDivisionError):
            batch.run()

    def test_empty_accounting_raises_like_des(self, params):
        batch = self._drained_batch(params)
        batch.t[:] = 5.0
        with pytest.raises(ValueError, match="no time accounted"):
            batch.run()


class TestBatchTraceClock:
    """ISSUE satellite: the batch span must use one clock for both
    endpoints so it aligns with the rest of the monotonic timeline."""

    def test_batch_span_brackets_on_monotonic(self, params):
        from repro.obs import trace as obs_trace

        obs_trace.disable()
        tracer = obs_trace.configure()
        try:
            t0 = time.monotonic()
            simulate_batch([cfg(params, seed=0, work=params.mtti * SHORT)])
            t1 = time.monotonic()
            recs = [r for r in tracer.records if r["lane"] == "fastpath"]
            assert len(recs) == 1
            assert t0 <= recs[0]["start"] <= recs[0]["end"] <= t1
        finally:
            obs_trace.disable()


class TestFallbacks:
    """Only timeline tracing still needs the event-level DES."""

    def test_trace_falls_back(self, params):
        recorder = TimelineRecorder()
        config = cfg(params, trace=recorder, work=params.mtti * 2.3)
        reason = unsupported_reason(config)
        assert reason is not None and "tracing" in reason
        result = simulate_batch([config])[0]
        assert recorder.spans, "fallback must feed the trace recorder"
        assert result == des(dataclasses.replace(config, trace=None))

    def test_partner_is_supported(self, params):
        config = cfg(params, strategy="host", ratio=15, partner_every=2)
        assert unsupported_reason(config) is None

    def test_tiny_nvm_is_supported(self, params):
        for capacity in (1, 2):
            config = cfg(params, compression=NDP_GZIP1, nvm_capacity=capacity)
            assert unsupported_reason(config) is None

    def test_supported_config_has_no_reason(self, params):
        assert unsupported_reason(cfg(params)) is None

    def test_mixed_batch_preserves_order(self, params):
        recorder = TimelineRecorder()
        configs = [
            cfg(params, seed=0),
            cfg(params, seed=1, partner_every=2, strategy="host", ratio=15),
            cfg(params, seed=2, strategy="local-only"),
            cfg(params, seed=3, trace=recorder),
        ]
        results = simulate_batch(configs)
        for config, result in zip(configs, results):
            if unsupported_reason(config) is None:
                assert result == simulate_fast(config)
            else:
                assert result == des(dataclasses.replace(config, trace=None))


class TestEngineWiring:
    def test_engines_constant(self):
        assert ENGINES == ("des", "fast")

    def test_simconfig_rejects_unknown_engine(self, params):
        with pytest.raises(ValueError, match="engine"):
            cfg(params, engine="warp")

    def test_simulate_dispatches_on_engine(self, params):
        config = cfg(params, strategy="host", ratio=15, seed=5)
        assert simulate(dataclasses.replace(config, engine="fast")) == simulate_fast(
            config
        )
        assert simulate(config) == des(config)

    def test_pool_batches_fast_engine_deterministically(self, params):
        configs = [
            cfg(params, seed=s, engine="fast", **kw)
            for s in range(4)
            for kw in ALL_STRATEGIES
        ]
        baseline = run_simulations(configs, jobs=1)
        assert baseline == tuple(simulate_batch(configs))
        for jobs, chunk in ((1, 3), (2, 5)):
            assert run_simulations(configs, jobs=jobs, chunk_size=chunk) == baseline

    def test_mc_run_engine_override(self, params):
        config = cfg(params, strategy="host", ratio=15)
        fast = mc_run(dataclasses.replace(config, engine="fast"), seeds=range(6))
        slow = mc_run(dataclasses.replace(config, engine="des"), seeds=range(6))
        # host is exact: the override changes the engine, not the answer.
        assert fast.samples == pytest.approx(slow.samples, rel=1e-9)

    def test_compare_strategies_engine_override(self, params):
        a = cfg(params, strategy="host", ratio=15, compression=NDP_GZIP1)
        b = cfg(params, strategy="local-only")
        fast = compare_strategies(
            dataclasses.replace(a, engine="fast"),
            dataclasses.replace(b, engine="fast"),
            seeds=range(4),
        )
        slow = compare_strategies(
            dataclasses.replace(a, engine="des"),
            dataclasses.replace(b, engine="des"),
            seeds=range(4),
        )
        assert fast.mean_diff == pytest.approx(slow.mean_diff, rel=1e-9)


class TestCacheKeysOnEngine:
    """ISSUE regression: cached DES results must never serve fastpath runs."""

    def test_config_key_differs_by_engine(self, params):
        config = cfg(params)
        assert config_key(config) != config_key(
            dataclasses.replace(config, engine="fast")
        )

    def test_flipping_engine_misses_cache(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        config = cfg(params, strategy="host", ratio=15)
        run_simulations([config], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        run_simulations([config], cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        fast_config = dataclasses.replace(config, engine="fast")
        run_simulations([fast_config], cache=cache)
        assert (cache.hits, cache.misses) == (1, 2), "engine flip must miss"
        run_simulations([fast_config], cache=cache)
        assert (cache.hits, cache.misses) == (2, 2)
