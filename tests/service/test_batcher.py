"""Micro-batcher: fusion, bounded delay, cache probe and write-back, determinism."""

import asyncio
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.flight import RequestRecord
from repro.service.batcher import Batcher
from repro.simulation import ResultCache, SimConfig, config_key, simulate


def cfg(params, **kw):
    defaults = dict(
        params=params, strategy="ndp", work=params.mtti * 3, seed=0, engine="fast"
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class SpyRunner:
    """Records every dispatched group, then simulates for real."""

    def __init__(self):
        self.groups = []
        self.lock = threading.Lock()

    def __call__(self, configs):
        with self.lock:
            self.groups.append(list(configs))
        return [simulate(c) for c in configs]


class TestFusion:
    def test_concurrent_submissions_fuse_into_one_batch(self, params):
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.01, max_batch=64)
            try:
                configs = [cfg(params, seed=s) for s in range(6)]
                results = await asyncio.gather(*(batcher.submit(c) for c in configs))
                return configs, results
            finally:
                batcher.close()

        configs, results = asyncio.run(main())
        assert len(runner.groups) == 1  # all six fused
        assert [r for r in results] == [simulate(c) for c in configs]

    def test_fused_results_bit_identical_to_serial(self, params):
        """Near-duplicate concurrent requests (same scenario, different
        seeds) ride one fused batch and still match serial simulate."""
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.005, max_batch=32)
            try:
                variants = [
                    cfg(params, seed=3),
                    cfg(params, seed=4),
                    cfg(params, strategy="host", ratio=2, seed=3),
                    cfg(params, nvm_capacity=4, seed=5),
                ]
                out = await asyncio.gather(*(batcher.submit(v) for v in variants))
                return variants, out
            finally:
                batcher.close()

        variants, out = asyncio.run(main())
        for v, r in zip(variants, out):
            assert r == simulate(v)

    def test_max_batch_one_disables_fusion(self, params):
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.0, max_batch=1)
            try:
                await asyncio.gather(
                    *(batcher.submit(cfg(params, seed=s)) for s in range(4))
                )
            finally:
                batcher.close()

        asyncio.run(main())
        assert all(len(g) == 1 for g in runner.groups)
        assert len(runner.groups) == 4

    def test_stats_track_fused_sizes(self, params):
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.01, max_batch=64)
            try:
                await asyncio.gather(
                    *(batcher.submit(cfg(params, seed=s)) for s in range(5))
                )
                return batcher.stats
            finally:
                batcher.close()

        stats = asyncio.run(main())
        assert stats.submitted == 5
        assert stats.batched_jobs == 5
        assert stats.mean_batch_size() == pytest.approx(5 / stats.batches)


class TestFailure:
    def test_runner_failure_fans_out_to_all_waiters(self, params):
        def broken(configs):
            raise RuntimeError("worker pool on fire")

        async def main():
            batcher = Batcher(broken, window=0.005, max_batch=8)
            try:
                done = await asyncio.gather(
                    *(batcher.submit(cfg(params, seed=s)) for s in range(3)),
                    return_exceptions=True,
                )
                return done
            finally:
                batcher.close()

        done = asyncio.run(main())
        assert all(isinstance(d, RuntimeError) for d in done)

    def test_closed_batcher_rejects_submissions(self, params):
        async def main():
            batcher = Batcher(lambda configs: [], window=0.0)
            batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit(cfg(params))
            return True

        assert asyncio.run(main())


class TestMissOnlySlicing:
    """ISSUE 8: a partially warm batch dispatches only its cache misses."""

    def test_warm_jobs_never_reach_the_runner(self, params, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        configs = [cfg(params, seed=s) for s in range(4)]
        for c in (configs[1], configs[3]):
            cache.put(config_key(c), simulate(c))
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.01, max_batch=16, cache=cache)
            try:
                out = await asyncio.gather(*(batcher.submit(c) for c in configs))
                return out, batcher.stats
            finally:
                batcher.close()

        out, stats = asyncio.run(main())
        dispatched = {c.seed for g in runner.groups for c in g}
        assert dispatched == {0, 2}  # the warm seeds were sliced out
        assert stats.cache_hits == 2
        # Byte-identity contract: hits and misses alike match serial.
        for c, r in zip(configs, out):
            assert r == simulate(c)

    def test_fully_warm_batch_skips_the_runner_entirely(self, params, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        configs = [cfg(params, seed=s) for s in range(3)]
        for c in configs:
            cache.put(config_key(c), simulate(c))
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.005, max_batch=16, cache=cache)
            try:
                out = await asyncio.gather(*(batcher.submit(c) for c in configs))
                return out, batcher.stats
            finally:
                batcher.close()

        out, stats = asyncio.run(main())
        assert runner.groups == []
        assert stats.cache_hits == 3
        assert stats.batches == 0  # no engine pass happened
        assert out == [simulate(c) for c in configs]

    def test_no_cache_dispatches_everything(self, params):
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.005, max_batch=16)
            try:
                await asyncio.gather(
                    *(batcher.submit(cfg(params, seed=s)) for s in range(3))
                )
                return batcher.stats
            finally:
                batcher.close()

        stats = asyncio.run(main())
        assert stats.cache_hits == 0
        assert sum(len(g) for g in runner.groups) == 3


class TestHitsResolveAtSubmit:
    """A cache hit is answered by ``submit`` itself: it never waits for a
    window, takes an executor hop or enters the queue."""

    def test_warm_submit_skips_the_window_and_the_executor(self, params, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        c = cfg(params, seed=7)
        cache.put(config_key(c), simulate(c))
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.5, cache=cache)
            hops = []
            real_submit = batcher._executor.submit
            batcher._executor.submit = lambda *a, **kw: hops.append(a) or real_submit(*a, **kw)
            try:
                t0 = time.perf_counter()
                out = await batcher.submit(c)
                return out, time.perf_counter() - t0, hops, batcher
            finally:
                batcher.close()

        out, elapsed, hops, batcher = asyncio.run(main())
        assert out == simulate(c)
        assert elapsed < 0.05  # far inside the 0.5 s window
        assert runner.groups == [] and hops == []
        assert batcher.stats.batches == 0 and batcher.queue_depth == 0

    def test_submitted_counts_hits_and_queued_rows(self, params, tmp_path):
        """``submitted`` is hits plus queued rows, and every submitted row
        was probed exactly once."""
        cache = ResultCache(tmp_path / "simcache")
        configs = [cfg(params, seed=s) for s in range(5)]
        for c in configs[:2]:
            cache.put(config_key(c), simulate(c))
        runner = SpyRunner()

        async def main():
            batcher = Batcher(runner, window=0.005, max_batch=16, cache=cache)
            try:
                first = await asyncio.gather(*(batcher.submit(c) for c in configs))
                again = await asyncio.gather(
                    *(batcher.submit(c, key=config_key(c)) for c in configs)
                )
                return first + again, batcher.stats
            finally:
                batcher.close()

        out, stats = asyncio.run(main())
        assert out == [simulate(c) for c in configs] * 2
        assert (stats.submitted, stats.cache_hits, stats.batched_jobs) == (10, 7, 3)
        assert stats.submitted == stats.cache_hits + stats.batched_jobs
        assert cache.hits + cache.misses == stats.submitted


class TestStageRecords:
    def test_each_stage_is_recorded_once_per_job(self, params, tmp_path):
        """Under a request record, a warm job is resolved by its probe at
        submit (it has no window) and a cold one by its compute; traced,
        each stage is one span (the batch leader's compute span is the
        executor-side one)."""
        cache = ResultCache(tmp_path / "simcache")
        configs = [cfg(params, seed=s) for s in range(2)]
        cache.put(config_key(configs[0]), simulate(configs[0]))
        tracer = trace.configure()

        async def main():
            batcher = Batcher(SpyRunner(), window=0.005, max_batch=16, cache=cache)
            record = RequestRecord("t", "POST", "/v1/sweep")
            try:
                with record, trace.use_context(trace.TraceContext("t")):
                    await asyncio.gather(*(batcher.submit(c) for c in configs))
            finally:
                batcher.close()
            return record

        try:
            warm, cold = asyncio.run(main()).jobs
        finally:
            trace.disable()
        assert set(warm) == {"cache_probe", "resolved"}
        assert set(cold) == {"cache_probe", "window", "compute", "resolved"}
        assert warm["resolved"] < cold["resolved"]
        kinds = sorted(r["kind"] for r in tracer.records if r["lane"] == "batcher")
        assert kinds == ["cache_probe", "cache_probe", "compute", "window"]


class TestValidation:
    def test_bad_knobs_rejected(self):
        runner = lambda configs: []  # noqa: E731
        with pytest.raises(ValueError):
            Batcher(runner, window=-1.0)
        with pytest.raises(ValueError):
            Batcher(runner, max_batch=0)
        with pytest.raises(ValueError):
            Batcher(runner, max_inflight=0)
