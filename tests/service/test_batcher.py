"""Micro-batcher: fusion, bounded delay, cache probe and write-back,
single-flight dedup, determinism."""

import asyncio
import gc
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.flight import RequestRecord
from repro.obs.metrics import REGISTRY
from repro.service.batcher import Batcher, DeadlineExceeded, Overloaded
from repro.service.protocol import QoS
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

    def test_close_fails_jobs_queued_behind_a_busy_slot(self, params):
        """``close`` answers every queued job: the row computing resolves,
        the rows waiting for its dispatch slot fail at once."""

        def slow(configs):
            time.sleep(0.3)
            return [simulate(c) for c in configs]

        async def main():
            batcher = Batcher(slow, window=0.0, max_batch=1, max_inflight=1)
            rows = [
                asyncio.ensure_future(batcher.submit(cfg(params, seed=s)))
                for s in range(3)
            ]
            await asyncio.sleep(0.05)
            batcher.close()
            return await asyncio.wait_for(
                asyncio.gather(*rows, return_exceptions=True), timeout=5
            )

        first, *queued = asyncio.run(main())
        assert first == simulate(cfg(params, seed=0))
        assert [str(r) for r in queued] == ["batcher closed"] * 2
        assert all(isinstance(r, RuntimeError) for r in queued)

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
        assert cache.hits == 2
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
        assert cache.hits == 3
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

        asyncio.run(main())
        assert REGISTRY.counter("service_batch_cache_hits_total").value() == 0
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
        assert (stats.submitted, cache.hits, stats.batched_jobs) == (10, 7, 3)
        assert stats.submitted == cache.hits + stats.batched_jobs
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


class CountingRunner:
    """Counts the rows it receives and answers each with a fresh object,
    optionally holding every call until ``gate`` is set or failing."""

    def __init__(self, fail=False):
        self.rows = 0
        self.calls = 0
        self.fail = fail
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, configs):
        self.calls += 1
        self.rows += len(configs)
        assert self.gate.wait(timeout=10)
        if self.fail:
            raise RuntimeError("engine exploded")
        return [object() for _ in configs]


class TestSingleFlight:
    """A miss whose key is already pending attaches to that job's future:
    one computation, the same result object for every waiter, and
    cancellation isolated to the waiter that was cancelled."""

    def test_concurrent_duplicates_share_one_computation(self, params):
        runner = CountingRunner()

        async def main():
            batcher = Batcher(runner, window=0.01)
            try:
                c = cfg(params, seed=1)
                out = await asyncio.gather(*(batcher.submit(c) for _ in range(5)))
                return out, batcher
            finally:
                batcher.close()

        out, batcher = asyncio.run(main())
        assert (runner.calls, runner.rows) == (1, 1)
        assert all(r is out[0] for r in out)  # the same object
        assert (batcher.stats.primary, batcher.stats.coalesced) == (1, 4)
        assert batcher.stats.submitted == 1
        assert batcher.inflight == 0

    def test_distinct_keys_compute_independently(self, params):
        runner = CountingRunner()

        async def main():
            batcher = Batcher(runner, window=0.01)
            try:
                return await asyncio.gather(
                    batcher.submit(cfg(params, seed=1)),
                    batcher.submit(cfg(params, seed=2)),
                )
            finally:
                batcher.close()

        a, b = asyncio.run(main())
        assert runner.rows == 2
        assert a is not b

    def test_sequential_repeats_recompute(self, params):
        """Only *pending* work is shared; without a cache a finished key
        computes again."""
        runner = CountingRunner()

        async def main():
            batcher = Batcher(runner, window=0.0)
            try:
                c = cfg(params, seed=1)
                first = await batcher.submit(c)
                second = await batcher.submit(c)
                return first, second, batcher
            finally:
                batcher.close()

        first, second, batcher = asyncio.run(main())
        assert runner.rows == 2 and first is not second
        assert batcher.stats.coalesced == 0 and batcher.inflight == 0

    def test_shared_failure_fans_out(self, params):
        runner = CountingRunner(fail=True)

        async def main():
            batcher = Batcher(runner, window=0.01)
            try:
                c = cfg(params, seed=1)
                return await asyncio.gather(
                    *(batcher.submit(c) for _ in range(3)), return_exceptions=True
                )
            finally:
                batcher.close()

        done = asyncio.run(main())
        assert runner.rows == 1
        assert all(isinstance(d, RuntimeError) for d in done)
        assert all(d is done[0] for d in done)

    def test_cancelling_one_waiter_does_not_starve_the_others(self, params):
        """A client disconnecting mid-flight leaves its attached siblings
        (and the computation itself) untouched."""
        runner = CountingRunner()
        runner.gate.clear()

        async def main():
            batcher = Batcher(runner, window=0.0)
            try:
                c = cfg(params, seed=1)
                primary = asyncio.ensure_future(batcher.submit(c))
                await asyncio.sleep(0.02)  # queued and dispatched
                dups = [asyncio.ensure_future(batcher.submit(c)) for _ in range(2)]
                await asyncio.sleep(0)
                dups[0].cancel()
                runner.gate.set()
                with pytest.raises(asyncio.CancelledError):
                    await dups[0]
                return await primary, await dups[1]
            finally:
                batcher.close()

        a, b = asyncio.run(main())
        assert a is b
        assert runner.rows == 1

    def test_cancelling_the_primary_keeps_computation_alive(self, params):
        runner = CountingRunner()
        runner.gate.clear()

        async def main():
            batcher = Batcher(runner, window=0.0)
            try:
                c = cfg(params, seed=1)
                primary = asyncio.ensure_future(batcher.submit(c))
                await asyncio.sleep(0.02)
                follower = asyncio.ensure_future(batcher.submit(c))
                await asyncio.sleep(0)
                primary.cancel()
                runner.gate.set()
                out = await follower
                assert primary.cancelled()
                return out
            finally:
                batcher.close()

        assert asyncio.run(main()) is not None
        assert (runner.calls, runner.rows) == (1, 1)

    @pytest.mark.parametrize("fail", [False, True])
    def test_all_waiters_cancelled_orphan_is_released(self, params, fail):
        """Every waiter gone: the computation still finishes and its key
        is released, and an orphaned failure does not trip the loop's
        "exception was never retrieved" report."""
        runner = CountingRunner(fail=fail)
        runner.gate.clear()
        reports = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: reports.append(ctx)
            )
            batcher = Batcher(runner, window=0.0)
            try:
                c = cfg(params, seed=1)
                waiters = [asyncio.ensure_future(batcher.submit(c)) for _ in range(2)]
                await asyncio.sleep(0.02)
                for w in waiters:
                    w.cancel()
                await asyncio.gather(*waiters, return_exceptions=True)
                runner.gate.set()
                for _ in range(1000):  # until the orphaned job is released
                    if not batcher.inflight:
                        break
                    await asyncio.sleep(0.005)
                return batcher.inflight
            finally:
                batcher.close()

        assert asyncio.run(main()) == 0
        gc.collect()  # an unretrieved failure is reported when collected
        assert runner.rows == 1
        assert reports == []

    def test_failed_key_computes_again_on_the_next_submit(self, params):
        runner = CountingRunner(fail=True)

        async def main():
            batcher = Batcher(runner, window=0.0)
            try:
                c = cfg(params, seed=1)
                with pytest.raises(RuntimeError):
                    await batcher.submit(c)
                runner.fail = False
                return await batcher.submit(c)
            finally:
                batcher.close()

        assert asyncio.run(main()) is not None
        assert runner.rows == 2

    def test_expired_key_computes_again_on_the_next_submit(self, params):
        runner = CountingRunner()

        async def main():
            batcher = Batcher(runner, window=0.05)
            try:
                c = cfg(params, seed=1)
                with pytest.raises(DeadlineExceeded):
                    await batcher.submit(c, QoS(deadline_s=0.001))
                out = await batcher.submit(c)
                return out, batcher.stats
            finally:
                batcher.close()

        out, stats = asyncio.run(main())
        assert out is not None
        assert stats.expired == 1 and runner.rows == 1

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_every_row_counts_once_as_primary_or_coalesced(
        self, params, tmp_path, coalesce
    ):
        """``primary + coalesced`` is the number of rows submitted, hits
        and shed rows included."""
        cache = ResultCache(tmp_path / "simcache")
        warm, cold, other = (cfg(params, seed=s) for s in range(3))
        cache.put(config_key(warm), simulate(warm))

        async def main():
            batcher = Batcher(
                SpyRunner(), window=0.01, cache=cache, coalesce=coalesce,
                queue_budget=1.0,
            )
            # A batch "costs" 10 s, so any row queued behind another is
            # shed; an attached duplicate joins admitted work instead.
            batcher._batch_ewma = 10.0
            rows = [warm, warm, cold, cold, cold, other]
            try:
                out = await asyncio.gather(
                    *(batcher.submit(c) for c in rows), return_exceptions=True
                )
                return rows, out, batcher.stats
            finally:
                batcher.close()

        rows, out, stats = asyncio.run(main())
        shed = sum(isinstance(r, Overloaded) for r in out)
        assert stats.primary + stats.coalesced == len(rows)
        assert stats.shed == shed
        assert cache.hits == 2
        if coalesce:
            assert (stats.primary, stats.coalesced, shed) == (4, 2, 1)
        else:
            assert (stats.primary, stats.coalesced, shed) == (6, 0, 3)
        for c, r in zip(rows, out):
            if not isinstance(r, Overloaded):
                assert r == simulate(c)


class TestValidation:
    def test_bad_knobs_rejected(self):
        runner = lambda configs: []  # noqa: E731
        with pytest.raises(ValueError):
            Batcher(runner, window=-1.0)
        with pytest.raises(ValueError):
            Batcher(runner, max_batch=0)
        with pytest.raises(ValueError):
            Batcher(runner, max_inflight=0)
