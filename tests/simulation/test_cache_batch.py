"""Batched ResultCache lookups, cache robustness, the in-process memo,
the stored entry format, and the pool's one-chunk-per-worker rule."""

import errno
import os
import shutil
import sys
import threading

import pytest

from repro.core.breakdown import OverheadBreakdown
from repro.obs.metrics import REGISTRY
from repro.simulation import SimConfig, SimulationResult, fastpath, pool, simulate
from repro.simulation.pool import (
    MEMO_ENTRIES,
    ResultCache,
    chunk_indices,
    config_key,
    run_simulations,
)


def cfg(params, **kw):
    defaults = dict(
        params=params, strategy="ndp", work=params.mtti * 3, seed=0, engine="fast"
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class CountingCache(ResultCache):
    """ResultCache that counts the single-key operations it performs."""

    def __init__(self, root):
        super().__init__(root)
        self.get_calls = 0
        self.put_calls = 0

    def get(self, key):
        self.get_calls += 1
        return super().get(key)

    def put(self, key, result):
        self.put_calls += 1
        super().put(key, result)


class TestBatchedCacheOps:
    def test_get_many_costs_one_get_per_unique_key(self, params, tmp_path):
        cache = CountingCache(tmp_path)
        (result,) = run_simulations([cfg(params)], cache=cache)
        key = config_key(cfg(params))
        cache.get_calls = 0
        hits = cache.get_many([key, key, key, "0" * 64])
        assert hits == {key: result}
        assert cache.get_calls == 2  # key once, the miss once

    def test_put_many_writes_each_unique_key_once(self, params, tmp_path):
        cache = CountingCache(tmp_path)
        (r1,) = run_simulations([cfg(params, seed=1)], cache=CountingCache(tmp_path / "x"))
        k1, k2 = config_key(cfg(params, seed=1)), config_key(cfg(params, seed=2))
        cache.put_calls = 0
        cache.put_many([(k1, r1), (k1, r1), (k2, r1)])
        assert cache.put_calls == 2

    def test_duplicate_configs_in_one_batch_store_once(self, params, tmp_path):
        cache = CountingCache(tmp_path)
        same = cfg(params, seed=5)
        # One chunk, so the whole batch goes through a single put_many.
        results = run_simulations(
            [same, same, cfg(params, seed=6)], cache=cache, chunk_size=4
        )
        assert results[0] == results[1]
        assert cache.put_calls == 2  # the duplicate pair collapses to one write

    def test_second_run_served_entirely_from_cache(self, params, tmp_path):
        cache = CountingCache(tmp_path)
        batch = [cfg(params, seed=s) for s in range(4)]
        first = run_simulations(batch, cache=cache)
        runs_before = cache.put_calls
        again = run_simulations(batch, cache=cache)
        assert again == first
        assert cache.put_calls == runs_before  # nothing re-executed
        assert cache.hits >= 4


class FullDiskCache(ResultCache):
    """Every write fails the way a full disk does."""

    def put(self, key, result):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestCacheRobustness:
    @pytest.mark.parametrize("unwritable", ["full-disk", "root-is-a-file"])
    def test_failed_writes_never_fail_a_computed_answer(self, params, tmp_path, unwritable):
        """A root that is a regular file fails every real mkdir with an
        OSError, even for root (unlike a read-only directory)."""
        errors = REGISTRY.counter("cache_put_errors_total")
        (tmp_path / "file").write_text("")
        full_disk = unwritable == "full-disk"
        cache = FullDiskCache(tmp_path) if full_disk else ResultCache(tmp_path / "file")
        batch = [cfg(params, seed=s) for s in range(3)]
        before = errors.value()
        assert run_simulations(batch, cache=cache) == tuple(simulate(c) for c in batch)
        assert errors.value() - before == 3

    def test_hit_miss_counters_are_thread_safe(self, params, tmp_path):
        cache = ResultCache(tmp_path)
        (result,) = run_simulations([cfg(params)])
        keys = [f"{i:064x}" for i in range(8)]
        for key in keys[:4]:
            cache.put(key, result)  # 4 warm keys, 4 cold

        def probe():
            for _ in range(50):
                cache.get_many(keys + keys)  # duplicates count once

        threads = [threading.Thread(target=probe) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (cache.hits, cache.misses) == (8 * 50 * 4, 8 * 50 * 4)

    def test_put_after_the_root_was_wiped_still_lands(self, params, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        (result,) = run_simulations([cfg(params)])
        key = config_key(cfg(params))
        cache.put(key, result)
        shutil.rmtree(tmp_path / "simcache")
        cache.put(key, result)
        assert ResultCache(tmp_path / "simcache").get(key) == result

    def test_put_into_an_existing_shard_makes_no_directory(
        self, params, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        (result,) = run_simulations([cfg(params)])
        cache.put("ab" * 32, result)  # creates the shard
        made = []
        real = os.makedirs

        def makedirs(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pool.os, "makedirs", makedirs)
        cache.put("ab" + "cd" * 31, result)
        cache.put("ef" * 32, result)  # a new shard: one makedirs
        assert made == [(f"{tmp_path}/ef",)]
        assert cache.get("ab" + "cd" * 31) == cache.get("ef" * 32) == result


class TestMemo:
    """The per-process memo of decoded entries inside ``ResultCache``."""

    @pytest.fixture
    def result(self, params):
        (result,) = run_simulations([cfg(params)])
        return result

    def test_never_grows_past_its_bound(self, result, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [f"{i:064x}" for i in range(MEMO_ENTRIES + 10)]
        for key in keys:
            cache.put(key, result)
        for key in keys:
            assert cache.get(key) == result
        assert len(cache._memo) == MEMO_ENTRIES
        assert list(cache._memo) == keys[10:]  # the oldest went first
        assert (cache.hits, cache.misses) == (len(keys), 0)

    def test_memo_hit_counts_and_returns_an_equal_result(self, result, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, result)
        first = cache.get(key)
        assert cache.get(key) is first  # served from the memo
        assert first == result
        assert (cache.hits, cache.misses) == (2, 0)

    def test_deleted_file_after_a_memo_hit_is_still_served(self, result, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, result)
        assert cache.get(key) == result
        os.remove(cache._path(key))
        assert cache.get(key) == result
        assert (cache.hits, cache.misses) == (2, 0)

    def test_put_does_not_fill_the_memo(self, result, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, result)
        assert cache._memo == {}
        cache._path(key).write_text("{torn")
        assert cache.get(key) is None  # the file, not a memo, answered
        assert cache._memo == {}

    def test_concurrent_gets_over_more_keys_than_the_bound(
        self, result, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pool, "MEMO_ENTRIES", 8)
        cache = ResultCache(tmp_path)
        keys = [f"{i:064x}" for i in range(40)]
        for key in keys:
            cache.put(key, result)
        errors: list[BaseException] = []

        def probe(offset: int) -> None:
            try:
                for _ in range(20):
                    for key in keys[offset:] + keys[:offset]:
                        assert cache.get(key) == result
            except Exception as exc:  # reported below, on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=probe, args=(5 * t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(cache._memo) <= 8
        assert (cache.hits, cache.misses) == (8 * 20 * len(keys), 0)


class TestOneChunkPerWorker:
    def test_chunk_indices_one_per_worker(self):
        for total in (1, 2, 7, 64, 128, 10_000):
            for jobs in (1, 2, 3, 8, 200):
                chunks = chunk_indices(total, jobs)
                assert len(chunks) == min(total, jobs)
                assert [i for c in chunks for i in c] == list(range(total))

    def test_inline_run_is_one_fused_pass(self, params, monkeypatch):
        """The default inline run hands every fast row to one
        ``simulate_batch`` call, counted as one pool chunk."""
        batch = [cfg(params, seed=s, strategy=st) for s in range(20) for st in ("ndp", "host")]
        serial = tuple(simulate(c) for c in batch)
        calls = []
        real = fastpath.simulate_batch

        def spy(configs):
            calls.append(len(configs))
            return real(configs)

        monkeypatch.setattr(fastpath, "simulate_batch", spy)
        chunks = REGISTRY.counter("pool_chunks_total")
        before = chunks.value()
        assert run_simulations(batch) == serial
        assert calls == [len(batch)]
        assert chunks.value() - before == 1

    def test_explicit_chunk_size_is_honoured(self, params):
        batch = [cfg(params, seed=s) for s in range(11)]
        timings = []
        assert run_simulations(batch, chunk_size=3, timings=timings) == run_simulations(batch)
        assert [t.size for t in timings] == [3, 3, 3, 2]


class TestStoredBytes:
    def test_entry_bytes_are_pinned(self, tmp_path):
        """The on-disk entry format: every field in declaration order,
        ``json.dumps`` defaults.  A change here orphans every cache."""
        result = SimulationResult(
            work=5400.0, wall_time=5671.838393308013, efficiency=0.952072260445794,
            breakdown=OverheadBreakdown(
                compute=0.9520722604457933, checkpoint_local=0.04607559581416679,
                restore_local=0.0013164455946904797, rerun_local=0.0005356981453494698,
            ),
            failures=1, recoveries_local=1, recoveries_io=0, io_checkpoints=4,
            local_checkpoints=35, host_stall_time=0.1, recoveries_partner=2,
            partner_checkpoints=3,
        )
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, result)
        assert (tmp_path / "ab" / f"{key}.json").read_bytes() == (
            b'{"work": 5400.0, "wall_time": 5671.838393308013, "efficiency": '
            b'0.952072260445794, "breakdown": {"compute": 0.9520722604457933, '
            b'"checkpoint_local": 0.04607559581416679, "checkpoint_io": 0.0, '
            b'"restore_local": 0.0013164455946904797, "restore_io": 0.0, '
            b'"rerun_local": 0.0005356981453494698, "rerun_io": 0.0}, '
            b'"failures": 1, "recoveries_local": 1, "recoveries_io": 0, '
            b'"io_checkpoints": 4, "local_checkpoints": 35, "host_stall_time": 0.1, '
            b'"recoveries_partner": 2, "partner_checkpoints": 3}'
        )
        assert cache.get(key) == result
