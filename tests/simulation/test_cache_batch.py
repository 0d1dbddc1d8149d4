"""Batched ResultCache lookups, cache robustness, and the adaptive chunk cap."""

import errno
import math
import sys
import threading

import pytest

from repro.obs.metrics import REGISTRY
from repro.simulation import SimConfig, simulate
from repro.simulation.pool import (
    ResultCache,
    chunk_indices,
    config_key,
    max_chunk,
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


class TestAdaptiveChunkCap:
    def test_small_batches_keep_the_baseline_cap(self):
        assert max_chunk(10, 1) == 16
        assert max_chunk(256, 4) == 16

    def test_huge_batches_scale_to_sixteen_chunks_per_worker(self):
        for total, jobs in [(10_000, 1), (10_000, 4), (100_000, 8)]:
            cap = max_chunk(total, jobs)
            assert cap == max(16, math.ceil(total / (16 * jobs)))
            assert math.ceil(total / cap) <= 16 * jobs

    def test_chunk_indices_respects_the_cap(self):
        chunks = chunk_indices(10_000, 1)
        assert max(len(c) for c in chunks) <= max_chunk(10_000, 1)
        assert sum(len(c) for c in chunks) == 10_000

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "5")
        assert max_chunk(10, 1) == 5
        assert max_chunk(1_000_000, 32) == 5
        chunks = chunk_indices(23, 1)
        assert [len(c) for c in chunks] == [5, 5, 5, 5, 3]

    def test_bad_env_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "zero")
        with pytest.raises(ValueError, match="integer"):
            max_chunk(10, 1)
        monkeypatch.setenv("REPRO_CHUNK", "0")
        with pytest.raises(ValueError, match=">= 1"):
            max_chunk(10, 1)

    def test_chunking_never_changes_results(self, params, monkeypatch):
        batch = [cfg(params, seed=s) for s in range(12)]
        baseline = run_simulations(batch)
        monkeypatch.setenv("REPRO_CHUNK", "3")
        assert run_simulations(batch) == baseline
