"""The NDP drain daemon: background offload semantics."""

import threading
import time

import pytest

from repro.ckpt.backends import IOStore, LocalStore
from repro.ckpt.format import make_header
from repro.ckpt.ndp_daemon import NDPDrainDaemon
from repro.ckpt.restart import recover
from repro.ckpt.stream import decompress_stream
from repro.compression.codecs import Codec, make_codec

GZIP = make_codec("gzip", 1)


def put(local, cid, payloads, app="app"):
    local.write_checkpoint(
        app,
        cid,
        {r: (make_header(app, r, cid, p, position=float(cid)), p) for r, p in payloads.items()},
    )


@pytest.fixture
def stores(tmp_path):
    return LocalStore(tmp_path / "nvm", capacity=4), IOStore(tmp_path / "pfs")


class TestDraining:
    def test_drains_committed_checkpoint(self, stores, small_blob):
        local, io = stores
        put(local, 1, {0: small_blob})
        with NDPDrainDaemon("app", local, io, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        assert io.committed("app") == [1]
        assert io.read_checkpoint("app", 1)[0][1] == small_blob

    def test_compressed_drain_and_codec_header(self, stores, small_blob):
        local, io = stores
        put(local, 1, {0: small_blob})
        with NDPDrainDaemon("app", local, io, codec=GZIP, block_size=4096, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        header, payload = io.read_checkpoint("app", 1)[0]
        assert header.codec == "gzip(1)"
        assert header.uncompressed_size == len(small_blob)
        assert decompress_stream(payload, GZIP) == small_blob

    def test_newest_first_skips_stale(self, stores, small_blob):
        local, io = stores
        # Commit three checkpoints before the daemon starts: it must drain
        # the newest and skip the older two.
        for cid in (1, 2, 3):
            put(local, cid, {0: small_blob})
        with NDPDrainDaemon("app", local, io, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        assert io.committed("app") == [3]
        assert d.stats.checkpoints_drained == 1

    def test_stats_factor(self, stores):
        local, io = stores
        put(local, 1, {0: bytes(100_000)})  # highly compressible
        with NDPDrainDaemon("app", local, io, codec=GZIP, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        assert d.stats.achieved_factor > 0.9
        assert d.stats.bytes_in == 100_000

    def test_multiple_ranks_all_drained(self, stores, small_blob):
        local, io = stores
        put(local, 1, {0: small_blob, 1: small_blob[::-1], 2: bytes(1000)})
        with NDPDrainDaemon("app", local, io, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        assert set(io.read_checkpoint("app", 1)) == {0, 1, 2}

    def test_unlocks_after_drain(self, stores, small_blob):
        local, io = stores
        put(local, 1, {0: small_blob})
        with NDPDrainDaemon("app", local, io, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        assert local.locked("app") == []


class TestCodecFailure:
    def test_failed_compress_skips_the_checkpoint_and_keeps_draining(
        self, stores, small_blob
    ):
        # The codec fails on its 2nd block, mid-way through ckpt 1's only
        # rank, after the writer has already taken the 1st frame.  Every
        # wait is bounded: a drain that hangs fails here, it does not block.
        local, io = stores
        calls = []

        def flaky(data):
            calls.append(len(data))
            if len(calls) == 2:
                raise OSError("codec failed")
            return GZIP.compress(data)

        codec = Codec("gzip", 1, flaky, GZIP.decompress)
        d = NDPDrainDaemon(
            "app", local, io, codec=codec, block_size=4096, poll_interval=0.002
        ).start()
        try:
            put(local, 1, {0: small_blob})
            assert d.wait_idle(10)
            assert d.stats.checkpoints_skipped == 1
            assert io.committed("app") == []
            assert local.locked("app") == []
            second = small_blob[::-1]
            put(local, 2, {0: second})
            assert d.wait_idle(10)
        finally:
            d.stop(timeout=10)
        assert io.committed("app") == [2]
        assert d.stats.drained_ids == [2]
        restored = recover("app", [io])
        assert (restored.ckpt_id, restored.payloads) == (2, {0: second})

    def test_failure_after_commit_keeps_the_committed_checkpoint(
        self, stores, small_blob, monkeypatch
    ):
        # Retention runs after the manifest write: if it raises, the
        # checkpoint is already the I/O level's recovery point and must
        # not be deleted.  The error propagates, and the lock is released.
        local, io = stores
        put(local, 1, {0: small_blob})

        def broken(app_id):
            raise OSError("retention failed")

        monkeypatch.setattr(io, "_post_commit", broken)
        d = NDPDrainDaemon("app", local, io, poll_interval=0.002)
        with pytest.raises(OSError, match="retention failed"):
            d._drain_one(1)
        assert io.committed("app") == [1]
        assert d.stats.checkpoints_skipped == 0
        assert local.locked("app") == []
        restored = recover("app", [io])
        assert (restored.ckpt_id, restored.payloads) == (1, {0: small_blob})


def record_writers(io, monkeypatch):
    """The thread of every ``io.stage_rank_frames`` call, in call order."""
    threads = []
    stage = io.stage_rank_frames

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return stage(*args, **kwargs)

    monkeypatch.setattr(io, "stage_rank_frames", recording)
    return threads


class TestWriterThread:
    """One writer thread serves every drain of a daemon until ``stop()``."""

    def test_drains_share_one_writer_that_stop_ends(self, stores, small_blob, monkeypatch):
        local, io = stores
        threads = record_writers(io, monkeypatch)
        d = NDPDrainDaemon("app", local, io, codec=GZIP, poll_interval=0.002).start()
        try:
            for cid in (1, 2, 3):
                put(local, cid, {0: small_blob, 1: small_blob[::-1]})
                assert d.wait_idle(10)
        finally:
            d.stop(timeout=10)
        assert d.stats.drained_ids == [1, 2, 3]
        assert len(threads) == 6
        (writer,) = set(threads)
        assert writer.name.startswith("ndp-write")
        assert not writer.is_alive()

    def test_stop_ends_the_writer_of_a_daemon_never_started(self, stores, small_blob, monkeypatch):
        local, io = stores
        threads = record_writers(io, monkeypatch)
        put(local, 1, {0: small_blob})
        d = NDPDrainDaemon("app", local, io)
        d._drain_one(1)
        assert threads[0].is_alive()
        d.stop()
        assert not threads[0].is_alive()
        assert io.committed("app") == [1]

    def test_failed_later_rank_then_good_drain_on_the_same_writer(
        self, stores, small_blob, monkeypatch
    ):
        # The codec fails on the 3rd block of rank 1 of ckpt 1, while
        # rank 0's write may still run: both rank writes end before the
        # staged ranks are dropped, and the next drain reuses the writer.
        # Every wait is bounded, so a hang fails here instead of blocking.
        local, io = stores
        threads = record_writers(io, monkeypatch)
        block = 4096
        fail_at = -(-len(small_blob) // block) + 3
        calls = []

        def flaky(data):
            calls.append(len(data))
            if len(calls) == fail_at:
                raise OSError("codec failed")
            return GZIP.compress(data)

        codec = Codec("gzip", 1, flaky, GZIP.decompress)
        d = NDPDrainDaemon(
            "app", local, io, codec=codec, block_size=block, poll_interval=0.002
        ).start()
        second = {0: small_blob[::-1], 1: small_blob}
        try:
            put(local, 1, {0: small_blob, 1: small_blob})
            assert d.wait_idle(10)
            assert d.stats.checkpoints_skipped == 1
            assert io.committed("app") == []
            assert not io._ckpt_dir("app", 1).exists()
            put(local, 2, second)
            assert d.wait_idle(10)
        finally:
            d.stop(timeout=10)
        assert len(calls) > fail_at
        assert d.stats.drained_ids == [2]
        assert len(threads) == 4 and len(set(threads)) == 1
        restored = recover("app", [io])
        assert (restored.ckpt_id, restored.payloads) == (2, second)


class TestBackpressure:
    def test_slow_writer_stalls_producer(self, tmp_path):
        # A bounded 1-slot frame queue, a writer throttled far below the
        # compressor's rate, and an incompressible payload: the compressor
        # must fill the queue, block, and be counted as stalled.
        import numpy as np

        local = LocalStore(tmp_path / "nvm", capacity=4)
        io = IOStore(tmp_path / "pfs", throttle_bps=200_000)
        blob = np.random.default_rng(0).integers(0, 256, 262_144, np.uint8).tobytes()
        put(local, 1, {0: blob})
        with NDPDrainDaemon(
            "app", local, io, codec=GZIP, block_size=65536,
            queue_depth=1, poll_interval=0.002,
        ) as d:
            assert d.wait_idle(60)
        stats = d.stats
        assert stats.checkpoints_drained == 1
        assert stats.stalls > 0
        assert stats.stall_seconds > 0.0

    def test_stage_accounting_consistent(self, stores, small_blob):
        local, io = stores
        put(local, 1, {0: small_blob})
        with NDPDrainDaemon("app", local, io, codec=GZIP, poll_interval=0.002) as d:
            assert d.wait_idle(10)
        stats = d.stats
        # The end-to-end drain stage is charged uncompressed bytes.
        assert stats.drain.bytes == stats.bytes_in == len(small_blob)
        assert stats.compress.bytes == stats.bytes_out
        assert stats.stalls == 0

    def test_write_time_excludes_waits_on_the_compressor(self, stores, small_blob):
        # A slow codec and an unthrottled store: the writer spends nearly
        # all its time waiting for the next frame, and none of that is
        # the store's write time.
        local, io = stores

        def slow(data):
            time.sleep(0.02)
            return GZIP.compress(data)

        codec = Codec("gzip", 1, slow, GZIP.decompress)
        put(local, 1, {0: small_blob})
        with NDPDrainDaemon(
            "app", local, io, codec=codec, block_size=8192, poll_interval=0.002
        ) as d:
            assert d.wait_idle(10)
        stats = d.stats
        assert stats.checkpoints_drained == 1
        assert stats.compress.seconds >= 0.02 * (len(small_blob) // 8192)
        assert stats.write.seconds < stats.compress.seconds / 4


class TestPauseResume:
    def test_paused_daemon_does_not_drain(self, stores, small_blob):
        local, io = stores
        d = NDPDrainDaemon("app", local, io, poll_interval=0.002).start()
        d.pause()
        put(local, 1, {0: small_blob})
        time.sleep(0.1)
        assert io.committed("app") == []
        d.resume()
        assert d.wait_idle(10)
        assert io.committed("app") == [1]
        d.stop()

    def test_stop_while_paused(self, stores, small_blob):
        local, io = stores
        d = NDPDrainDaemon("app", local, io).start()
        d.pause()
        d.stop(timeout=5)  # must not hang


class TestLifecycle:
    def test_start_idempotent(self, stores):
        local, io = stores
        d = NDPDrainDaemon("app", local, io).start()
        thread = d._thread
        d.start()
        assert d._thread is thread
        d.stop()

    def test_restartable_after_stop(self, stores, small_blob):
        local, io = stores
        d = NDPDrainDaemon("app", local, io, poll_interval=0.002)
        d.start()
        d.stop()
        put(local, 1, {0: small_blob})
        d.start()
        assert d.wait_idle(10)
        d.stop()
        assert io.committed("app") == [1]

    def test_wait_idle_times_out(self, stores, small_blob):
        local, io = stores
        d = NDPDrainDaemon("app", local, io)  # never started
        put(local, 1, {0: small_blob})
        assert d.wait_idle(timeout=0.1) is False
