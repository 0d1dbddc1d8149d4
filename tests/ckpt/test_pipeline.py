"""The I/O write path: streaming frames, chunked stores, drain overlap, host push."""

import queue

import numpy as np
import pytest

from repro.compression.codecs import fast_lz4_codec, make_codec
from repro.ckpt.backends import IOStore, LocalStore
from repro.ckpt.format import make_header, read_context_file, write_context_frames
from repro.ckpt.multilevel import MultilevelCheckpointer
from repro.ckpt.ndp_daemon import NDPDrainDaemon
from repro.ckpt.restart import recover
from repro.ckpt.stream import (
    compress_stream,
    decompress_stream,
    iter_frames,
    parallel_decompress,
)

GZIP = make_codec("gzip", 1)


@pytest.fixture
def payload(rng) -> bytes:
    smooth = np.cumsum(rng.standard_normal(50_000)).tobytes()
    return smooth + bytes(100_000) + rng.integers(0, 256, 100_000, dtype=np.uint8).tobytes()


class TestStreamFrames:
    def test_frames_concatenate_to_compress_stream(self, payload):
        frames = list(iter_frames(payload, GZIP, block_size=65536))
        assert b"".join(frames) == compress_stream(payload, GZIP, 65536)
        assert len(frames) == 1 + (len(payload) + 65535) // 65536

    @pytest.mark.parametrize("codec", [GZIP, fast_lz4_codec()])
    def test_empty_payload_round_trips(self, codec):
        stream = compress_stream(b"", codec)
        assert decompress_stream(stream, codec) == b""
        assert parallel_decompress(stream, codec, workers=4) == b""

    @pytest.mark.parametrize("size", [1, 5, 11])
    @pytest.mark.parametrize("codec", [GZIP, fast_lz4_codec()])
    def test_sub_mf_limit_payloads(self, codec, size):
        # Below LZ4's MF_LIMIT the kernel must emit a literals-only block.
        data = bytes(range(size))
        stream = compress_stream(data, codec)
        assert decompress_stream(stream, codec) == data
        assert parallel_decompress(stream, codec, workers=4) == data

    def test_memoryview_payload(self, payload):
        assert compress_stream(memoryview(payload), GZIP) == compress_stream(payload, GZIP)


class TestWriteContextFrames:
    def test_round_trips_against_whole_file_reader(self, tmp_path, payload):
        frames = [payload[i : i + 37_000] for i in range(0, len(payload), 37_000)]
        header = write_context_frames(
            tmp_path / "rank.ctx", frames, app_id="app", rank=3, ckpt_id=7,
            position=2.5, uncompressed_size=123, codec="gzip(1)", delta_base=4,
        )
        got_header, got_payload = read_context_file(tmp_path / "rank.ctx")
        assert got_header == header
        assert got_payload == payload
        assert header.payload_size == len(payload)
        assert header.uncompressed_size == 123
        assert header.delta_base == 4

    def test_on_chunk_sees_every_byte(self, tmp_path, payload):
        seen = []
        frames = [payload[i : i + 33_333] for i in range(0, len(payload), 33_333)]
        write_context_frames(
            tmp_path / "r.ctx", frames, app_id="a", rank=0, ckpt_id=1,
            on_chunk=seen.append,
        )
        assert sum(seen) == len(payload)
        assert len(seen) == len(frames)

    def test_failed_write_leaves_nothing(self, tmp_path):
        def frames():
            yield b"x" * 100
            raise OSError("disk gone")

        with pytest.raises(OSError):
            write_context_frames(
                tmp_path / "r.ctx", frames(), app_id="a", rank=0, ckpt_id=1
            )
        assert list(tmp_path.iterdir()) == []


class TestStoreFrameStaging:
    def test_stage_rank_frames_equals_stage_rank_file(self, tmp_path, payload):
        store = IOStore(tmp_path / "io")
        header = make_header("app", 0, 1, payload, position=1.0)
        store.stage_rank_file("app", 1, 0, header, payload)
        store.stage_rank_frames(
            "app", 1, 1, iter([payload]), position=1.0,
        )
        store.commit_checkpoint("app", 1)
        files = store.read_checkpoint("app", 1)
        assert files[0][1] == files[1][1] == payload
        assert files[1][0].payload_crc == files[0][0].payload_crc
        assert store.bytes_written == 2 * len(payload)

    def test_iter_rank_files_validates_commit(self, tmp_path):
        store = IOStore(tmp_path / "io")
        with pytest.raises(FileNotFoundError, match="not committed"):
            store.iter_rank_files("app", 9)

    def test_read_rank_file_single_rank(self, tmp_path, payload):
        store = IOStore(tmp_path / "io")
        store.stage_rank_frames("app", 1, 2, iter([payload]))
        store.commit_checkpoint("app", 1)
        header, got = store.read_rank_file("app", 1, 2)
        assert got == payload and header.rank == 2
        with pytest.raises(FileNotFoundError):
            store.read_rank_file("app", 1, 5)


def _seed_local(tmp_path, payloads: dict[int, bytes], ckpt_id: int = 1) -> LocalStore:
    local = LocalStore(tmp_path / "local", capacity=4)
    files = {
        rank: (make_header("app", rank, ckpt_id, data, position=float(ckpt_id)), data)
        for rank, data in payloads.items()
    }
    local.write_checkpoint("app", ckpt_id, files)
    return local


class TestPipelinedDrain:
    @pytest.mark.parametrize("codec", [None, fast_lz4_codec(), GZIP])
    def test_pipelined_restores_identically_to_staged(self, tmp_path, payload, codec):
        """The frame-pipelined drain restores exactly the payloads staged in
        the local store, for a full drain and for a delta against it."""
        full = {0: payload, 1: payload[::-1]}
        local = _seed_local(tmp_path, full)
        io = IOStore(tmp_path / "io")
        daemon = NDPDrainDaemon(
            "app", local, io, codec=codec, block_size=32_768, delta_every=3
        )
        daemon._drain_one(1)
        restored = recover("app", [io])
        assert restored.payloads == full
        assert restored.positions == {0: 1.0, 1: 1.0}

        changed = bytearray(payload)
        changed[5000:5016] = b"fresh state here"
        delta = {0: bytes(changed), 1: payload[::-1]}
        local.write_checkpoint("app", 2, {
            rank: (make_header("app", rank, 2, data, position=2.0), data)
            for rank, data in delta.items()
        })
        daemon._drain_one(2)
        assert daemon.stats.delta_drains == 1
        assert io.read_rank_file("app", 2, 0)[0].delta_base == 1
        restored = recover("app", [io])
        assert (restored.ckpt_id, restored.payloads) == (2, delta)
        assert restored.positions == {0: 2.0, 1: 2.0}

    def test_stage_counters_populated(self, tmp_path, payload):
        local = _seed_local(tmp_path, {0: payload})
        io = IOStore(tmp_path / "io")
        daemon = NDPDrainDaemon("app", local, io, codec=fast_lz4_codec(),
                                block_size=32_768)
        daemon._drain_one(1)
        assert daemon.stats.compress.bytes == daemon.stats.bytes_out
        assert daemon.stats.write.bytes == daemon.stats.bytes_out
        assert daemon.stats.compress.rate > 0
        assert daemon.stats.write.rate > 0
        assert daemon.stats.compress.ops > daemon.stats.write.ops  # frames vs ranks

    def test_bounded_queue_backpressure(self, tmp_path, payload):
        local = _seed_local(tmp_path, {0: payload})
        io = IOStore(tmp_path / "io")
        high_water = 0
        real_put = queue.Queue.put

        def spy_put(self, item, *a, **kw):
            nonlocal high_water
            real_put(self, item, *a, **kw)
            high_water = max(high_water, self.qsize())

        daemon = NDPDrainDaemon("app", local, io, codec=GZIP,
                                block_size=16_384, queue_depth=3)
        try:
            queue.Queue.put = spy_put
            daemon._drain_one(1)
        finally:
            queue.Queue.put = real_put
        assert daemon.stats.checkpoints_drained == 1
        assert high_water <= 3

    def test_resized_rank_forces_full_drain(self, tmp_path, payload):
        ranks = {0: payload}
        local = _seed_local(tmp_path, ranks, ckpt_id=1)
        io = IOStore(tmp_path / "io")
        daemon = NDPDrainDaemon("app", local, io, codec=GZIP, delta_every=3)
        daemon._drain_one(1)  # full drain, becomes the delta base
        resized = {0: payload + b"grown"}
        files = {
            0: (make_header("app", 0, 2, resized[0], position=2.0), resized[0])
        }
        local.write_checkpoint("app", 2, files)
        daemon._drain_one(2)
        assert daemon.stats.delta_drains == 0  # size change fell back to full
        assert recover("app", [io]).payloads == resized

    def test_same_size_rank_still_deltas(self, tmp_path, payload):
        local = _seed_local(tmp_path, {0: payload}, ckpt_id=1)
        io = IOStore(tmp_path / "io")
        daemon = NDPDrainDaemon("app", local, io, codec=GZIP, delta_every=3)
        daemon._drain_one(1)
        changed = bytearray(payload)
        changed[1000:1010] = b"0123456789"
        files = {0: (make_header("app", 0, 2, bytes(changed), position=2.0), bytes(changed))}
        local.write_checkpoint("app", 2, files)
        daemon._drain_one(2)
        assert daemon.stats.delta_drains == 1
        assert recover("app", [io]).payloads == {0: bytes(changed)}


class _CountingIO(IOStore):
    """An I/O store that records every chunk its throttle hook is charged."""

    def __init__(self, root):
        super().__init__(root)
        self.chunks: list[int] = []

    def _on_chunk(self, nbytes: int) -> None:
        self.chunks.append(nbytes)
        super()._on_chunk(nbytes)


class TestHostPush:
    @pytest.mark.parametrize("codec", [None, fast_lz4_codec(), GZIP])
    def test_host_push_streams_the_drain_frames(self, tmp_path, payload, codec):
        block = 16_384
        ranks = {0: payload, 1: payload[::-1]}
        io = _CountingIO(tmp_path / "io")
        cr = MultilevelCheckpointer(
            "app", LocalStore(tmp_path / "local"), io, mode="host", codec=codec,
            block_size=block,
        )
        ckpt_id = cr.checkpoint(ranks, position=3.0)
        res = recover("app", [io])
        assert (res.ckpt_id, res.level, res.payloads) == (ckpt_id, "io", ranks)
        assert res.positions == {0: 3.0, 1: 3.0}
        stored = {r: io.read_rank_file("app", ckpt_id, r) for r in ranks}
        assert io.bytes_written == sum(h.payload_size for h, _ in stored.values())
        # The throttle is charged once per frame: every block, plus the
        # stream header when compressed.
        blocks = -(-len(payload) // block)
        assert len(io.chunks) == len(ranks) * (blocks + (codec is not None)) > 2
        if codec is not None:
            assert stored[0][1] == compress_stream(payload, codec, block)
        # The drain writes the very same payload bytes.
        drained = IOStore(tmp_path / "drained")
        daemon = NDPDrainDaemon(
            "app", _seed_local(tmp_path / "drain", ranks), drained, codec=codec,
            block_size=block,
        )
        daemon._drain_one(1)
        for rank, (_, data) in stored.items():
            assert drained.read_rank_file("app", 1, rank)[1] == data
