"""Block-framed compressed streams (Section 4.2.2 / 4.3 data path).

The NDP compresses checkpoints in *blocks* so compression can overlap the
network write, and the host decompresses blocks *concurrently* on restore
("each page ... sent to a different core", Section 4.3).  This module is
that container format plus its producers and decoders:

* :func:`iter_frames` — the streaming producer: yields wire-format frames
  (header first, then one frame per compressed block) from ``memoryview``
  slices of the payload, so nothing is ever concatenated or copied on the
  way in.
* :func:`rank_frames` — the frames one rank is stored as on the I/O level:
  :func:`iter_frames` when a codec is set, raw block slices otherwise.
  Every I/O write (the NDP drain and the host-mode push alike) streams
  these into :meth:`~repro.ckpt.backends.DirectoryStore.stage_rank_frames`.
* :func:`compress_stream` — materialize the frames into one bytes object.
* :func:`decompress_stream` — sequential decode.
* :func:`parallel_decompress` — thread-pool decode.  zlib/bz2/lzma release
  the GIL inside their C cores, so this achieves real parallel speedup,
  mirroring the paper's multi-core host decompression.

Frames parse from a ``memoryview`` of the stream, so block payloads feed
the codec without intermediate copies on the way out either.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

from ..compression.codecs import Codec
from ..obs import metrics as obs_metrics

# Block-granularity counters for the compression workers.  Updates are
# one lock + float add per (1 MiB) block — invisible next to the codec —
# and give the registry a live view of how much data the stream layer
# has pushed through in each direction.
_BLOCKS = obs_metrics.REGISTRY.counter(
    "stream_blocks_total", "blocks processed by the stream codec layer"
)
_BYTES = obs_metrics.REGISTRY.counter(
    "stream_bytes_total", "uncompressed bytes through the stream codec layer"
)

__all__ = [
    "compress_stream",
    "decompress_stream",
    "parallel_decompress",
    "iter_frames",
    "rank_frames",
    "DEFAULT_BLOCK_SIZE",
]

_MAGIC = b"RPBS"
DEFAULT_BLOCK_SIZE = 1 << 20  # 1 MiB blocks


def iter_frames(
    payload, codec: Codec, block_size: int = DEFAULT_BLOCK_SIZE
) -> Iterator[bytes]:
    """Yield the container's wire frames: header, then one per block.

    The concatenation of the frames is exactly :func:`compress_stream`'s
    output.  The payload is consumed as ``memoryview`` slices and each
    block is compressed only when the consumer asks for its frame, so a
    slow consumer (a bounded queue in front of a throttled store) holds
    compression back instead of buffering the payload.
    """
    if block_size < 1024:
        raise ValueError("block_size must be >= 1024")
    mv = memoryview(payload)
    total = len(mv)
    nblocks = (total + block_size - 1) // block_size
    yield _MAGIC + struct.pack("<IQI", block_size, total, nblocks)
    for off in range(0, total, block_size):
        chunk = mv[off : off + block_size]
        cdata = codec.compress(chunk)
        _BLOCKS.inc(direction="compress")
        _BYTES.inc(len(chunk), direction="compress")
        yield struct.pack("<II", len(chunk), len(cdata)) + cdata


def rank_frames(payload, codec: Codec | None, block_size: int = DEFAULT_BLOCK_SIZE):
    """The frames one rank's payload is stored as on the I/O level.

    With a codec this is :func:`iter_frames` (the block-stream
    container); without one, the payload itself in ``block_size``
    ``memoryview`` slices (at least one, possibly empty), so an
    uncompressed write is still charged to the store block by block.
    """
    if codec is not None:
        return iter_frames(payload, codec, block_size)
    mv = memoryview(payload)
    return (mv[off : off + block_size] for off in range(0, max(len(mv), 1), block_size))


def compress_stream(payload, codec: Codec, block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Frame ``payload`` into the block-stream container.

    Layout: magic, block size, total uncompressed size, block count, then
    per block ``[usize u32][csize u32][cdata]``.
    """
    return b"".join(iter_frames(payload, codec, block_size))


def _parse_frames(stream) -> tuple[int, list]:
    mv = memoryview(stream)
    if bytes(mv[:4]) != _MAGIC:
        raise ValueError("not a block-compressed stream (bad magic)")
    _, total, count = struct.unpack_from("<IQI", mv, 4)
    off = 4 + 16
    frames: list = []
    expected = 0
    for _ in range(count):
        usize, csize = struct.unpack_from("<II", mv, off)
        off += 8
        frames.append(mv[off : off + csize])
        if len(frames[-1]) != csize:
            raise ValueError("truncated block stream")
        off += csize
        expected += usize
    if expected != total:
        raise ValueError(f"block sizes sum to {expected}, header says {total}")
    return total, frames


def decompress_stream(stream, codec: Codec) -> bytes:
    """Sequentially decode a block stream."""
    total, frames = _parse_frames(stream)
    out = b"".join(codec.decompress(f) for f in frames)
    if len(out) != total:
        raise ValueError(f"decoded {len(out)} bytes, expected {total}")
    _BLOCKS.inc(len(frames), direction="decompress")
    _BYTES.inc(total, direction="decompress")
    return out


def parallel_decompress(stream, codec: Codec, workers: int = 4) -> bytes:
    """Decode blocks concurrently on a thread pool (host-side restore).

    Matches Section 4.3's restore pipeline: blocks are independent, the
    stdlib codecs release the GIL, so ``workers`` threads give near-linear
    speedup for CPU-bound codecs.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    total, frames = _parse_frames(stream)
    if workers == 1 or len(frames) <= 1:
        return decompress_stream(stream, codec)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(codec.decompress, frames))
    out = b"".join(parts)
    if len(out) != total:
        raise ValueError(f"decoded {len(out)} bytes, expected {total}")
    _BLOCKS.inc(len(frames), direction="decompress")
    _BYTES.inc(total, direction="decompress")
    return out
