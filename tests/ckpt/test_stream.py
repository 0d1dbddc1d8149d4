"""Block-framed compressed streams and parallel decompression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.stream import (
    compress_stream,
    decompress_stream,
    parallel_decompress,
)
from repro.compression.codecs import make_codec

GZIP = make_codec("gzip", 1)


class TestFraming:
    def test_round_trip(self, small_blob):
        stream = compress_stream(small_blob, GZIP, block_size=4096)
        assert decompress_stream(stream, GZIP) == small_blob

    def test_empty_payload(self):
        stream = compress_stream(b"", GZIP)
        assert decompress_stream(stream, GZIP) == b""

    def test_block_boundaries_exact_multiple(self):
        data = b"ab" * 2048  # exactly 4 blocks of 1024
        stream = compress_stream(data, GZIP, block_size=1024)
        assert decompress_stream(stream, GZIP) == data

    def test_block_size_validation(self, small_blob):
        with pytest.raises(ValueError):
            compress_stream(small_blob, GZIP, block_size=100)

    def test_bad_magic_rejected(self, small_blob):
        stream = compress_stream(small_blob, GZIP)
        with pytest.raises(ValueError, match="magic"):
            decompress_stream(b"XXXX" + stream[4:], GZIP)

    def test_truncated_stream_rejected(self, small_blob):
        stream = compress_stream(small_blob, GZIP, block_size=4096)
        with pytest.raises(ValueError):
            decompress_stream(stream[:-5], GZIP)


class TestParallel:
    def test_matches_sequential(self, small_blob):
        stream = compress_stream(small_blob, GZIP, block_size=2048)
        assert parallel_decompress(stream, GZIP, workers=4) == small_blob

    def test_single_worker_path(self, small_blob):
        stream = compress_stream(small_blob, GZIP, block_size=2048)
        assert parallel_decompress(stream, GZIP, workers=1) == small_blob

    def test_worker_validation(self, small_blob):
        stream = compress_stream(small_blob, GZIP)
        with pytest.raises(ValueError):
            parallel_decompress(stream, GZIP, workers=0)

    @pytest.mark.parametrize("codec_name", ["bzip2(1)", "xz(1)", "lz4(1)"])
    def test_other_codecs(self, codec_name, small_blob):
        codec = make_codec(*_parse(codec_name))
        stream = compress_stream(small_blob, codec, block_size=8192)
        assert parallel_decompress(stream, codec, workers=2) == small_blob


def _parse(name):
    u, _, lv = name[:-1].partition("(")
    return u, int(lv)


@given(data=st.binary(max_size=30_000), block=st.sampled_from([1024, 4096, 16384]))
@settings(max_examples=60, deadline=None)
def test_property_stream_round_trip(data, block):
    stream = compress_stream(data, GZIP, block_size=block)
    assert decompress_stream(stream, GZIP) == data
    assert parallel_decompress(stream, GZIP, workers=3) == data
