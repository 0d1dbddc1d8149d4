"""HTTP/1.1 framing without sockets: a StreamReader fed bytes, and the
one exception-to-status mapping."""

import asyncio

import pytest

from repro.service.batcher import DeadlineExceeded, Overloaded
from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    chunk,
    clean_trace_id,
    error_status,
    head,
    read_request,
)
from repro.service.protocol import ProtocolError


def read(data: bytes):
    """``read_request`` over a reader holding ``data`` then EOF."""

    async def go():
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


def status_of(data: bytes) -> int:
    with pytest.raises(HttpError) as exc:
        read(data)
    return exc.value.status


class TestReadRequest:
    def test_parses_method_path_headers_body(self):
        got = read(
            b"post /v1/simulate?x=1 HTTP/1.1\r\nHost: h\r\nX-Repro-Trace:  AB \r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        assert got == (
            "POST", "/v1/simulate?x=1",
            {"host": "h", "x-repro-trace": "AB", "content-length": "2"}, b"{}",
        )

    def test_no_content_length_means_empty_body(self):
        assert read(b"GET /healthz HTTP/1.0\r\n\r\n")[3] == b""

    def test_clean_eof_is_none(self):
        assert read(b"") is None

    def test_truncated_head_is_400(self):
        assert status_of(b"GET /healthz HTTP/1.1\r\nHost:") == 400

    def test_head_over_64_kib_is_431(self):
        big = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n"
        assert status_of(big) == 431

    def test_bad_content_length_is_400(self):
        assert status_of(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n") == 400

    @pytest.mark.parametrize("length", [-1, MAX_BODY_BYTES + 1])
    def test_negative_or_oversized_content_length_is_413(self, length):
        data = f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        assert status_of(data) == 413

    @pytest.mark.parametrize(
        "data",
        [
            b"GET /\r\n\r\n",  # two parts
            b"GET / HTTP/1.1 extra\r\n\r\n",  # four parts
            b"GET / SPDY/3\r\n\r\n",  # not HTTP/1.x
            b"GET / HTTP/1.1\r\nno colon here\r\n\r\n",  # malformed header
        ],
    )
    def test_malformed_request_line_or_header_is_400(self, data):
        assert status_of(data) == 400

    def test_body_shorter_than_content_length_raises(self):
        with pytest.raises(asyncio.IncompleteReadError):
            read(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")


class TestErrorStatus:
    def test_protocol_error_is_400(self):
        assert error_status(ProtocolError("bad key")) == (400, {})

    def test_overloaded_is_503_with_retry_after(self):
        assert error_status(Overloaded("full", retry_after=3.7)) == (
            503, {"Retry-After": "3"},
        )

    def test_deadline_is_504(self):
        assert error_status(DeadlineExceeded("late")) == (504, {})

    def test_anything_else_is_500(self):
        assert error_status(RuntimeError("boom")) == (500, {})


class TestRendering:
    def test_head_frames_a_body_length_and_headers(self):
        out = head(503, 2, keep_alive=False, trace_id="ab", extra={"Retry-After": "2"})
        assert out == (
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\nX-Repro-Trace: ab\r\nRetry-After: 2\r\n"
            b"Connection: close\r\n\r\n"
        )

    def test_head_without_length_is_chunked(self):
        out = head(200, None, content_type="application/x-ndjson")
        assert out == (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
        )

    def test_chunk_is_hex_length_framed(self):
        assert chunk(b"x" * 26) == b"1a\r\n" + b"x" * 26 + b"\r\n"

    @pytest.mark.parametrize(
        "raw, want",
        [("ABCDEF01", "abcdef01"), (" a-b ", "a-b"), ("NOT HEX!!", None),
         ("a" * 65, None), ("", None), (None, None)],
    )
    def test_trace_id_is_sanitized(self, raw, want):
        assert clean_trace_id(raw) == want
