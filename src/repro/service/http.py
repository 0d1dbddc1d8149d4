"""HTTP/1.1 framing for the service: requests in, responses out.

Hand-rolled over asyncio streams, with no framework.  This module knows
bytes, statuses and headers but no routes (those are
:mod:`~repro.service.server`'s), so all of it can be tested by feeding
an :class:`asyncio.StreamReader` bytes.  :func:`error_status` is the one
mapping from a handler's exception to the status that answers it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import AsyncGenerator

from .batcher import DeadlineExceeded, Overloaded
from .protocol import ProtocolError, canonical_dumps

__all__ = [
    "CLIENT_CLOSED", "HttpError", "MAX_BODY_BYTES", "MAX_HEADER_BYTES", "REASONS",
    "StreamBody", "chunk", "clean_trace_id", "error_status", "head",
    "read_request", "write_stream",
]

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

#: The status recorded for a request whose client went away before its
#: response was out (nginx's "client closed request"): not a server
#: fault, so it is not a 5xx and burns no error budget.
CLIENT_CLOSED = 499

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_TRACE_ID_CHARS = frozenset("0123456789abcdefABCDEF-")


class HttpError(Exception):
    """Framing-level failure with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def clean_trace_id(raw: str | None) -> str | None:
    """A client-supplied ``X-Repro-Trace`` id, sanitized: hex digits and
    dashes only, bounded length (it lands in JSONL traces and response
    headers, so arbitrary bytes are rejected rather than escaped)."""
    if not raw:
        return None
    raw = raw.strip()
    if 1 <= len(raw) <= 64 and set(raw) <= _TRACE_ID_CHARS:
        return raw.lower()
    return None


def error_status(exc: Exception) -> tuple[int, dict[str, str]]:
    """The HTTP status and extra headers answering a handler's ``exc``:
    anything but a bad request, a shed or an expired deadline is a
    failed computation, 500."""
    if isinstance(exc, ProtocolError):
        return 400, {}
    if isinstance(exc, Overloaded):
        return 503, {"Retry-After": str(int(exc.retry_after))}
    if isinstance(exc, DeadlineExceeded):
        return 504, {}
    return 500, {}


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """``(method, path, headers, body)`` off the wire, or ``None`` on a
    clean EOF.  The reader's ``limit`` should be :data:`MAX_HEADER_BYTES`."""
    try:
        head_bytes = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request head too large") from exc
    if len(head_bytes) > MAX_HEADER_BYTES:
        raise HttpError(431, "request head too large")
    lines = head_bytes.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def head(
    status: int,
    length: int | None,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    trace_id: str | None = None,
    extra: dict[str, str] | None = None,
) -> bytes:
    """A response head framing a ``length``-byte body (``None``: chunked)."""
    framing = "Transfer-Encoding: chunked" if length is None else f"Content-Length: {length}"
    trace_hdr = f"X-Repro-Trace: {trace_id}\r\n" if trace_id else ""
    extra_hdr = "".join(f"{k}: {v}\r\n" for k, v in (extra or {}).items())
    return (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{framing}\r\n"
        f"{trace_hdr}"
        f"{extra_hdr}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")


def chunk(data: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer frame."""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


@dataclass
class StreamBody:
    """A chunked NDJSON response body (the streaming sweep)."""

    gen: AsyncGenerator[bytes, None]
    content_type: str = "application/x-ndjson"


async def write_stream(
    writer: asyncio.StreamWriter,
    stream: StreamBody,
    *,
    keep_alive: bool,
    trace_id: str | None,
) -> tuple[int, bool]:
    """Write one chunked NDJSON body; returns (status, keep alive).

    Each line is flushed as its cell completes — a slow consumer's
    backpressure (``drain``) bounds server-side buffering.  A mid-stream
    failure cannot rewrite the already-sent 200 head, so it becomes a
    final ``{"error": ..., "status": ...}`` line and a connection close.
    A client that goes away raises its ``ConnectionError`` out of here,
    after the generator is closed (cancelling its pending rows).
    """
    writer.write(
        head(200, None, content_type=stream.content_type, keep_alive=keep_alive,
             trace_id=trace_id)
    )
    status, keep = 200, keep_alive
    try:
        async for line in stream.gen:
            writer.write(chunk(line))
            await writer.drain()
    except ConnectionError:
        raise  # the client is gone: nothing left to write to
    except Exception as exc:
        status, keep = error_status(exc)[0], False
        err = {"error": f"{type(exc).__name__}: {exc}", "status": status}
        writer.write(chunk(canonical_dumps(err) + b"\n"))
    finally:
        await stream.gen.aclose()
    writer.write(b"0\r\n\r\n")
    await writer.drain()
    return status, keep
