"""Streaming sweeps: chunked NDJSON framing, byte identity, incrementality."""

import json
import socket

import pytest

from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    canonical_dumps,
)

SWEEP = {
    "configs": [
        {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3},
        {"params": {"mtti": 600.0}, "strategy": "host", "work_mttis": 3},
        {"params": {"mtti": 1200.0}, "strategy": "io-only", "work_mttis": 3},
    ],
    "seeds": [0, 1],
}


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServiceConfig(port=0, jobs=1)) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


def raw_streamed_exchange(port: int, body: dict) -> tuple[dict, bytes]:
    """Speak HTTP/1.1 on a raw socket; return (headers, raw body bytes).

    De-chunks by hand so the test pins the actual wire framing, not an
    http-library interpretation of it.
    """
    payload = json.dumps(body).encode()
    req = (
        f"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode() + payload
    with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
        s.sendall(req)
        blob = b""
        while True:
            got = s.recv(65536)
            if not got:
                break
            blob += got
    head, _, rest = blob.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        k, _, v = line.partition(":")
        headers[k.strip().lower()] = v.strip()
    headers["_status"] = int(lines[0].split()[1])
    assert headers.get("transfer-encoding") == "chunked"
    # De-chunk.
    out = b""
    while rest:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        out += rest[:size]
        rest = rest[size + 2 :]  # skip the chunk's trailing CRLF
    return headers, out


class TestWireFraming:
    def test_chunked_ndjson_with_header_line(self, server):
        headers, body = raw_streamed_exchange(
            server.port, {**SWEEP, "stream": True}
        )
        assert headers["_status"] == 200
        assert headers["content-type"] == "application/x-ndjson"
        lines = body.decode().splitlines()
        assert json.loads(lines[0]) == {"n_cells": 3, "n_seeds": 2}
        assert len(lines) == 1 + 3

    def test_streamed_cells_byte_identical_to_buffered(self, client, server):
        """ISSUE acceptance, at the socket level: each streamed cell line
        is exactly the canonical rendering of the buffered response's
        corresponding cell."""
        buffered = json.loads(client.post_raw("/v1/sweep", SWEEP))
        _, body = raw_streamed_exchange(server.port, {**SWEEP, "stream": True})
        cell_lines = body.split(b"\n")[1:-1]  # drop header line + trailing ""
        want = [canonical_dumps(cell) for cell in buffered["cells"]]
        assert cell_lines == want

    def test_detail_rows_stream_byte_identically_too(self, client, server):
        body = {**SWEEP, "detail": True}
        buffered = json.loads(client.post_raw("/v1/sweep", body))
        _, raw = raw_streamed_exchange(server.port, {**body, "stream": True})
        cell_lines = raw.split(b"\n")[1:-1]
        assert cell_lines == [canonical_dumps(c) for c in buffered["cells"]]

    def test_stream_false_is_plain_buffered_json(self, client):
        blob = client.post_raw("/v1/sweep", {**SWEEP, "stream": False})
        out = json.loads(blob)
        assert out["n_cells"] == 3 and len(out["cells"]) == 3


class TestClientStream:
    def test_sweep_stream_yields_buffered_cells(self, client):
        buffered = json.loads(client.post_raw("/v1/sweep", SWEEP))
        rows = list(client.sweep_stream(SWEEP))
        assert rows == buffered["cells"]

    def test_connection_stays_usable_after_full_stream(self, client):
        list(client.sweep_stream(SWEEP))
        assert client.healthz() == {"status": "ok"}

    def test_mid_stream_error_line_raises_and_closes(self):
        """A cell that fails after the 200 head becomes a final error
        line; the client surfaces it as ServiceError.

        With ``max_batch=1`` each row is its own runner call, so the
        fault injected into the second cell's row lands after the first
        row is already on the wire."""
        sweep = {
            "configs": [
                {"params": {"mtti": 600.0}, "work_mttis": 3},
                {"params": {"mtti": 900.0}, "work_mttis": 3},
            ],
            "seeds": [0],
        }
        with BackgroundServer(ServiceConfig(port=0, jobs=1, max_batch=1)) as srv:
            real = srv.server.batcher._runner

            def flaky(configs):
                if any(c.params.mtti == 900.0 for c in configs):
                    raise RuntimeError("injected engine fault")
                return real(configs)

            srv.server.batcher._runner = flaky
            with ServiceClient("127.0.0.1", srv.port) as c:
                rows = []
                with pytest.raises(ServiceError) as exc:
                    for row in c.sweep_stream(sweep):
                        rows.append(row)
                assert exc.value.status == 500
                assert len(rows) == 1  # first cell streamed before the fault

    def test_qos_rides_streaming_sweeps(self, server):
        """deadline_ms/priority parse on streamed sweeps too (strict)."""
        with ServiceClient("127.0.0.1", server.port) as c:
            rows = list(
                c.sweep_stream({**SWEEP, "deadline_ms": 60_000, "priority": 2})
            )
            assert len(rows) == 3
            with pytest.raises(ServiceError) as exc:
                list(c.sweep_stream({**SWEEP, "priority": "high"}))
            assert exc.value.status == 400


class TestIncrementality:
    def test_first_row_lands_before_last_group_completes(self):
        """Time-to-first-row tracks the first cell group, not the grid:
        with a slow cell last, the first cell's line must arrive well
        before the response finishes."""
        import time

        sweep = {
            "configs": [
                {"params": {"mtti": 600.0}, "work_mttis": 3},
                {"params": {"mtti": 900.0}, "work_mttis": 3},
            ],
            "seeds": [0],
        }
        # One row per runner call; the second cell's call takes 0.25 s.
        with BackgroundServer(ServiceConfig(port=0, jobs=1, max_batch=1)) as srv:
            real = srv.server.batcher._runner

            def slow_last(configs):
                if any(c.params.mtti == 900.0 for c in configs):
                    time.sleep(0.25)
                return real(configs)

            srv.server.batcher._runner = slow_last
            with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                t0 = time.monotonic()
                stamps = []
                for _ in c.sweep_stream(sweep):
                    stamps.append(time.monotonic() - t0)
        assert len(stamps) == 2
        # The first cell resolves in a few ms; the second takes ~250 ms.
        # First row must not have waited for the slow cell.
        assert stamps[0] < stamps[1] / 2


class TestClientDisconnect:
    def test_reset_mid_stream_is_recorded_once_as_499(self):
        """A client that resets the connection after the first cell: the
        request is still finished, counted and recorded, as 499 (client
        closed request), and nothing is left in flight."""
        import struct
        import time

        from repro.obs.metrics import REGISTRY

        sweep = {
            "configs": [
                {"params": {"mtti": 600.0}, "work_mttis": 3},
                {"params": {"mtti": 900.0}, "work_mttis": 3},
            ],
            "seeds": [0],
            "detail": True,
            "stream": True,
        }
        requests_total = REGISTRY.counter("service_requests_total")
        before = requests_total.value(endpoint="/v1/sweep", status="499")
        # One row per runner call; the second cell's call is still
        # computing when the client goes away.
        with BackgroundServer(ServiceConfig(port=0, jobs=1, max_batch=1)) as srv:
            real = srv.server.batcher._runner

            def slow_last(configs):
                if any(c.params.mtti == 900.0 for c in configs):
                    time.sleep(0.3)
                return real(configs)

            srv.server.batcher._runner = slow_last
            payload = json.dumps(sweep).encode()
            with socket.create_connection(("127.0.0.1", srv.port), timeout=60) as s:
                s.sendall(
                    b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                got = b""
                while b'"mean_efficiency"' not in got:  # the first cell
                    got += s.recv(2048)
                # Close with an RST rather than a FIN.
                s.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            flight = srv.server.flight
            deadline = time.monotonic() + 10
            while not len(flight) and time.monotonic() < deadline:
                time.sleep(0.02)
            (entry,) = flight.requests()
            assert entry["status"] == 499
            assert entry["path"] == "/v1/sweep"
            assert flight._n_pending == 0 and not flight._pending
            assert srv.server.requests == 1
        after = requests_total.value(endpoint="/v1/sweep", status="499")
        assert after - before == 1
