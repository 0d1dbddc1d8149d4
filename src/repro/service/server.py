"""Asyncio HTTP/JSON server for the capacity-planning service.

Hand-rolled HTTP/1.1 over ``asyncio.start_server`` — no framework, no
third-party deps — with persistent connections (keep-alive matters: the
closed-loop load generator reuses sockets, and per-request TCP setup
would dominate at millisecond service times).

Endpoints (see ``docs/SERVICE.md`` for the full schema):

* ``POST /v1/simulate`` — one scenario; coalesced with identical
  in-flight configs, micro-batched with concurrent ones.
* ``POST /v1/sweep`` — a list of cells x a seed axis; every row rides
  the same coalescer/batcher, so concurrent sweeps fuse with each other
  and with single simulates.
* ``POST /v1/optimize`` — optimal host ratio via the process-wide
  memoized model (``core.optimizer._MEMO``), coalesced by scenario.
* ``GET /metrics`` — the process-global metrics registry in Prometheus
  text format; ``GET /healthz`` — liveness; ``GET /stats`` — service
  counters as JSON (what the benchmark reads).

Every simulate row takes one path: protocol -> coalescer -> batcher
(which probes the shared cache, dispatches the misses and writes them
back) -> :func:`~repro.simulation.pool.run_simulations` with no cache ->
``simulate_batch``.

Shared state is the point: one :class:`~repro.simulation.pool.ResultCache`,
one optimizer memo, one metrics registry across every client.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Sequence
from urllib.parse import parse_qs

from ..core.optimizer import optimal_host
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.flight import FlightRecorder
from ..obs.slo import SLOTarget, SLOTracker
from ..simulation.batch import _t95
from ..simulation.pool import ResultCache, config_key, run_simulations
from ..simulation.simulator import SimConfig
from ..simulation.stats import SimulationResult
from . import timing as req_timing
from .batcher import Batcher, DeadlineExceeded, Overloaded
from .coalescer import Coalescer
from .protocol import (
    ProtocolError,
    QoS,
    canonical_dumps,
    compression_from_json,
    config_from_json,
    model_result_to_json,
    params_from_json,
    qos_from_json,
    result_to_json,
    sweep_rows_from_json,
)

__all__ = ["BackgroundServer", "ServiceConfig", "ServiceServer", "serve"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024

_TRACE_ID_CHARS = frozenset("0123456789abcdefABCDEF-")


def _clean_trace_id(raw: str | None) -> str | None:
    """A client-supplied ``X-Repro-Trace`` id, sanitized: hex digits and
    dashes only, bounded length (it lands in JSONL traces and response
    headers, so arbitrary bytes are rejected rather than escaped)."""
    if not raw:
        return None
    raw = raw.strip()
    if 1 <= len(raw) <= 64 and set(raw) <= _TRACE_ID_CHARS:
        return raw.lower()
    return None

_REQUESTS = obs_metrics.REGISTRY.counter(
    "service_requests_total", "HTTP requests served, by endpoint and status"
)
_REQUEST_SECONDS = obs_metrics.REGISTRY.histogram(
    "service_request_seconds", "request wall time, by endpoint"
)


@dataclass(frozen=True)
class ServiceConfig:
    """Server tuning knobs.

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`ServiceServer.port`).
    jobs:
        Worker processes per dispatched batch
        (:func:`~repro.simulation.pool.run_simulations` semantics:
        1 = inline in the dispatch thread, ``None`` = one per core).
    cache:
        Shared on-disk result cache; ``None`` disables it.
    batch_window:
        Bounded micro-batching delay, seconds.
    max_batch:
        Fusion cap per dispatched batch; 1 disables fusion (the
        benchmark's naive baseline).
    max_inflight:
        Concurrent batch dispatches (executor threads).
    coalesce:
        Deduplicate identical in-flight configs.  Off, every duplicate
        computes independently (the naive baseline).
    slo:
        Latency objectives (:func:`repro.obs.slo.parse_slo` specs like
        ``simulate=50ms:0.99``); burn rates surface in ``/stats`` and
        ``/metrics``.
    flight_capacity:
        Requests retained by the always-on flight recorder
        (``/debug/requests``, ``/debug/trace/<id>``).
    queue_budget:
        Admission-control budget in seconds (``None`` = never shed):
        once the batcher's estimated queue drain time exceeds it, new
        simulate/sweep work is answered 503 + ``Retry-After``.
    aging:
        Seconds of queueing that promote a job one priority class
        (starvation control for the low classes).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several worker processes can
        share one port (the kernel load-balances accepts).  Set by the
        prefork supervisor; harmless but pointless for one process.
    worker_index:
        This process's index under a prefork supervisor (``None`` =
        standalone).  Stamped onto every exported metric as the
        ``worker`` label and into ``/stats``.
    stats_dir:
        Directory where prefork workers publish their stats snapshots
        (one JSON file per worker, atomic replace).  Any worker
        answering ``GET /stats`` merges every sibling's snapshot into a
        ``workers`` list, so one scrape sees the whole group no matter
        which worker the kernel picked.
    """

    host: str = "127.0.0.1"
    port: int = 8077
    jobs: int | None = 1
    cache: ResultCache | None = None
    batch_window: float = 0.002
    max_batch: int = 256
    max_inflight: int = 2
    coalesce: bool = True
    slo: tuple[SLOTarget, ...] = ()
    flight_capacity: int = 256
    queue_budget: float | None = None
    aging: float = 1.0
    reuse_port: bool = False
    worker_index: int | None = None
    stats_dir: str | None = None


@dataclass
class _StreamBody:
    """A chunked NDJSON response body (the streaming sweep)."""

    gen: AsyncIterator[bytes]
    content_type: str = "application/x-ndjson"


class ServiceServer:
    """One service instance: shared state + the asyncio protocol loop."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = self.config.cache
        self.coalescer = Coalescer()
        self.batcher = Batcher(
            self._run_batch,
            window=self.config.batch_window,
            max_batch=self.config.max_batch,
            max_inflight=self.config.max_inflight,
            cache=self.cache,
            queue_budget=self.config.queue_budget,
            aging=self.config.aging,
        )
        self._server: asyncio.AbstractServer | None = None
        self._started = time.monotonic()
        self.requests = 0
        #: In-flight HTTP requests (graceful drain waits on this).
        self._inflight_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._writers: set[asyncio.StreamWriter] = set()
        self._stats_task: asyncio.Task | None = None
        self.flight = FlightRecorder(capacity=self.config.flight_capacity).install()
        self.slo = SLOTracker(self.config.slo)
        if self.config.slo:
            self.slo.register_metrics(obs_metrics.REGISTRY)
        if self.config.worker_index is not None:
            # Every metric this worker exports carries its identity.
            obs_metrics.REGISTRY.set_constant_labels(
                worker=str(self.config.worker_index)
            )

    # -- the blocking batch runner (executor thread) -------------------------

    def _run_batch(self, configs: list[SimConfig]) -> Sequence[SimulationResult]:
        """Run one fused batch of cache misses through the pool runtime.

        ``run_simulations`` fuses each chunk's configs into a single
        ``simulate_batch`` call.  It gets no cache: the batcher already
        probed every row and writes the results back itself.
        """
        return run_simulations(configs, jobs=self.config.jobs)

    # -- request execution ----------------------------------------------------

    async def _simulate(
        self, cfg: SimConfig, qos: QoS | None = None
    ) -> SimulationResult:
        # A coalesced duplicate inherits the primary's QoS: it attaches
        # to work already admitted and scheduled, so its own deadline or
        # priority cannot (and need not) reshape that computation.
        if not self.config.coalesce:
            return await self.batcher.submit(cfg, qos)
        return await self.coalescer.get(
            config_key(cfg), lambda: self.batcher.submit(cfg, qos)
        )

    async def _handle_simulate(self, body: Any) -> dict:
        qos, body = qos_from_json(body)
        cfg = config_from_json(body)
        result = await self._simulate(cfg, qos)
        return {"result": result_to_json(result)}

    @staticmethod
    def _cell_payload(per_seed: Sequence[SimulationResult], detail: bool) -> dict:
        """One sweep cell's aggregates — shared by the buffered and the
        streaming path, so a streamed cell is byte-identical to its
        buffered counterpart by construction."""
        effs = [r.efficiency for r in per_seed]
        mean = sum(effs) / len(effs)
        if len(effs) > 1:
            var = sum((e - mean) ** 2 for e in effs) / (len(effs) - 1)
            ci = _t95(len(effs) - 1) * (var**0.5) / (len(effs) ** 0.5)
        else:
            ci = float("inf")
        cell: dict[str, Any] = {
            "mean_efficiency": mean,
            "ci95": ci,
            "efficiencies": effs,
        }
        if detail:
            cell["results"] = [result_to_json(r) for r in per_seed]
        return cell

    async def _handle_sweep(self, body: Any) -> "dict | _StreamBody":
        qos, body = qos_from_json(body)
        rows, n_cells, n_seeds = sweep_rows_from_json(body)
        detail = bool(body.get("detail", False))
        if bool(body.get("stream", False)):
            return _StreamBody(
                self._sweep_stream(rows, n_cells, n_seeds, detail, qos)
            )
        results = await asyncio.gather(*(self._simulate(cfg, qos) for cfg in rows))
        cells = [
            self._cell_payload(results[c * n_seeds : (c + 1) * n_seeds], detail)
            for c in range(n_cells)
        ]
        return {"cells": cells, "n_cells": n_cells, "n_seeds": n_seeds}

    async def _sweep_stream(
        self,
        rows: list[SimConfig],
        n_cells: int,
        n_seeds: int,
        detail: bool,
        qos: QoS | None,
    ) -> AsyncIterator[bytes]:
        """NDJSON sweep body: a header line, then one line per cell.

        Every row is submitted up front (fusion across the whole grid is
        the point), but cells are rendered and released **in order as
        they complete** — the response never holds the whole grid's
        rendered JSON, and time-to-first-row is the first cell group's
        latency, not the grid's.  Each cell line is rendered by
        ``canonical_dumps`` exactly like the buffered path, so the
        concatenation of streamed rows is byte-identical to the buffered
        response's ``cells`` (the acceptance test checks this at the
        socket level).
        """
        tasks: list[asyncio.Task | None] = [
            asyncio.ensure_future(self._simulate(cfg, qos)) for cfg in rows
        ]
        for t in tasks:
            # A cell that errors aborts the stream before later cells are
            # awaited; consume their exceptions so nothing warns.
            t.add_done_callback(lambda t: t.cancelled() or t.exception())
        try:
            yield canonical_dumps({"n_cells": n_cells, "n_seeds": n_seeds}) + b"\n"
            for c in range(n_cells):
                sl = slice(c * n_seeds, (c + 1) * n_seeds)
                per_seed = await asyncio.gather(*tasks[sl])
                # Release each cell's rows as soon as it is rendered:
                # peak memory is in-flight cells, not the whole grid.
                tasks[sl] = [None] * n_seeds
                yield canonical_dumps(self._cell_payload(per_seed, detail)) + b"\n"
        finally:
            for t in tasks:
                if t is not None:
                    t.cancel()

    async def _handle_optimize(self, body: Any) -> dict:
        if not isinstance(body, dict):
            raise ProtocolError("optimize request must be a JSON object")
        unknown = sorted(set(body) - {"params", "compression", "rerun_accounting"})
        if unknown:
            raise ProtocolError(f"unknown optimize key(s) {unknown}")
        params = params_from_json(body.get("params"))
        compression = compression_from_json(body.get("compression"))
        accounting = body.get("rerun_accounting", "paper")
        if accounting not in ("paper", "staleness"):
            raise ProtocolError(
                f"rerun_accounting must be 'paper' or 'staleness': {accounting!r}"
            )
        key = "optimize:" + canonical_dumps(
            {
                "params": dataclasses.asdict(params),
                "compression": dataclasses.asdict(compression),
                "rerun_accounting": accounting,
            }
        ).decode()

        async def _start() -> dict:
            loop = asyncio.get_running_loop()
            ctx = obs_trace.current_context()
            rec = req_timing.job_record()
            t0 = loop.time()

            def _blocking():
                # The memoized model (core.optimizer._MEMO) is process-wide:
                # every request warms it for every later request.  The
                # request context is handed across the executor boundary
                # explicitly (run_in_executor does not copy contextvars).
                with obs_trace.use_context(ctx):
                    with obs_trace.span("optimizer", "compute", label=accounting):
                        return optimal_host(params, compression, accounting)

            result = await loop.run_in_executor(None, _blocking)
            if rec is not None:
                t1 = loop.time()
                rec["compute"] = t1 - t0
                rec["resolved"] = t1
            return model_result_to_json(result)

        if not self.config.coalesce:
            payload = await _start()
        else:
            payload = await self.coalescer.get(key, _start)
        return {"optimal": payload}

    def _latency_payload(self) -> dict:
        """p50/p90/p99 of the request-latency histogram, per endpoint."""
        out: dict[str, dict[str, float]] = {}
        for labels, cell in _REQUEST_SECONDS.samples():
            ep = labels.get("endpoint")
            if ep is None or not cell["count"]:
                continue
            out[ep] = {
                "count": cell["count"],
                "p50": _REQUEST_SECONDS.quantile(0.50, endpoint=ep),
                "p90": _REQUEST_SECONDS.quantile(0.90, endpoint=ep),
                "p99": _REQUEST_SECONDS.quantile(0.99, endpoint=ep),
            }
        return out

    def _own_stats(self) -> dict:
        stats = self.batcher.stats
        out = {
            "uptime_seconds": time.monotonic() - self._started,
            "requests": self.requests,
            "latency": self._latency_payload(),
            "slo": self.slo.snapshot(),
            "coalesce": {
                "primary": self.coalescer.primary,
                "coalesced": self.coalescer.coalesced,
                "inflight": len(self.coalescer),
            },
            "batch": {
                "submitted": stats.submitted,
                "batches": {"fast": stats.batches},
                "batched_jobs": {"fast": stats.batched_jobs},
                "mean_fast_batch": stats.mean_batch_size(),
                "max_batch_seen": stats.max_batch_seen,
                "cache_hits": stats.cache_hits,
                "queue_depth": self.batcher.queue_depth,
                "shed": stats.shed,
                "expired": stats.expired,
            },
            "cache": {
                "enabled": self.cache is not None,
                "hits": getattr(self.cache, "hits", 0),
                "misses": getattr(self.cache, "misses", 0),
            },
        }
        if self.config.worker_index is not None:
            out["worker"] = self.config.worker_index
            out["pid"] = os.getpid()
        return out

    def _publish_stats(self) -> dict:
        """Atomically publish this worker's snapshot to ``stats_dir``."""
        own = self._own_stats()
        if self.config.stats_dir is not None and self.config.worker_index is not None:
            d = Path(self.config.stats_dir)
            name = f"worker-{self.config.worker_index}.json"
            tmp = d / f".{name}.{os.getpid()}.tmp"
            try:
                tmp.write_text(json.dumps(own))
                tmp.replace(d / name)
            except OSError:
                pass  # stats publication must never take a worker down
        return own

    def _stats_payload(self) -> dict:
        """This process's stats, plus — under a prefork supervisor —
        every sibling's last published snapshot as a ``workers`` list
        and, once a worker has crashed, the supervisor's ``restarts`` and
        ``gave_up`` slots as ``supervisor``.

        SO_REUSEPORT means a scrape lands on whichever worker the kernel
        picks; merging the published files makes any worker's answer
        describe the whole group."""
        out = self._publish_stats()
        if self.config.stats_dir is None:
            return out
        workers = []
        try:
            files = sorted(Path(self.config.stats_dir).glob("worker-*.json"))
        except OSError:
            files = []
        for f in files:
            try:
                workers.append(json.loads(f.read_text()))
            except (OSError, json.JSONDecodeError):
                continue  # sibling mid-replace or gone; skip this scrape
        workers.sort(key=lambda w: w.get("worker", -1))
        out["workers"] = workers
        try:
            out["supervisor"] = json.loads(
                (Path(self.config.stats_dir) / "supervisor.json").read_text())
        except (OSError, json.JSONDecodeError):
            pass  # no crash yet: the supervisor has published nothing
        return out

    # -- HTTP framing ----------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """One request off the wire, or ``None`` on a clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _HttpError(400, "truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(431, "request head too large") from exc
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(431, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if length < 0 or length > _MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    _REASONS = {
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

    @classmethod
    def _head(
        cls,
        status: int,
        framing: str,
        *,
        content_type: str,
        keep_alive: bool,
        trace_id: str | None,
        extra: dict[str, str] | None = None,
    ) -> bytes:
        trace_hdr = f"X-Repro-Trace: {trace_id}\r\n" if trace_id else ""
        extra_hdr = "".join(f"{k}: {v}\r\n" for k, v in (extra or {}).items())
        return (
            f"HTTP/1.1 {status} {cls._REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"{framing}"
            f"{trace_hdr}"
            f"{extra_hdr}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")

    @classmethod
    def _response(
        cls,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        keep_alive: bool = True,
        trace_id: str | None = None,
        extra: dict[str, str] | None = None,
    ) -> bytes:
        head = cls._head(
            status,
            f"Content-Length: {len(body)}\r\n",
            content_type=content_type,
            keep_alive=keep_alive,
            trace_id=trace_id,
            extra=extra,
        )
        return head + body

    @staticmethod
    def _chunk(data: bytes) -> bytes:
        """One HTTP/1.1 chunked-transfer frame."""
        return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"

    def _handle_debug(self, path: str, query: str) -> tuple[int, bytes, str]:
        """The flight-recorder endpoints (always on, allocation-bounded)."""
        if path == "/debug/requests":
            params = parse_qs(query)
            try:
                n = int(params.get("n", ["20"])[0])
            except ValueError:
                return 400, canonical_dumps({"error": "n must be an integer"}), "application/json"
            slowest = params.get("sort", [""])[0] == "slowest"
            return (
                200,
                canonical_dumps(
                    {"requests": self.flight.requests(n, slowest=slowest)}
                ),
                "application/json",
            )
        if path.startswith("/debug/trace/"):
            trace_id = path[len("/debug/trace/") :]
            found = self.flight.lookup(trace_id)
            if found is None:
                return (
                    404,
                    canonical_dumps({"error": f"no retained trace {trace_id!r}"}),
                    "application/json",
                )
            return 200, canonical_dumps(found), "application/json"
        return 404, canonical_dumps({"error": f"no such endpoint: {path}"}), "application/json"

    async def _dispatch(
        self, method: str, path: str, body: bytes, want_timing: bool = False
    ) -> tuple[int, "bytes | _StreamBody", str, dict[str, float] | None, dict[str, str]]:
        """Route one request.

        Returns ``(status, body, content type, timing, extra headers)``.
        ``body`` is rendered bytes, or a :class:`_StreamBody` whose
        NDJSON lines the connection loop writes chunked.  The timing
        element is the six-stage ``server_timing`` breakdown for
        successful ``/v1/*`` requests (always handed to the flight
        recorder; embedded in the response only when the client asked
        via ``X-Repro-Timing``), ``None`` otherwise.  Extra headers
        carry ``Retry-After`` on admission-control 503s.
        """
        def _err(status: int, message: str) -> tuple:
            return status, canonical_dumps({"error": message}), "application/json", None, {}

        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return _err(405, "GET only")
            return 200, canonical_dumps({"status": "ok"}), "application/json", None, {}
        if path == "/metrics":
            if method != "GET":
                return _err(405, "GET only")
            text = obs_metrics.REGISTRY.render_prometheus()
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4", None, {}
        if path == "/stats":
            if method != "GET":
                return _err(405, "GET only")
            return 200, canonical_dumps(self._stats_payload()), "application/json", None, {}
        if path.startswith("/debug/"):
            if method != "GET":
                return _err(405, "GET only")
            return (*self._handle_debug(path, query), None, {})

        handlers = {
            "/v1/simulate": self._handle_simulate,
            "/v1/sweep": self._handle_sweep,
            "/v1/optimize": self._handle_optimize,
        }
        handler = handlers.get(path)
        if handler is None:
            return _err(404, f"no such endpoint: {path}")
        if method != "POST":
            return _err(405, "POST only")
        route = path[len("/v1/") :]
        with req_timing.activate() as rt:
            p0 = time.monotonic()
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return _err(400, f"invalid JSON body: {exc}")
            p1 = time.monotonic()
            try:
                out = await handler(payload)
            except ProtocolError as exc:
                return _err(400, str(exc))
            except DeadlineExceeded as exc:
                # The fast 504: the scheduler failed the job before it
                # ever reached the runner.
                self.slo.note(route, "expired")
                return 504, canonical_dumps({"error": str(exc)}), "application/json", None, {}
            except Overloaded as exc:
                self.slo.note(route, "shed")
                return (
                    503,
                    canonical_dumps({"error": str(exc)}),
                    "application/json",
                    None,
                    {"Retry-After": str(int(exc.retry_after))},
                )
            except Exception as exc:  # computation failure must not kill the server
                return _err(500, f"{type(exc).__name__}: {exc}")
            p2 = time.monotonic()
            if isinstance(out, _StreamBody):
                # Serialization happens per line on the wire; the handler
                # segment here only covers submitting the rows.
                stages = rt.finalize(parse=p1 - p0, handle=p2 - p1, serialize=0.0)
                return 200, out, out.content_type, stages, {}
            rendered = canonical_dumps(out)
            p3 = time.monotonic()
            stages = rt.finalize(parse=p1 - p0, handle=p2 - p1, serialize=p3 - p2)
        if want_timing:
            # Opt-in only: the default response must stay byte-identical
            # to serial evaluation (the service's determinism contract).
            out["server_timing"] = stages
            rendered = canonical_dumps(out)
        return 200, rendered, "application/json", stages, {}

    async def _write_stream(
        self,
        writer: asyncio.StreamWriter,
        stream: _StreamBody,
        *,
        keep_alive: bool,
        trace_id: str | None,
    ) -> tuple[int, bool]:
        """Write one chunked NDJSON body; returns (status, keep alive).

        Each line is flushed as its cell completes — a slow consumer's
        backpressure (``drain``) bounds server-side buffering.  A
        mid-stream failure cannot rewrite the already-sent 200 head, so
        it becomes a final ``{"error": ...}`` line followed by a
        connection close (the truncation is the client's signal).
        """
        writer.write(
            self._head(
                200,
                "Transfer-Encoding: chunked\r\n",
                content_type=stream.content_type,
                keep_alive=keep_alive,
                trace_id=trace_id,
            )
        )
        status, keep = 200, keep_alive
        try:
            async for line in stream.gen:
                writer.write(self._chunk(line))
                await writer.drain()
        except Exception as exc:
            status, keep = 500, False
            if isinstance(exc, DeadlineExceeded):
                status = 504
            elif isinstance(exc, Overloaded):
                status = 503
            err = {"error": f"{type(exc).__name__}: {exc}", "status": status}
            writer.write(self._chunk(canonical_dumps(err) + b"\n"))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return status, keep

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except _HttpError as exc:
                    writer.write(
                        self._response(
                            exc.status,
                            canonical_dumps({"error": exc.message}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if req is None:
                    return
                self._inflight_requests += 1
                self._idle.clear()
                try:
                    method, path, headers, body = req
                    route = path.partition("?")[0]
                    endpoint = route if route.startswith("/v1/") or route in (
                        "/metrics", "/healthz", "/stats"
                    ) else "other"
                    # Request ingress: honor the client's X-Repro-Trace id or
                    # mint one; every span below joins this request's tree.
                    trace_id = _clean_trace_id(headers.get("x-repro-trace")) or obs_trace.new_trace_id()
                    want_timing = "x-repro-timing" in headers
                    self.flight.begin(trace_id, method, route)
                    keep = headers.get("connection", "keep-alive").lower() != "close"
                    if self._draining:
                        # Finish what is in flight, invite no more.
                        keep = False
                    t0 = time.monotonic()
                    with obs_trace.span(
                        "server",
                        "request",
                        label=route,
                        ctx=obs_trace.TraceContext(trace_id),
                        method=method,
                    ) as sp:
                        status, payload, ctype, stages, extra = await self._dispatch(
                            method, path, body, want_timing
                        )
                        if isinstance(payload, _StreamBody):
                            # The streamed request's wall time includes the
                            # full body: the last cell is part of serving it.
                            status, keep = await self._write_stream(
                                writer, payload, keep_alive=keep, trace_id=trace_id
                            )
                        sp.set(status=status)
                    wall = time.monotonic() - t0
                    _REQUEST_SECONDS.observe(
                        wall,
                        exemplar=trace_id if obs_trace.enabled() else None,
                        endpoint=endpoint,
                    )
                    _REQUESTS.inc(endpoint=endpoint, status=str(status))
                    if route.startswith("/v1/"):
                        self.slo.record(route[len("/v1/") :], wall, ok=status < 500)
                    self.flight.finish(trace_id, status, wall, server_timing=stages)
                    self.requests += 1
                    if not isinstance(payload, _StreamBody):
                        writer.write(
                            self._response(
                                status, payload, content_type=ctype, keep_alive=keep,
                                trace_id=trace_id, extra=extra,
                            )
                        )
                        await writer.drain()
                finally:
                    self._inflight_requests -= 1
                    if self._inflight_requests == 0:
                        self._idle.set()
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown while the connection idled
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, sock: "socket.socket | None" = None) -> None:
        """Bind and start accepting connections (non-blocking).

        ``sock`` lets a prefork supervisor hand every worker the *same*
        already-bound listener (the fallback when ``SO_REUSEPORT`` is
        unavailable); with ``reuse_port`` each worker binds its own
        socket to the shared port and the kernel load-balances accepts.
        """
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_conn, sock=sock, limit=_MAX_HEADER_BYTES
            )
        else:
            kwargs: dict[str, Any] = {}
            if self.config.reuse_port:
                kwargs["reuse_port"] = True
            self._server = await asyncio.start_server(
                self._handle_conn,
                self.config.host,
                self.config.port,
                limit=_MAX_HEADER_BYTES,
                **kwargs,
            )
        if self.config.stats_dir is not None and self.config.worker_index is not None:
            self._stats_task = asyncio.get_running_loop().create_task(
                self._stats_publisher()
            )

    async def _stats_publisher(self) -> None:
        """Keep this worker's published snapshot fresh for siblings.

        A scrape merges *published* files, so a worker the kernel never
        routes ``GET /stats`` to must still publish periodically."""
        try:
            while True:
                self._publish_stats()
                await asyncio.sleep(0.5)
        except asyncio.CancelledError:
            self._publish_stats()  # one last snapshot on shutdown
            raise

    async def stop(self) -> None:
        """Stop accepting, close the batcher and release the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stats_task is not None:
            self._stats_task.cancel()
            try:
                await self._stats_task
            except asyncio.CancelledError:
                pass
            self._stats_task = None
        self.batcher.close()
        self.flight.uninstall()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, exit.

        New connections are refused immediately; requests already being
        served complete and are answered (their connections then close —
        ``Connection: close`` is stamped while draining); only then does
        the batcher shut down.  Idle keep-alive connections are cut last:
        they hold no work.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._idle.wait()
        for w in list(self._writers):
            w.close()
        await self.stop()

    async def serve_forever(self) -> None:
        """Run until cancelled (KeyboardInterrupt-friendly)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()


class _HttpError(Exception):
    """Framing-level failure with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def serve(
    config: ServiceConfig | None = None,
    sock: "socket.socket | None" = None,
    ready: "Any | None" = None,
) -> None:
    """Blocking entry point: run a server until interrupted.

    SIGTERM triggers a graceful drain (stop accepting, finish in-flight
    requests, then exit) — what the prefork supervisor sends its workers
    on shutdown, and what process managers send everywhere else.
    ``sock`` is a pre-bound listener to adopt (supervisor fallback when
    ``SO_REUSEPORT`` is unavailable); ``ready`` is an optional event
    whose ``set()`` is called once the socket is accepting.
    """
    server = ServiceServer(config)

    async def _main() -> None:
        await server.start(sock=sock)
        host, port = server.config.host, server.port
        if ready is not None:
            ready.set()
        if server.config.worker_index is None:
            print(f"repro service listening on http://{host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        term: asyncio.Future[None] = loop.create_future()
        try:
            loop.add_signal_handler(
                signal.SIGTERM, lambda: term.done() or term.set_result(None)
            )
        except (NotImplementedError, RuntimeError):  # non-Unix event loops
            pass
        try:
            # start() already accepts in the background; just park here.
            await term
            await server.drain()
        except asyncio.CancelledError:
            await server.stop()
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """A server on its own thread + event loop (tests and benchmarks).

    Use as a context manager::

        with BackgroundServer(ServiceConfig(port=0)) as srv:
            client = ServiceClient("127.0.0.1", srv.port)
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.server = ServiceServer(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.port: int = -1

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10) or self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error}")
        return self

    def _run(self) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
                self.port = self.server.port
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                await self.server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.server.stop()

        asyncio.run(_main())

    def __exit__(self, *exc_info: object) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(self._cancel_all)
            thread.join(timeout=10)

    def _cancel_all(self) -> None:
        assert self._loop is not None
        for task in asyncio.all_tasks(self._loop):
            task.cancel()
