"""Asyncio HTTP/JSON server for the capacity-planning service.

Routes, stats and lifecycle over ``asyncio.start_server``, with
persistent connections (keep-alive matters: the closed-loop load
generator reuses sockets, and per-request TCP setup would dominate at
millisecond service times).  The HTTP/1.1 framing — parsing, response
rendering, chunked streaming and the exception-to-status mapping — is
:mod:`~repro.service.http`.

Endpoints (see ``docs/SERVICE.md`` for the full schema):

* ``POST /v1/simulate`` — one scenario; attached to an identical
  pending config, micro-batched with concurrent ones.
* ``POST /v1/sweep`` — a list of cells x a seed axis; every row rides
  the same batcher, so concurrent sweeps fuse with each other and with
  single simulates.
* ``POST /v1/optimize`` — optimal host ratio via the process-wide
  memoized model (``core.optimizer._MEMO``), which is its dedup layer.
* ``GET /metrics`` — the process-global metrics registry in Prometheus
  text format; ``GET /healthz`` — liveness; ``GET /stats`` — service
  counters as JSON (what the benchmark reads).

Each distinct ``/v1/simulate`` body is parsed and hashed once per
server: a bounded memo maps its exact bytes to ``(qos, config, key)``.
Every sweep row is hashed once.  Every simulate row takes one path:
protocol -> batcher (which answers cache hits at submit, attaches a
duplicate to the pending job of its key, and queues, dispatches and
writes back only the remaining misses) ->
:func:`~repro.simulation.pool.run_simulations` with no cache ->
``simulate_batch``.

Every request has one :class:`~repro.obs.flight.RequestRecord`, opened
at ingress, current for the request's extent, and finished in a
``finally`` whatever the outcome (a client that resets mid-response is
recorded as 499).  The batcher writes each job's stages onto it, and the
record turns them into the ``server_timing`` breakdown.

Shared state is the point: one :class:`~repro.simulation.pool.ResultCache`,
one optimizer memo, one metrics registry across every client.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncGenerator, Sequence
from urllib.parse import parse_qs

from ..core.optimizer import optimal_host
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.flight import FlightRecorder, RequestRecord
from ..obs.slo import SLOTarget, SLOTracker
from ..simulation.pool import MEMO_ENTRIES, ResultCache, config_key, run_simulations
from ..simulation.simulator import SimConfig
from ..simulation.stats import SimulationResult, cell_stats
from .batcher import Batcher, StageRecord
from .http import (
    CLIENT_CLOSED,
    MAX_HEADER_BYTES,
    HttpError,
    StreamBody,
    clean_trace_id,
    error_status,
    head,
    read_request,
    write_stream,
)
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

_REQUESTS = obs_metrics.REGISTRY.counter(
    "service_requests_total", "HTTP requests served, by endpoint and status"
)
_REQUEST_SECONDS = obs_metrics.REGISTRY.histogram(
    "service_request_seconds", "request wall time, by endpoint"
)
#: Load-control statuses, by the SLO rejection kind that caused them.
_LOAD_CONTROL = {503: "shed", 504: "expired"}
#: Largest simulate body the per-server parse memo stores; a bigger one
#: is parsed on every request.  It holds a body that sets every scalar
#: field and QoS key at full float precision (about 750 bytes); only a
#: long ``failure_times`` list goes over.  With ``MEMO_ENTRIES`` entries
#: this bounds the memo's memory (``docs/SERVICE.md`` states the figure).
MEMO_BODY_BYTES = 1024


def _json_body(body: bytes) -> Any:
    """A request body as JSON (an empty body is ``{}``); 400 if it is not,
    or if it nests deeper than the decoder's recursion limit."""
    try:
        return json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc


def parse_simulate(body: bytes) -> tuple[QoS, SimConfig, str]:
    """A raw ``/v1/simulate`` body -> ``(qos, config, config_key)``.

    The one parse chain for a simulate request; :class:`ServiceServer`
    runs it once per distinct body and memoizes the answer.
    """
    qos, rest = qos_from_json(_json_body(body))
    cfg = config_from_json(rest)
    return qos, cfg, config_key(cfg)


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
        Deduplicate identical pending simulate rows in the batcher.
        Off, every duplicate computes independently (the naive
        baseline).
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


class ServiceServer:
    """One service instance: shared state + the asyncio protocol loop."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = self.config.cache
        #: Per-server memo of :func:`parse_simulate`, keyed by the exact
        #: body bytes.  A failed parse raises and is never stored.
        self._parse_memo = functools.lru_cache(maxsize=MEMO_ENTRIES)(parse_simulate)
        #: ``/v1/*`` path -> (body parser, async handler of its result).
        self._routes = {
            "/v1/simulate": (self._parse_simulate, self._handle_simulate),
            "/v1/sweep": (_json_body, self._handle_sweep),
            "/v1/optimize": (_json_body, self._handle_optimize),
        }
        self.batcher = Batcher(
            self._run_batch,
            window=self.config.batch_window,
            max_batch=self.config.max_batch,
            max_inflight=self.config.max_inflight,
            cache=self.cache,
            coalesce=self.config.coalesce,
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
        if self.config.stats_dir is not None:
            # The supervisor's crash accounting, read from its
            # ``supervisor.json`` at scrape time (0 before any crash).
            obs_metrics.REGISTRY.gauge(
                "repro_supervisor_restarts", "worker respawns by the prefork supervisor"
            ).set_function(lambda: self._supervisor_state().get("restarts", 0))
            obs_metrics.REGISTRY.gauge(
                "repro_supervisor_gave_up",
                "worker slots the prefork supervisor stopped respawning",
            ).set_function(lambda: len(self._supervisor_state().get("gave_up", ())))

    # -- the blocking batch runner (executor thread) -------------------------

    def _run_batch(self, configs: list[SimConfig]) -> Sequence[SimulationResult]:
        """Run one fused batch of cache misses through the pool runtime.

        ``run_simulations`` gives each pool worker one chunk and runs it
        as one ``simulate_batch`` call, so at the default ``jobs=1`` the
        whole batch is one fused pass.  It gets no cache: the batcher
        already probed every row and writes the results back itself.
        """
        return run_simulations(configs, jobs=self.config.jobs)

    # -- request execution ----------------------------------------------------

    def _parse_simulate(self, body: bytes) -> tuple[QoS, SimConfig, str]:
        """:func:`parse_simulate` through the memo, for bodies it may hold."""
        if len(body) > MEMO_BODY_BYTES:
            return parse_simulate(body)
        return self._parse_memo(body)

    async def _simulate(
        self, cfg: SimConfig, qos: QoS | None = None
    ) -> SimulationResult:
        # One hash per row serves the probe, the dedup and the write-back.
        return await self.batcher.submit(cfg, qos, config_key(cfg))

    async def _handle_simulate(self, request: tuple[QoS, SimConfig, str]) -> dict:
        qos, cfg, key = request
        result = await self.batcher.submit(cfg, qos, key)
        return {"result": result_to_json(result)}

    @staticmethod
    def _cell_payload(per_seed: Sequence[SimulationResult], detail: bool) -> dict:
        """One sweep cell's aggregates — shared by the buffered and the
        streaming path, so a streamed cell is byte-identical to its
        buffered counterpart by construction.  ``cell_stats`` makes the
        mean and half-width the bits of the same ``simulate_grid`` cell."""
        effs = [r.efficiency for r in per_seed]
        mean, ci = cell_stats(effs)
        cell: dict[str, Any] = {
            "mean_efficiency": float(mean),
            "ci95": float(ci),
            "efficiencies": effs,
        }
        if detail:
            cell["results"] = [result_to_json(r) for r in per_seed]
        return cell

    async def _handle_sweep(self, body: Any) -> "dict | StreamBody":
        qos, body = qos_from_json(body)
        rows, n_cells, n_seeds = sweep_rows_from_json(body)
        detail = body.get("detail", False)
        if body.get("stream", False):
            return StreamBody(
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
    ) -> AsyncGenerator[bytes, None]:
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
        loop = asyncio.get_running_loop()
        job = StageRecord()
        t0 = loop.time()

        def _blocking():
            # The memoized model (core.optimizer._MEMO) is process-wide:
            # every request warms it for every later request.  The
            # request context is handed across the executor boundary
            # explicitly (run_in_executor does not copy contextvars).
            with obs_trace.use_context(job.ctx):
                with obs_trace.span("optimizer", "compute", label=accounting):
                    return optimal_host(params, compression, accounting)

        result = await loop.run_in_executor(None, _blocking)
        # Its real span is the executor-side one above.
        job.stage("compute", t0, loop.time(), resolved=True, span=False)
        return {"optimal": model_result_to_json(result)}

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
                "primary": stats.primary,
                "coalesced": stats.coalesced,
                "inflight": self.batcher.inflight,
            },
            "batch": {
                "submitted": stats.submitted,
                "batches": {"fast": stats.batches},
                "batched_jobs": {"fast": stats.batched_jobs},
                "mean_fast_batch": stats.mean_batch_size(),
                "max_batch_seen": stats.max_batch_seen,
                "cache_hits": getattr(self.cache, "hits", 0),
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
        supervisor = self._supervisor_state()
        if supervisor:
            out["supervisor"] = supervisor
        return out

    def _supervisor_state(self) -> dict:
        """The supervisor's last ``supervisor.json`` (``restarts`` and the
        ``gave_up`` slots), or ``{}`` before its first crash."""
        try:
            return json.loads(
                (Path(self.config.stats_dir) / "supervisor.json").read_text())
        except (OSError, json.JSONDecodeError):
            return {}  # no crash yet: the supervisor has published nothing

    # -- routes ----------------------------------------------------------------

    def _handle_debug(self, path: str, query: str) -> tuple[int, dict]:
        """The flight-recorder endpoints (always on, allocation-bounded)."""
        if path == "/debug/requests":
            params = parse_qs(query)
            try:
                n = int(params.get("n", ["20"])[0])
            except ValueError:
                return 400, {"error": "n must be an integer"}
            slowest = params.get("sort", [""])[0] == "slowest"
            return 200, {"requests": self.flight.requests(n, slowest=slowest)}
        if path.startswith("/debug/trace/"):
            trace_id = path[len("/debug/trace/") :]
            found = self.flight.lookup(trace_id)
            if found is None:
                return 404, {"error": f"no retained trace {trace_id!r}"}
            return 200, found
        return 404, {"error": f"no such endpoint: {path}"}

    async def _dispatch(
        self, record: RequestRecord, method: str, path: str, body: bytes,
        want_timing: bool = False,
    ) -> tuple[int, "bytes | StreamBody", str, dict[str, str]]:
        """Route one request.

        Returns ``(status, body, content type, extra headers)``.  ``body``
        is rendered bytes, or a :class:`~repro.service.http.StreamBody`
        whose NDJSON lines the connection loop writes chunked.  A
        successful ``/v1/*`` request gets its six-stage ``server_timing``
        on ``record`` (embedded in the response only when the client
        asked via ``X-Repro-Timing``); its ``parse`` stage is the route's
        body parser, which for a simulate is the memo lookup.  Extra
        headers carry ``Retry-After`` on admission-control 503s.
        """
        def _json(status: int, obj: Any, extra: dict | None = None) -> tuple:
            return status, canonical_dumps(obj), "application/json", extra or {}

        def _err(status: int, message: str, extra: dict | None = None) -> tuple:
            return _json(status, {"error": message}, extra)

        path, _, query = path.partition("?")
        if path in ("/healthz", "/metrics", "/stats") or path.startswith("/debug/"):
            if method != "GET":
                return _err(405, "GET only")
            if path == "/metrics":
                text = obs_metrics.REGISTRY.render_prometheus()
                return 200, text.encode("utf-8"), "text/plain; version=0.0.4", {}
            if path == "/healthz":
                return _json(200, {"status": "ok"})
            if path == "/stats":
                return _json(200, self._stats_payload())
            return _json(*self._handle_debug(path, query))

        route = self._routes.get(path)
        if route is None:
            return _err(404, f"no such endpoint: {path}")
        if method != "POST":
            return _err(405, "POST only")
        parse, handler = route
        p0 = time.monotonic()
        try:
            request = parse(body)
            p1 = time.monotonic()
            out = await handler(request)
        except Exception as exc:  # computation failure must not kill the server
            status, extra = error_status(exc)
            return _err(status, f"{type(exc).__name__}: {exc}" if status == 500 else str(exc), extra)
        p2 = time.monotonic()
        if isinstance(out, StreamBody):
            # Serialization happens per line on the wire; the handler
            # segment here only covers submitting the rows.
            record.finalize(parse=p1 - p0, handle=p2 - p1, serialize=0.0)
            return 200, out, out.content_type, {}
        rendered = canonical_dumps(out)
        stages = record.finalize(parse=p1 - p0, handle=p2 - p1, serialize=time.monotonic() - p2)
        if want_timing:
            # Opt-in only: the default response must stay byte-identical
            # to serial evaluation (the service's determinism contract).
            return _json(200, {**out, "server_timing": stages})
        return 200, rendered, "application/json", {}

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    req = await read_request(reader)
                except HttpError as exc:
                    err = canonical_dumps({"error": exc.message})
                    writer.write(head(exc.status, len(err), keep_alive=False) + err)
                    await writer.drain()
                    return
                if req is None:
                    return
                self._inflight_requests += 1
                self._idle.clear()
                try:
                    keep = await self._serve(writer, *req)
                finally:
                    self._inflight_requests -= 1
                    if self._inflight_requests == 0:
                        self._idle.set()
                if not keep:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
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

    async def _serve(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
    ) -> bool:
        """Answer one request on ``writer``; returns whether to keep the
        connection alive.

        The request's one :class:`~repro.obs.flight.RequestRecord` is
        opened here and finished in the ``finally``, so every request is
        counted, timed and recorded however it ends: a client that
        resets the connection before its response is out is recorded as
        :data:`~repro.service.http.CLIENT_CLOSED` (499).
        """
        route = path.partition("?")[0]
        endpoint = route if route.startswith("/v1/") or route in (
            "/metrics", "/healthz", "/stats"
        ) else "other"
        # Request ingress: honor the client's X-Repro-Trace id or mint
        # one; every span below joins this request's tree.
        trace_id = clean_trace_id(headers.get("x-repro-trace")) or obs_trace.new_trace_id()
        keep = headers.get("connection", "keep-alive").lower() != "close"
        if self._draining:
            keep = False  # finish what is in flight, invite no more
        record = self.flight.begin(trace_id, method, route)
        status = CLIENT_CLOSED  # until a response is handed to the socket
        t0 = time.monotonic()
        try:
            with record, obs_trace.span(
                "server",
                "request",
                label=route,
                ctx=obs_trace.TraceContext(trace_id),
                method=method,
            ) as sp:
                answer, payload, ctype, extra = await self._dispatch(
                    record, method, path, body, "x-repro-timing" in headers
                )
                if isinstance(payload, StreamBody):
                    # The streamed request's wall time includes the full
                    # body: the last cell is part of serving it.
                    answer, keep = await write_stream(
                        writer, payload, keep_alive=keep, trace_id=trace_id
                    )
                status = answer
                sp.set(status=status)
        finally:
            wall = time.monotonic() - t0
            _REQUEST_SECONDS.observe(
                wall,
                exemplar=trace_id if obs_trace.enabled() else None,
                endpoint=endpoint,
            )
            _REQUESTS.inc(endpoint=endpoint, status=str(status))
            if route.startswith("/v1/"):
                v1_route = route[len("/v1/") :]
                if status in _LOAD_CONTROL:
                    self.slo.note(v1_route, _LOAD_CONTROL[status])
                self.slo.record(v1_route, wall, ok=status < 500)
            self.flight.finish(record, status, wall)
            self.requests += 1
        if not isinstance(payload, StreamBody):
            writer.write(
                head(status, len(payload), content_type=ctype, keep_alive=keep,
                     trace_id=trace_id, extra=extra) + payload
            )
            await writer.drain()
        return keep

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
                self._handle_conn, sock=sock, limit=MAX_HEADER_BYTES
            )
        else:
            kwargs: dict[str, Any] = {}
            if self.config.reuse_port:
                kwargs["reuse_port"] = True
            self._server = await asyncio.start_server(
                self._handle_conn,
                self.config.host,
                self.config.port,
                limit=MAX_HEADER_BYTES,
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
