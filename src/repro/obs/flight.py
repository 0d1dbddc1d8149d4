"""Flight recorder: one record per request, and a ring of recent ones.

Every request the service answers has one :class:`RequestRecord`:
:meth:`FlightRecorder.begin` creates it at ingress (a fresh one even when
a client reuses its ``X-Repro-Trace`` id), ``with record:`` makes it
current (:func:`current_request`) so the batcher jobs the request spawns
add their stage dicts to it, :meth:`RequestRecord.finalize` turns those
into ``server_timing``, and :meth:`FlightRecorder.finish`, called from a
``finally``, moves its summary into the ring served by
``GET /debug/requests`` and ``GET /debug/trace/<id>``.

It is *always on* because every allocation is bounded:

* completed requests live in a ``deque(maxlen=capacity)``;
* span capture is keyed by the trace ids of in-flight records only
  (bounded by server concurrency, with a hard cap as a backstop), at
  most ``max_spans`` spans per request;
* spans are captured through a :func:`repro.obs.trace.add_tap` tap — no
  second tracer, no file I/O, one list append per span.

When tracing is disabled the recorder still captures request summaries
(route, status, latency, timing stages); the ``spans`` lists are simply
empty.  That makes ``/debug/requests`` useful on a production instance
that never turns the JSONL sink on.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from typing import Any

from . import trace as obs_trace

__all__ = ["FlightRecorder", "RequestRecord", "current_request", "span_tree"]


def span_tree(spans: list[dict]) -> list[dict]:
    """Nest flat span records into ``{"span": rec, "children": [...]}``.

    Children attach by ``ctx_parent`` → ``ctx`` resolution (works across
    pids); spans whose parent is absent from ``spans`` become roots —
    the tree is best-effort over whatever was captured.  Siblings sort
    by start time.
    """
    nodes: dict[str, dict] = {
        rec["ctx"]: {"span": rec, "children": []} for rec in spans if rec.get("ctx")
    }
    roots: list[dict] = []
    for rec in spans:
        cid = rec.get("ctx")
        if not cid:
            continue
        parent = rec.get("ctx_parent")
        if parent and parent in nodes and parent != cid:
            nodes[parent]["children"].append(nodes[cid])
        else:
            roots.append(nodes[cid])

    def _sort(children: list[dict]) -> None:
        children.sort(key=lambda n: n["span"].get("start", 0.0))
        for child in children:
            _sort(child["children"])

    _sort(roots)
    return roots


_CURRENT: contextvars.ContextVar["RequestRecord | None"] = contextvars.ContextVar(
    "repro_request", default=None
)


def current_request() -> "RequestRecord | None":
    """The request being served in this context (``None`` outside one)."""
    return _CURRENT.get()


#: What a finished request keeps in the ring, in this order.
_ENTRY_FIELDS = (
    "trace_id", "method", "path", "time", "status", "duration",
    "server_timing", "spans", "spans_dropped",
)


class RequestRecord:
    """One in-flight request: its identity, spans and per-job stages.

    ``jobs`` holds one dict per batcher job the request submitted: stage
    durations (``window``, ``cache_probe``, ``compute``) and the
    ``resolved`` time, in seconds on ``time.monotonic`` (== ``loop.time``).
    """

    __slots__ = (*_ENTRY_FIELDS, "jobs", "_token")

    def __init__(self, trace_id: str, method: str, path: str) -> None:
        self.trace_id = trace_id
        self.method = method
        self.path = path
        self.time = time.time()
        self.status: int | None = None
        self.duration: float | None = None
        self.server_timing: dict[str, float] | None = None
        self.spans: list[dict] = []
        self.spans_dropped = 0
        self.jobs: list[dict[str, float]] = []
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "RequestRecord":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        _CURRENT.reset(self._token)
        return False

    def new_job(self) -> dict[str, float]:
        """Register (and return) a per-job stage record."""
        stages: dict[str, float] = {}
        self.jobs.append(stages)
        return stages

    def finalize(self, parse: float, handle: float, serialize: float) -> dict[str, float]:
        """Set (and return) this request's six-stage ``server_timing``.

        ``parse``/``handle``/``serialize`` are the wall segments the
        server measured around decode, handler await and serialization.
        The handler segment goes to the **critical-path job** (the one
        resolved last: what the response waited for); whatever its
        stages do not explain, such as waiting on a coalesced sibling's
        computation, is ``coalesce_wait``.  So the six stages sum to the
        wall time, up to the framing code between the timestamps.
        """
        window = probe = compute = 0.0
        if self.jobs:
            crit = max(self.jobs, key=lambda j: j.get("resolved", 0.0))
            window = crit.get("window", 0.0)
            probe = crit.get("cache_probe", 0.0)
            compute = crit.get("compute", 0.0)
        measured = window + probe + compute
        if measured > handle > 0.0:
            # Stage intervals can overlap the handler segment's edges
            # (e.g. a batch the job shared kept computing after this
            # request's row resolved); scale rather than report stages
            # that sum past the wall time they are meant to explain.
            scale = handle / measured
            window *= scale
            probe *= scale
            compute *= scale
            measured = handle
        self.server_timing = {
            "parse": parse,
            "coalesce_wait": max(0.0, handle - measured),
            "batch_window": window,
            "cache_probe": probe,
            "compute": compute,
            "serialize": serialize,
        }
        return self.server_timing


class FlightRecorder:
    """Bounded ring of recent requests with their span trees.

    Parameters
    ----------
    capacity:
        Completed requests retained (oldest evicted first).
    max_spans:
        Per-request span cap; excess spans are counted in
        ``spans_dropped`` instead of stored.
    max_pending:
        Hard cap on concurrently tracked in-flight requests — a backstop
        against a caller that ``begin``\\ s without ``finish``\\ ing.
    """

    def __init__(self, capacity: int = 256, max_spans: int = 512, max_pending: int = 1024):
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=int(capacity))
        #: In-flight records by trace id (a reused id has several).
        self._pending: dict[str, list[RequestRecord]] = {}
        self._n_pending = 0
        self._max_spans = int(max_spans)
        self._max_pending = int(max_pending)
        self._installed = False

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> "FlightRecorder":
        """Start capturing spans (idempotent tap registration)."""
        if not self._installed:
            obs_trace.add_tap(self._tap)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Stop capturing spans and drop in-flight state."""
        if self._installed:
            obs_trace.remove_tap(self._tap)
            self._installed = False
        with self._lock:
            self._pending.clear()
            self._n_pending = 0

    # -- request lifecycle (called by the server) ------------------------------

    def begin(self, trace_id: str, method: str, path: str) -> RequestRecord:
        """A fresh in-flight record, capturing spans with its trace id
        until :meth:`finish`."""
        record = RequestRecord(trace_id, method, path)
        with self._lock:
            if self._n_pending >= self._max_pending:
                # Backstop: evict the oldest orphaned record rather than grow.
                self._unregister(next(iter(self._pending.values()))[0])
            self._pending.setdefault(trace_id, []).append(record)
            self._n_pending += 1
        return record

    def finish(self, record: RequestRecord, status: int, duration: float) -> None:
        """Move an in-flight record's summary into the ring (a no-op for
        one already finished or evicted)."""
        with self._lock:
            if not self._unregister(record):
                return
            record.status = int(status)
            record.duration = float(duration)
            self._ring.append({f: getattr(record, f) for f in _ENTRY_FIELDS})

    def _unregister(self, record: RequestRecord) -> bool:
        """Drop ``record`` from the in-flight set; the lock is held."""
        same_id = self._pending.get(record.trace_id, [])
        if record not in same_id:
            return False
        same_id.remove(record)
        if not same_id:
            del self._pending[record.trace_id]
        self._n_pending -= 1
        return True

    # -- span capture ----------------------------------------------------------

    def _tap(self, rec: dict) -> None:
        tid = rec.get("trace_id")
        if not tid:
            return
        with self._lock:
            # Requests sharing a trace id share its spans.
            for record in self._pending.get(tid, ()):
                if len(record.spans) < self._max_spans:
                    record.spans.append(rec)
                else:
                    record.spans_dropped += 1

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def _summary(self, entry: dict) -> dict:
        out = {k: v for k, v in entry.items() if k != "spans"}
        out["spans"] = len(entry["spans"])
        return out

    def requests(self, n: int = 20, slowest: bool = False) -> list[dict[str, Any]]:
        """Summaries of recent requests: last-``n`` (newest first) or the
        ``n`` slowest retained."""
        with self._lock:
            entries = list(self._ring)
        if slowest:
            entries.sort(key=lambda e: e["duration"] or 0.0, reverse=True)
        else:
            entries.reverse()
        return [self._summary(e) for e in entries[: max(0, int(n))]]

    def lookup(self, trace_id: str) -> dict[str, Any] | None:
        """The full retained record for ``trace_id`` — summary fields,
        flat ``spans``, and the nested ``tree`` — or ``None``."""
        with self._lock:
            entry = next((e for e in self._ring if e["trace_id"] == trace_id), None)
            if entry is None:
                return None
            entry = dict(entry)
            entry["spans"] = list(entry["spans"])
        entry["tree"] = span_tree(entry["spans"])
        return entry
