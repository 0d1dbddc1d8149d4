"""Structured tracing: hierarchical spans with JSON-lines export.

The runtime's hot paths (checkpoint commit, NDP drain, restore, the
simulation pool) emit *spans* — named wall-clock intervals with
attributes — through a process-global :class:`Tracer`.  Design goals:

* **Near-zero overhead when disabled.**  :func:`span` returns a shared
  no-op context manager when no tracer is configured; the cost is one
  global read and a branch.  Hot loops are instrumented at rank/chunk
  granularity, never per byte.
* **One schema for real runs and simulations.**  Every record carries
  the five core fields in :data:`SPAN_FIELDS` — the exact schema
  :func:`repro.simulation.trace.spans_to_records` has always produced —
  so a simulator timeline and a live-runtime trace are interchangeable
  inputs to the same tooling (``tools/check_trace.py`` validates both).
* **Thread- and fork-safe export.**  Each record is appended to the
  sink file with a single ``os.write`` on an ``O_APPEND`` descriptor, so
  concurrently-tracing threads (and forked pool workers inheriting the
  descriptor) never interleave partial lines.

Enable globally with the ``REPRO_TRACE`` environment variable (a
JSON-lines output path, read at import time) or programmatically::

    from repro.obs import trace
    tracer = trace.configure("run.jsonl")
    with trace.span("ckpt", "commit", ckpt=3, bytes=1 << 20):
        ...
    trace.disable()
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "SPAN_FIELDS",
    "ENV_VAR",
    "TraceSchemaError",
    "TraceContext",
    "Tracer",
    "SpanHandle",
    "NULL_SPAN",
    "add_tap",
    "remove_tap",
    "configure",
    "current_context",
    "disable",
    "enabled",
    "get_tracer",
    "new_ctx_id",
    "new_trace_id",
    "root_context",
    "run_with_context",
    "span",
    "emit",
    "use_context",
    "validate_record",
    "validate_file",
    "validate_request_trees",
]

#: The core span schema, shared with ``repro.simulation.trace``:
#: ``lane`` (component / timeline row), ``start``/``end`` (seconds on a
#: monotonic clock — wall for real runs, simulated for the simulator),
#: ``kind`` (activity class) and ``label`` (free-form tag).
SPAN_FIELDS = ("lane", "start", "end", "kind", "label")

#: Optional per-record fields (runtime traces add these; simulator
#: timelines usually omit them): name -> required type(s).
#:
#: The request-tree fields carry distributed trace context: ``trace_id``
#: groups every span of one service request, ``ctx`` is the span's
#: globally-unique context id (``"<pid hex>-<span hex>"``, unique even
#: across forked pool workers), ``ctx_parent`` names the parent span's
#: ``ctx`` and ``links`` names additional related spans in *other*
#: request trees (e.g. a batch rider linking the shared compute span
#: it rode).
OPTIONAL_FIELDS: dict[str, tuple[type, ...]] = {
    "attrs": (dict,),
    "span": (int,),
    "parent": (int,),
    "pid": (int,),
    "thread": (str,),
    "trace_id": (str,),
    "ctx": (str,),
    "ctx_parent": (str,),
    "links": (list,),
}

#: Environment variable naming the JSONL sink path; read once at import.
ENV_VAR = "REPRO_TRACE"


class TraceSchemaError(ValueError):
    """A trace record does not conform to the span schema."""


def validate_record(rec: object) -> dict:
    """Check one record against the span schema; returns it on success.

    Raises :class:`TraceSchemaError` naming the offending field.  Both
    the runtime tracer's records and the simulator's
    ``spans_to_records`` output validate.
    """
    if not isinstance(rec, dict):
        raise TraceSchemaError(f"record must be an object, got {type(rec).__name__}")
    for name in SPAN_FIELDS:
        if name not in rec:
            raise TraceSchemaError(f"missing required field {name!r}")
    for name in ("lane", "kind", "label"):
        if not isinstance(rec[name], str):
            raise TraceSchemaError(f"{name!r} must be a string: {rec[name]!r}")
    for name in ("start", "end"):
        if isinstance(rec[name], bool) or not isinstance(rec[name], (int, float)):
            raise TraceSchemaError(f"{name!r} must be a number: {rec[name]!r}")
    if rec["end"] < rec["start"]:
        raise TraceSchemaError(f"end {rec['end']} precedes start {rec['start']}")
    if not rec["kind"]:
        raise TraceSchemaError("'kind' must be non-empty")
    for name, value in rec.items():
        if name in SPAN_FIELDS:
            continue
        types = OPTIONAL_FIELDS.get(name)
        if types is None:
            raise TraceSchemaError(f"unknown field {name!r}")
        if isinstance(value, bool) or not isinstance(value, types):
            raise TraceSchemaError(
                f"{name!r} must be {'/'.join(t.__name__ for t in types)}: {value!r}"
            )
        if name == "links" and not all(isinstance(v, str) and v for v in value):
            raise TraceSchemaError(f"'links' entries must be non-empty strings: {value!r}")
        if name in ("trace_id", "ctx") and not value:
            raise TraceSchemaError(f"{name!r} must be non-empty")
    return rec


def iter_numbered(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, validated record)`` from a JSON-lines trace
    file, skipping blank lines.

    The one trace-file reader.  Raises :class:`TraceSchemaError`
    ``"line N: ..."`` (1-based) on the first malformed line, bad JSON or
    schema violation alike.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = validate_record(json.loads(line))
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"line {lineno}: {exc}") from None
            except ValueError as exc:
                raise TraceSchemaError(f"line {lineno}: invalid JSON: {exc}") from None
            yield lineno, rec


def validate_file(path: str | os.PathLike) -> int:
    """Validate a JSON-lines trace file (see :func:`iter_numbered`);
    returns the record count."""
    return sum(1 for _ in iter_numbered(path))


def validate_request_trees(records: list[dict] | tuple[dict, ...]) -> dict:
    """Validate the distributed request-tree structure of ``records``.

    Over every record carrying request-tree fields, checks that:

    * a ``trace_id`` is present (tree fields without one are orphans);
    * the record carries a ``ctx`` id;
    * ``ctx_parent``, when present, resolves to some span's ``ctx``
      within the *same* trace — resolution is by id, never by emission
      order or pid, so parents recorded in other processes count;
    * every ``links`` entry resolves to a ``ctx`` somewhere in the whole
      record set (links deliberately cross trees: a batch rider names
      the shared compute span living in the batch leader's tree).

    Returns a report dict — ``traces``, ``spans`` (records in trees),
    ``roots`` (spans with no ``ctx_parent``), and ``orphans``: a list of
    ``(index, reason)`` pairs over the input sequence, empty when every
    tree is connected.
    """
    by_trace: dict[str, set[str]] = {}
    all_ctx: set[str] = set()
    for rec in records:
        cid = rec.get("ctx")
        if cid:
            all_ctx.add(cid)
            tid = rec.get("trace_id")
            if tid:
                by_trace.setdefault(tid, set()).add(cid)
    orphans: list[tuple[int, str]] = []
    spans = roots = 0
    for idx, rec in enumerate(records):
        tid = rec.get("trace_id")
        cid = rec.get("ctx")
        parent = rec.get("ctx_parent")
        links = rec.get("links")
        if tid is None and cid is None and parent is None and links is None:
            continue
        if tid is None:
            orphans.append((idx, "request-tree fields present without a 'trace_id'"))
            continue
        if cid is None:
            orphans.append((idx, f"trace {tid}: span carries no 'ctx' id"))
            continue
        spans += 1
        if parent is None:
            roots += 1
        elif parent not in by_trace.get(tid, ()):
            orphans.append(
                (idx, f"trace {tid}: ctx_parent {parent!r} does not resolve in its trace")
            )
        for link in links or ():
            if link not in all_ctx:
                orphans.append((idx, f"link {link!r} does not resolve to any span"))
    return {"traces": len(by_trace), "spans": spans, "roots": roots, "orphans": orphans}


# -- distributed trace context --------------------------------------------------
#
# A request entering the service gets a TraceContext; every span opened
# while it is active (directly, via the ambient contextvar, or via an
# explicit ``ctx=`` hand-off across an executor/process boundary) records
# the request's ``trace_id`` plus ``ctx``/``ctx_parent`` ids, so the
# JSONL trace reconstructs one request tree even when its spans were
# emitted by different threads and processes.


@dataclass(frozen=True)
class TraceContext:
    """One node of a request tree: which trace, and which span within it.

    ``span_id`` is the *owning* span's global context id; the root
    context of a fresh request carries an empty ``span_id`` (spans opened
    under it become tree roots with no ``ctx_parent``).
    """

    trace_id: str
    span_id: str = ""


def new_trace_id() -> str:
    """A fresh 16-hex-char request trace id."""
    return os.urandom(8).hex()


def root_context(trace_id: str | None = None) -> TraceContext:
    """A root :class:`TraceContext` (new trace id unless one is given)."""
    return TraceContext(trace_id or new_trace_id())


#: The ambient trace context.  asyncio tasks inherit it at creation;
#: executor threads and pool workers receive it explicitly via
#: :func:`run_with_context` / the ``ctx=`` span argument.
_CTX: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_ctx", default=None
)


def current_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or ``None`` outside a request."""
    return _CTX.get()


@contextlib.contextmanager
def use_context(ctx: TraceContext | None):
    """Temporarily install ``ctx`` as the ambient trace context."""
    token = _CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CTX.reset(token)


def run_with_context(ctx: TraceContext | None, fn: Callable, *args: Any, **kwargs: Any):
    """Call ``fn`` with ``ctx`` ambient — the executor/worker hand-off.

    ``loop.run_in_executor`` does not propagate contextvars, so the
    event-loop side captures :func:`current_context` and wraps the
    blocking call in this helper.  ``ctx=None`` is a plain call.
    """
    if ctx is None:
        return fn(*args, **kwargs)
    token = _CTX.set(ctx)
    try:
        return fn(*args, **kwargs)
    finally:
        _CTX.reset(token)


class _NullSpan:
    """The shared disabled-tracing span: every operation is a no-op."""

    __slots__ = ()

    #: Mirrors :attr:`SpanHandle.ctx_id` so callers can publish "the
    #: span's context id" without checking whether tracing is on.
    ctx_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        """Attribute updates are dropped (tracing is off)."""
        return self

    def link(self, *ctx_ids: str | None) -> "_NullSpan":
        """Cross-tree links are dropped (tracing is off)."""
        return self

    def context(self) -> TraceContext | None:
        """No context: tracing is off."""
        return None


#: The singleton no-op span returned by :func:`span` while disabled.
NULL_SPAN = _NullSpan()


#: Sentinel distinguishing "no ctx argument" (inherit the ambient
#: request context) from an explicit ``ctx=None`` (opt out of it).
_AMBIENT: Any = object()


class SpanHandle:
    """An open span; a context manager that records on exit.

    Attributes set via :meth:`set` (or the constructor's ``attrs``) land
    in the record's ``attrs`` object.  Parenting has two modes:

    * **No request context** (the original behaviour): nesting is
      tracked per thread — the record's ``parent`` is the span id of
      the innermost enclosing span on the same thread.
    * **Request context active** (ambient via :func:`use_context` /
      :func:`run_with_context`, or passed explicitly as ``ctx=``): the
      span joins the request tree — it records ``trace_id`` / ``ctx`` /
      ``ctx_parent`` and installs itself as the ambient context for its
      dynamic extent so nested spans chain through the contextvar.  The
      thread-local integer stack is deliberately skipped here:
      concurrent requests interleaving on one event-loop thread would
      corrupt a per-thread stack.
    """

    __slots__ = (
        "_tracer", "lane", "kind", "label", "attrs", "span_id", "parent_id",
        "_start", "_ctx", "_token", "trace_id", "ctx_id", "ctx_parent", "_links",
    )

    def __init__(
        self,
        tracer: "Tracer",
        lane: str,
        kind: str,
        label: str,
        attrs: dict,
        ctx: "TraceContext | None | Any" = _AMBIENT,
    ):
        self._tracer = tracer
        self.lane = lane
        self.kind = kind
        self.label = label
        self.attrs = attrs
        self.span_id = tracer._new_id()
        self.parent_id: int | None = None
        self._start = 0.0
        self._ctx = ctx
        self._token: contextvars.Token | None = None
        self.trace_id: str | None = None
        self.ctx_id: str | None = None
        self.ctx_parent: str | None = None
        self._links: list[str] | None = None

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach/overwrite attributes (visible in the emitted record)."""
        self.attrs.update(attrs)
        return self

    def link(self, *ctx_ids: str | None) -> "SpanHandle":
        """Reference spans in *other* request trees by their ``ctx`` id
        (e.g. a batch rider naming the shared compute span it rode).  ``None``/empty entries are ignored so callers can
        pass a possibly-disabled handle's ``ctx_id`` unconditionally.
        """
        for cid in ctx_ids:
            if cid:
                if self._links is None:
                    self._links = []
                if cid not in self._links:
                    self._links.append(cid)
        return self

    def context(self) -> "TraceContext | None":
        """A :class:`TraceContext` naming this span as parent — the
        explicit hand-off across executor/process boundaries.  ``None``
        before ``__enter__`` or when the span has no request context.
        """
        if self.trace_id is None or self.ctx_id is None:
            return None
        return TraceContext(self.trace_id, self.ctx_id)

    def __enter__(self) -> "SpanHandle":
        ctx = self._ctx
        if ctx is _AMBIENT:
            ctx = _CTX.get()
        if ctx is not None:
            self.trace_id = ctx.trace_id
            self.ctx_parent = ctx.span_id or None
            self.ctx_id = f"{os.getpid():x}-{self.span_id:x}"
            self._token = _CTX.set(TraceContext(ctx.trace_id, self.ctx_id))
        else:
            stack = self._tracer._stack()
            self.parent_id = stack[-1] if stack else None
            stack.append(self.span_id)
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = self._tracer.clock()
        if self._token is not None:
            _CTX.reset(self._token)
            self._token = None
        else:
            stack = self._tracer._stack()
            if stack and stack[-1] == self.span_id:
                stack.pop()
        self._tracer._record(
            lane=self.lane,
            start=self._start,
            end=end,
            kind=self.kind,
            label=self.label,
            attrs=self.attrs,
            span=self.span_id,
            parent=self.parent_id,
            trace_id=self.trace_id,
            ctx=self.ctx_id,
            ctx_parent=self.ctx_parent,
            links=self._links,
        )
        return False


class Tracer:
    """Thread-safe span recorder with JSON-lines export.

    Parameters
    ----------
    sink:
        ``None`` keeps records in memory (``records``); a path appends
        one JSON line per record (fork-safe ``O_APPEND`` writes); a
        callable receives each record dict as it completes.
    clock:
        Timestamp source; must be monotonic.  Defaults to
        :func:`time.monotonic` so concurrent spans order consistently
        even across system clock adjustments.
    keep_records:
        Force in-memory retention on/off (default: on only when there
        is no sink, so file-backed long runs don't accumulate RAM).
    """

    def __init__(
        self,
        sink: str | os.PathLike | Callable[[dict], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        keep_records: bool | None = None,
    ):
        self.clock = clock
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next = 0
        self._fd: int | None = None
        self._sink_fn: Callable[[dict], None] | None = None
        self.path: str | None = None
        if callable(sink):
            self._sink_fn = sink
        elif sink is not None:
            self.path = os.fspath(sink)
            self._fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        self.keep_records = (sink is None) if keep_records is None else keep_records
        self.records: list[dict] = []
        self.counts: dict[str, int] = {}

    # -- span API -------------------------------------------------------------

    def span(
        self,
        lane: str,
        kind: str,
        label: str = "",
        *,
        ctx: TraceContext | None | Any = _AMBIENT,
        **attrs: Any,
    ) -> SpanHandle:
        """Open a span; use as a context manager.

        ``ctx`` overrides the ambient request context (``None`` opts the
        span out of it entirely).
        """
        return SpanHandle(self, lane, kind, label, attrs, ctx)

    def emit(
        self,
        lane: str,
        start: float,
        end: float,
        kind: str,
        label: str = "",
        attrs: dict | None = None,
        *,
        ctx: TraceContext | None | Any = _AMBIENT,
        ctx_id: str | None = None,
        links: list[str] | None = None,
    ) -> None:
        """Record a pre-timed interval (e.g. a worker-measured chunk).

        Joins the ambient (or explicitly passed) request context like an
        entered span would.  ``ctx_id`` lets the caller pin a
        pre-allocated context id (:func:`new_ctx_id`) — used when the
        interval's *children* were recorded in worker processes before
        the interval itself is absorbed in the parent.  ``links`` names
        related spans in other request trees.
        """
        if ctx is _AMBIENT:
            ctx = _CTX.get()
        span_id = self._new_id()
        cid = cparent = tid = None
        if ctx is not None:
            tid = ctx.trace_id
            cid = ctx_id or f"{os.getpid():x}-{span_id:x}"
            cparent = ctx.span_id or None
        self._record(
            lane=lane,
            start=start,
            end=end,
            kind=kind,
            label=label,
            attrs=attrs or {},
            span=span_id,
            parent=None,
            trace_id=tid,
            ctx=cid,
            ctx_parent=cparent,
            links=[l for l in links if l] if links else None,
        )

    # -- introspection --------------------------------------------------------

    @property
    def total(self) -> int:
        """Number of records emitted so far."""
        return sum(self.counts.values())

    def summary(self) -> str:
        """One-line human-readable digest of what was recorded."""
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.counts.items()))
        where = self.path or ("callback" if self._sink_fn else "memory")
        return f"{self.total} spans -> {where} ({kinds or 'none'})"

    def close(self) -> None:
        """Release the file descriptor (idempotent)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # -- internals ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _record(
        self,
        lane: str,
        start: float,
        end: float,
        kind: str,
        label: str,
        attrs: dict,
        span: int,
        parent: int | None,
        trace_id: str | None = None,
        ctx: str | None = None,
        ctx_parent: str | None = None,
        links: list[str] | None = None,
    ) -> None:
        rec: dict[str, Any] = {
            "lane": lane,
            "start": start,
            "end": max(end, start),
            "kind": kind,
            "label": label,
            "span": span,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
        }
        if parent is not None:
            rec["parent"] = parent
        if trace_id is not None:
            rec["trace_id"] = trace_id
        if ctx is not None:
            rec["ctx"] = ctx
        if ctx_parent is not None:
            rec["ctx_parent"] = ctx_parent
        if links:
            rec["links"] = list(links)
        if attrs:
            rec["attrs"] = attrs
        with self._lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1
            if self.keep_records:
                self.records.append(rec)
            fd = self._fd
        if fd is not None:
            line = json.dumps(rec, separators=(",", ":"), default=str) + "\n"
            os.write(fd, line.encode("utf-8"))
        if self._sink_fn is not None:
            self._sink_fn(rec)
        if _TAPS:
            for tap in list(_TAPS):
                try:
                    tap(rec)
                except Exception:
                    pass


# -- record taps ---------------------------------------------------------------

#: Registered record taps: callables invoked with every completed record
#: (after the sink write).  The flight recorder uses one to capture
#: request spans without a second tracer.  Module-global so
#: :func:`configure` can swap tracers without losing taps.
_TAPS: list[Callable[[dict], None]] = []


def add_tap(fn: Callable[[dict], None]) -> Callable[[dict], None]:
    """Register ``fn`` to receive every completed record (idempotent).

    Tap exceptions are swallowed: observability must never take down the
    traced code path.
    """
    if fn not in _TAPS:
        _TAPS.append(fn)
    return fn


def remove_tap(fn: Callable[[dict], None]) -> None:
    """Unregister a tap previously added with :func:`add_tap`."""
    with contextlib.suppress(ValueError):
        _TAPS.remove(fn)


# -- the process-global tracer ------------------------------------------------

_global: Tracer | None = None
_global_lock = threading.Lock()


def configure(
    sink: str | os.PathLike | Callable[[dict], None] | None = None,
    keep_records: bool | None = None,
) -> Tracer:
    """Install (and return) the process-global tracer.

    Replaces any previously configured tracer, closing its file sink.
    """
    global _global
    tracer = Tracer(sink, keep_records=keep_records)
    with _global_lock:
        old, _global = _global, tracer
    if old is not None:
        old.close()
    return tracer


def disable() -> None:
    """Tear down the global tracer; :func:`span` reverts to no-ops."""
    global _global
    with _global_lock:
        old, _global = _global, None
    if old is not None:
        old.close()


def enabled() -> bool:
    """Whether a global tracer is installed."""
    return _global is not None


def get_tracer() -> Tracer | None:
    """The global tracer, or ``None`` when tracing is disabled."""
    return _global


def span(
    lane: str,
    kind: str,
    label: str = "",
    *,
    ctx: TraceContext | None | Any = _AMBIENT,
    **attrs: Any,
):
    """A span on the global tracer, or the shared no-op when disabled.

    This is the function instrumented code calls; keep its disabled path
    on the hot-loop budget: one global read, one branch.
    """
    tracer = _global
    if tracer is None:
        return NULL_SPAN
    return tracer.span(lane, kind, label, ctx=ctx, **attrs)


def emit(
    lane: str,
    start: float,
    end: float,
    kind: str,
    label: str = "",
    attrs: dict | None = None,
    *,
    ctx: TraceContext | None | Any = _AMBIENT,
    ctx_id: str | None = None,
    links: list[str] | None = None,
) -> None:
    """Record a pre-timed interval on the global tracer (no-op if off)."""
    tracer = _global
    if tracer is not None:
        tracer.emit(lane, start, end, kind, label, attrs, ctx=ctx, ctx_id=ctx_id, links=links)


def new_ctx_id() -> str | None:
    """Pre-allocate a request-tree context id (``None`` when disabled).

    Used for intervals recorded *after* their children: the pool
    allocates a chunk's ctx id before dispatch so worker-side spans can
    name it as parent, then pins it on the chunk's :func:`emit`.
    """
    tracer = _global
    if tracer is None:
        return None
    return f"{os.getpid():x}-{tracer._new_id():x}"


def iter_file(path: str | os.PathLike) -> Iterator[dict]:
    """Yield validated records from a JSON-lines trace file (see
    :func:`iter_numbered`)."""
    for _, rec in iter_numbered(path):
        yield rec


# Honour REPRO_TRACE at import: any process that touches the obs layer
# (including forked/spawned pool workers) starts exporting immediately.
_env_path = os.environ.get(ENV_VAR)
if _env_path:
    configure(_env_path)
del _env_path
