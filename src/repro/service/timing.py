"""Per-request latency attribution for the service path.

A request's wall time decomposes into six stages:

``parse``
    JSON decode + request validation (config parsing).
``coalesce_wait``
    Time spent attached to another request's in-flight computation (a
    coalesced duplicate's dominant stage) — computed as the *residual*
    of the handler await not covered by the measured stages below.
``batch_window``
    Queue time in the micro-batcher: enqueue until the dispatch actually
    starts (bounded-delay window + any wait behind ``max_inflight``).
``cache_probe``
    The batcher's one ``get_many`` sweep against the shared result cache.
``compute``
    The engine dispatch (``run_simulations`` / ``optimal_host``) for the
    batch the request's critical-path job rode, including the batcher's
    cache write-back.
``serialize``
    ``canonical_dumps`` of the response payload.

The server activates a :class:`RequestTiming` in a ``contextvars``
context before dispatching; batcher jobs created anywhere below (asyncio
tasks copy the context at creation) register per-job records and fill in
their measured stage durations.  At response time
:meth:`RequestTiming.finalize` picks the **critical-path job** — the one
that resolved last; it is what the response actually waited for — and
reconciles: measured stages are scaled down if they exceed the handler
await (overlap can otherwise double-count), and the unexplained
remainder becomes ``coalesce_wait``.  By construction
``parse + coalesce_wait + batch_window + cache_probe + compute +
serialize`` equals the measured wall time up to the few microseconds of
framing code between the timestamps (the acceptance gate asserts 5%).

All times are seconds on ``time.monotonic`` (== ``loop.time``).
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

__all__ = ["RequestTiming", "STAGES", "activate", "current", "job_record"]

#: Stage keys, in report order.
STAGES = (
    "parse",
    "coalesce_wait",
    "batch_window",
    "cache_probe",
    "compute",
    "serialize",
)

_REQ: contextvars.ContextVar["RequestTiming | None"] = contextvars.ContextVar(
    "repro_request_timing", default=None
)


class RequestTiming:
    """Mutable per-request stage accumulator.

    ``jobs`` holds one dict per batcher job the request spawned, with
    keys ``enqueued``/``window``/``probe``/``compute``/``resolved``
    filled in by the batcher as the job moves through its pipeline.  All
    writes happen on the event loop thread; no lock is needed.
    """

    __slots__ = ("jobs",)

    def __init__(self) -> None:
        self.jobs: list[dict[str, float]] = []

    def new_job(self) -> dict[str, float]:
        """Register (and return) a per-job stage record."""
        rec: dict[str, float] = {}
        self.jobs.append(rec)
        return rec

    def finalize(self, parse: float, handle: float, serialize: float) -> dict[str, float]:
        """The six-stage breakdown for this request.

        ``parse``/``handle``/``serialize`` are the contiguous wall
        segments the server measured around decode, handler await, and
        response serialization.  The handler segment is attributed to the
        critical-path job's measured stages; whatever it does not explain
        — waiting on a coalesced sibling's computation, event-loop
        scheduling — is ``coalesce_wait``.
        """
        window = probe = compute = 0.0
        if self.jobs:
            crit = max(self.jobs, key=lambda j: j.get("resolved", 0.0))
            window = crit.get("window", 0.0)
            probe = crit.get("probe", 0.0)
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
        return {
            "parse": parse,
            "coalesce_wait": max(0.0, handle - measured),
            "batch_window": window,
            "cache_probe": probe,
            "compute": compute,
            "serialize": serialize,
        }


@contextlib.contextmanager
def activate() -> Iterator[RequestTiming]:
    """Install a fresh :class:`RequestTiming` for the current context."""
    rt = RequestTiming()
    token = _REQ.set(rt)
    try:
        yield rt
    finally:
        _REQ.reset(token)


def current() -> RequestTiming | None:
    """The active request's timing accumulator, if any."""
    return _REQ.get()


def job_record() -> dict[str, float] | None:
    """Register a per-job record on the active request (or ``None``)."""
    rt = _REQ.get()
    return rt.new_job() if rt is not None else None
