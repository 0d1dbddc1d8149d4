"""Bounded-delay micro-batching of simulate requests.

The fast engine's throughput comes from batch size: one
:func:`~repro.simulation.fastpath.simulate_batch` call over N compatible
configs costs far less than N single-config calls (shared stream
seeding, one vectorized driver loop).  A service receiving many small
independent requests recreates exactly the workload shape that wastes
it — unless requests are fused.

:class:`Batcher` implements continuous micro-batching: cache misses
queue up; a drain task sleeps for a bounded ``window`` (the latency
price of batching, default a few milliseconds), then drains up to
``max_batch`` jobs and dispatches them to a thread-pool executor running
the blocking batch runner (:func:`~repro.simulation.pool.run_simulations`,
which gives each pool worker one chunk and runs it as one
``simulate_batch`` pass: at the default ``jobs=1`` the whole batch is
one pass).  While a dispatch computes, new arrivals accumulate into the
next batch — the same continuous-batching discipline VELOC's engine
queue applies to checkpoint flushes.

The batcher owns the result cache on the service path: ``submit`` probes
it once per row, on the event loop, and answers a hit at once, so only
misses pay the window, admission control and the executor hop.  Each
dispatch writes its misses back with one ``put_many`` in the same
executor call; the runner itself never sees the cache.

It is also the service's single-flight: with ``coalesce`` on, a miss
whose key is already pending (queued or computing) attaches to that
job's future instead of queueing a second computation, so every waiter
receives the *same* result object.  Waiters await a *shielded* view of
the future, so a client disconnecting cancels only its own wait.  Keys
are :func:`~repro.simulation.pool.config_key` hashes, so "identical"
means identical in the exact sense the result cache uses.  The pending
map is per worker process: under prefork serving the shared on-disk
cache is the cross-worker dedup layer.

Attribution: every stage of a job (``cache_probe``, which also resolves
a hit, ``window``, ``compute`` or ``expired``, or a coalesced
duplicate's ``wait``, linked to the request whose job it attached to)
is written once, by
:meth:`StageRecord.stage`: onto the submitting request's flight record,
where ``server_timing`` is computed from, and as a ``batcher`` span when
the job is traced.  Only the batch leader's ``compute`` span is opened
in the executor instead, so the pool chunks nest below it.

Determinism is the invariant the tests pin: batch composition never
changes results — every config owns its seed's RNG streams, so a fused
response is bit-identical to a serial one.

Scheduling: the queue is not FIFO.  Each drained window
sorts by **earliest deadline first within priority class** (with aging,
so a low-priority job waiting long enough eventually outranks fresh
high-priority arrivals and can never starve), jobs whose deadline has
already passed are answered with a fast :class:`DeadlineExceeded` —
they never touch the runner — and an **admission controller** rejects
new work with :class:`Overloaded` (HTTP 503 + ``Retry-After``) once the
queue's estimated drain time exceeds a configurable budget.  Overload
then degrades into a bounded queue with explicit backpressure instead
of a collapsing tail.
"""

from __future__ import annotations

import asyncio
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.flight import current_request
from ..simulation.pool import ResultCache, config_key
from ..simulation.simulator import SimConfig
from ..simulation.stats import SimulationResult
from .protocol import QoS

__all__ = ["Batcher", "BatchStats", "DeadlineExceeded", "Overloaded", "StageRecord"]


class DeadlineExceeded(Exception):
    """The request's deadline expired before its batch dispatched.

    The scheduler answers these *without* computing: the client has
    already given up, so burning engine time on the result only delays
    every request still inside its deadline.  Maps to HTTP 504.
    """


class Overloaded(Exception):
    """Admission refused: the queue cannot drain within its budget.

    ``retry_after`` is the estimated seconds until the backlog clears —
    the server forwards it as the HTTP 503 ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after

_BATCH_SECONDS = obs_metrics.REGISTRY.histogram(
    "service_batch_seconds", "wall seconds per dispatched batch"
)


@dataclass
class BatchStats:
    """The batcher's event counts: each is the one count of its event.

    Every field is updated in place on the event-loop thread, with no
    lock, and ``/stats`` and ``/metrics`` both read these fields
    (``/metrics`` at scrape time, through callbacks bound in
    :class:`Batcher`).  Cache hits are not counted here: the cache's
    own ``hits`` is that count.
    """

    #: Every row is exactly one of these: ``coalesced`` attached to a
    #: pending job of the same key, ``primary`` did not (hits, queued
    #: misses and shed rows).
    primary: int = 0
    coalesced: int = 0
    batches: int = 0
    batched_jobs: int = 0
    max_batch_seen: int = 0
    shed: int = 0
    expired: int = 0

    @property
    def submitted(self) -> int:
        """Rows accepted: cache hits plus queued misses.  A shed row is
        primary but never accepted; a coalesced duplicate is neither."""
        return self.primary - self.shed

    def mean_batch_size(self) -> float:
        """Mean jobs per dispatched batch (0.0 if none)."""
        return self.batched_jobs / self.batches if self.batches else 0.0


class StageRecord:
    """Where one job's time went, written once per stage: onto the
    submitting request's flight record and, when traced, as a span."""

    __slots__ = ("ctx", "times")

    def __init__(self) -> None:
        #: The submitting request's innermost open span (``None`` when
        #: untraced): the job's spans hang off it.
        self.ctx = obs_trace.current_context()
        request = current_request()
        self.times = request.new_job() if request is not None else None

    def stage(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        resolved: bool = False,
        span: bool = True,
        **span_fields: object,
    ) -> None:
        """Record stage ``name`` over ``[t0, t1]`` on the loop clock;
        ``resolved`` marks ``t1`` as when the job was answered.
        ``span=False`` is for a stage whose real span is opened elsewhere."""
        if self.times is not None:
            self.times[name] = t1 - t0
            if resolved:
                self.times["resolved"] = t1
        if span and self.ctx is not None and obs_trace.enabled():
            obs_trace.emit("batcher", t0, t1, name, ctx=self.ctx, **span_fields)


@dataclass
class _Job:
    config: SimConfig
    key: str | None  # None without a cache or coalescing
    future: asyncio.Future
    stages: StageRecord
    #: Enqueue time on the loop clock (filled at submit).
    enqueued: float = 0.0
    #: Absolute deadline on the loop clock (``inf`` = no deadline).
    deadline: float = math.inf
    #: Priority class (lower = more urgent).
    priority: int = 0
    #: Submission sequence number: the tiebreak that keeps scheduling
    #: deterministic (and FIFO among equals).
    seq: int = 0

    def sort_key(self, now: float, aging: float) -> tuple[float, float, int]:
        """EDF within (aged) priority class.

        A job's effective class improves by one for every ``aging``
        seconds it has waited, so the low class is starvation-free: any
        job eventually ages into class 0 and dispatches ahead of fresh
        arrivals no matter how hot the high classes run.
        """
        waited = max(0.0, now - self.enqueued)
        effective = self.priority - int(waited / aging)
        return (effective, self.deadline, self.seq)


class Batcher:
    """Queue + drain loop fusing submissions into batched runner calls.

    Parameters
    ----------
    runner:
        Blocking ``configs -> results`` callable (order-preserving), run
        on the executor.  The server passes
        :func:`~repro.simulation.pool.run_simulations` without a cache:
        the batcher already probed and will write back every row.
    window:
        Bounded batching delay in seconds: the drain task sleeps this
        long after waking so concurrent arrivals can join the batch.
        ``0`` still yields to the event loop once, so requests that are
        *already* queued fuse, but nothing waits for stragglers.
    max_batch:
        Jobs per dispatch, the fusion cap.  ``1`` disables fusion
        entirely (the benchmark's naive baseline).
    max_inflight:
        Concurrent dispatches (executor threads).  While one batch
        computes, the next accumulates — keep >= 2 so the queue never
        idles behind a running batch.
    cache:
        Optional shared :class:`~repro.simulation.pool.ResultCache`
        that :meth:`submit` probes and each dispatch writes back (see
        above); responses are byte-identical with or without it.
    coalesce:
        Attach a miss to the pending job of the same key instead of
        computing it again.  Off, every duplicate computes independently
        (the benchmark's naive baseline).
    queue_budget:
        Admission-control budget in seconds, or ``None`` (default) for
        unbounded queueing.  When set, a submission is rejected with
        :class:`Overloaded` once the queue's estimated drain time —
        queued batches ahead x the EWMA observed per-batch service time
        — exceeds the budget.  Accepted requests then keep a bounded
        queue delay under any offered load; the excess gets an explicit
        503 + ``Retry-After`` instead of an unbounded tail.
    aging:
        Seconds of waiting that promote a queued job by one priority
        class (starvation control).  Must be > 0.
    """

    def __init__(
        self,
        runner: Callable[[list[SimConfig]], Sequence[SimulationResult]],
        *,
        window: float = 0.002,
        max_batch: int = 256,
        max_inflight: int = 2,
        cache: ResultCache | None = None,
        coalesce: bool = True,
        queue_budget: float | None = None,
        aging: float = 1.0,
    ) -> None:
        if window < 0:
            raise ValueError(f"window must be >= 0: {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight}")
        if queue_budget is not None and queue_budget <= 0:
            raise ValueError(f"queue_budget must be > 0: {queue_budget}")
        if aging <= 0:
            raise ValueError(f"aging must be > 0: {aging}")
        self._runner = runner
        self.cache = cache
        self.coalesce = coalesce
        self.window = window
        self.max_batch = max_batch
        self.queue_budget = queue_budget
        self.aging = aging
        self.stats = BatchStats()
        self._queue: list[_Job] = []
        #: key -> the job computing it, until its future resolves.
        self._pending: dict[str, _Job] = {}
        self._seq = 0
        #: EWMA of observed per-batch service seconds (None until the
        #: first batch completes; admission never sheds blind).
        self._batch_ewma: float | None = None
        self._drainer: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._sem = asyncio.Semaphore(max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-batch"
        )
        self._closed = False
        # /metrics reads this batcher's own counts when it is scraped.
        # The registry is process-wide, so the series follow the batcher
        # constructed last (a server process holds one).
        stats = self.stats
        for name, help, read in (
            ("service_batches_total", "fused simulation batches dispatched",
             lambda: stats.batches),
            ("service_batched_requests_total", "simulate jobs dispatched inside batches",
             lambda: stats.batched_jobs),
            ("service_batch_cache_hits_total",
             "simulate jobs resolved from the result cache at submit, before queueing",
             lambda: cache.hits if cache is not None else 0),
            ("service_shed_total",
             "simulate jobs rejected at admission (queue budget exceeded)",
             lambda: stats.shed),
            ("service_expired_total",
             "simulate jobs whose deadline passed before dispatch "
             "(answered without computing)",
             lambda: stats.expired),
            ("service_coalesced_total",
             "simulate rows attached to a pending job of the same config",
             lambda: stats.coalesced),
            ("service_coalesce_primary_total",
             "simulate rows not attached to a pending job (hits, queued misses, shed rows)",
             lambda: stats.primary),
        ):
            obs_metrics.REGISTRY.counter(name, help).set_function(read)
        obs_metrics.REGISTRY.gauge(
            "service_queue_depth", "simulate jobs waiting for the next batch window"
        ).set_function(lambda: len(self._queue))

    def close(self) -> None:
        """Stop accepting work, fail every job still queued, and release
        the executor threads."""
        self._closed = True
        closed = RuntimeError("batcher closed")
        for job in self._queue:
            if not job.future.done():
                job.future.set_exception(closed)
        self._queue = []
        self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for the next batch window."""
        return len(self._queue)

    @property
    def inflight(self) -> int:
        """Keys with a pending job that duplicates can attach to."""
        return len(self._pending)

    def estimated_delay(self) -> float:
        """Estimated seconds for the current queue to drain.

        Queued-batches-ahead x the EWMA per-batch service time (0.0
        until a batch has completed: admission never sheds before it has
        observed what a batch costs).  With ``max_batch=1`` this is
        exactly "queue depth x per-batch service time".
        """
        if self._batch_ewma is None or not self._queue:
            return 0.0
        batches_ahead = math.ceil(len(self._queue) / self.max_batch)
        return batches_ahead * self._batch_ewma

    async def submit(
        self, config: SimConfig, qos: QoS | None = None, key: str | None = None
    ) -> SimulationResult:
        """Answer one config from the cache or a pending identical job, or
        queue it for a batch.

        ``key`` is the config's :func:`~repro.simulation.pool.config_key`
        if the caller already hashed it; otherwise it is hashed here.

        ``qos`` carries the request's deadline and priority class.  A
        duplicate attaches to a job that was already admitted and
        inherits its QoS: it is never shed, and its own deadline or
        priority cannot (and need not) reshape work already scheduled.
        Raises :class:`Overloaded` at admission when the queue budget is
        exceeded, and :class:`DeadlineExceeded` if the deadline passes
        before the job's batch dispatches.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        stages = StageRecord()
        if key is None and (self.cache is not None or self.coalesce):
            key = config_key(config)
        if self.cache is not None:
            t0 = loop.time()
            hit = self.cache.get(key)
            stages.stage("cache_probe", t0, loop.time(), resolved=hit is not None)
            if hit is not None:
                self.stats.primary += 1
                return hit
        pending = self._pending.get(key) if self.coalesce else None
        # A resolved job stays mapped until its release callback runs;
        # a failure or expiry must not be handed to a fresh request.
        if pending is not None and not pending.future.done():
            self.stats.coalesced += 1
            t0 = loop.time()
            try:
                return await asyncio.shield(pending.future)
            finally:
                # The duplicate's own stage, linked to the request that
                # owns the computation; recorded even if it is cancelled.
                primary_ctx = pending.stages.ctx
                stages.stage(
                    "wait", t0, loop.time(), resolved=True, label="coalesced",
                    links=[primary_ctx.span_id] if primary_ctx is not None else None,
                )
        self.stats.primary += 1
        qos = qos or QoS()
        if self.queue_budget is not None:
            est = self.estimated_delay()
            if est > self.queue_budget:
                self.stats.shed += 1
                raise Overloaded(
                    f"queue drain estimate {est:.3f}s exceeds the "
                    f"{self.queue_budget:.3f}s budget",
                    retry_after=max(1.0, math.ceil(est)),
                )
        now = loop.time()
        self._seq += 1
        job = _Job(
            config=config,
            key=key,
            future=loop.create_future(),
            stages=stages,
            enqueued=now,
            deadline=now + qos.deadline_s if qos.deadline_s is not None else math.inf,
            priority=qos.priority,
            seq=self._seq,
        )
        if self.coalesce:
            self._pending[key] = job
        job.future.add_done_callback(functools.partial(self._release, job))
        self._queue.append(job)
        if self._drainer is None or self._drainer.done():
            self._drainer = loop.create_task(self._drain_loop())
        return await asyncio.shield(job.future)

    def _release(self, job: _Job, future: asyncio.Future) -> None:
        """Unregister a resolved job, however it resolved (result, runner
        error, expiry or cancellation), and retrieve its exception so a
        failure nobody is left waiting for does not warn."""
        if self._pending.get(job.key) is job:
            del self._pending[job.key]
        if not future.cancelled():
            future.exception()

    def _expire(self, now: float) -> None:
        """Fail every queued job whose deadline has already passed.

        This is the fast 504: the job never reaches the runner (no
        ``compute`` span ever appears in its request tree — the
        acceptance tests pin that), and the slots it would have taken in
        the next batch go to jobs that can still make their deadlines.
        """
        live: list[_Job] = []
        for job in self._queue:
            if job.deadline < now:
                self.stats.expired += 1
                job.stages.stage("expired", job.enqueued, now)
                if not job.future.done():
                    job.future.set_exception(
                        DeadlineExceeded(
                            f"deadline expired {now - job.deadline:.3f}s "
                            "before dispatch"
                        )
                    )
            else:
                live.append(job)
        self._queue = live

    async def _drain_loop(self) -> None:
        while self._queue and not self._closed:
            if self.window > 0 and len(self._queue) < self.max_batch:
                # Bounded delay so concurrent arrivals can fuse; skipped
                # under backlog (a full batch is already waiting).
                await asyncio.sleep(self.window)
            else:
                # Yield once: siblings already scheduled this tick get to
                # enqueue and fuse, but nobody waits for future arrivals.
                await asyncio.sleep(0)
            # Hold a dispatch slot *before* slicing the queue: while
            # every slot is busy, waiting jobs stay in the queue, where
            # they remain schedulable (each window re-sorts), expirable
            # (the fast 504) and visible to admission control
            # (queue_depth stays honest under backlog).
            await self._sem.acquire()
            now = asyncio.get_running_loop().time()
            self._expire(now)
            # EDF within (aged) priority class; seq breaks ties so the
            # schedule is deterministic.  Sorting the whole queue each
            # window is O(n log n) over at most a few thousand waiting
            # jobs — noise next to a single engine dispatch.
            self._queue.sort(key=lambda j: j.sort_key(now, self.aging))
            take = min(self.max_batch, len(self._queue))
            jobs, self._queue = self._queue[:take], self._queue[take:]
            if not jobs:
                self._sem.release()
                continue
            task = asyncio.get_running_loop().create_task(self._dispatch(jobs))
            self._dispatches.add(task)
            task.add_done_callback(functools.partial(self._settle, jobs))

    def _settle(self, jobs: list[_Job], task: asyncio.Task) -> None:
        """Release a finished dispatch's slot and fail every job it left
        unresolved (a runner or cache error, or cancellation at close),
        so no waiter hangs on a dispatch that died."""
        self._dispatches.discard(task)
        self._sem.release()
        exc = RuntimeError("batcher closed") if task.cancelled() else task.exception()
        if exc is not None:
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(exc)

    async def _dispatch(self, jobs: list[_Job]) -> None:
        """Answer one drained window of misses: compute, then write back."""
        loop = asyncio.get_running_loop()
        cache = self.cache
        # Batch window: enqueue -> dispatch actually starting (bounded
        # delay + any wait behind max_inflight).
        t0 = loop.time()
        for job in jobs:
            job.stages.stage("window", job.enqueued, t0)
        configs = [j.config for j in jobs]
        # One real compute span, opened in the executor thread under
        # the batch leader's request context so the pool chunks and
        # fastpath groups below it join the leader's tree; every
        # other rider records a reference interval linking it.
        lead_ctx = (
            next((j.stages.ctx for j in jobs if j.stages.ctx is not None), None)
            if obs_trace.enabled()
            else None
        )
        compute_ctx: list[str | None] = [None]

        def _compute() -> Sequence[SimulationResult]:
            results = self._runner(configs)
            if len(results) != len(configs):  # pragma: no cover - defensive
                raise RuntimeError(
                    f"runner returned {len(results)} results for {len(configs)} configs"
                )
            if cache is not None:
                cache.put_many(zip((j.key for j in jobs), results))
            return results

        def _run() -> Sequence[SimulationResult]:
            if lead_ctx is None:
                return _compute()
            with obs_trace.use_context(lead_ctx):
                with obs_trace.span("batcher", "compute", jobs=len(configs)) as sp:
                    compute_ctx[0] = sp.ctx_id
                    return _compute()

        try:
            # A runner failure propagates to _settle, which fans it out.
            results = await loop.run_in_executor(self._executor, _run)
        finally:
            t1 = loop.time()
            shared = compute_ctx[0]
            for job in jobs:
                job.stages.stage(
                    "compute", t0, t1, resolved=True,
                    span=job.stages.ctx is not lead_ctx,
                    label="shared", attrs={"jobs": len(configs)},
                    links=[shared] if shared else None,
                )
            # Admission control's service-time signal: EWMA over
            # dispatched batches (0.3 keeps it responsive to load
            # shifts without chattering on one slow batch).
            self._batch_ewma = (
                t1 - t0
                if self._batch_ewma is None
                else 0.3 * (t1 - t0) + 0.7 * self._batch_ewma
            )
            _BATCH_SECONDS.observe(t1 - t0)
            self.stats.batches += 1
            self.stats.batched_jobs += len(jobs)
            self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(jobs))
        for job, result in zip(jobs, results):
            if not job.future.done():
                job.future.set_result(result)
