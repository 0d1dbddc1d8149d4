"""Parallel batch-execution runtime for Monte-Carlo simulation sweeps.

The validation machinery runs the discrete-event simulator over many seeds
and many configurations; a 200-MTTI x many-seed sweep is embarrassingly
parallel but was historically executed in a serial Python loop.  This
module is the shared engine underneath :func:`repro.simulation.mc_run`,
:func:`repro.simulation.compare_strategies` and the validation/scorecard
experiments:

* :func:`run_simulations` — fan a sequence of :class:`SimConfig` out over
  a ``multiprocessing`` worker pool with chunked scheduling.  Every run
  derives its RNG streams from its own config seed via
  :class:`~repro.simulation.rng.StreamFactory`, so results are
  **bit-identical to the serial path at any worker count** — the pool only
  changes *where* a seed executes, never *what* it draws.
* :class:`ResultCache` — a keyed on-disk cache of
  :class:`~repro.simulation.stats.SimulationResult` summaries
  (config-hash -> JSON), so repeated figure/experiment runs skip seeds
  that already completed.
* :func:`parallel_map` — a thread/process map for non-simulation batch
  work (e.g. scorecard claim evaluation, where the tasks close over
  unpicklable state).
* lightweight observability: per-chunk :class:`ChunkTiming` records and a
  ``progress(done, total)`` callback.

Determinism contract: for any ``configs`` sequence,
``run_simulations(configs, jobs=k)`` returns the same tuple (sample for
sample, field for field) for every ``k`` — results are reassembled in
submission order regardless of completion order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.breakdown import OverheadBreakdown
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .simulator import SimConfig, simulate
from .stats import SimulationResult, result_to_json

__all__ = [
    "ChunkTiming",
    "ResultCache",
    "chunk_indices",
    "config_key",
    "parallel_map",
    "resolve_jobs",
    "run_simulations",
]

#: Bump to invalidate every cached result (simulator semantics change).
#: 2: ``SimConfig`` grew the ``engine`` field (DES vs vectorized fastpath);
#: the field lands in the hash automatically, but pre-engine entries were
#: keyed without it and must not be served for either engine.
#: 3: the fast engine became exact (per-slot NVM ring, partner charging,
#: real ``host_stall_time``); ``engine="fast"`` results recorded under
#: schema 2 came from the approximate closed form and must not be served.
CACHE_SCHEMA = 3

# Batch-runtime counters: chunk/run volume plus result-cache traffic, so
# a sweep's parallel efficiency and cache hit rate show up in
# ``repro metrics`` snapshots without extra plumbing.
_CHUNKS = obs_metrics.REGISTRY.counter(
    "pool_chunks_total", "simulation chunks executed by the batch pool"
)
_RUNS = obs_metrics.REGISTRY.counter(
    "pool_runs_total", "simulations executed (cache misses) by the batch pool"
)
_CACHE_HITS = obs_metrics.REGISTRY.counter(
    "pool_cache_hits_total", "simulations served from the on-disk result cache"
)
_CACHE_PUT_ERRORS = obs_metrics.REGISTRY.counter(
    "cache_put_errors_total",
    "result-cache writes that failed with an OSError (entry skipped, result still returned)",
)


# -- worker sizing and chunking -------------------------------------------------


def resolve_jobs(jobs: int | None) -> int:
    """Number of workers: ``None`` means one per available core.

    Uses the scheduler affinity mask when the platform exposes it (a
    cgroup-limited container may have fewer usable cores than
    ``os.cpu_count()`` reports).
    """
    if jobs is None:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or None for auto): {jobs}")
    return jobs


def chunk_indices(total: int, jobs: int, chunk_size: int | None = None) -> list[range]:
    """Split ``range(total)`` into contiguous chunks for the pool.

    The default is one chunk per worker (``ceil(total / jobs)`` runs
    each, so ``min(total, jobs)`` chunks): every chunk's fast-engine
    configs run as one ``simulate_batch`` pass, whose cost per row falls
    as the pass widens, so an inline run (``jobs=1``) is one fused pass.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if total == 0:
        return []
    if chunk_size is None:
        chunk_size = math.ceil(total / max(1, jobs))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
    return [range(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]


# -- config hashing and the on-disk result cache --------------------------------


#: Field names per dataclass type, so keying a config reflects on each
#: type once per process instead of once per call.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


def _canonical(obj: object) -> object:
    """A JSON-able canonical form of nested (frozen) dataclasses.

    Floats go through ``repr`` so the key distinguishes every distinct
    double (including ``inf``) and never depends on print precision.
    Scalars are checked before the dataclass walk, which reads each
    type's cached field names.
    """
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    cls = type(obj)
    if dataclasses.is_dataclass(cls):
        body = {name: _canonical(getattr(obj, name)) for name in _field_names(cls)}
        body["__type__"] = cls.__name__
        return body
    raise TypeError(f"cannot canonicalize {cls.__name__} for cache keying")


def config_key(config: SimConfig) -> str:
    """Stable hash of everything that determines a simulation's outcome.

    The ``trace`` recorder is excluded (it observes the run, it does not
    alter it); the schema version is included so simulator changes
    invalidate stale cache entries wholesale.
    """
    body = {
        name: _canonical(getattr(config, name))
        for name in _field_names(type(config))
        if name != "trace"
    }
    body["__schema__"] = CACHE_SCHEMA
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _result_from_dict(data: dict) -> SimulationResult:
    data = dict(data)
    data["breakdown"] = OverheadBreakdown(**data["breakdown"])
    return SimulationResult(**data)


#: Most decoded entries one :class:`ResultCache` keeps in memory.
MEMO_ENTRIES = 1024


class ResultCache:
    """Keyed on-disk store of :class:`SimulationResult` summaries.

    One JSON file per (config-hash) key, sharded by the first two hex
    digits.  Entries are only ever valid for the exact config hash, which
    covers the full :class:`SimConfig` (including seed) plus the cache
    schema version — changing any scenario knob, the seed, or the
    simulator semantics (schema bump) misses the cache by construction.

    In front of the files sits a per-process memo of decoded entries:
    :meth:`get` keeps up to ``MEMO_ENTRIES`` results it read, evicting the
    oldest insertion first, so a repeated key costs a dict lookup instead
    of a file open and a JSON decode.  Only :meth:`get` fills it (a torn
    file is a miss, never memoized, and is repaired by the next
    :meth:`put`).  A memo hit counts in ``hits`` like a file hit, so the
    counters mean what they did without it.  Each process holds its own
    memo; prefork service workers share results only through the
    directory.

    Corrupt or unreadable entries are treated as misses, never errors,
    and :meth:`put_many` skips (and counts) entries it cannot write: the
    cache may lose an entry, never an answer.  The counters and the memo
    are safe to use from concurrent threads.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._memo: dict[str, SimulationResult] = {}
        self._lock = threading.Lock()

    @classmethod
    def default(cls) -> "ResultCache":
        """The conventional cache location (override via ``REPRO_CACHE_DIR``)."""
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            return cls(env)
        return cls(Path.home() / ".cache" / "repro" / "simcache")

    def _file(self, key: str, suffix: str = ".json") -> str:
        """The entry's file, ``<root>/<key[:2]>/<key><suffix>``, as a string."""
        return f"{self.root}/{key[:2]}/{key}{suffix}"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        with self._lock:
            result = self._memo.get(key)
            if result is not None:
                self.hits += 1
                return result
        try:
            with open(self._file(key), "rb") as fh:
                result = _result_from_dict(json.loads(fh.read()))
        except (OSError, ValueError, TypeError, KeyError):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
            memo = self._memo
            if key not in memo:
                if len(memo) >= MEMO_ENTRIES:
                    del memo[next(iter(memo))]
                memo[key] = result
        return result

    #: Monotonic per-process tmp-name disambiguator (see :meth:`put`).
    _tmp_seq = itertools.count()

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` (atomic rename, last writer wins).

        Safe under concurrent writers in *any* mix of processes and
        threads — prefork service workers share one cache directory, and
        each worker's batcher dispatches from a thread pool.  The write
        goes to a tmp file whose name is unique per (pid, thread,
        sequence), then lands via ``os.replace`` — atomic on POSIX, so a
        reader sees either the old complete entry or the new complete
        entry, never a partial write.  Concurrent identical puts both
        succeed; last writer wins, which is indistinguishable from one
        writer because equal keys imply equal bytes (determinism
        contract).

        Writing is tried first; the shard directory is created only when
        the write finds it missing (a new shard, or a wiped cache root),
        and the write is then retried once.
        """
        data = json.dumps(result_to_json(result)).encode()
        try:
            self._write(key, data)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(self._file(key)), exist_ok=True)
            self._write(key, data)

    def _write(self, key: str, data: bytes) -> None:
        tmp = self._file(
            key, f".tmp.{os.getpid()}.{threading.get_ident()}.{next(self._tmp_seq)}"
        )
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, self._file(key))

    def get_many(self, keys: Iterable[str]) -> dict[str, SimulationResult]:
        """One batched sweep: ``{key: result}`` for every key that hits.

        Duplicate keys (a zipfian service batch is mostly duplicates)
        cost **one** file open each — the hit/miss counters count unique
        keys, matching the I/O actually performed.  Missing keys are
        simply absent from the returned dict.
        """
        out: dict[str, SimulationResult] = {}
        for key in dict.fromkeys(keys):  # preserves order, dedups
            hit = self.get(key)
            if hit is not None:
                out[key] = hit
        return out

    def put_many(self, items: Iterable[tuple[str, SimulationResult]]) -> None:
        """Store a batch of ``(key, result)`` pairs, one write per unique key.

        Later duplicates win (irrelevant in practice: equal keys imply
        equal results by the determinism contract).  A write that fails
        with an ``OSError`` (full disk, read-only root) is counted in
        ``cache_put_errors_total`` and skipped: the caller already holds
        the computed result, and a cache write must never fail it.
        """
        unique: dict[str, SimulationResult] = dict(items)
        for key, result in unique.items():
            try:
                self.put(key, result)
            except OSError:
                _CACHE_PUT_ERRORS.inc()


# -- observability ---------------------------------------------------------------


@dataclass(frozen=True)
class ChunkTiming:
    """Wall-clock record for one executed chunk of simulations."""

    chunk: int
    size: int
    seconds: float
    worker_pid: int

    @property
    def per_run(self) -> float:
        """Mean seconds per simulation in this chunk."""
        return self.seconds / max(1, self.size)


# -- the pool itself -------------------------------------------------------------


def _simulate_chunk(
    chunk: list[tuple[int, SimConfig]],
    tctx: tuple[str, str] | None = None,
) -> tuple[list[tuple[int, SimulationResult]], float, int]:
    """Worker entry point: run one chunk, report wall time and pid.

    Fast-engine configs in the chunk execute as **one** vectorized
    :func:`~repro.simulation.fastpath.simulate_batch` call — that is where
    the batch engine's speedup comes from — while DES configs run through
    the per-config :func:`simulate` loop.  Results are re-keyed by their
    original indices, so the split is invisible to the caller.

    ``tctx`` is an optional ``(trace_id, chunk_ctx_id)`` request-tree
    hand-off: the chunk's pre-allocated context id is installed as the
    ambient trace context so spans emitted *inside* the worker (the
    fastpath's per-group records) parent under the chunk node the parent
    process will emit from :func:`run_simulations`.
    """
    if tctx is not None and obs_trace.enabled():
        with obs_trace.use_context(obs_trace.TraceContext(tctx[0], tctx[1])):
            return _simulate_chunk(chunk, None)
    t0 = time.perf_counter()
    fast = [(i, cfg) for i, cfg in chunk if cfg.engine == "fast"]
    slow = [(i, cfg) for i, cfg in chunk if cfg.engine != "fast"]
    out = [(i, simulate(cfg)) for i, cfg in slow]
    if fast:
        from .fastpath import simulate_batch

        out.extend(zip((i for i, _ in fast), simulate_batch([c for _, c in fast])))
    out.sort(key=lambda pair: pair[0])
    return out, time.perf_counter() - t0, os.getpid()


def _chunk_task(
    payload: tuple[list[tuple[int, SimConfig]], tuple[str, str] | None],
) -> tuple[list[tuple[int, SimulationResult]], float, int, tuple[str, str] | None]:
    """Picklable single-argument wrapper for ``imap_unordered``: runs the
    chunk under its trace context and echoes the context back so the
    parent can pin the chunk span's id under unordered completion."""
    chunk, tctx = payload
    ran, seconds, pid = _simulate_chunk(chunk, tctx)
    return ran, seconds, pid, tctx


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform offers it (cheap, inherits imports)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork-less platforms
        return multiprocessing.get_context("spawn")


def run_simulations(
    configs: Sequence[SimConfig],
    *,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    timings: list[ChunkTiming] | None = None,
) -> tuple[SimulationResult, ...]:
    """Run every config, in order, over a worker pool.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (the default) runs inline with no pool,
        ``None`` uses every available core.  The returned tuple is
        identical for every value — parallelism is an execution detail.
    cache:
        Optional :class:`ResultCache`; completed runs are looked up by
        :func:`config_key` before any worker is spawned and stored as
        they finish.
    chunk_size:
        Seeds per work unit (default: one chunk per worker, see
        :func:`chunk_indices`).
    progress:
        Called as ``progress(done, total)`` after every completed chunk
        and once for the cache-served portion, so a default inline run
        reports once for the cache hits and once when its pass ends.
    timings:
        Optional list that receives one :class:`ChunkTiming` per executed
        chunk — per-chunk wall time and the worker pid that ran it.

    Configs carrying a ``trace`` recorder are always executed inline (the
    recorder mutates in-process state that cannot cross a process
    boundary) and are never cached (the cache stores summaries only, and
    a cache hit would leave the recorder empty).
    """
    configs = list(configs)
    total = len(configs)
    if total == 0:
        return ()

    # Serve what we can from the cache first (one batched get_many
    # sweep, so duplicate configs cost one file open each); only the
    # misses go anywhere near an engine.  Traced configs carry no key:
    # they are never cached.
    results: list[SimulationResult | None] = [None] * total
    keys: list[str | None] = [None] * total
    if cache is not None:
        keys = [config_key(c) if c.trace is None else None for c in configs]
        hits = cache.get_many(k for k in keys if k is not None)
        results = [hits.get(k) for k in keys]  # type: ignore[arg-type]
    pending = [(i, cfg) for i, cfg in enumerate(configs) if results[i] is None]
    if len(pending) < total:
        _CACHE_HITS.inc(total - len(pending))
        if progress is not None:
            progress(total - len(pending), total)

    n_jobs = resolve_jobs(jobs)
    traced = any(cfg.trace is not None for _, cfg in pending)
    chunks = [
        [pending[i] for i in block]
        for block in chunk_indices(len(pending), n_jobs, chunk_size)
    ]
    done = total - len(pending)

    # Request-tree hand-off: pre-allocate each chunk's context id so the
    # workers' fastpath group spans can parent under the chunk node the
    # parent process emits after absorption.
    req_ctx = obs_trace.current_context() if obs_trace.enabled() else None
    chunk_tctx: list[tuple[str, str] | None] = [None] * len(chunks)
    if req_ctx is not None:
        chunk_tctx = [
            (req_ctx.trace_id, obs_trace.new_ctx_id() or "") for _ in chunks
        ]

    def _absorb(
        chunk_no: int,
        ran: list[tuple[int, SimulationResult]],
        seconds: float,
        pid: int,
        tctx: tuple[str, str] | None = None,
    ) -> None:
        nonlocal done
        for i, res in ran:
            results[i] = res
        if cache is not None:
            # One batched store per chunk (keys were hashed in the sweep;
            # traced configs carry no key and are never cached).
            cache.put_many((keys[i], res) for i, res in ran if keys[i] is not None)
        done += len(ran)
        _CHUNKS.inc()
        _RUNS.inc(len(ran))
        if obs_trace.enabled():
            # The chunk was timed inside the worker; emit it as a
            # pre-timed interval ending now on the tracer's clock, pinned
            # to the pre-allocated context id the worker parented under.
            end = time.monotonic()
            obs_trace.emit(
                "pool",
                end - seconds,
                end,
                "chunk",
                label=f"chunk-{chunk_no}",
                attrs={"size": len(ran), "seconds": seconds, "pid": pid},
                ctx=req_ctx,
                ctx_id=tctx[1] if tctx else None,
            )
        if timings is not None:
            timings.append(
                ChunkTiming(chunk=chunk_no, size=len(ran), seconds=seconds, worker_pid=pid)
            )
        if progress is not None:
            progress(done, total)

    if n_jobs == 1 or len(pending) <= 1 or traced:
        for chunk_no, chunk in enumerate(chunks):
            _absorb(chunk_no, *_simulate_chunk(chunk, chunk_tctx[chunk_no]), chunk_tctx[chunk_no])
    else:
        ctx = _pool_context()
        payloads = list(zip(chunks, chunk_tctx))
        with ctx.Pool(processes=min(n_jobs, len(chunks))) as pool:
            # Unordered completion is fine: every item carries its index
            # (and its own trace context, echoed back by the worker).
            for chunk_no, (ran, seconds, pid, tctx) in enumerate(
                pool.imap_unordered(_chunk_task, payloads)
            ):
                _absorb(chunk_no, ran, seconds, pid, tctx)

    assert all(r is not None for r in results)
    return tuple(results)  # type: ignore[arg-type]


# -- generic batch map (threads for unpicklable work) ----------------------------


def parallel_map(
    fn: Callable,
    items: Iterable,
    *,
    jobs: int | None = None,
    backend: str = "thread",
) -> list:
    """``[fn(x) for x in items]`` evaluated concurrently, order preserved.

    ``backend="thread"`` suits closures and numpy-bound work (the GIL is
    released inside numpy; lambdas need not pickle); ``"process"`` suits
    picklable CPU-bound functions; ``"serial"`` is the plain loop.
    """
    if backend not in ("thread", "process", "serial"):
        raise ValueError(f"unknown backend {backend!r}: thread | process | serial")
    items = list(items)
    n_jobs = min(resolve_jobs(jobs), max(1, len(items)))
    if backend == "serial" or n_jobs == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    if backend == "thread":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, items))
    with _pool_context().Pool(processes=n_jobs) as pool:
        return pool.map(fn, items)
