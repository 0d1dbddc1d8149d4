#!/usr/bin/env python
"""Record (or check) BENCH_service.json: service throughput under load.

A closed-loop load generator drives the capacity-planning service with a
zipfian config distribution — the "millions of users" traffic shape,
where a few popular scenarios dominate and a long tail of variants
trickles in — and measures two server configurations on the *same*
workload:

* **naive** — one-request-one-simulate dispatch: coalescing off,
  batching off (``max_batch=1``), no shared result cache.  This is what
  "every client pays full price" costs even with the process already
  warm.
* **service** — coalescing + micro-batching + the shared cache (cold at
  start, so every hit reported was earned within the run).

Recorded: requests/s, p50/p99 latency, coalesce rate, cache hit rate,
mean fused fast-batch size, and the speedup.  Every run fails if the
speedup is below the hard floor (3x full mode, 1.5x ``--quick``);
``--check`` (``make bench-service``) also fails if it fell below 60% of
the recording (see ``gates``).

Three further legs ride along, each failing the run on its own bound:

* **overload** — heavy requests at several times the single-slot
  capacity, with and without the admission controller.  Gate: with
  shedding on, accepted-request p99 stays within 3x the uncontended
  p99 (and some requests *were* shed, with a ``Retry-After``); with
  shedding off, the queue drives p99 well past that bound.
* **streaming** — one sweep grid fetched buffered and streamed.  Gate:
  time-to-first-row beats half the buffered wall time, peak traced
  memory during consumption is lower streamed, and the rows hash
  identically to the buffered cells.
* **multiproc** — the zipfian workload against 1 vs 2 prefork workers,
  byte-identity enforced across both.  The throughput floor only
  applies when ``os.cpu_count() > 1`` (CI containers are 1-CPU;
  numbers are still recorded).

Modes::

    python benchmarks/record_service.py               # record full-size
    python benchmarks/record_service.py --check       # regression gate
    python benchmarks/record_service.py --quick       # tiny CI variant
    python benchmarks/record_service.py --smoke       # boot + mixed burst

Determinism note: besides the throughput numbers, the generator asserts
that every distinct config's response bytes are identical across the
whole run (coalesced, batched, cached or not) *and* equal to a serial
in-process evaluation — the service-level determinism contract.
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from recorder import Gate, parser, run  # noqa: E402
from repro.service import (  # noqa: E402
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    WorkerSupervisor,
)
from repro.service.protocol import (  # noqa: E402
    canonical_dumps,
    config_from_json,
    result_to_json,
)
from repro.simulation import ResultCache, simulate  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def gates(quick: bool) -> tuple[Gate, ...]:
    """Batched+coalesced over naive throughput."""
    return (Gate("speedup", "speedup", limit=1.5 if quick else 3.0, factor=0.6),)


def zipf_indices(n_items: int, n_draws: int, *, s: float = 1.1, seed: int = 7) -> list[int]:
    """``n_draws`` zipfian draws over ``range(n_items)`` (rank-frequency
    exponent ``s``), deterministic in ``seed``.

    Hand-rolled inverse-CDF sampling over the finite harmonic weights so
    the workload is reproducible byte-for-byte across runs and machines.
    """
    import random

    weights = [1.0 / (rank + 1) ** s for rank in range(n_items)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    rng = random.Random(seed)
    out = []
    for _ in range(n_draws):
        u = rng.random()
        lo, hi = 0, n_items - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        out.append(lo)
    return out


def build_corpus(n_configs: int, work_mttis: float) -> list[dict]:
    """``n_configs`` distinct simulate-request bodies (the config corpus).

    Cheap-to-simulate scenarios (short MTTI, small checkpoints, modest
    work targets) so the benchmark measures *service* overheads and
    batching wins, not raw engine time.
    """
    corpus: list[dict] = []
    strategies = ("ndp", "host", "io-only", "local-only")
    for i in range(n_configs):
        corpus.append(
            {
                "params": {
                    "mtti": 600.0 + 60.0 * (i % 7),
                    "checkpoint_size": 1e9 * (1 + i % 5),
                    "local_interval": 100.0 + 10.0 * (i % 3),
                },
                "strategy": strategies[i % len(strategies)],
                "ratio": 1 + (i % 4) if strategies[i % len(strategies)] == "host" else 1,
                "compression": ("ndp-gzip1", "host-gzip1", "none")[i % 3],
                "work_mttis": work_mttis,
                "seed": i % 11,
            }
        )
    return corpus


class LoadResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.responses: dict[int, bytes] = {}
        self.errors: list[str] = []
        self.lock = threading.Lock()


def run_load(
    port: int, corpus: list[dict], schedule: list[int], n_clients: int
) -> tuple[LoadResult, float]:
    """Drive ``schedule`` (a list of corpus indices) through ``n_clients``
    closed-loop clients; returns per-request latencies and wall time."""
    result = LoadResult()
    shards = [schedule[i::n_clients] for i in range(n_clients)]

    def client_loop(shard: list[int]) -> None:
        with ServiceClient("127.0.0.1", port, timeout=300.0) as client:
            for idx in shard:
                t0 = time.perf_counter()
                try:
                    raw = client.post_raw("/v1/simulate", corpus[idx])
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    with result.lock:
                        result.errors.append(f"config {idx}: {exc}")
                    continue
                dt = time.perf_counter() - t0
                with result.lock:
                    result.latencies.append(dt)
                    prev = result.responses.setdefault(idx, raw)
                    if prev != raw:
                        result.errors.append(
                            f"config {idx}: non-deterministic response bytes"
                        )

    threads = [
        threading.Thread(target=client_loop, args=(shard,), daemon=True)
        for shard in shards
        if shard
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return result, time.perf_counter() - t0


def verify_byte_identity(corpus: list[dict], responses: dict[int, bytes]) -> int:
    """Every recorded response must equal a serial in-process evaluation."""
    checked = 0
    for idx, raw in sorted(responses.items()):
        cfg = config_from_json(corpus[idx])
        expected = canonical_dumps({"result": result_to_json(simulate(cfg))})
        if raw != expected:
            raise SystemExit(
                f"BYTE-IDENTITY VIOLATION: config {idx} service response "
                "differs from serial simulate()"
            )
        checked += 1
    return checked


def percentile(values: list[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[k]


def measure(
    corpus: list[dict],
    schedule: list[int],
    n_clients: int,
    *,
    naive: bool,
    cache_dir: Path | None,
) -> dict:
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    config = ServiceConfig(
        port=0,
        jobs=1,
        cache=None if naive else cache,
        batch_window=0.0 if naive else 0.002,
        max_batch=1 if naive else 512,
        max_inflight=2,
        coalesce=not naive,
    )
    with BackgroundServer(config) as bg:
        load, wall = run_load(bg.port, corpus, schedule, n_clients)
        with ServiceClient("127.0.0.1", bg.port) as client:
            stats = client.stats()
    if load.errors:
        raise SystemExit(
            f"load generation errors ({len(load.errors)}): {load.errors[:5]}"
        )
    n = len(load.latencies)
    coalesce = stats["coalesce"]
    cache_stats = stats["cache"]
    served = coalesce["primary"] + coalesce["coalesced"]
    return {
        "mode": "naive" if naive else "service",
        "requests": n,
        "wall_seconds": wall,
        "requests_per_second": n / wall,
        "p50_latency_ms": percentile(load.latencies, 0.50) * 1e3,
        "p99_latency_ms": percentile(load.latencies, 0.99) * 1e3,
        "mean_latency_ms": statistics.fmean(load.latencies) * 1e3,
        "coalesce_rate": coalesce["coalesced"] / served if served else 0.0,
        "cache_hit_rate": (
            cache_stats["hits"] / (cache_stats["hits"] + cache_stats["misses"])
            if cache_stats["hits"] + cache_stats["misses"]
            else 0.0
        ),
        "mean_fused_batch": stats["batch"]["mean_fast_batch"],
        "max_batch_seen": stats["batch"]["max_batch_seen"],
        "responses": load.responses,
    }


def run_benchmark(quick: bool, tmp_cache: Path) -> dict:
    if quick:
        n_configs, n_requests, n_clients, work_mttis = 24, 160, 8, 5.0
    else:
        n_configs, n_requests, n_clients, work_mttis = 64, 640, 16, 10.0
    corpus = build_corpus(n_configs, work_mttis)
    schedule = zipf_indices(n_configs, n_requests)

    print(
        f"workload: {n_requests} requests over {n_configs} configs "
        f"(zipfian), {n_clients} closed-loop clients, "
        f"{work_mttis:.0f} MTTIs work each"
    )
    naive = measure(corpus, schedule, n_clients, naive=True, cache_dir=None)
    print(
        f"naive   : {naive['requests_per_second']:8.1f} req/s   "
        f"p50 {naive['p50_latency_ms']:7.1f} ms   p99 {naive['p99_latency_ms']:7.1f} ms"
    )
    service = measure(
        corpus, schedule, n_clients, naive=False, cache_dir=tmp_cache
    )
    print(
        f"service : {service['requests_per_second']:8.1f} req/s   "
        f"p50 {service['p50_latency_ms']:7.1f} ms   p99 {service['p99_latency_ms']:7.1f} ms   "
        f"coalesce {service['coalesce_rate']:.0%}   cache {service['cache_hit_rate']:.0%}   "
        f"fused batch {service['mean_fused_batch']:.1f}"
    )

    # Determinism: both modes answered every config identically, and
    # identically to a serial in-process evaluation.
    for idx, raw in service["responses"].items():
        if idx in naive["responses"] and naive["responses"][idx] != raw:
            raise SystemExit(
                f"BYTE-IDENTITY VIOLATION: config {idx} differs naive vs service"
            )
    checked = verify_byte_identity(corpus, service["responses"])
    print(f"byte-identity: {checked} distinct configs verified against serial simulate")

    speedup = service["requests_per_second"] / naive["requests_per_second"]
    print(f"speedup : {speedup:.2f}x (batched+coalesced vs naive dispatch)")
    for side in (naive, service):
        side.pop("responses")

    overload = overload_leg(quick)
    streaming = streaming_leg(quick)
    multiproc = multiproc_leg(quick)
    return {
        "benchmark": "service_throughput",
        "quick": quick,
        "workload": {
            "n_configs": n_configs,
            "n_requests": n_requests,
            "n_clients": n_clients,
            "work_mttis": work_mttis,
            "zipf_s": 1.1,
        },
        "naive": naive,
        "service": service,
        "speedup": speedup,
        "byte_identity_checked": checked,
        "overload": overload,
        "streaming": streaming,
        "multiproc": multiproc,
    }


def _heavy(i: int, work_mttis: float) -> dict:
    """A single-slot-hogging ndp request (distinct per ``i``)."""
    return {"params": {"mtti": 600.0}, "work_mttis": work_mttis, "seed": i}


def overload_leg(quick: bool) -> dict:
    """Offered load >> capacity, with and without admission control.

    One serving slot (``max_inflight=1``, ``max_batch=1``) and heavy
    requests: with ``queue_budget`` set, excess offered load is shed
    (503 + Retry-After) and the *accepted* requests keep a tight p99;
    with shedding off, every request is accepted into an ever-deeper
    queue and p99 blows past the 3x bound.
    """
    # Offered load is ~6x the single slot either way; the client count
    # stays modest because the closed-loop clients share this process
    # (and its GIL) with the server — too many timing threads inflates
    # the measured accepted latency with scheduler noise, not queueing.
    # The fast engine runs ndp at ~0.1 s per 100 MTTIs on a 2-vCPU Xeon
    # VM, so a request costs ~25 ms (quick) or ~50 ms.
    work_mttis = 25.0 if quick else 50.0
    n_offered = 18 if quick else 24
    n_clients = 6

    def server_config(budget: float | None) -> ServiceConfig:
        return ServiceConfig(
            port=0,
            jobs=1,
            cache=None,
            coalesce=False,
            batch_window=0.0,
            max_batch=1,  # est. drain time = queue depth x per-job EWMA
            max_inflight=1,
            queue_budget=budget,
        )

    # Uncontended baseline (and the budget's unit): sequential heavies.
    with BackgroundServer(server_config(None)) as bg:
        with ServiceClient("127.0.0.1", bg.port, timeout=300.0) as client:
            base: list[float] = []
            for i in range(1000, 1008):
                t0 = time.perf_counter()
                client.post_raw("/v1/simulate", _heavy(i, work_mttis))
                base.append(time.perf_counter() - t0)
    uncontended_p99 = percentile(base, 0.99)
    budget = 1.25 * percentile(base, 0.50)

    def burst(shed: bool) -> dict:
        accepted: list[float] = []
        shed_count = 0
        errors: list[str] = []
        lock = threading.Lock()
        with BackgroundServer(server_config(budget if shed else None)) as bg:
            with ServiceClient("127.0.0.1", bg.port, timeout=300.0) as warm:
                # Warm the batcher's service-time EWMA (the admission
                # controller never sheds before its first observation).
                warm.post_raw("/v1/simulate", _heavy(2000, work_mttis))

            def client_loop(shard: list[int]) -> None:
                nonlocal shed_count
                with ServiceClient("127.0.0.1", bg.port, timeout=300.0) as c:
                    for i in shard:
                        t0 = time.perf_counter()
                        try:
                            c.post_raw("/v1/simulate", _heavy(i, work_mttis))
                        except ServiceError as exc:
                            with lock:
                                if exc.status == 503 and exc.retry_after:
                                    shed_count += 1
                                else:
                                    errors.append(f"req {i}: {exc}")
                            continue
                        with lock:
                            accepted.append(time.perf_counter() - t0)

            offered = list(range(3000, 3000 + n_offered))
            threads = [
                threading.Thread(
                    target=client_loop, args=(offered[k::n_clients],), daemon=True
                )
                for k in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise SystemExit(f"overload leg errors: {errors[:5]}")
        p99 = percentile(accepted, 0.99)
        return {
            "offered": n_offered,
            "accepted": len(accepted),
            "shed": shed_count,
            "accepted_p99_ms": p99 * 1e3,
            "p99_vs_uncontended": p99 / uncontended_p99,
        }

    with_shed = burst(shed=True)
    without = burst(shed=False)
    record = {
        "work_mttis": work_mttis,
        "uncontended_p99_ms": uncontended_p99 * 1e3,
        "queue_budget_ms": budget * 1e3,
        "shedding": with_shed,
        "no_shedding": without,
    }
    print(
        f"overload: uncontended p99 {record['uncontended_p99_ms']:.0f} ms | "
        f"shed on: p99 {with_shed['p99_vs_uncontended']:.1f}x, "
        f"{with_shed['shed']}/{with_shed['offered']} shed | "
        f"shed off: p99 {without['p99_vs_uncontended']:.1f}x"
    )
    if with_shed["shed"] == 0:
        raise SystemExit("overload leg: admission controller never shed")
    if with_shed["p99_vs_uncontended"] > 3.0:
        raise SystemExit(
            f"overload leg: accepted p99 {with_shed['p99_vs_uncontended']:.1f}x "
            "uncontended exceeds the 3x bound despite shedding"
        )
    if without["p99_vs_uncontended"] <= 3.0:
        raise SystemExit(
            "overload leg: queue never built up without shedding — "
            "the contrast leg is not measuring overload"
        )
    return record


def streaming_leg(quick: bool) -> dict:
    """One sweep grid, buffered vs streamed: TTFR and peak traced memory.

    ``max_batch`` is kept small so the grid completes group by group —
    the streamed response emits rows as groups finish while the
    buffered one holds every cell until the end.
    """
    import hashlib
    import tracemalloc

    n_configs, n_seeds = (24, 4) if quick else (48, 8)
    corpus = build_corpus(n_configs, work_mttis=3.0)
    sweep = {"configs": corpus, "seeds": list(range(n_seeds)), "detail": True}
    config = ServiceConfig(
        port=0, jobs=1, cache=None, batch_window=0.002, max_batch=8
    )
    with BackgroundServer(config) as bg:
        with ServiceClient("127.0.0.1", bg.port, timeout=600.0) as client:
            tracemalloc.start()
            t0 = time.perf_counter()
            raw = client.post_raw("/v1/sweep", sweep)
            cells = json.loads(raw)["cells"]
            buffered_wall = time.perf_counter() - t0
            _, buffered_peak = tracemalloc.get_traced_memory()
            buffered_hash = hashlib.sha256()
            for cell in cells:
                buffered_hash.update(canonical_dumps(cell))
                buffered_hash.update(b"\n")
            del raw, cells
            tracemalloc.stop()

            tracemalloc.start()
            stream_hash = hashlib.sha256()
            ttfr = None
            rows = 0
            t0 = time.perf_counter()
            for row in client.sweep_stream(sweep):
                if ttfr is None:
                    ttfr = time.perf_counter() - t0
                stream_hash.update(canonical_dumps(row))
                stream_hash.update(b"\n")
                rows += 1
            stream_wall = time.perf_counter() - t0
            _, stream_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    record = {
        "n_cells": n_configs,
        "n_seeds": n_seeds,
        "buffered_wall_ms": buffered_wall * 1e3,
        "buffered_peak_kb": buffered_peak / 1024,
        "ttfr_ms": ttfr * 1e3,
        "stream_wall_ms": stream_wall * 1e3,
        "stream_peak_kb": stream_peak / 1024,
    }
    print(
        f"streaming: buffered {record['buffered_wall_ms']:.0f} ms "
        f"(peak {record['buffered_peak_kb']:.0f} KiB) | streamed TTFR "
        f"{record['ttfr_ms']:.0f} ms, wall {record['stream_wall_ms']:.0f} ms "
        f"(peak {record['stream_peak_kb']:.0f} KiB)"
    )
    if rows != n_configs:
        raise SystemExit(f"streaming leg: {rows} rows for {n_configs} cells")
    if stream_hash.digest() != buffered_hash.digest():
        raise SystemExit(
            "BYTE-IDENTITY VIOLATION: streamed rows differ from buffered cells"
        )
    if ttfr >= 0.5 * buffered_wall:
        raise SystemExit(
            f"streaming leg: TTFR {ttfr * 1e3:.0f} ms not ahead of the "
            f"buffered wall {buffered_wall * 1e3:.0f} ms"
        )
    if stream_peak >= buffered_peak:
        raise SystemExit(
            f"streaming leg: streamed peak {stream_peak} B not below "
            f"buffered peak {buffered_peak} B"
        )
    return record


def multiproc_leg(quick: bool) -> dict:
    """The zipfian workload against 1 vs 2 prefork workers.

    Byte identity across worker counts is a hard gate everywhere; the
    throughput floor only applies on multi-core hosts (a 1-CPU
    container time-slices both workers over one core, so the ratio is
    noise there — recorded, not gated).
    """
    import os

    n_configs, n_requests, n_clients = (16, 64, 8) if quick else (24, 128, 8)
    corpus = build_corpus(n_configs, work_mttis=5.0)
    schedule = zipf_indices(n_configs, n_requests)

    def run(procs: int) -> tuple[dict[int, bytes], float]:
        config = ServiceConfig(port=0, jobs=1, cache=None)
        with WorkerSupervisor(config, procs=procs) as sup:
            load, wall = run_load(sup.port, corpus, schedule, n_clients)
        if load.errors:
            raise SystemExit(
                f"multiproc leg ({procs} workers) errors: {load.errors[:5]}"
            )
        return load.responses, len(load.latencies) / wall

    single_responses, single_rps = run(1)
    multi_responses, multi_rps = run(2)
    for idx, raw in multi_responses.items():
        if single_responses.get(idx) != raw:
            raise SystemExit(
                f"BYTE-IDENTITY VIOLATION: config {idx} differs between "
                "1-worker and 2-worker serving"
            )
    speedup = multi_rps / single_rps
    cpus = os.cpu_count() or 1
    record = {
        "cpus": cpus,
        "requests": n_requests,
        "single_rps": single_rps,
        "multi_rps": multi_rps,
        "speedup_2workers": speedup,
        "floor_applied": cpus > 1,
    }
    print(
        f"multiproc: 1 worker {single_rps:.1f} req/s, 2 workers "
        f"{multi_rps:.1f} req/s ({speedup:.2f}x, "
        f"{'gated' if cpus > 1 else f'{cpus} cpu — floor skipped'})"
    )
    if cpus > 1 and speedup < 0.9:
        raise SystemExit(
            f"multiproc leg: 2-worker throughput {speedup:.2f}x of 1-worker "
            "on a multi-core host (floor 0.9x)"
        )
    return record


#: Simulate bodies the protocol rejects (wrong scalar types, bad JSON).
#: The smoke posts each twice: both answers must be the same 400 bytes,
#: so a rejected body is never memoized into a success.
REJECTED_BODIES = (
    b'{"failure_times": "123"}',
    b'{"failure_times": {"5": 1}}',
    b'{"work_mttis": "3"}',
    b'{"work_mttis": true}',
    b'{"seed": "5"}',
    b'{"seed": 5.5}',
    b'{"seed": true}',
    b'{"params": {"mtti": true}}',
    b'{"seed": 1',
    b"\xff{}",
)


def post_bytes(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    """POST raw ``body`` bytes; ``(status, response body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def smoke(port: int = 0) -> int:
    """Boot a server, fire a mixed burst, check /metrics counters moved
    and equal their /stats counts, and that each rejected body gets the
    same 400 twice."""
    corpus = build_corpus(8, 3.0)
    with BackgroundServer(ServiceConfig(port=port, cache=None)) as bg:
        with ServiceClient("127.0.0.1", bg.port) as client:
            assert client.healthz() == {"status": "ok"}
            schedule = zipf_indices(8, 24)
            load, _wall = run_load(bg.port, corpus, schedule, n_clients=4)
            if load.errors:
                print(f"smoke errors: {load.errors[:3]}", file=sys.stderr)
                return 1
            client.sweep({"configs": corpus[:2], "seeds": [0, 1]})
            client.optimize({"params": {"mtti": 1800.0}, "compression": "host-gzip1"})
            for body in REJECTED_BODIES:
                first, again = (post_bytes(bg.port, "/v1/simulate", body) for _ in range(2))
                if first[0] != 400 or again != first:
                    print(f"smoke: {body!r} answered {first} then {again}", file=sys.stderr)
                    return 1
            text = client.metrics_text()
            stats = client.stats()
    checked = verify_byte_identity(corpus, load.responses)
    required = [
        "service_requests_total",
        "service_batches_total",
        "service_batched_requests_total",
        "service_request_seconds",
    ]
    missing = [m for m in required if m not in text]
    if missing:
        print(f"smoke: /metrics missing {missing}", file=sys.stderr)
        return 1
    # Each batcher series is the same count as its /stats field.
    series = dict(
        line.rsplit(" ", 1) for line in text.splitlines()
        if line.startswith("service_") and " " in line
    )
    batch = stats["batch"]
    pairs = {
        "service_batches_total": batch["batches"]["fast"],
        "service_batched_requests_total": batch["batched_jobs"]["fast"],
        "service_coalesce_primary_total": stats["coalesce"]["primary"],
        "service_coalesced_total": stats["coalesce"]["coalesced"],
        "service_batch_cache_hits_total": batch["cache_hits"],
    }
    differ = {
        name: (series.get(name), want)
        for name, want in pairs.items()
        if float(series.get(name, "nan")) != want
    }
    if differ:
        print(f"smoke: /metrics != /stats (metrics, stats): {differ}", file=sys.stderr)
        return 1
    # Every simulate row is counted once, as primary or coalesced
    # (coalesced duplicates are not in ``submitted``).
    served = stats["coalesce"]["primary"] + stats["coalesce"]["coalesced"]
    if stats["batch"]["submitted"] < 1 or served < len(schedule):
        print("smoke: request accounting does not cover the burst", file=sys.stderr)
        return 1
    print(
        f"serve-smoke ok: {stats['requests']} requests, "
        f"{stats['batch']['batches']} batches, mean fused "
        f"{stats['batch']['mean_fast_batch']:.1f}, {checked} configs byte-verified"
    )
    return 0


def benchmark(quick: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        return run_benchmark(quick, Path(tmp) / "cache")


def main(argv: list[str] | None = None) -> int:
    ap = parser(__doc__, str(DEFAULT_OUT))
    ap.add_argument("--quick", action="store_true", help="tiny CI-sized workload")
    ap.add_argument("--smoke", action="store_true", help="boot + burst + metrics check")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    return run(args, lambda: benchmark(args.quick), gates(args.quick))


if __name__ == "__main__":
    raise SystemExit(main())
