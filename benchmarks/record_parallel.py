"""Record the Monte-Carlo pool's wall-clock speedup to a BENCH_*.json.

Runs one ``mc_run`` batch three ways — serial, pooled, and cache-warm —
over the same seeds, verifies the samples are bit-identical, and writes
the timings (plus the host stamp: core count matters) to a JSON record::

    PYTHONPATH=src python benchmarks/record_parallel.py                # full size
    PYTHONPATH=src python benchmarks/record_parallel.py --quick \\
        -o /tmp/smoke.json                                             # smoke

The speedup claim is only meaningful on a multi-core machine; the record
always includes ``cpus`` so a single-core result is self-describing.
Nothing is gated but bit-identity, so there is no ``--check``.
"""

from __future__ import annotations

import tempfile

from recorder import log, parser, run, timed
from repro.core import paper_parameters
from repro.simulation import ResultCache, SimConfig, mc_run
from repro.simulation.pool import ChunkTiming, resolve_jobs


def measure(quick: bool, jobs: int) -> dict:
    n_seeds, mttis = (4, 3.0) if quick else (32, 50.0)
    p = paper_parameters()
    config = SimConfig(params=p, strategy="ndp", work=p.mtti * mttis, seed=0)
    seeds = range(n_seeds)
    log(f"mc_run: {n_seeds} seeds x {mttis:g} MTTIs, pool width {jobs}")

    serial, t_serial = timed(lambda: mc_run(config, seeds, jobs=1))
    log(f"  {'serial (jobs=1)':24s} {t_serial:8.2f} s")
    timings: list[ChunkTiming] = []
    pooled, t_pool = timed(lambda: mc_run(config, seeds, jobs=jobs, timings=timings))
    log(f"  {f'pool   (jobs={jobs})':24s} {t_pool:8.2f} s")
    if pooled.samples != serial.samples:
        raise SystemExit("FATAL: pool samples diverge from serial")

    with tempfile.TemporaryDirectory() as d:
        cache = ResultCache(d)
        mc_run(config, seeds, jobs=jobs, cache=cache)
        warm, t_warm = timed(lambda: mc_run(config, seeds, jobs=jobs, cache=cache))
        log(f"  {'cache-warm rerun':24s} {t_warm:8.2f} s")
        if warm.samples != serial.samples:
            raise SystemExit("FATAL: cached samples diverge from serial")
        cache_hits = cache.hits

    return {
        "benchmark": "mc_run batch: serial vs multiprocessing pool vs warm cache",
        "seeds": n_seeds,
        "mttis_per_run": mttis,
        "jobs": jobs,
        "cpus": resolve_jobs(None),
        "serial_seconds": round(t_serial, 4),
        "pool_seconds": round(t_pool, 4),
        "cache_warm_seconds": round(t_warm, 4),
        "pool_speedup": round(t_serial / t_pool, 3) if t_pool > 0 else None,
        "cache_speedup": round(t_serial / t_warm, 3) if t_warm > 0 else None,
        "cache_hits": cache_hits,
        "bit_identical": True,
        "mean_efficiency": serial.mean,
        "ci95": serial.ci95,
        "chunks": [
            {"chunk": t.chunk, "size": t.size, "seconds": round(t.seconds, 4),
             "worker_pid": t.worker_pid}
            for t in timings
        ],
    }


def main(argv: list[str] | None = None) -> int:
    ap = parser(__doc__, "BENCH_parallel_pool.json", check=False)
    ap.add_argument("--quick", action="store_true",
                    help="4 seeds x 3 MTTIs instead of 32 x 50, for smoke runs")
    ap.add_argument("--jobs", type=int, default=0,
                    help="pool width (default 0 = one per core)")
    args = ap.parse_args(argv)
    if args.jobs < 0:
        ap.error("--jobs must be >= 0 (0 = one per core)")
    jobs = resolve_jobs(args.jobs if args.jobs > 0 else None)
    return run(args, lambda: measure(args.quick, jobs))


if __name__ == "__main__":
    raise SystemExit(main())
