"""Record the checkpoint data path's throughput to BENCH_runtime_throughput.json.

Measures, on the same payloads:

* single-thread LZ4 compression — the reference-parse kernel
  (``lz4.compress_ref``, the pre-optimization scanner) vs the vectorized
  exact kernel (``lz4.compress``) and the dense-parse runtime kernel
  (``lz4.compress_dense``), verifying byte-identity/round-trips.  Timings
  here are noisy, so the kernel number is the *ratio* of interleaved runs,
* ``zero_rle`` (vectorized) vs ``zero_rle_ref`` on a delta-like payload,
* the NDP drain (dense codec, bounded frame queue) into a
  bandwidth-throttled I/O store, as the fraction of the paper's drain-rate
  bound ``min(io_bw / (1 - factor), compress_rate)`` it reaches, both
  terms measured in the same run — verifying the drained checkpoint
  restores byte-identical state.

::

    PYTHONPATH=src python benchmarks/record_runtime.py                # record
    PYTHONPATH=src python benchmarks/record_runtime.py --quick \\
        -o /tmp/smoke.json                                            # smoke
    PYTHONPATH=src python benchmarks/record_runtime.py --check        # CI gate

Every run fails (exit 1) when the dense lz4 speedup is below 2x or the
drain reaches less than 0.4 of its bound; ``--check`` also fails if
either fell below 80% of the recorded value (see ``GATES``).  Both are
ratios of measurements taken in the same run, so the gates hold across
machines of different absolute speed.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from recorder import Gate, log, parser, run, timed
from repro.compression import lz4
from repro.compression.codecs import fast_lz4_codec
from repro.compression.delta import zero_rle, zero_rle_ref
from repro.ckpt.backends import IOStore, LocalStore
from repro.ckpt.format import make_header
from repro.ckpt.ndp_daemon import NDPDrainDaemon
from repro.ckpt.restart import recover
from repro.workloads import calibrated_app

GATES = (
    Gate("lz4 dense speedup", "lz4_aggregate.dense_speedup", limit=2.0, factor=0.8),
    Gate("drain bound fraction", "drain.bound_fraction", limit=0.4, factor=0.8),
)

APP_ID = "bench"
APPS = ("CoMD", "HPCCG", "miniFE", "miniMD", "miniSMAC2D", "miniAero", "pHPCCG")
QUICK_APPS = ("HPCCG", "miniMD")


def _synthetics(size: int) -> dict[str, bytes]:
    rng = np.random.default_rng(7)
    low = rng.integers(0, 4, size, dtype=np.uint8)
    return {
        "random": rng.integers(0, 256, size, dtype=np.uint8).tobytes(),
        "lowentropy": low.tobytes(),
        "zeros": bytes(size),
        "repetitive": (b"the quick brown ndp " * (size // 20 + 1))[:size],
    }


def _corpus(quick: bool) -> dict[str, bytes]:
    payloads: dict[str, bytes] = {}
    for name in QUICK_APPS if quick else APPS:
        app = calibrated_app(name)
        app.run(5)
        payloads[name] = app.checkpoint_bytes()
    payloads.update(_synthetics(1 << 18 if quick else 1 << 20))
    return payloads


def bench_lz4(payloads: dict[str, bytes]) -> tuple[list[dict], dict]:
    rows = []
    tot_bytes = tot_ref = tot_exact = tot_dense = 0.0
    for name, data in payloads.items():
        ref_out, t_ref = timed(lz4.compress_ref, data)
        exact_out, t_exact = timed(lz4.compress, data)
        dense_out, t_dense = timed(lz4.compress_dense, data)
        if exact_out != ref_out:
            raise SystemExit(f"FATAL: {name}: vectorized exact kernel diverges")
        if dense_out != lz4.compress_dense_ref(data):
            raise SystemExit(f"FATAL: {name}: dense kernel diverges from its spec")
        if lz4.decompress(dense_out, len(data)) != data:
            raise SystemExit(f"FATAL: {name}: dense output fails round-trip")
        rows.append({
            "payload": name,
            "size": len(data),
            "ref_seconds": round(t_ref, 4),
            "exact_seconds": round(t_exact, 4),
            "dense_seconds": round(t_dense, 4),
            "exact_speedup": round(t_ref / t_exact, 2) if t_exact > 0 else None,
            "dense_speedup": round(t_ref / t_dense, 2) if t_dense > 0 else None,
            "factor_ref": round(1 - len(ref_out) / len(data), 4),
            "factor_dense": round(1 - len(dense_out) / len(data), 4),
        })
        log(f"  lz4 {name:12s} {len(data) / 1e6:6.2f} MB  "
            f"ref {len(data) / t_ref / 1e6:6.2f} MB/s  "
            f"dense {len(data) / t_dense / 1e6:6.2f} MB/s  "
            f"({t_ref / t_dense:4.1f}x)")
        tot_bytes += len(data)
        tot_ref += t_ref
        tot_exact += t_exact
        tot_dense += t_dense
    aggregate = {
        "bytes": int(tot_bytes),
        "ref_mbps": round(tot_bytes / tot_ref / 1e6, 2),
        "exact_mbps": round(tot_bytes / tot_exact / 1e6, 2),
        "dense_mbps": round(tot_bytes / tot_dense / 1e6, 2),
        "exact_speedup": round(tot_ref / tot_exact, 2),
        "dense_speedup": round(tot_ref / tot_dense, 2),
    }
    return rows, aggregate


def bench_zero_rle(payloads: dict[str, bytes]) -> dict:
    # A delta-like payload: mostly zeros with scattered short change bursts,
    # which is what zero_rle sees behind xor_delta in the drain path.
    base = max(payloads.values(), key=len)
    arr = np.frombuffer(base, dtype=np.uint8).copy()
    rng = np.random.default_rng(11)
    mask = rng.random(len(arr)) < 0.97
    arr[mask] = 0
    delta = arr.tobytes()
    ref_out, t_ref = timed(zero_rle_ref, delta)
    fast_out, t_fast = timed(zero_rle, delta)
    if fast_out != ref_out:
        raise SystemExit("FATAL: vectorized zero_rle diverges from reference")
    log(f"  zero_rle {len(delta) / 1e6:.2f} MB  ref {len(delta) / t_ref / 1e6:.2f} MB/s  "
        f"fast {len(delta) / t_fast / 1e6:.2f} MB/s  ({t_ref / t_fast:.1f}x)")
    return {
        "size": len(delta),
        "ref_seconds": round(t_ref, 4),
        "fast_seconds": round(t_fast, 4),
        "speedup": round(t_ref / t_fast, 2) if t_fast > 0 else None,
    }


def _drain_once(payloads: dict[int, bytes], root: Path,
                throttle_bps: float) -> tuple[float, NDPDrainDaemon, IOStore]:
    """Drain one checkpoint of ``payloads`` (rank -> bytes) with the dense
    codec from a local store under ``root`` into an I/O store under it,
    throttled to ``throttle_bps``.

    Returns the drain's wall time, its daemon (for ``stats``) and the
    I/O store holding the drained checkpoint of app ``APP_ID``.
    """
    local = LocalStore(root / "local", capacity=4)
    io = IOStore(root / "io", throttle_bps=throttle_bps)
    files = {
        rank: (make_header(APP_ID, rank, 1, data, position=1.0), data)
        for rank, data in payloads.items()
    }
    local.write_checkpoint(APP_ID, 1, files)
    daemon = NDPDrainDaemon(APP_ID, local, io, codec=fast_lz4_codec())
    t0 = time.perf_counter()
    daemon._drain_one(1)
    dt = time.perf_counter() - t0
    if daemon.stats.checkpoints_drained != 1:
        raise SystemExit("FATAL: drain did not complete")
    return dt, daemon, io


def bench_drain(payloads: dict[str, bytes], quick: bool) -> dict:
    # Two ranks of miniapp state, drained into an I/O store throttled to a
    # bandwidth comparable to the compressor, so both terms of the bound
    # are in play and only overlapping them reaches it.
    names = sorted(payloads, key=lambda n: (-len(payloads[n]), n))[:2]
    ranks = {i: payloads[name] for i, name in enumerate(names)}
    total = sum(len(p) for p in ranks.values())
    throttle = 4e6 if quick else 8e6
    with tempfile.TemporaryDirectory() as d:
        t, daemon, io = _drain_once(ranks, Path(d), throttle)
        if recover(APP_ID, [io]).payloads != ranks:
            raise SystemExit("FATAL: drained checkpoint does not restore to original state")
    st = daemon.stats
    # Both bound terms in uncompressed bytes/s: the throttled write scaled
    # by the achieved factor, and the compressor's input rate.
    io_term = throttle / max(1.0 - st.achieved_factor, 1e-12)
    compress_term = st.bytes_in / st.compress.seconds
    bound = min(io_term, compress_term)
    fraction = total / t / bound
    log(f"  drain {total / 1e6:.2f} MB  {total / t / 1e6:.2f} MB/s  "
        f"bound {bound / 1e6:.2f} MB/s (io {io_term / 1e6:.2f}, "
        f"compress {compress_term / 1e6:.2f})  fraction {fraction:.2f}")
    return {
        "ranks": len(ranks),
        "bytes_in": total,
        "io_throttle_mbps": throttle / 1e6,
        "seconds": round(t, 4),
        "drain_mbps": round(total / t / 1e6, 2),
        "achieved_factor": round(st.achieved_factor, 4),
        "io_term_mbps": round(io_term / 1e6, 2),
        "compress_term_mbps": round(compress_term / 1e6, 2),
        "bound_mbps": round(bound / 1e6, 2),
        "bound_fraction": round(fraction, 3),
        "write_mbps": round(st.write.rate / 1e6, 2),
        "stall_seconds": round(st.stall_seconds, 4),
        "restore_identical": True,
    }


def measure(quick: bool) -> dict:
    payloads = _corpus(quick)
    log(f"corpus: {len(payloads)} payloads, "
        f"{sum(len(p) for p in payloads.values()) / 1e6:.1f} MB total")
    lz4_rows, lz4_aggregate = bench_lz4(payloads)
    return {
        "benchmark": "checkpoint data path: lz4 kernels, zero_rle, NDP drain vs its bound",
        "quick": quick,
        "lz4": lz4_rows,
        "lz4_aggregate": lz4_aggregate,
        "zero_rle": bench_zero_rle(payloads),
        "drain": bench_drain(payloads, quick),
    }


def main(argv: list[str] | None = None) -> int:
    ap = parser(__doc__, "BENCH_runtime_throughput.json")
    ap.add_argument("--quick", action="store_true",
                    help="small corpus (2 apps, 256 KiB synthetics) for smoke runs")
    args = ap.parse_args(argv)
    return run(args, lambda: measure(args.quick), GATES)


if __name__ == "__main__":
    raise SystemExit(main())
